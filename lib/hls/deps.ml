(* Dependence bookkeeping shared by the list scheduler ({!Schedule}) and
   the modulo scheduler ({!Pipeline}).  A slot is a state of a segment or
   a cycle of a pipelined iteration; the schedulers place instructions in
   program order and ask this tracker for the earliest legal slot. *)

module Ir = Mir.Ir
module Stratix = Device.Stratix
open Front.Ast

let budget = Stratix.chain_budget_ns

let inst_delay (i : Ir.inst) =
  match i with
  | Ir.Bin { op = (Shl | Shr); b = Ir.Imm _; _ } -> Stratix.binop_delay_const_shift
  | Ir.Bin { op; ty; _ } -> Stratix.binop_delay_ns op ty
  | Ir.Un { op; ty; _ } -> Stratix.unop_delay_ns op ty
  | Ir.Copy _ | Ir.Castop _ | Ir.Tap _ -> 0.0
  | Ir.Load _ | Ir.Store _ -> 1.0  (* address/data port path *)
  | Ir.Sread _ | Ir.Swrite _ -> 1.0
  | Ir.Extcall _ -> 1.0

module Regs = Hashtbl.Make (Int)

type reg = {
  mutable at : int;    (* first slot the value can be used in *)
  mutable ns : float;  (* its combinational delay into [at]; 0 = registered *)
  mutable read : int;  (* latest slot reading the register *)
  mutable written : int;  (* latest slot writing it *)
}

type mem = { mutable load : int; mutable store : int }

type t = {
  regs : reg Regs.t;
  mems : (string, mem) Hashtbl.t;
  mutable ops : Ir.ginst list array;  (* per slot, newest first *)
  mutable chain : float array;        (* per slot, worst chain end *)
  mutable horizon : int;              (* last slot in use; -1 when none *)
}

let create () =
  {
    regs = Regs.create 32;
    mems = Hashtbl.create 4;
    ops = Array.make 16 [];
    chain = Array.make 16 0.0;
    horizon = -1;
  }

let reg d r =
  match Regs.find_opt d.regs r with
  | Some x -> x
  | None ->
      let x = { at = 0; ns = 0.0; read = -1; written = -1 } in
      Regs.add d.regs r x;
      x

let mem d m =
  match Hashtbl.find_opt d.mems m with
  | Some x -> x
  | None ->
      let x = { load = -1; store = -1 } in
      Hashtbl.add d.mems m x;
      x

(* Registers an instruction depends on: its guard, then its uses. *)
let iter_deps f (g : Ir.ginst) =
  (match g.Ir.guard with Some (r, _) -> f r | None -> ());
  Ir.iter_uses f g.Ir.i

let avail d r =
  match Regs.find_opt d.regs r with Some x -> (x.at, x.ns) | None -> (0, 0.0)

let ready d g =
  let s = ref 0 and t = ref 0.0 in
  iter_deps
    (fun r ->
      let s', t' = avail d r in
      if s' > !s then begin s := s'; t := t' end
      else if s' = !s && t' > !t then t := t')
    g;
  (!s, !t)

let registered d g =
  let s, t = ready d g in
  if t > 0.0 then s + 1 else s

(* Anti-dependences: a write must not land before a slot where the
   register was read (the same slot is fine: in-slot execution is in
   program order) nor at or before a slot where it was written. *)
let war_floor d dst =
  match Regs.find_opt d.regs dst with
  | Some x -> Stdlib.max x.read (x.written + 1)
  | None -> 0

let rec first free s = if free s then s else first free (s + 1)

let alu_slot d (g : Ir.ginst) ~free =
  let delay = inst_delay g.Ir.i in
  let s, t = ready d g in
  let s, t =
    match Ir.dst_of g.Ir.i with
    | Some dst ->
        let floor = war_floor d dst in
        if floor > s then (floor, 0.0) else (s, t)
    | None -> (s, t)
  in
  let s = first free s in
  if t +. delay <= budget then (s, t +. delay) else (first free (s + 1), delay)

let mem_floor d (g : Ir.ginst) =
  (* the M4K registers its address at the clock edge, so address
     computation may chain into the access's slot *)
  let s0 =
    let s, t = ready d g in
    if t +. 1.0 <= budget then s else s + 1
  in
  match g.Ir.i with
  | Ir.Load { dst; mem = m; _ } ->
      Stdlib.max (Stdlib.max s0 (war_floor d dst)) ((mem d m).store + 1)
  | Ir.Store { mem = m; _ } ->
      (* a store passes neither an earlier store nor an earlier load *)
      let x = mem d m in
      Stdlib.max (Stdlib.max s0 (x.store + 1)) x.load
  | _ -> invalid_arg "Deps.mem_floor"

let issue_floor d (g : Ir.ginst) =
  let s = registered d g in
  match Ir.dst_of g.Ir.i with Some dst -> Stdlib.max s (war_floor d dst) | None -> s

(* A tap is a latch-enable on existing registers: it fires on the clock
   edge where its last operand commits, so it never needs a slot of its
   own.  An operand-less tap (a pure code marker, e.g. for timing
   assertions or fault-site markers) anchors to the last slot in use. *)
let tap_slot d (g : Ir.ginst) =
  if g.Ir.guard = None && Ir.uses_of g.Ir.i = [] then Stdlib.max 0 d.horizon
  else begin
    let s = ref 0 in
    iter_deps
      (fun r ->
        let s', t' = avail d r in
        let commit = if t' > 0.0 then s' else Stdlib.max 0 (s' - 1) in
        if commit > !s then s := commit)
      g;
    !s
  end

let extend d s =
  if s > d.horizon then d.horizon <- s;
  let n = Array.length d.ops in
  if s >= n then begin
    let n' = Stdlib.max (2 * n) (s + 1) in
    let ops = Array.make n' [] and chain = Array.make n' 0.0 in
    Array.blit d.ops 0 ops 0 n;
    Array.blit d.chain 0 chain 0 n;
    d.ops <- ops;
    d.chain <- chain
  end

let place d (g : Ir.ginst) s ~ns =
  extend d s;
  d.ops.(s) <- g :: d.ops.(s);
  if ns > d.chain.(s) then d.chain.(s) <- ns;
  iter_deps (fun r -> let x = reg d r in if s > x.read then x.read <- s) g;
  (match Ir.dst_of g.Ir.i with Some r -> (reg d r).written <- s | None -> ());
  match g.Ir.i with
  | Ir.Load { mem = m; _ } -> let x = mem d m in if s > x.load then x.load <- s
  | Ir.Store { mem = m; _ } -> let x = mem d m in if s > x.store then x.store <- s
  | _ -> ()

let define d r s ns =
  let x = reg d r in
  x.at <- s;
  x.ns <- ns

let horizon d = d.horizon

let ops d s = if s < Array.length d.ops then List.rev d.ops.(s) else []

let chain d s = if s < Array.length d.chain then d.chain.(s) else 0.0

let busy d s =
  s < Array.length d.ops
  && List.exists (fun (g : Ir.ginst) -> match g.Ir.i with Ir.Tap _ -> false | _ -> true) d.ops.(s)
