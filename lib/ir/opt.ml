(** Classic HLS front-end cleanups on the structured IR: constant
    folding, per-segment copy propagation, and dead-code elimination.
    These run before scheduling so that assertion instrumentation does
    not pay for temporaries the original application would not have. *)

module Value = Interp.Value
open Front.Ast

(* --- Constant folding ---------------------------------------------------- *)

(* Fold instructions whose operands are immediates.  Division keeps its
   trap semantics: a constant zero divisor is left in place so the
   hardware (and simulator) still traps. *)
let fold_inst (i : Ir.inst) : Ir.inst =
  match i with
  | Ir.Bin { dst; op; a = Imm na; b = Imm nb; ty }
    when (op <> Div && op <> Mod) || nb <> 0L ->
      let v = Value.binop op ty na nb in
      let result_ty = if is_comparison op then Tbool else ty in
      Ir.Copy { dst; src = Imm v; ty = result_ty }
  | Ir.Un { dst; op; a = Imm n; ty } ->
      Ir.Copy { dst; src = Imm (Value.unop op ty n); ty }
  | Ir.Castop { dst; src = Imm n; from_ty; to_ty } ->
      Ir.Copy { dst; src = Imm (Value.cast ~from_ty ~to_ty n); ty = to_ty }
  | other -> other

(* [List.map] that returns [l] itself when [f] changes no element, so a
   pass that rewrites nothing allocates nothing.  Elements are visited in
   order. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_shared f rest in
      if x' == x && rest' == rest then l else x' :: rest'

let rec map_body f (body : Ir.body) : Ir.body =
  map_shared
    (fun node ->
      match node with
      | Ir.Straight insts ->
          let insts' = f insts in
          if insts' == insts then node else Ir.Straight insts'
      | Ir.If_else r ->
          let cond_insts = f r.cond_insts in
          let then_ = map_body f r.then_ in
          let else_ = map_body f r.else_ in
          if cond_insts == r.cond_insts && then_ == r.then_ && else_ == r.else_ then node
          else Ir.If_else { r with cond_insts; then_; else_ }
      | Ir.Loop r ->
          let cond_insts = f r.cond_insts in
          let body = map_body f r.body in
          let step_insts = f r.step_insts in
          if cond_insts == r.cond_insts && body == r.body && step_insts == r.step_insts then node
          else Ir.Loop { r with cond_insts; body; step_insts })
    body

let const_fold (p : Ir.proc_ir) : Ir.proc_ir =
  let fold_seg insts =
    map_shared (fun g -> let i = fold_inst g.Ir.i in if i == g.Ir.i then g else { g with Ir.i }) insts
  in
  { p with Ir.body = map_body fold_seg p.body }

(* --- Copy propagation (within straight segments) ------------------------- *)

(* Within one segment, after [r = src] every later use of [r] can read
   [src] instead, until either side is redefined.  Registers written by
   guarded instructions are never propagated (the write may not happen). *)
let propagate_segment env readers (insts : Ir.ginst list) : Ir.ginst list =
  Hashtbl.clear env;
  Hashtbl.clear readers;
  let invalidate r =
    Hashtbl.remove env r;
    (* drop any mapping whose source was r *)
    match Hashtbl.find_opt readers r with
    | None -> ()
    | Some ks ->
        Hashtbl.remove readers r;
        List.iter
          (fun k ->
            match Hashtbl.find_opt env k with
            | Some (Ir.Reg s) when s = r -> Hashtbl.remove env k
            | Some _ | None -> ())
          ks
  in
  let bind dst src =
    Hashtbl.replace env dst src;
    match src with
    | Ir.Reg s ->
        let ks = Option.value ~default:[] (Hashtbl.find_opt readers s) in
        Hashtbl.replace readers s (dst :: ks)
    | Ir.Imm _ -> ()
  in
  let subst op = match op with Ir.Reg r -> (try Hashtbl.find env r with Not_found -> op) | Ir.Imm _ -> op in
  let rewrite (i : Ir.inst) : Ir.inst =
    match i with
    | Ir.Bin b -> Ir.Bin { b with a = subst b.a; b = subst b.b }
    | Ir.Un u -> Ir.Un { u with a = subst u.a }
    | Ir.Copy c -> Ir.Copy { c with src = subst c.src }
    | Ir.Castop c -> Ir.Castop { c with src = subst c.src }
    | Ir.Load l -> Ir.Load { l with addr = subst l.addr }
    | Ir.Store s -> Ir.Store { s with addr = subst s.addr; v = subst s.v }
    | Ir.Sread _ -> i
    | Ir.Swrite w -> Ir.Swrite { w with v = subst w.v }
    | Ir.Extcall e -> Ir.Extcall { e with args = List.map subst e.args }
    | Ir.Tap t -> Ir.Tap { t with args = List.map subst t.args }
  in
  map_shared
    (fun (g : Ir.ginst) ->
      (* nothing to substitute until a copy has been seen *)
      let i = if Hashtbl.length env = 0 then g.Ir.i else rewrite g.Ir.i in
      (match Ir.dst_of i with
      | Some d ->
          invalidate d;
          (match (i, g.Ir.guard) with
          | Ir.Copy { dst; src; _ }, None -> bind dst src
          | _ -> ())
      | None -> ());
      if i == g.Ir.i then g else { g with Ir.i })
    insts

let copy_prop (p : Ir.proc_ir) : Ir.proc_ir =
  (* one pair of tables for the whole process, emptied per segment *)
  let env : (Ir.reg, Ir.operand) Hashtbl.t = Hashtbl.create 8 in
  (* [readers r]: registers mapped to [Reg r] when they were bound.  An
     entry goes stale when its register is rebound or dropped, so it is
     checked against [env] before it is acted on. *)
  let readers : (Ir.reg, Ir.reg list) Hashtbl.t = Hashtbl.create 8 in
  { p with Ir.body = map_body (propagate_segment env readers) p.body }

(* --- Dead code elimination ------------------------------------------------ *)

(* A pure instruction whose destination register is never read anywhere
   in the process (registers are global to the FSMD) is dead.  Iterates
   to a fixpoint. *)
let has_side_effect = function
  | Ir.Store _ | Ir.Swrite _ | Ir.Sread _ | Ir.Tap _ | Ir.Extcall _ -> true
  | Ir.Bin { op = Div; b = Imm 0L; _ } | Ir.Bin { op = Mod; b = Imm 0L; _ } -> true
  | Ir.Bin { op = Div | Mod; b = Reg _; _ } -> true  (* may trap *)
  | Ir.Bin _ | Ir.Un _ | Ir.Copy _ | Ir.Castop _ | Ir.Load _ -> false

let dce (p : Ir.proc_ir) : Ir.proc_ir =
  let live_regs body =
    let live = Hashtbl.create 32 in
    Ir.iter_segments
      (fun insts ->
        List.iter
          (fun (g : Ir.ginst) ->
            Option.iter (fun (r, _) -> Hashtbl.replace live r ()) g.Ir.guard;
            Ir.iter_uses (fun r -> Hashtbl.replace live r ()) g.Ir.i)
          insts)
      body;
    (* loop conditions are always live *)
    let rec conds (b : Ir.body) =
      List.iter
        (function
          | Ir.Straight _ -> ()
          | Ir.If_else { cond; then_; else_; _ } ->
              Hashtbl.replace live cond ();
              conds then_;
              conds else_
          | Ir.Loop { cond; body; _ } ->
              Hashtbl.replace live cond ();
              conds body)
        b
    in
    conds body;
    live
  in
  let dead live (g : Ir.ginst) =
    (not (has_side_effect g.Ir.i))
    && match Ir.dst_of g.Ir.i with Some d -> not (Hashtbl.mem live d) | None -> false
  in
  (* A sweep that would drop nothing is the fixpoint: it is detected by
     a walk that allocates nothing, not by rebuilding the body and
     comparing it structurally with the old one. *)
  let rec fix body n =
    if n = 0 then body
    else
      let live = live_regs body in
      let any_dead = ref false in
      Ir.iter_segments (fun insts -> if List.exists (dead live) insts then any_dead := true) body;
      if not !any_dead then body
      else fix (map_body (List.filter (fun g -> not (dead live g))) body) (n - 1)
  in
  { p with Ir.body = fix p.body 10 }

(** Standard pass pipeline. *)
let optimize (p : Ir.proc_ir) : Ir.proc_ir = dce (copy_prop (const_fold p))

let optimize_program (p : Ir.program_ir) : Ir.program_ir =
  { p with Ir.procs = List.map optimize p.procs }
