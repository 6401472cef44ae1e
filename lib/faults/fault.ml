(** Fault injection: reproduce the hardware-translation bugs of the
    paper's Section 5.1 as IR-to-IR rewrites applied between lowering
    and scheduling.

    The software-simulation path ({!Interp}) interprets the *source*, so
    it never sees these faults — recreating the paper's headline
    scenario: assertions pass in software simulation and fail (or expose
    a hang) only in circuit.

    - [Narrow_compare] reproduces the erroneous narrow comparison of
      Figure 3: Impulse-C compiled a 64-bit comparison of two counters
      as a 5-bit comparison, turning [4294967286 > 4294967296] (false)
      into [22 > 0] (true).
    - [Read_for_write] reproduces the Triple-DES hang: a memory write
      is translated as a read, so a flag never lands in block RAM and a
      dependent loop spins forever in hardware. *)

module Ir = Mir.Ir
open Front.Ast

type selector = All | Nth of int  (** which matching site to corrupt (0-based) *)

type t =
  | Narrow_compare of { fproc : string; select : selector; mask_bits : int }
  | Read_for_write of { fproc : string; select : selector }
  | Stuck_stream_bit of { fproc : string; stream : string; select : selector; bit : int; stuck_to : bool }
  | Drop_stream_write of { fproc : string; stream : string; select : selector }
  | Loop_bound_off_by_one of { fproc : string; select : selector; delta : int64 }

(** Human-readable fault-kind name (campaign report rows). *)
let kind_name = function
  | Narrow_compare _ -> "narrow-compare"
  | Read_for_write _ -> "read-for-write"
  | Stuck_stream_bit _ -> "stuck-stream-bit"
  | Drop_stream_write _ -> "drop-stream-write"
  | Loop_bound_off_by_one _ -> "loop-off-by-one"

let describe = function
  | Narrow_compare { fproc; select; mask_bits } ->
      Printf.sprintf "narrow-compare(%s%s, %d bits)" fproc
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
        mask_bits
  | Read_for_write { fproc; select } ->
      Printf.sprintf "read-for-write(%s%s)" fproc
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
  | Stuck_stream_bit { fproc; stream; select; bit; stuck_to } ->
      Printf.sprintf "stuck-bit(%s.%s%s, bit %d = %d)" fproc stream
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
        bit
        (if stuck_to then 1 else 0)
  | Drop_stream_write { fproc; stream; select } ->
      Printf.sprintf "drop-write(%s.%s%s)" fproc stream
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
  | Loop_bound_off_by_one { fproc; select; delta } ->
      Printf.sprintf "loop-off-by-one(%s%s, %+Ld)" fproc
        (match select with All -> "" | Nth k -> Printf.sprintf "#%d" k)
        delta

(* --- Fault sites --------------------------------------------------------------- *)

(* Every notion of "the k-th site of a kind" goes through {!walk}: the
   site list, the legacy rewrites, the padded design and the static
   pre-filter's observation table all number sites with it. *)

type pass = Compares | Stores | Writes of string | Loops

let passes (prog : Ir.program_ir) =
  (Compares :: Stores :: List.map (fun (d : stream_decl) -> Writes d.sname) prog.Ir.streams)
  @ [ Loops ]

let target = function
  | Narrow_compare { fproc; select; _ } -> (fproc, Compares, select)
  | Read_for_write { fproc; select } -> (fproc, Stores, select)
  | Stuck_stream_bit { fproc; stream; select; _ } | Drop_stream_write { fproc; stream; select } ->
      (fproc, Writes stream, select)
  | Loop_bound_off_by_one { fproc; select; _ } -> (fproc, Loops, select)

(* Stores into replica memories (Section 3.2 mirrors) are assertion
   plumbing added by the optimizer, not application stores: they are no
   site, so [Nth k] names the same application store under every
   synthesis strategy. *)
let is_site pass (p : Ir.proc_ir) (g : Ir.ginst) =
  match (pass, g.Ir.i) with
  | Compares, Ir.Bin { op = Lt | Le | Gt | Ge; ty = Tint (_, W64); _ } -> true
  | Stores, Ir.Store { mem; _ } -> (
      match Ir.find_mem p mem with Some m -> m.Ir.mirror_of = None | None -> true)
  | Writes s, Ir.Swrite { stream; _ } -> stream = s
  | _ -> false

(* Segment passes number sites in body order, except that an [if] is
   visited else branch, then branch, condition, and a loop step block,
   body, condition.  The loop pass numbers every loop pre-order (else
   branch before then branch) and calls [f] only for loops with a
   site. *)
let walk pass (p : Ir.proc_ir) f =
  let n = ref 0 in
  let next () =
    let k = !n in
    incr n;
    k
  in
  let seg insts =
    List.concat_map (fun g -> if is_site pass p g then f (next ()) g else [ g ]) insts
  in
  let rec segments body =
    List.map
      (function
        | Ir.Straight insts -> Ir.Straight (seg insts)
        | Ir.If_else r ->
            let else_ = segments r.else_ in
            let then_ = segments r.then_ in
            Ir.If_else { r with cond_insts = seg r.cond_insts; then_; else_ }
        | Ir.Loop r ->
            let step_insts = seg r.step_insts in
            let body = segments r.body in
            Ir.Loop { r with cond_insts = seg r.cond_insts; body; step_insts })
      body
  in
  (* the site of a loop is the first ordering compare defining [cond] *)
  let rec bound cond fk = function
    | [] -> []
    | ({ Ir.i = Ir.Bin { dst; op = Lt | Le | Gt | Ge; _ }; _ } as g) :: rest when dst = cond ->
        fk g @ rest
    | g :: rest -> g :: bound cond fk rest
  in
  let rec loops body =
    List.map
      (function
        | Ir.Straight _ as it -> it
        | Ir.If_else r ->
            let else_ = loops r.else_ in
            Ir.If_else { r with then_ = loops r.then_; else_ }
        | Ir.Loop r ->
            let cond_insts = bound r.cond (f (next ())) r.cond_insts in
            Ir.Loop { r with cond_insts; body = loops r.body })
      body
  in
  match pass with Loops -> loops p.Ir.body | _ -> segments p.Ir.body

let stream_elem (prog : Ir.program_ir) s =
  match List.find_opt (fun (d : stream_decl) -> d.sname = s) prog.Ir.streams with
  | Some d -> d.elem
  | None -> int32_t

let faults_at prog pass fproc k =
  let select = Nth k in
  match pass with
  | Compares -> [ Narrow_compare { fproc; select; mask_bits = 5 } ]
  | Stores -> [ Read_for_write { fproc; select } ]
  | Writes stream ->
      (* a mid-range bit stuck at 1 (corrupts any plausible payload) and
         a low bit stuck at 0: the two stuck-at polarities fail
         differently downstream *)
      let width =
        match stream_elem prog stream with Tint (_, w) -> bits_of_width w | Tbool -> 1 | _ -> 32
      in
      [
        Stuck_stream_bit { fproc; stream; select; bit = Stdlib.max 1 (width / 2) - 1; stuck_to = true };
        Stuck_stream_bit { fproc; stream; select; bit = 0; stuck_to = false };
        Drop_stream_write { fproc; stream; select };
      ]
  | Loops ->
      (* one extra and one missing iteration are distinct bugs: the
         former over-reads (often a hang), the latter silently
         truncates *)
      [
        Loop_bound_off_by_one { fproc; select; delta = 1L };
        Loop_bound_off_by_one { fproc; select; delta = -1L };
      ]

(** Enumerate every candidate fault site of a lowered program as a list
    of concrete single-site faults ([Nth]-selected), one per matching
    instruction or loop, across all hardware processes.

    Enumerate against the {e baseline}-strategy IR: the counting rules
    (application stores only, per-stream anchoring, loops-only
    pre-order) keep each ordinal naming the same source construct under
    the instrumented strategies, so one site list drives the whole
    campaign. *)
let sites (prog : Ir.program_ir) : t list =
  List.concat_map
    (fun (p : Ir.proc_ir) ->
      if p.Ir.kind <> Hardware then []
      else
        List.concat_map
          (fun pass ->
            let acc = ref [] in
            ignore (walk pass p (fun k g -> acc := faults_at prog pass p.Ir.name k :: !acc; [ g ]));
            List.concat (List.rev !acc))
          (passes prog))
    prog.Ir.procs

(* Fresh registers are numbered after the process's own and appended to
   its allocation list in creation order. *)
type regs = { mutable next : int; mutable added : (Ir.reg * Ir.reg_info) list }

let regs_of (p : Ir.proc_ir) =
  { next = List.fold_left (fun acc (r, _) -> Stdlib.max acc (r + 1)) 0 p.Ir.regs; added = [] }

let fresh rs ?origin rty =
  let r = rs.next in
  rs.next <- r + 1;
  rs.added <- (r, { Ir.rty; origin }) :: rs.added;
  r

let with_regs (p : Ir.proc_ir) rs body = { p with Ir.body; regs = p.Ir.regs @ List.rev rs.added }

let low_bits n = Int64.sub (Int64.shift_left 1L n) 1L

(* The legacy rewrite of one site: the instructions the faulty
   translation emits in its place. *)
let rewrite prog (p : Ir.proc_ir) rs fault (g : Ir.ginst) =
  match (fault, g.Ir.i) with
  | Narrow_compare { mask_bits; _ }, Ir.Bin { dst; op; a; b; _ } ->
      (* 4294967286 & 31 = 22 and 4294967296 & 31 = 0: the Figure 3
         numbers. *)
      let mask = low_bits mask_bits and narrow_ty = Tint (Unsigned, W64) in
      let ta = fresh rs narrow_ty and tb = fresh rs narrow_ty in
      [
        { g with Ir.i = Ir.Bin { dst = ta; op = Band; a; b = Ir.Imm mask; ty = narrow_ty } };
        { g with Ir.i = Ir.Bin { dst = tb; op = Band; a = b; b = Ir.Imm mask; ty = narrow_ty } };
        { g with Ir.i = Ir.Bin { dst; op; a = Ir.Reg ta; b = Ir.Reg tb; ty = narrow_ty } };
      ]
  | Read_for_write _, Ir.Store { mem; addr; _ } ->
      let elem = match Ir.find_mem p mem with Some m -> m.Ir.elem | None -> int32_t in
      [ { g with Ir.i = Ir.Load { dst = fresh rs elem; mem; addr } } ]
  | Stuck_stream_bit { stream; bit; stuck_to; _ }, Ir.Swrite { v; _ } ->
      (* a stream-write datapath bit wired to a constant: the written
         value passes through an OR (stuck at 1) or AND (stuck at 0)
         with a one-hot mask *)
      let elem = stream_elem prog stream in
      let tv = fresh rs elem in
      let one_hot = Int64.shift_left 1L bit in
      let op, mask = if stuck_to then (Bor, one_hot) else (Band, Int64.lognot one_hot) in
      [
        { g with Ir.i = Ir.Bin { dst = tv; op; a = v; b = Ir.Imm mask; ty = elem } };
        { g with Ir.i = Ir.Swrite { stream; v = Ir.Reg tv } };
      ]
  | Drop_stream_write _, Ir.Swrite _ ->
      (* the FIFO write-enable never asserts (the handshake still
         advances): the push is guarded on a fresh register that is
         never written and therefore stays 0 *)
      [ { g with Ir.guard = Some (fresh rs Tbool, true) } ]
  | Loop_bound_off_by_one { delta; _ }, Ir.Bin { dst; op; a; b; ty } ->
      (* the trip-count comparison sees a bound off by [delta] *)
      let pre, b' =
        match b with
        | Ir.Imm n -> ([], Ir.Imm (Int64.add n delta))
        | Ir.Reg r ->
            let tb = fresh rs ty in
            ( [ { g with Ir.i = Ir.Bin { dst = tb; op = Add; a = Ir.Reg r; b = Ir.Imm delta; ty } } ],
              Ir.Reg tb )
      in
      pre @ [ { g with Ir.i = Ir.Bin { dst; op; a; b = b'; ty } } ]
  | _ -> [ g ]

(** Apply one fault to a whole program IR. *)
let apply (fault : t) (prog : Ir.program_ir) : Ir.program_ir =
  let fproc, pass, select = target fault in
  let rewrite_proc (p : Ir.proc_ir) =
    let rs = regs_of p in
    with_regs p rs
      (walk pass p (fun k g ->
           match select with Nth n when n <> k -> [ g ] | _ -> rewrite prog p rs fault g))
  in
  {
    prog with
    Ir.procs =
      List.map (fun (p : Ir.proc_ir) -> if p.Ir.name = fproc then rewrite_proc p else p) prog.Ir.procs;
  }

let apply_all faults prog = List.fold_left (fun p f -> apply f p) prog faults

(* --- Padded instrumentation (split-stream evaluation) ---------------------- *)

(* For fork-point mutant evaluation the campaign compiles ONE design per
   (workload, strategy) with every fault site padded simultaneously,
   instead of one design per mutant.  Each pad is parameterized by fresh
   origin-named registers the program never writes; with all parameters
   at their reset value 0 every pad is an arithmetic identity, so the
   padded design behaves exactly like the original — and arming a single
   site (patching its registers) reproduces the corresponding legacy
   rewrite's semantics.  A marker tap (id [Ir.marker_base] + site index)
   placed ahead of each site reports first-activation cycles through
   {!Sim.Engine}'s [on_site] hook. *)

type site = {
  s_index : int;  (** global site index; marker id = base + index *)
  s_fault : t;    (** the equivalent legacy single-site fault *)
  s_proc : string;
  s_arm : (string * int64) list;
      (** origin-name register bindings (within [s_proc]) arming this
          mutant in the padded design *)
  s_padded : bool;
      (** false when the site could not be padded (e.g. an already-
          guarded instruction): evaluate it via the legacy path *)
}

type instrumented = {
  ip_prog : Ir.program_ir;  (** the padded program (all pads neutral) *)
  ip_sites : site list;     (** in {!sites} enumeration order *)
}

(* The origin name of the pad register arming a fault at ordinal [k];
   the two loop faults share one. *)
let pad_name k = function
  | Narrow_compare _ -> Printf.sprintf "__fault_nc_%d" k
  | Read_for_write _ -> Printf.sprintf "__fault_rfw_%d" k
  | Stuck_stream_bit { stream; stuck_to; _ } ->
      Printf.sprintf "__fault_sw_%s_%d_%s" stream k (if stuck_to then "or" else "and")
  | Drop_stream_write { stream; _ } -> Printf.sprintf "__fault_sw_%s_%d_en" stream k
  | Loop_bound_off_by_one _ -> Printf.sprintf "__fault_loop_%d" k

(* The pad register's value that reproduces the legacy rewrite. *)
let arm_value = function
  | Narrow_compare { mask_bits; _ } -> Int64.lognot (low_bits mask_bits)
  | Stuck_stream_bit { bit; stuck_to = true; _ } -> Int64.shift_left 1L bit
  | Read_for_write _ | Stuck_stream_bit _ | Drop_stream_write _ -> 1L
  | Loop_bound_off_by_one { delta; _ } -> delta

let instrument_all (prog : Ir.program_ir) : instrumented =
  let gidx = ref 0 in
  let sites_acc = ref [] in
  let instrument (p : Ir.proc_ir) =
    let fproc = p.Ir.name and rs = regs_of p in
    let add_site fault arm padded =
      let i = !gidx in
      incr gidx;
      sites_acc :=
        { s_index = i; s_fault = fault; s_proc = fproc; s_arm = arm; s_padded = padded }
        :: !sites_acc;
      i
    in
    let pad pass k (g : Ir.ginst) =
      let faults = faults_at prog pass fproc k in
      (* a guarded store, stream write or loop compare has no pad: the
         campaign evaluates its faults through {!apply} *)
      if g.Ir.guard <> None && pass <> Compares then begin
        List.iter (fun f -> ignore (add_site f [] false)) faults;
        [ g ]
      end
      else
        let names = List.map (pad_name k) faults in
        let markers =
          List.map2
            (fun f name ->
              let idx = add_site f [ (name, arm_value f) ] true in
              { g with Ir.i = Ir.Tap { id = Ir.marker_base + idx; args = [] } })
            faults names
        in
        let arm i rty = fresh rs ~origin:(List.nth names i) rty in
        markers
        @
        match (pass, g.Ir.i) with
        | Compares, Ir.Bin { dst; op; a; b; ty } ->
            (* dst = (a & ~fm) `op` (b & ~fm): fm = ~mask reproduces the
               mask_bits-bit comparison of Figure 3 (masked operands are
               non-negative, so the original signedness is equivalent to
               the legacy unsigned compare) *)
            let fm = arm 0 ty in
            let m = fresh rs ty and ta = fresh rs ty and tb = fresh rs ty in
            [
              { g with Ir.i = Ir.Un { dst = m; op = Bnot; a = Ir.Reg fm; ty } };
              { g with Ir.i = Ir.Bin { dst = ta; op = Band; a; b = Ir.Reg m; ty } };
              { g with Ir.i = Ir.Bin { dst = tb; op = Band; a = b; b = Ir.Reg m; ty } };
              { g with Ir.i = Ir.Bin { dst; op; a = Ir.Reg ta; b = Ir.Reg tb; ty } };
            ]
        | Stores, Ir.Store { mem; addr; v } ->
            (* the store and a shadow load guarded on a flag: fw = 1
               loads only (the Triple-DES mistranslation) *)
            let fw = arm 0 Tbool in
            let elem = match Ir.find_mem p mem with Some m -> m.Ir.elem | None -> int32_t in
            let dead = fresh rs elem in
            [
              { Ir.i = Ir.Store { mem; addr; v }; guard = Some (fw, false) };
              { Ir.i = Ir.Load { dst = dead; mem; addr }; guard = Some (fw, true) };
            ]
        | Writes stream, Ir.Swrite { v; _ } ->
            (* one pad group {or-mask, and-mask, enable} serves the
               stuck-at-1, stuck-at-0 and dropped-write faults *)
            let elem = stream_elem prog stream in
            let om = arm 0 elem in
            let am = arm 1 elem in
            let en = arm 2 Tbool in
            let t1 = fresh rs elem and m2 = fresh rs elem and t2 = fresh rs elem in
            [
              { g with Ir.i = Ir.Bin { dst = t1; op = Bor; a = v; b = Ir.Reg om; ty = elem } };
              { g with Ir.i = Ir.Un { dst = m2; op = Bnot; a = Ir.Reg am; ty = elem } };
              { g with Ir.i = Ir.Bin { dst = t2; op = Band; a = Ir.Reg t1; b = Ir.Reg m2; ty = elem } };
              { Ir.i = Ir.Swrite { stream; v = Ir.Reg t2 }; guard = Some (en, false) };
            ]
        | Loops, Ir.Bin { dst; op; a; b; ty } ->
            (* the compare reads bound + dr; the adjusted bound is
               materialized even for immediate bounds so arming never
               changes the schedule *)
            let dr = arm 0 ty in
            let td = fresh rs ty in
            [
              { g with Ir.i = Ir.Bin { dst = td; op = Add; a = b; b = Ir.Reg dr; ty } };
              { g with Ir.i = Ir.Bin { dst; op; a; b = Ir.Reg td; ty } };
            ]
        | _ -> [ g ]
    in
    with_regs p rs
      (List.fold_left
         (fun body pass -> walk pass { p with Ir.body } (pad pass))
         p.Ir.body (passes prog))
  in
  let procs =
    List.map (fun (p : Ir.proc_ir) -> if p.Ir.kind <> Hardware then p else instrument p) prog.Ir.procs
  in
  { ip_prog = { prog with Ir.procs }; ip_sites = List.rev !sites_acc }
