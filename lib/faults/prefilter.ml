(** Static mutant pre-filter.

    Before the campaign simulates a mutant, a forward abstract
    interpretation of the (unfaulted) baseline IR — over the same
    interval x constancy x parity domain the assertion verifier uses —
    tries to prove the mutant can never diverge from the baseline:

    - {b Equivalent}: the rewrite is an arithmetic identity on every
      value that can reach the site.  A narrow-compare pad is an
      identity when both operands provably fit the mask ([v & mask = v]
      for [0 <= v <= mask]); a stuck-at-1 bit is an identity when the
      written value provably has the bit set (bit 0 via parity, higher
      bits via constancy), and dually for stuck-at-0.
    - {b Dead}: the site is statically unreachable (a branch or loop
      whose condition the domain decides), so the mutant never
      activates and behaves exactly like the baseline.
    - {b Unknown}: simulate it.

    Streams and extern calls are treated as unconstrained (top),
    memories as a flow-insensitive join of their ROM image, the
    power-on zero fill and every stored value, and loops run to a
    widened fixpoint.  FIFO back-pressure only ever {e removes} concrete
    executions, so it cannot defeat the over-approximation.

    {b The verdicts are not sound.}  Every register starts at [0],
    process parameters included, but the engine loads parameters from
    the workload: a loop bounded by a parameter (fir's
    [for (i = 0; i < n; ...)]) is analysed as never entered, and the
    sites in and after it are claimed [Dead].  On the bundled sweep 120
    of the 164 pruned mutant runs simulate to another outcome or drained
    output than the clean design, 8 of them claimed [Equivalent];
    starting parameters at their type's range leaves no claim.  The fix
    moves the benchmark's [pruned_static] count, so it waits for a
    benchmark change (ROADMAP, "Audit every static shortcut").

    The analysis is input-independent and runs identically in
    fork-point and from-reset campaign modes, which the CI
    classification-identity gate relies on. *)

module Ir = Mir.Ir
module D = Analysis.Domain
open Front.Ast

type verdict = Equivalent | Dead | Unknown

let verdict_name = function
  | Equivalent -> "equivalent"
  | Dead -> "dead"
  | Unknown -> "unknown"

(* --- Site observations ------------------------------------------------------ *)

(* What the interpreter records at each syntactic fault site: whether
   any abstractly-reachable state executes it, and the join of the
   operand values it sees there. *)
type obs = { mutable visited : bool; mutable a : D.t; mutable b : D.t }

(* A process's observation cells, keyed by the (pass, ordinal) that
   {!Fault.walk} gives each site.  The interpreter, which visits in
   execution order and possibly many times, finds a cell by the physical
   identity of the site instruction: [by_ginst] for segment sites,
   [by_loop] for the bound compare of a loop, which counts as visited
   whenever its loop head is reached.  Bodies are small, so association
   lists are fine. *)
type tags = {
  cells : (Fault.pass * int, obs) Hashtbl.t;
  mutable by_ginst : (Ir.ginst * obs) list;
  mutable by_loop : (Ir.ginst * obs) list;
}

(* --- Abstract interpreter --------------------------------------------------- *)

(* The default only matters for registers missing from the allocation
   list (which well-formed IR does not produce). *)
let widest_ty = Tint (Signed, W64)

let analyze_proc (prog : Ir.program_ir) (p : Ir.proc_ir) : tags =
  let tags = { cells = Hashtbl.create 16; by_ginst = []; by_loop = [] } in
  List.iter
    (fun pass ->
      ignore
        (Fault.walk pass p (fun k g ->
             let o = { visited = false; a = D.Bot; b = D.Bot } in
             Hashtbl.replace tags.cells (pass, k) o;
             (match pass with
             | Fault.Loops -> tags.by_loop <- (g, o) :: tags.by_loop
             | _ -> tags.by_ginst <- (g, o) :: tags.by_ginst);
             [ g ])))
    (Fault.passes prog);
  let nregs = List.fold_left (fun m (r, _) -> Stdlib.max m (r + 1)) 1 p.Ir.regs in
  let reg_ty = Array.make nregs widest_ty in
  List.iter (fun (r, (info : Ir.reg_info)) -> reg_ty.(r) <- info.Ir.rty) p.Ir.regs;
  let elem_ty stream =
    match List.find_opt (fun (s : stream_decl) -> s.sname = stream) prog.Ir.streams with
    | Some s -> s.elem
    | None -> widest_ty
  in
  (* Flow-insensitive memory summary: power-on zero fill, the ROM
     image, and every stored value, joined. *)
  let mems : (string, D.t ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (m : Ir.mem) ->
      let init =
        match m.Ir.rom_init with
        | None -> D.const 0L
        | Some image ->
            let v = List.fold_left (fun acc x -> D.join acc (D.const x)) D.Bot image in
            (* slots past the image keep the zero fill *)
            if List.length image < m.Ir.length then D.join v (D.const 0L) else v
      in
      Hashtbl.replace mems m.Ir.mname (ref init))
    p.Ir.mems;
  let mem_cell m =
    match Hashtbl.find_opt mems m with Some r -> !r | None -> D.top
  in
  let mem_store m v =
    match Hashtbl.find_opt mems m with Some r -> r := D.join !r v | None -> ()
  in
  let ev regs = function Ir.Reg r -> regs.(r) | Ir.Imm n -> D.const n in
  (* The engine wraps a committed write to the register's declared type,
     but same-state readers observe the raw result — join both views. *)
  let assign regs ~weak dst v =
    let v = D.join v (D.cast ~to_ty:reg_ty.(dst) v) in
    regs.(dst) <- (if weak then D.join regs.(dst) v else v)
  in
  let record regs (g : Ir.ginst) =
    match List.assq_opt g tags.by_ginst with
    | None -> ()
    | Some o ->
        o.visited <- true;
        (match g.Ir.i with
        | Ir.Bin { a; b; _ } ->
            o.a <- D.join o.a (ev regs a);
            o.b <- D.join o.b (ev regs b)
        | Ir.Swrite { stream; v } ->
            (* bit faults apply to the value as wrapped onto the wire *)
            o.a <- D.join o.a (D.cast ~to_ty:(elem_ty stream) (ev regs v))
        | _ -> ())
  in
  let exec_ginst regs (g : Ir.ginst) =
    let guard =
      match g.Ir.guard with
      | None -> `Run
      | Some (gr, want) -> (
          match D.truth regs.(gr) with
          | D.True -> if want then `Run else `Skip
          | D.False -> if want then `Skip else `Run
          | D.Maybe -> `Maybe)
    in
    if guard <> `Skip then begin
      let weak = guard = `Maybe in
      record regs g;
      match g.Ir.i with
      | Ir.Bin { dst; op; a; b; ty } ->
          assign regs ~weak dst (D.binop op ty (ev regs a) (ev regs b))
      | Ir.Un { dst; op; a; ty } -> assign regs ~weak dst (D.unop op ty (ev regs a))
      | Ir.Copy { dst; src; ty } ->
          assign regs ~weak dst (D.cast ~to_ty:ty (ev regs src))
      | Ir.Castop { dst; src; to_ty; _ } ->
          assign regs ~weak dst (D.cast ~to_ty (ev regs src))
      | Ir.Load { dst; mem; _ } -> assign regs ~weak dst (mem_cell mem)
      | Ir.Store { mem; v; _ } -> mem_store mem (ev regs v)
      | Ir.Sread { dst; stream } ->
          assign regs ~weak dst (D.top_of_ty (elem_ty stream))
      | Ir.Swrite _ -> ()
      | Ir.Extcall { dst; _ } -> assign regs ~weak dst D.top
      | Ir.Tap _ -> ()
    end
  in
  let join_regs a b = Array.map2 D.join a b in
  let widen_regs old next = Array.mapi (fun i o -> D.widen reg_ty.(i) o next.(i)) old in
  let equal_regs a b =
    try Array.for_all2 D.equal a b with Invalid_argument _ -> false
  in
  let join_state a b =
    match (a, b) with
    | None, s | s, None -> s
    | Some x, Some y -> Some (join_regs x y)
  in
  let rec exec_body st body = List.fold_left exec_item st body
  and exec_item st item =
    match st with
    | None -> None
    | Some regs -> (
        match item with
        | Ir.Straight insts ->
            List.iter (exec_ginst regs) insts;
            st
        | Ir.If_else { cond_insts; cond; then_; else_ } ->
            List.iter (exec_ginst regs) cond_insts;
            let tr = D.truth regs.(cond) in
            let st_t =
              if tr <> D.False then exec_body (Some (Array.copy regs)) then_
              else None
            in
            let st_e =
              if tr <> D.True then exec_body (Some (Array.copy regs)) else_
              else None
            in
            join_state st_t st_e
        | Ir.Loop { cond_insts; cond; body; step_insts; _ } ->
            let loop_obs = List.find_map (fun g -> List.assq_opt g tags.by_loop) cond_insts in
            let head = ref (Array.copy regs) in
            let exit_st = ref None in
            let iters = ref 0 in
            let continue_ = ref true in
            (* Widening after a few precise rounds drives the head to
               the domain's type bounds, so this terminates; the count
               cap is pure defense. *)
            while !continue_ && !iters < 64 do
              incr iters;
              let s = Array.copy !head in
              List.iter (exec_ginst s) cond_insts;
              Option.iter (fun o -> o.visited <- true) loop_obs;
              exit_st := join_state !exit_st (Some (Array.copy s));
              match D.truth s.(cond) with
              | D.False -> continue_ := false
              | D.True | D.Maybe -> (
                  match exec_body (Some s) body with
                  | None -> continue_ := false
                  | Some s2 ->
                      List.iter (exec_ginst s2) step_insts;
                      let joined = join_regs !head s2 in
                      let next =
                        if !iters >= 3 then widen_regs !head joined else joined
                      in
                      if equal_regs next !head then continue_ := false
                      else head := next)
            done;
            if !iters >= 64 then begin
              (* did not converge (should be unreachable): run one
                 all-top round so inner observations over-approximate *)
              let s = Array.map (fun _ -> D.top) !head in
              List.iter (exec_ginst s) cond_insts;
              Option.iter (fun o -> o.visited <- true) loop_obs;
              ignore (exec_body (Some (Array.copy s)) body);
              exit_st := join_state !exit_st (Some s)
            end;
            !exit_st)
  in
  (* parameters start at 0 too, not at the workload's value: the
     unsoundness the header records *)
  let init = Array.init nregs (fun _ -> D.const 0L) in
  ignore (exec_body (Some init) p.Ir.body);
  tags

(* --- Verdicts --------------------------------------------------------------- *)

let bit_provably_set (v : D.t) bit =
  match v with
  | D.Bot -> false
  | D.Itv i -> (
      (bit = 0 && i.D.parity = D.Podd)
      ||
      match D.const_value v with
      | Some c -> Int64.logand c (Int64.shift_left 1L bit) <> 0L
      | None -> false)

let bit_provably_clear (v : D.t) bit =
  match v with
  | D.Bot -> false
  | D.Itv i -> (
      (bit = 0 && i.D.parity = D.Peven)
      ||
      match D.const_value v with
      | Some c -> Int64.logand c (Int64.shift_left 1L bit) = 0L
      | None -> false)

let verdict_for (tags : tags) (f : Fault.t) : verdict =
  let _, pass, select = Fault.target f in
  match select with
  | Fault.All -> Unknown (* not single-site, never pruned *)
  | Fault.Nth k -> (
      match Hashtbl.find_opt tags.cells (pass, k) with
      | None -> Unknown
      | Some o when not o.visited -> Dead
      | Some o -> (
          match f with
          | Fault.Narrow_compare { mask_bits; _ } ->
              (* 0 <= v <= mask implies v & mask = v at any operand type *)
              let mask = Int64.sub (Int64.shift_left 1L mask_bits) 1L in
              let range = D.join (D.const 0L) (D.const mask) in
              if D.leq o.a range && D.leq o.b range then Equivalent else Unknown
          | Fault.Stuck_stream_bit { bit; stuck_to; _ } ->
              if if stuck_to then bit_provably_set o.a bit else bit_provably_clear o.a bit
              then Equivalent
              else Unknown
          | _ -> Unknown))

(* --- Hang-class verdicts ----------------------------------------------------- *)

module Chan = Analysis.Chan
module Live = Analysis.Live
module Bound = Analysis.Bound

type hang_verdict = Certain_hang of string | Hang_unknown

(* No channel op of [ops] in [\[lo, hi)] writes a token, checks an
   assertion, or risks a trap.  Reads are fine: the tokens a divergent
   read consumes never influence whether the network blocks. *)
let clean_region (ops : Chan.op array) lo hi =
  let ok = ref true in
  for i = lo to hi - 1 do
    match ops.(i) with
    | Chan.Write _ | Chan.Assert_op | Chan.Trap -> ok := false
    | Chan.Read _ -> ()
  done;
  !ok

let lcp_len (a : Chan.op array) (b : Chan.op array) =
  let n = Stdlib.min (Array.length a) (Array.length b) in
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i

(* Re-run the token network with [fproc]'s trace replaced by
   [mutant_ops], and decide whether the stuck state is a {e certain}
   hang: the faulted process's executed divergence (ops past the
   longest common prefix with its baseline trace, strictly before its
   block point) must be write-, assert- and trap-free, so the mutant
   run is observationally the baseline run right up to the global
   block — the engine can only report a hang. *)
let judge_mutant ~streams ~feeds ~drains ~base_traces ~fproc ~mutant_ops =
  let mutant_traces =
    List.map
      (fun (p, ops) -> if p = fproc then (p, mutant_ops) else (p, ops))
      base_traces
  in
  match Live.run_network ~streams ~feeds ~drains mutant_traces with
  | Error _ | Ok (Live.Completed, _) -> Hang_unknown
  | Ok (Live.Stuck w, states) -> (
      match List.find_opt (fun s -> s.Live.ps_proc = fproc) states with
      | None -> Hang_unknown
      | Some ps ->
          let base = Array.of_list (List.assoc fproc base_traces) in
          let mut = Array.of_list mutant_ops in
          let lcp = lcp_len base mut in
          (* a completed faulted process ran its whole divergent tail *)
          let hi = if ps.Live.ps_done then Array.length mut else ps.Live.ps_pos in
          if hi > lcp && not (clean_region mut lcp hi) then Hang_unknown
          else Certain_hang (Live.witness_to_string w))

let hang_verdicts ~(params : (string * (string * int64) list) list)
    ~(feeds : (string * int) list) ~(drains : string list)
    (prog : program) (faults : Fault.t list) : hang_verdict list =
  let unknown_all () = List.map (fun _ -> Hang_unknown) faults in
  let feeds = List.map (fun (s, n) -> (s, Stdlib.max 0 n)) feeds in
  let env_of pname = Option.value ~default:[] (List.assoc_opt pname params) in
  let base =
    let rec collect acc = function
      | [] -> Some (List.rev acc)
      | (p : proc) :: rest -> (
          match Chan.trace ~env:(env_of p.pname) prog p with
          | Ok t -> collect ((p.pname, t.Chan.t_ops) :: acc) rest
          | Error _ -> None)
    in
    collect [] prog.procs
  in
  match base with
  | None -> unknown_all ()
  | Some base_traces ->
      (* the unfaulted network must provably complete: every certain-hang
         argument is relative to a baseline run that finishes *)
      let base_completes =
        match Live.run_network ~streams:prog.streams ~feeds ~drains base_traces with
        | Ok (Live.Completed, _) -> true
        | _ -> false
      in
      if not base_completes then unknown_all ()
      else
        let judge (f : Fault.t) : hang_verdict =
          match f with
          | Fault.Drop_stream_write { fproc; stream; select = Fault.Nth k; _ } -> (
              match List.assoc_opt fproc base_traces with
              | None -> Hang_unknown
              | Some ops ->
                  (* the guard suppresses only the pushes: the process
                     computes baseline values throughout, so the prune
                     is sound exactly when the dropped tokens are a
                     suffix of the stream's write sequence (readers then
                     consume a value-prefix of the baseline's tokens) *)
                  let first_drop = ref (-1) and kept_after = ref false in
                  List.iteri
                    (fun i op ->
                      match op with
                      | Chan.Write (s, j) when s = stream ->
                          if j = k then (if !first_drop < 0 then first_drop := i)
                          else if !first_drop >= 0 then kept_after := true
                      | _ -> ())
                    ops;
                  if !first_drop < 0 || !kept_after then Hang_unknown
                  else
                    let mutant_ops =
                      List.filter
                        (fun op ->
                          match op with
                          | Chan.Write (s, j) -> not (s = stream && j = k)
                          | _ -> true)
                        ops
                    in
                    judge_mutant ~streams:prog.streams ~feeds ~drains
                      ~base_traces ~fproc ~mutant_ops)
          | Fault.Loop_bound_off_by_one { fproc; select = Fault.Nth k; delta } -> (
              match List.find_opt (fun (p : proc) -> p.pname = fproc) prog.procs with
              | None -> Hang_unknown
              | Some p -> (
                  let env = env_of fproc in
                  match List.nth_opt (Chan.loop_headers p) k with
                  | Some (Chan.For_loop (h, body)) -> (
                      match
                        (Bound.of_for ~env h body, Bound.shifted_trips ~env ~delta h body)
                      with
                      | Bound.Exact t0, Some t1 when t1 <> t0 -> (
                          match Chan.trace ~env ~trips_override:(k, t1) prog p with
                          | Error _ -> Hang_unknown
                          | Ok mt ->
                              judge_mutant ~streams:prog.streams ~feeds ~drains
                                ~base_traces ~fproc ~mutant_ops:mt.Chan.t_ops)
                      | _ -> Hang_unknown)
                  | _ -> Hang_unknown))
          | _ -> Hang_unknown
        in
        List.map judge faults

let verdicts (prog : Ir.program_ir) (faults : Fault.t list) : verdict list =
  let cache : (string, tags) Hashtbl.t = Hashtbl.create 4 in
  let obs_for pname =
    match Hashtbl.find_opt cache pname with
    | Some po -> Some po
    | None -> (
        match List.find_opt (fun (p : Ir.proc_ir) -> p.Ir.name = pname) prog.Ir.procs with
        | None -> None
        | Some p ->
            let po = analyze_proc prog p in
            Hashtbl.replace cache pname po;
            Some po)
  in
  List.map
    (fun f ->
      let fproc, _, _ = Fault.target f in
      match obs_for fproc with
      | None -> Unknown
      | Some po -> verdict_for po f)
    faults
