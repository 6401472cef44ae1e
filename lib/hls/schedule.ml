(** List scheduling of straight-line segments and FSMD assembly.

    The scheduler models the Impulse-C code generator's observable
    behaviour:
    - independent ALU operations chain within a state up to the target
      clock period;
    - synchronous block-RAM reads deliver data one state later and
      compete for a bounded number of ports;
    - stream handshakes occupy exclusive states and stay in program
      order;
    - an [if] evaluates its condition in dedicated state(s) — at least
      one extra cycle on every path, which is exactly the unoptimized
      assertion overhead of the paper's Table 3;
    - external HDL calls have a fixed latency with wait states. *)

module Ir = Mir.Ir

(* --- Segment scheduling ---------------------------------------------------- *)

type seg_schedule = {
  state_ops : Ir.ginst list array;
  state_chain : float array;
}

(* Greedy in-order list scheduling with operator chaining.  Later
   instructions may still land in earlier states when dependences and
   resources allow (e.g. an assertion tap load slotting into a free
   memory port — Table 3's "non-consecutive" row).  The dependence rules
   live in {!Deps}; this keeps the state policy: stream handshakes take
   exclusive states in program order, memories ration their ports per
   state, and an external call holds its unit for one state and waits out
   its latency. *)
let schedule_segment (proc : Ir.proc_ir) (seg : Ir.ginst list) : seg_schedule =
  let d = Deps.create () in
  let exclusive : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let port_use : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  let ext_use : (string * int, unit) Hashtbl.t = Hashtbl.create 4 in
  let last_stream_state = ref (-1) in
  let not_exclusive s = not (Hashtbl.mem exclusive s) in
  let ports_of m = match Ir.find_mem proc m with Some mm -> mm.Ir.ports | None -> 1 in
  let port_free m s =
    not_exclusive s && (try Hashtbl.find port_use (m, s) with Not_found -> 0) < ports_of m
  in
  (* taps are pure wire latches: they may share any state, including
     stream handshake states, and never make a state "occupied" *)
  let handshake_free s = not_exclusive s && not (Deps.busy d s) in
  List.iter
    (fun (g : Ir.ginst) ->
      match g.Ir.i with
      | Ir.Bin { dst; _ } | Ir.Un { dst; _ } | Ir.Copy { dst; _ } | Ir.Castop { dst; _ } ->
          let s, t_end = Deps.alu_slot d g ~free:not_exclusive in
          Deps.place d g s ~ns:t_end;
          Deps.define d dst s t_end
      | Ir.Load { mem; _ } | Ir.Store { mem; _ } ->
          let s = Deps.first (port_free mem) (Deps.mem_floor d g) in
          Hashtbl.replace port_use (mem, s)
            (1 + (try Hashtbl.find port_use (mem, s) with Not_found -> 0));
          Deps.place d g s ~ns:1.0;
          (match g.Ir.i with Ir.Load { dst; _ } -> Deps.define d dst (s + 1) 0.0 | _ -> ())
      | Ir.Sread _ | Ir.Swrite _ ->
          let s0 = Stdlib.max (Deps.issue_floor d g) (!last_stream_state + 1) in
          let s = Deps.first handshake_free s0 in
          Hashtbl.replace exclusive s ();
          last_stream_state := s;
          Deps.place d g s ~ns:1.0;
          (match g.Ir.i with Ir.Sread { dst; _ } -> Deps.define d dst (s + 1) 0.0 | _ -> ())
      | Ir.Extcall { dst; func; latency; _ } ->
          let s =
            Deps.first
              (fun s -> not_exclusive s && not (Hashtbl.mem ext_use (func, s)))
              (Deps.issue_floor d g)
          in
          Hashtbl.replace ext_use (func, s) ();
          Deps.place d g s ~ns:1.0;
          Deps.define d dst (s + latency) 0.0;
          (* the wait states belong to the segment, so an operand-less tap
             after the call anchors past them *)
          Deps.extend d (s + latency - 1)
      | Ir.Tap _ -> Deps.place d g (Deps.tap_slot d g) ~ns:0.0)
    seg;
  let n = Deps.horizon d + 1 in
  { state_ops = Array.init n (Deps.ops d); state_chain = Array.init n (Deps.chain d) }

(* --- FSMD assembly ----------------------------------------------------------- *)

type builder = {
  mutable slots : (Ir.ginst list * Fsmd.next * float) option array;
  mutable n : int;
  mutable pipes : Fsmd.pipe list;  (* reverse order *)
  mutable npipes : int;
}

let new_builder () = { slots = Array.make 64 None; n = 0; pipes = []; npipes = 0 }

let alloc b =
  if b.n = Array.length b.slots then begin
    let bigger = Array.make (2 * b.n) None in
    Array.blit b.slots 0 bigger 0 b.n;
    b.slots <- bigger
  end;
  let id = b.n in
  b.n <- b.n + 1;
  id

let set b id ops next chain = b.slots.(id) <- Some (ops, next, chain)

let add_pipe b pipe =
  let id = b.npipes in
  b.pipes <- pipe :: b.pipes;
  b.npipes <- id + 1;
  id

(* Emit a scheduled segment as a chain of at least [min_states] states
   and return its entry ([follow] when the chain is empty).  The states
   are allocated before [last] runs, so a loop can aim its body at the
   entry; [last entry] gives the final state's successor. *)
let emit_chain b (sched : seg_schedule) ~min_states ~follow last =
  let n = Array.length sched.state_ops in
  let ids = Array.init (Stdlib.max min_states n) (fun _ -> alloc b) in
  let k = Array.length ids in
  if k = 0 then follow
  else begin
    let exit = last ids.(0) in
    Array.iteri
      (fun i id ->
        let next = if i = k - 1 then exit else Fsmd.Goto ids.(i + 1) in
        if i < n then set b id sched.state_ops.(i) next sched.state_chain.(i)
        else set b id [] next 0.0)
      ids;
    ids.(0)
  end

let rec emit_body b (proc : Ir.proc_ir) (body : Ir.body) ~follow =
  match body with
  | [] -> follow
  | item :: rest ->
      let rest_entry = emit_body b proc rest ~follow in
      emit_item b proc item ~follow:rest_entry

and emit_item b proc item ~follow =
  let segment insts = schedule_segment proc insts in
  match item with
  | Ir.Straight seg ->
      emit_chain b (segment seg) ~min_states:0 ~follow (fun _ -> Fsmd.Goto follow)
  | Ir.If_else { cond_insts; cond; then_; else_ } ->
      let then_entry = emit_body b proc then_ ~follow in
      let else_entry = emit_body b proc else_ ~follow in
      (* the condition costs at least one state, even when bare *)
      emit_chain b (segment cond_insts) ~min_states:1 ~follow (fun _ ->
          Fsmd.Branch (cond, then_entry, else_entry))
  | Ir.Loop { cond_insts; cond; body; step_insts; pipelined } -> (
      let pipe =
        if pipelined then Pipeline.make proc ~cond_insts ~cond ~body ~step_insts ~exit_to:follow
        else None
      in
      match pipe with
      | Some pipe ->
          let id = alloc b in
          set b id [] (Fsmd.Enter_pipe (add_pipe b pipe)) 0.0;
          id
      | None ->
          if pipelined then
            Logs.warn (fun m ->
                m "loop in %s could not be pipelined; falling back to sequential schedule"
                  proc.Ir.name);
          (* sequential loop: the condition states host the exit branch;
             the step and body run back into the condition's entry *)
          emit_chain b (segment cond_insts) ~min_states:1 ~follow (fun cond_entry ->
              let step_entry =
                emit_chain b (segment step_insts) ~min_states:0 ~follow:cond_entry (fun _ ->
                    Fsmd.Goto cond_entry)
              in
              let body_entry = emit_body b proc body ~follow:step_entry in
              Fsmd.Branch (cond, body_entry, follow)))

(** Compile one process to an FSMD. *)
let compile_proc (proc : Ir.proc_ir) : Fsmd.t =
  let b = new_builder () in
  let done_id = alloc b in
  set b done_id [] Fsmd.Done 0.0;
  let entry = emit_body b proc proc.Ir.body ~follow:done_id in
  let states =
    Array.init b.n (fun i ->
        match b.slots.(i) with
        | Some (ops, next, chain_ns) -> { Fsmd.ops; next; chain_ns }
        | None -> { Fsmd.ops = []; next = Fsmd.Done; chain_ns = 0.0 })
  in
  let pipes = Array.of_list (List.rev b.pipes) in
  let max_chain_ns =
    Array.fold_left (fun acc (s : Fsmd.state) -> Stdlib.max acc s.Fsmd.chain_ns)
      (Array.fold_left (fun acc (p : Fsmd.pipe) -> Stdlib.max acc p.Fsmd.pipe_chain_ns) 0.0 pipes)
      states
  in
  { Fsmd.proc; states; pipes; entry; max_chain_ns }
