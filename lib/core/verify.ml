(** Netlist-level assertion verification: bounded model checking and
    k-induction over the synthesized design, with counterexample replay
    through the cycle-accurate simulator.

    This module is the glue between three layers that must agree with
    each other exactly:

    - {!Bmc.Model} unrolls the scheduled FSMDs into an AIG under a free
      environment (unconstrained feed values, free parameters);
    - {!Driver.simulate} / {!Sim.Engine} replays a concrete trace;
    - {!Analysis.Verdict} carries the shared classification that
      [inca prove], the bench harness and the torture oracle consume.

    A solver witness is never trusted on its own: the feed values and
    parameters it chose are turned into a testbench and run through the
    engine, and only an assertion failure observed there is reported as
    Violated (INCA-B001).  A witness the engine refuses is a genuine
    model/engine divergence, downgraded to Unknown and flagged
    INCA-B006.

    The environment mirrors [inca simulate]'s auto-testbench shape
    ({!Mine.Trace.auto_options}, re-derived here because mine sits above
    core): feeds are the streams some process reads and none writes,
    drains the converse, and every process parameter is free. *)

open Front.Ast
module Ir = Mir.Ir
module Loc = Front.Loc
module Verdict = Analysis.Verdict

(** The strategy every BMC run compiles under: parallelized checkers
    with NABORT reporting, so one violated assertion cannot mask the
    others during replay, and checker latency never reorders failure
    words of independent assertions. *)
let strategy = { Driver.parallelized with Driver.nabort = true }

let front_of (prog : program) : Driver.front = Driver.front ~strategy prog

(* Streams read / written anywhere in the program, in first-occurrence
   order — the auto-testbench classification. *)
let stream_roles (prog : program) : string list * string list =
  let reads = ref [] and writes = ref [] in
  List.iter
    (fun (p : proc) ->
      iter_stmts
        (fun st ->
          match st.s with
          | Stream_read (_, s) -> if not (List.mem s !reads) then reads := s :: !reads
          | Stream_write (s, _) ->
              if not (List.mem s !writes) then writes := s :: !writes
          | _ -> ())
        p.body)
    prog.procs;
  (List.rev !reads, List.rev !writes)

(** The symbolic-model configuration for a compiled front: feed/drain
    roles from the source program, every parameter register free, tap
    conditions from the synthesized checkers. *)
let model_config (f : Driver.front) : Bmc.Model.config =
  let reads, writes = stream_roles f.Driver.f_source in
  let feeds = List.filter (fun s -> not (List.mem s writes)) reads in
  let drains = List.filter (fun s -> not (List.mem s reads)) writes in
  let free_regs =
    List.map
      (fun (p : Ir.proc_ir) ->
        let param_names =
          match
            List.find_opt (fun (a : proc) -> a.pname = p.Ir.name)
              f.Driver.f_source.procs
          with
          | Some a -> List.map fst a.params
          | None -> []
        in
        ( p.Ir.name,
          List.filter_map
            (fun (r, (info : Ir.reg_info)) ->
              match info.Ir.origin with
              | Some o when List.mem o param_names -> Some (r, o)
              | _ -> None)
            p.Ir.regs ))
      f.Driver.f_ir.Ir.procs
  in
  {
    Bmc.Model.fsmds = List.map Hls.Schedule.compile_proc f.Driver.f_ir.Ir.procs;
    streams = f.Driver.f_ir.Ir.streams;
    feeds;
    drains;
    free_regs;
    checkers =
      List.map
        (fun (c : Checker.t) ->
          ( c.Checker.spec.Parallelize.info.Assertion.id,
            c.Checker.spec.Parallelize.cond ))
        f.Driver.f_checkers;
  }

(* Latency slack so a fire at the last unrolled cycle still reaches the
   notification handler before the cycle budget runs out. *)
let replay_slack = 64

type replay_outcome =
  | Confirmed of int  (** fire cycle observed in the engine *)
  | Refuted of string

(** Replay a solver witness through the cycle-accurate simulator and
    report the cycle at which assertion [id]'s tap fired with a false
    condition (watched through the engine's tap observer, so the check
    does not depend on notification latency or channel sharing). *)
let replay (f : Driver.front) ~(id : int) (w : Bmc.Prove.witness) : replay_outcome =
  let c = Driver.finish f in
  let _, writes = stream_roles f.Driver.f_source in
  let reads, _ = stream_roles f.Driver.f_source in
  let drains = List.filter (fun s -> not (List.mem s reads)) writes in
  let options =
    {
      Driver.default_sim_options with
      Driver.feeds = w.Bmc.Prove.w_feeds;
      drains;
      params = w.Bmc.Prove.w_params;
      max_cycles = w.Bmc.Prove.w_cycle + replay_slack;
    }
  in
  let cond =
    match
      List.find_opt
        (fun (ck : Checker.t) -> ck.Checker.spec.Parallelize.info.Assertion.id = id)
        c.Driver.checkers
    with
    | Some ck -> Some ck.Checker.spec.Parallelize.cond
    | None -> None
  in
  let fired = ref None in
  let on_tap cycle tid values =
    if tid = id && !fired = None then
      match cond with
      | Some cond -> if not (Assertion.holds cond values) then fired := Some cycle
      | None -> ()
  in
  let res = Driver.simulate ~options ~on_tap c in
  match !fired with
  | Some cycle -> Confirmed cycle
  | None ->
      Refuted
        (Printf.sprintf
           "no failing tap within %d cycles (engine outcome: %s, %d failures \
            reported)"
           options.Driver.max_cycles
           (match res.Driver.engine.Sim.Engine.outcome with
           | Sim.Engine.Finished -> "finished"
           | Sim.Engine.Hang _ -> "hang"
           | Sim.Engine.Livelock _ -> "livelock"
           | Sim.Engine.Aborted m -> "aborted: " ^ m
           | Sim.Engine.Out_of_cycles -> "out of cycles"
           | Sim.Engine.Sim_error m -> "simulator error: " ^ m)
           (List.length res.Driver.failed_assertions))

(* The lint-L105 cross-reference: assertions Absint's dead-assertion
   pass flagged, keyed like the prune lists. *)
let dead_keys (absint : Analysis.Absint.result) =
  List.map (fun (p, loc, text, _) -> (p, loc, text)) absint.Analysis.Absint.dead

(** Check one assertion of a compiled front end to end: BMC + optional
    k-induction, witness replay, L105 cross-reference.  Pure apart from
    solver allocation, so sweeps can run it per-assertion on a pool. *)
let check_target ?(depth = 12) ?(induction = 0) ?(conflict_limit = 200_000)
    (f : Driver.front) ~(absint : Analysis.Absint.result) (id : int) :
    Verdict.presult * Analysis.Diag.t option =
  let info = List.assoc id f.Driver.f_table in
  let cfg = model_config f in
  let r = Bmc.Prove.check_assertion ~depth ~induction ~conflict_limit cfg id in
  let dead_lint =
    List.mem (info.Assertion.aproc, info.Assertion.aloc, info.Assertion.text)
      (dead_keys absint)
  in
  let pclass, extra_diag =
    match r.Bmc.Prove.r_verdict with
    | Bmc.Prove.Violated w -> (
        match replay f ~id w with
        | Confirmed cycle -> (Verdict.Bviolated cycle, None)
        | Refuted msg ->
            ( Verdict.Bunknown ("counterexample failed replay: " ^ msg),
              Some
                (Verdict.replay_divergence ~proc:info.Assertion.aproc
                   ~loc:info.Assertion.aloc ~text:info.Assertion.text msg) ))
    | Bmc.Prove.Proved_induction k -> (Verdict.Bproved k, None)
    | Bmc.Prove.Bounded d -> (Verdict.Bbounded d, None)
    | Bmc.Prove.Unknown m -> (Verdict.Bunknown m, None)
  in
  let reach =
    match r.Bmc.Prove.r_reach with
    | Bmc.Prove.Reachable c -> Verdict.Breachable c
    | Bmc.Prove.Unreachable_to d -> Verdict.Bunreachable d
    | Bmc.Prove.Reach_unknown m -> Verdict.Breach_unknown m
  in
  ( {
      Verdict.pr_id = id;
      pr_proc = info.Assertion.aproc;
      pr_loc = info.Assertion.aloc;
      pr_text = info.Assertion.text;
      pr_class = pclass;
      pr_reach = reach;
      pr_dead_lint = dead_lint;
      pr_conflicts = r.Bmc.Prove.r_conflicts;
      pr_decisions = r.Bmc.Prove.r_decisions;
      pr_propagations = r.Bmc.Prove.r_propagations;
    },
    extra_diag )

(** All assertion ids of a front, in {!Assertion.extract} order. *)
let target_ids (f : Driver.front) : int list =
  List.map (fun (a : Assertion.info) -> a.Assertion.id) f.Driver.f_asserts

(** Prove every assertion of [prog] sequentially.  Parallel sweeps live
    above core (on {!Exec.Pool}); they call {!front_of} +
    {!check_target} per assertion and assemble the same report. *)
let prove ?depth ?induction ?conflict_limit (prog : program) :
    Verdict.report * Analysis.Diag.t list =
  let f = front_of prog in
  let absint = Analysis.Absint.analyze prog in
  let outcomes =
    List.map
      (fun id -> check_target ?depth ?induction ?conflict_limit f ~absint id)
      (target_ids f)
  in
  let results = List.map fst outcomes in
  let diags =
    List.filter_map Verdict.diag_of results
    @ List.filter_map snd outcomes
  in
  ( {
      Verdict.p_depth = (match depth with Some d -> d | None -> 12);
      p_induction = (match induction with Some k -> k | None -> 0);
      p_results = results;
    },
    Analysis.Diag.order diags )

(** The (proc, loc, text) keys of every induction-proved assertion in a
    report — the [?induction_proved] argument of {!Driver.front}. *)
let induction_proved_keys (rep : Verdict.report) : (string * Loc.t * string) list =
  List.filter_map
    (fun (r : Verdict.presult) ->
      match r.Verdict.pr_class with
      | Verdict.Bproved _ -> Some (r.Verdict.pr_proc, r.Verdict.pr_loc, r.Verdict.pr_text)
      | _ -> None)
    rep.Verdict.p_results
