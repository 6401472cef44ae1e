(** End-to-end compilation driver.

    Mirrors the paper's framework (Section 4): take an InCA-C program
    with ANSI-C assertions, pick an assertion synthesis strategy, and
    produce everything downstream — instrumented HLL source, IR, FSMDs,
    checker processes and a ready-to-run cycle-accurate simulation.  A
    compile holds only what the simulator reads: the structural netlist
    with its EP2S180 area and fmax estimates ({!rtl}), the generated
    notification function ({!notification_source}) and the VHDL text
    ({!vhdl}) render on demand from the compiled FSMDs. *)

open Front.Ast
module Ir = Mir.Ir
module Loc = Front.Loc

type mode =
  | Baseline     (** assertions stripped — the tables' "Original" column *)
  | Unoptimized  (** direct if-conversion in the application (Section 4.1) *)
  | Optimized    (** parallelized checkers (Section 3.1) + optional 3.2/3.3 *)

type strategy = {
  mode : mode;
  replicate : bool;        (** Section 3.2: replicate tapped arrays *)
  share : Share.mode;      (** Section 3.3/4.2: failure channel sharing *)
  nabort : bool;           (** continue after failures (assert(0) tracing) *)
  mem_ports : int;         (** block-RAM ports exposed to the application *)
  checker_latency : int option;
}

let baseline =
  { mode = Baseline; replicate = false; share = `Per_proc; nabort = false;
    mem_ports = 1; checker_latency = None }

let unoptimized = { baseline with mode = Unoptimized }

(** The paper's full optimization stack: parallelization + replication +
    32-way channel sharing. *)
let optimized = { baseline with mode = Optimized; replicate = true; share = `Shared 32 }

(** Parallelization only, with dedicated channels (the configuration of
    the Tables 1-2 case studies). *)
let parallelized = { baseline with mode = Optimized; replicate = true; share = `Per_proc }

(** The Carte-C portability flavour (Section 4.3): parallelized checkers
    reporting through one DMA mailbox the CPU polls. *)
let carte = { baseline with mode = Optimized; replicate = true; share = `Dma }

(** The canonical (name, strategy) table.  Every consumer that needs a
    strategy by name — the CLI converter, the campaign sweep, the
    mining ranker, the bench harness — reads this list, so names cannot
    drift between them. *)
let all_strategies =
  [
    ("baseline", baseline);
    ("unoptimized", unoptimized);
    ("parallelized", parallelized);
    ("optimized", optimized);
    ("carte", carte);
  ]

let mode_id = function
  | Baseline -> "baseline"
  | Unoptimized -> "unoptimized"
  | Optimized -> "optimized"

let share_id = function
  | `Per_proc -> "per-proc"
  | `Shared n -> "shared:" ^ string_of_int n
  | `Dma -> "dma"

(** A stable textual identity of a strategy covering every field —
    the strategy half of {!Exec.Cache}'s compile-cache key. *)
let strategy_id s =
  Printf.sprintf "%s;replicate=%b;share=%s;nabort=%b;ports=%d;latency=%s"
    (mode_id s.mode) s.replicate (share_id s.share) s.nabort s.mem_ports
    (match s.checker_latency with Some l -> string_of_int l | None -> "auto")

(** How many assertions each static verifier removed from the program
    before checker synthesis (the [--prune-proved] accounting).  The two
    numbers are disjoint: an assertion proved by both counts once, under
    the abstract interpreter. *)
type prune_stats = {
  absint_pruned : int;     (** proved by {!Analysis.Absint} *)
  induction_pruned : int;  (** proved by BMC k-induction *)
}

let no_pruning = { absint_pruned = 0; induction_pruned = 0 }

type compiled = {
  strategy : strategy;
  source : program;             (** the original (elaborated) program *)
  instrumented : program;       (** after assertion synthesis *)
  asserts : Assertion.info list;
  table : (int * Assertion.info) list;
  plan : Share.plan;
  ir : Ir.program_ir;
  fsmds : Hls.Fsmd.t list;
  checkers : Checker.t list;
  pruned : prune_stats;
}

let hw_procs prog = List.filter (fun p -> p.kind = Hardware) prog.procs

(* The fault-independent prefix of a compile: everything from assertion
   extraction through lowering and checker synthesis.  Injected faults
   (Section 5.1) only rewrite the lowered IR, so a fault-injection sweep
   of hundreds of mutants shares one [front] per (program, strategy) —
   {!Exec.Cache} memoizes exactly this value. *)
type front = {
  f_strategy : strategy;
  f_source : program;
  f_instrumented : program;
  f_asserts : Assertion.info list;
  f_table : (int * Assertion.info) list;
  f_plan : Share.plan;
  f_ir : Ir.program_ir;  (* lowered + optimized, before fault injection *)
  f_checkers : Checker.t list;
  f_pruned : prune_stats;
}

exception Static_violation of Analysis.Absint.verdict list

(* Remove the assertions identified by (proc, loc, text) keys; returns
   the rewritten program and how many assert statements were dropped. *)
let prune_asserts (prog : program) (keys : (string * Loc.t * string) list) :
    program * int =
  if keys = [] then (prog, 0)
  else begin
    let dropped = ref 0 in
    let prog' =
      {
        prog with
        procs =
          List.map
            (fun (p : proc) ->
              if p.kind <> Hardware then p
              else
                {
                  p with
                  body =
                    map_stmts
                      (fun st ->
                        match st.s with
                        | Assert (_, text)
                          when List.mem (p.pname, st.sloc, text) keys ->
                            incr dropped;
                            []
                        | _ -> [ st ])
                      p.body;
                })
            prog.procs;
      }
    in
    (prog', !dropped)
  end

(* Drop assertions the abstract interpreter proved can never fire, so
   no checker hardware is synthesized for them (the [--prune-proved]
   path).  Statically violated assertions abort the compile instead:
   building hardware whose checker fires on every execution is a source
   bug, and the verdict carries a concrete witness. *)
let prune_statically_proved (prog : program) : program * int =
  let r = Analysis.Absint.analyze prog in
  let violated =
    List.filter
      (fun (v : Analysis.Absint.verdict) ->
        match v.Analysis.Absint.vclass with Analysis.Absint.Violated _ -> true | _ -> false)
      r.Analysis.Absint.verdicts
  in
  if violated <> [] then raise (Static_violation violated);
  let proved =
    List.filter_map
      (fun (v : Analysis.Absint.verdict) ->
        match v.Analysis.Absint.vclass with
        | Analysis.Absint.Proved ->
            Some (v.Analysis.Absint.vproc, v.Analysis.Absint.vloc, v.Analysis.Absint.vtext)
        | _ -> None)
      r.Analysis.Absint.verdicts
  in
  prune_asserts prog proved

(* Lowering reads the process, its mirrors, the port count and the
   program's streams and externs, and nothing else: this tuple is the key
   under which {!compile_all} shares one lowered, optimized process
   between strategies. *)
let lower (p, mirrors, mem_ports, streams, externs) : Ir.proc_ir =
  Mir.Opt.optimize (Mir.Lower.lower_proc ~mirrors ~mem_ports { streams; externs; procs = [] } p)

(* [f] memoized on structurally equal arguments.  The table lives as long
   as the returned closure, so {!compile_all} shares results within one
   call and nothing outlives it. *)
let memo f =
  let seen = ref [] in
  fun key ->
    match List.find_opt (fun (k, _) -> compare k key = 0) !seen with
    | Some (_, v) -> v
    | None ->
        let v = f key in
        seen := (key, v) :: !seen;
        v

(* {!front} with the process lowering supplied by the caller. *)
let front_with ~lower ~strategy ~prune_proved ~induction_proved (prog : program) : front =
  let prog, nabs =
    if prune_proved then prune_statically_proved prog else (prog, 0)
  in
  let prog, nind = prune_asserts prog induction_proved in
  let pruned = { absint_pruned = nabs; induction_pruned = nind } in
  let asserts = Assertion.extract prog in
  let plan =
    match strategy.mode with
    | Baseline -> Share.empty
    | Unoptimized | Optimized -> Share.plan strategy.share asserts
  in
  let instrumented, specs, mirrors =
    match strategy.mode with
    | Baseline ->
        ( { prog with procs = List.map Instrument.strip_asserts prog.procs }, [], [] )
    | Unoptimized -> (Instrument.transform plan prog, [], [])
    | Optimized ->
        let prog', specs = Parallelize.transform prog in
        let procs, mirrors =
          List.fold_left
            (fun (ps, ms) p ->
              if strategy.replicate then
                let p', m = Replicate.transform_proc p in
                (p' :: ps, (p.pname, m) :: ms)
              else (p :: ps, ms))
            ([], []) prog'.procs
        in
        ( { prog' with procs = List.rev procs; streams = prog.streams @ plan.Share.streams },
          specs,
          mirrors )
  in
  (* Under [Optimized] the application processes only tap; the failure
     streams belong to the checkers, so the application is lowered
     against the source program's streams and its key does not depend on
     the share plan. *)
  let app_streams =
    match strategy.mode with
    | Optimized -> prog.streams
    | Baseline | Unoptimized -> instrumented.streams
  in
  let ir_procs =
    List.map
      (fun p ->
        let mirrors = try List.assoc p.pname mirrors with Not_found -> [] in
        lower (p, mirrors, strategy.mem_ports, app_streams, instrumented.externs))
      (hw_procs instrumented)
  in
  let ir =
    { Ir.streams = instrumented.streams; externs = instrumented.externs; procs = ir_procs }
  in
  let checkers =
    List.map
      (fun spec ->
        Checker.build ~prog:instrumented ~plan ?latency_override:strategy.checker_latency
          spec)
      specs
  in
  let table = List.map (fun (a : Assertion.info) -> (a.Assertion.id, a)) asserts in
  {
    f_strategy = strategy;
    f_source = prog;
    f_instrumented = instrumented;
    f_asserts = asserts;
    f_table = table;
    f_plan = plan;
    f_ir = ir;
    f_checkers = checkers;
    f_pruned = pruned;
  }

(** Run the fault-independent compile prefix: assertion synthesis,
    lowering, IR optimization, and checker synthesis.
    [induction_proved] names assertions (by proc, location and source
    text) that BMC k-induction proved can never fire; they are pruned
    like Absint-proved ones, after the Absint pass so an assertion both
    verifiers prove is accounted to Absint. *)
let front ?(strategy = optimized) ?(prune_proved = false)
    ?(induction_proved : (string * Loc.t * string) list = []) (prog : program) :
    front =
  front_with ~lower ~strategy ~prune_proved ~induction_proved prog

(* {!finish} with the process scheduler supplied by the caller. *)
let finish_with ~schedule ?(faults : Faults.Fault.t list = []) (f : front) : compiled =
  let ir = Faults.Fault.apply_all faults f.f_ir in
  {
    strategy = f.f_strategy;
    source = f.f_source;
    instrumented = f.f_instrumented;
    asserts = f.f_asserts;
    table = f.f_table;
    plan = f.f_plan;
    ir;
    fsmds = List.map schedule ir.Ir.procs;
    checkers = f.f_checkers;
    pruned = f.f_pruned;
  }

(** Finish a compile from a (possibly cached, possibly shared) [front]:
    inject [faults] into the lowered IR, then schedule.  Never mutates the
    front, so one front value is safely shared by concurrent mutant
    compiles across domains. *)
let finish ?faults (f : front) : compiled =
  finish_with ~schedule:Hls.Schedule.compile_proc ?faults f

type rtl = {
  netlist : Rtl.Netlist.t;
  area : Rtl.Area.usage;
  timing : Rtl.Timing.estimate;
}

(** The design's structural netlist with its area and timing estimates,
    built on each call from the compiled FSMDs, checkers and collectors. *)
let rtl (c : compiled) : rtl =
  let checker_modules =
    List.map (fun (k : Checker.t) -> Rtl.Gen.of_fsmd k.Checker.fsmd) c.checkers
  in
  let top_name =
    match hw_procs c.source with p :: _ -> p.pname | [] -> "design"
  in
  let netlist =
    Rtl.Gen.design ~top_name c.fsmds c.instrumented.streams
      ~extra_modules:(checker_modules @ c.plan.Share.collector_modules)
      ()
  in
  let area = Rtl.Area.of_design netlist in
  let max_chain =
    List.fold_left
      (fun acc (fd : Hls.Fsmd.t) -> Stdlib.max acc fd.Hls.Fsmd.max_chain_ns)
      0.0
      (c.fsmds @ List.map (fun (k : Checker.t) -> k.Checker.fsmd) c.checkers)
  in
  { netlist; area; timing = Rtl.Timing.estimate ~name:top_name ~max_chain_ns:max_chain area }

(** The generated notification function (Figure 2), rendered on each call. *)
let notification_source (c : compiled) : string =
  Notify.c_source
    ~dma:(c.strategy.share = `Dma)
    ~route:c.plan.Share.route
    ~table:c.table
    ~streams:(List.map (fun (s : stream_decl) -> s.sname) c.plan.Share.streams)
    ~nabort:c.strategy.nabort

(** The design's VHDL text: the application FSMDs followed by the checker
    FSMDs, over the instrumented program's streams.  Rendered on each call;
    only [inca vhdl] needs it, so simulation-only compiles never pay for it. *)
let vhdl (c : compiled) : string =
  Rtl.Vhdl.emit_design
    (c.fsmds @ List.map (fun (k : Checker.t) -> k.Checker.fsmd) c.checkers)
    c.instrumented.streams

(* Compile [prog] under each named strategy, lowering each distinct
   {!lower_key} and scheduling each distinct process IR once. *)
let compile_shared ?(prune_proved = false) ?(induction_proved = []) ?faults strategies
    (prog : program) : (string * compiled) list =
  let lower = memo lower and schedule = memo Hls.Schedule.compile_proc in
  List.map
    (fun (name, strategy) ->
      let f = front_with ~lower ~strategy ~prune_proved ~induction_proved prog in
      (name, finish_with ~schedule ?faults f))
    strategies

(** Compile [prog] under every named strategy, sharing lowered and
    scheduled processes between them. *)
let compile_all strategies (prog : program) : (string * compiled) list =
  compile_shared strategies prog

(** Compile an elaborated program under [strategy], optionally injecting
    hardware-translation [faults] (Section 5.1). *)
let compile ?(strategy = optimized) ?prune_proved ?induction_proved ?faults (prog : program) :
    compiled =
  snd (List.hd (compile_shared ?prune_proved ?induction_proved ?faults [ ("", strategy) ] prog))

(** Parse, type-check and compile from source text. *)
let compile_source ?strategy ?prune_proved ?induction_proved ?faults ?file src =
  compile ?strategy ?prune_proved ?induction_proved ?faults
    (Front.Typecheck.parse_and_check ?file src)

(* --- Simulation ------------------------------------------------------------- *)

type sim_options = {
  feeds : (string * int64 list) list;
  drains : string list;
  params : (string * (string * int64) list) list;
  hw_models : (string * (int64 list -> int64)) list;
  max_cycles : int;
  timing_checks : Sim.Engine.timing_check list;
      (** cycle-budget assertions between assertion-site taps (the
          paper's Section 6 future work); anchor code points with
          [assert(true)] markers under the Optimized strategy *)
  trace : bool;  (** capture a VCD waveform (the SignalTap view) *)
  watchdog : int option;
      (** live-lock watchdog window in cycles (see {!Sim.Engine.config});
          [None] disables it *)
}

let default_sim_options =
  { feeds = []; drains = []; params = []; hw_models = []; max_cycles = 1_000_000;
    timing_checks = []; trace = false; watchdog = None }

(* The window behind [--watchdog auto]: the liveness analyzer's proved
   completion bound under this stimulus, or [None] when nothing is
   proved (the watchdog then stays off rather than guessing).  The bound
   is in channel-op work units, not engine cycles, but it over-
   approximates both (every engine cycle makes progress or the engine's
   own deadlock detector fires first), so it is safe as a progress
   window. *)
let auto_watchdog ~(options : sim_options) (prog : program) : int option =
  let feeds = List.map (fun (s, vs) -> (s, List.length vs)) options.feeds in
  match
    Analysis.Live.analyze ~params:options.params ~feeds ~drains:options.drains prog
  with
  | Analysis.Live.Deadlock_free k -> Some k
  | Analysis.Live.Deadlock _ | Analysis.Live.Unknown _ -> None

type sim_result = {
  engine : Sim.Engine.result;
  messages : string list;        (** notification output, ANSI format *)
  failed_assertions : int list;  (** assertion ids in failure order *)
}

(** A prepared simulation: the engine plus the per-run notification
    state its failure channels feed.  Splitting {!simulate} this way
    lets the fault campaign drive the engine directly — [run_until] to a
    fork point, [snapshot], [restore] into a fresh session per mutant —
    and still collect messages through the normal notification path. *)
type session = {
  ses_engine : Sim.Engine.t;
  ses_notify : Notify.t;
}

let prepare ?(options = default_sim_options) ?on_tap ?on_site (c : compiled) :
    session =
  let notify =
    Notify.make ~table:c.table ~decode:c.plan.Share.decode ~nabort:c.strategy.nabort
  in
  let cfg =
    {
      Sim.Engine.max_cycles = options.max_cycles;
      feeds = options.feeds;
      drains = options.drains;
      handlers = notify.Notify.handlers;
      hw_models = options.hw_models;
      params = options.params;
      timing_checks = options.timing_checks;
      trace = options.trace;
      host_poll_interval =
        (match c.strategy.share with `Dma -> 32 | `Per_proc | `Shared _ -> 1);
      watchdog = options.watchdog;
      on_tap;
      on_site;
    }
  in
  let engine =
    Sim.Engine.create ~cfg ~streams:c.ir.Ir.streams ~fsmds:c.fsmds
      ~checkers:(List.map (fun (ck : Checker.t) -> ck.Checker.engine) c.checkers)
      ()
  in
  { ses_engine = engine; ses_notify = notify }

(** Package an engine result with the session's notification state. *)
let session_result (s : session) (engine : Sim.Engine.result) : sim_result =
  {
    engine;
    messages = Notify.messages s.ses_notify;
    failed_assertions = Notify.failures s.ses_notify;
  }

(** Run the compiled design in the cycle-accurate simulator with the
    notification function attached to the failure channels.  [on_tap]
    (if given) observes every tap execution as [f cycle id values] — the
    hook the BMC equivalence tests use to compare predicted and actual
    fire schedules. *)
let simulate ?(options = default_sim_options) ?on_tap (c : compiled) : sim_result =
  let s = prepare ~options ?on_tap c in
  session_result s (Sim.Engine.run s.ses_engine)

(** Software simulation of the *original* program (assertions run as
    plain ANSI-C asserts on the CPU) — the Impulse-C desktop-simulation
    path the paper contrasts against.  [observer] (if given) receives
    every {!Interp.obs_event}; the assertion-mining subsystem uses it to
    record per-statement traces. *)
let software_sim ?(options = default_sim_options) ?(nabort = false)
    ?(observer : (Interp.obs_event -> unit) option) (c : compiled) : Interp.result =
  let cfg =
    {
      Interp.default_config with
      Interp.params = options.params;
      feeds = options.feeds;
      drains = options.drains;
      nabort;
      extern_models = options.hw_models;
      observer;
    }
  in
  Interp.run ~cfg c.source

(** Check an FSMD set against the scheduler invariants; returns all
    violations (used by tests and the CLI's lint mode). *)
let check_invariants (c : compiled) : string list =
  List.concat_map Hls.Fsmd.check
    (c.fsmds @ List.map (fun (ck : Checker.t) -> ck.Checker.fsmd) c.checkers)

(** The compiler-side findings of [inca check], as diagnostics sharing
    the {!Analysis.Diag} codes: INCA-S001 for FSMD scheduler-invariant
    violations, INCA-S002 for lowered-IR well-formedness complaints. *)
let static_diags (c : compiled) : Analysis.Diag.t list =
  List.map
    (fun m -> Analysis.Diag.error ~code:"INCA-S001" Front.Loc.none m)
    (check_invariants c)
  @ List.map
      (fun m -> Analysis.Diag.error ~code:"INCA-S002" Front.Loc.none m)
      (Ir.validate c.ir)
