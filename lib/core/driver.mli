(** End-to-end compilation driver.

    Mirrors the paper's framework (Section 4): take an InCA-C program
    with ANSI-C assertions, pick an assertion synthesis strategy, and
    produce everything downstream — instrumented HLL source, IR, FSMDs,
    checker processes, a structural netlist with EP2S180 area and fmax
    estimates, the generated notification function, and a ready-to-run
    cycle-accurate simulation.  The VHDL text is not part of a compile:
    {!vhdl} renders it on demand from the compiled FSMDs. *)

module Ir = Mir.Ir

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
  checker_latency : int option;  (** override the synthesized latency *)
}

(** Assertions stripped (NDEBUG). *)
val baseline : strategy

(** If-conversion in the application, one failure stream per process. *)
val unoptimized : strategy

(** Parallelization + replication, dedicated channels (the Tables 1-2
    case-study configuration). *)
val parallelized : strategy

(** The paper's full stack: parallelization + replication + 32-way
    channel sharing. *)
val optimized : strategy

(** The Carte-C portability flavour (Section 4.3): parallelized checkers
    reporting through one DMA mailbox the CPU polls every 32 cycles. *)
val carte : strategy

(** The canonical (name, strategy) table — baseline, unoptimized,
    parallelized, optimized, carte.  Every consumer that resolves a
    strategy by name (CLI converter, campaign, mining ranker, bench)
    reads this list, so names cannot drift. *)
val all_strategies : (string * strategy) list

(** A stable textual identity of a strategy covering every field; used
    as the strategy half of the {!Exec.Cache} compile-cache key. *)
val strategy_id : strategy -> string

(** How many assertions each static verifier removed before checker
    synthesis (the [--prune-proved] accounting).  Disjoint counts: an
    assertion proved by both is accounted to the abstract interpreter. *)
type prune_stats = {
  absint_pruned : int;     (** proved by {!Analysis.Absint} *)
  induction_pruned : int;  (** proved by BMC k-induction *)
}

val no_pruning : prune_stats

type compiled = {
  strategy : strategy;
  source : Front.Ast.program;        (** the original (elaborated) program *)
  instrumented : Front.Ast.program;  (** after assertion synthesis *)
  asserts : Assertion.info list;
  table : (int * Assertion.info) list;  (** the error code table *)
  plan : Share.plan;
  ir : Ir.program_ir;
  fsmds : Hls.Fsmd.t list;
  checkers : Checker.t list;
  netlist : Rtl.Netlist.t;
  area : Rtl.Area.usage;
  timing : Rtl.Timing.estimate;
  notification_source : string;      (** generated C (Figure 2) *)
  pruned : prune_stats;
}

val hw_procs : Front.Ast.program -> Front.Ast.proc list

(** The fault-independent prefix of a compile: assertion synthesis,
    lowering, IR optimization and checker synthesis — everything before
    fault injection.  A fault-injection sweep shares one front per
    (program, strategy); {!Exec.Cache} memoizes exactly this value. *)
type front = {
  f_strategy : strategy;
  f_source : Front.Ast.program;
  f_instrumented : Front.Ast.program;
  f_asserts : Assertion.info list;
  f_table : (int * Assertion.info) list;
  f_plan : Share.plan;
  f_ir : Ir.program_ir;  (** lowered + optimized, before fault injection *)
  f_checkers : Checker.t list;
  f_notification_source : string;
  f_pruned : prune_stats;
}

(** Raised (only under [~prune_proved:true]) when the abstract
    interpreter classifies an assertion as failing on every reaching
    execution; the verdicts carry concrete witnesses. *)
exception Static_violation of Analysis.Absint.verdict list

(** Run the fault-independent compile prefix.  [prune_proved] (default
    [false]) first runs the {!Analysis.Absint} verifier and drops every
    statically proved assertion before instrumentation, so no checker
    hardware is synthesized for it; a statically violated assertion
    raises {!Static_violation} instead.  [induction_proved] names
    assertions (proc, location, source text) that BMC k-induction proved
    unreachable-to-fire; they are pruned the same way, accounted
    separately in [f_pruned].  {!Exec.Cache} keys on both knobs — a
    pruned front must not be served for an unpruned request. *)
val front :
  ?strategy:strategy ->
  ?prune_proved:bool ->
  ?induction_proved:(string * Front.Loc.t * string) list ->
  Front.Ast.program ->
  front

(** Finish a compile from a (possibly cached, possibly shared) front:
    inject [faults] into the lowered IR, then schedule, generate RTL and
    estimate area/timing.  Never mutates the front, so one front value
    is safely shared by concurrent mutant compiles across domains. *)
val finish : ?faults:Faults.Fault.t list -> front -> compiled

(** The design's VHDL: the application FSMDs, then the checker FSMDs,
    over the instrumented program's streams.  Rendered on every call, so a
    simulation-only compile never pays for the text.  It is a function
    rather than a [Lazy.t] field because a compiled value is shared across
    {!Exec.Pool} domains, and forcing one lazy from two domains at once
    raises under OCaml 5; a function also keeps [compiled] free of
    suspended closures. *)
val vhdl : compiled -> string

(** Compile an elaborated program, optionally injecting
    hardware-translation [faults] (Section 5.1).
    Equivalent to [finish ?faults (front ?strategy prog)]. *)
val compile :
  ?strategy:strategy ->
  ?prune_proved:bool ->
  ?induction_proved:(string * Front.Loc.t * string) list ->
  ?faults:Faults.Fault.t list ->
  Front.Ast.program ->
  compiled

(** Parse, type-check and compile from source text. *)
val compile_source :
  ?strategy:strategy ->
  ?prune_proved:bool ->
  ?induction_proved:(string * Front.Loc.t * string) list ->
  ?faults:Faults.Fault.t list ->
  ?file:string ->
  string ->
  compiled

type sim_options = {
  feeds : (string * int64 list) list;
  drains : string list;
  params : (string * (string * int64) list) list;
  hw_models : (string * (int64 list -> int64)) list;
  max_cycles : int;
  timing_checks : Sim.Engine.timing_check list;
      (** cycle-budget assertions between assertion-site taps (the
          paper's Section 6 future work); anchor code points with
          [assert(true)] markers *)
  trace : bool;  (** capture a VCD waveform *)
  watchdog : int option;
      (** live-lock watchdog window in cycles (see {!Sim.Engine.config});
          [None] disables it *)
}

val default_sim_options : sim_options

(** The window behind [--watchdog auto]: {!Analysis.Live.analyze}'s
    proved completion bound for [prog] under the stimulus in [options]
    ([feeds] taken as token counts), or [None] when liveness is not
    proved — the caller should then leave the watchdog off rather than
    guess a window. *)
val auto_watchdog : options:sim_options -> Front.Ast.program -> int option

type sim_result = {
  engine : Sim.Engine.result;
  messages : string list;        (** notification output, ANSI format *)
  failed_assertions : int list;  (** assertion ids in failure order *)
}

(** Run the compiled design in the cycle-accurate simulator with the
    notification function attached to the failure channels.  [on_tap]
    observes every tap execution as [f cycle id values] (see
    {!Sim.Engine.config}). *)
val simulate :
  ?options:sim_options ->
  ?on_tap:(int -> int -> int64 array -> unit) ->
  compiled ->
  sim_result

(** A prepared simulation: the engine plus the per-run notification
    state its failure channels feed.  The fault campaign drives the
    engine directly ({!Sim.Engine.run_until} / [snapshot] / [restore] /
    [arm]) and packages the result with {!session_result};
    {!simulate} is [prepare] + [Sim.Engine.run] + [session_result]. *)
type session = {
  ses_engine : Sim.Engine.t;
  ses_notify : Notify.t;
}

val prepare :
  ?options:sim_options ->
  ?on_tap:(int -> int -> int64 array -> unit) ->
  ?on_site:(int -> int -> unit) ->
  compiled ->
  session

val session_result : session -> Sim.Engine.result -> sim_result

(** Software simulation of the *original* program (assertions run as
    plain ANSI-C asserts on the CPU) — the Impulse-C desktop-simulation
    path the paper contrasts against.  [observer] (if given) receives
    every {!Interp.obs_event}; the assertion-mining subsystem uses it to
    record per-statement traces. *)
val software_sim :
  ?options:sim_options ->
  ?nabort:bool ->
  ?observer:(Interp.obs_event -> unit) ->
  compiled ->
  Interp.result

(** All FSMD invariant violations of the compiled design (empty = ok). *)
val check_invariants : compiled -> string list

(** The compiler-side findings of [inca check] as diagnostics:
    INCA-S001 wraps each {!check_invariants} violation, INCA-S002 each
    {!Mir.Ir.validate} complaint about the lowered IR. *)
val static_diags : compiled -> Analysis.Diag.t list
