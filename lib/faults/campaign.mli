(** Fault-injection campaign engine (paper Section 5).

    Enumerate every candidate fault site of a lowered program
    ({!Faults.Fault.sites}), compile one mutant per site under each
    assertion-synthesis strategy, run it in the cycle-accurate simulator
    under a per-mutant cycle budget with the live-lock watchdog armed,
    and classify the outcome against the software-simulation golden
    output.  The aggregated table is an assertion-coverage report. *)

(** One application plus the stimulus needed to run it. *)
type workload = {
  wname : string;
  program : Front.Ast.program;
  options : Core.Driver.sim_options;
}

(** Build a workload from InCA-C source text. *)
val workload :
  name:string ->
  ?file:string ->
  feeds:(string * int64 list) list ->
  drains:string list ->
  params:(string * (string * int64) list) list ->
  string ->
  workload

(** The five bundled case-study applications (FIR, DCT, Triple-DES,
    edge detection, pulse statistics), sized so a full sweep stays
    interactive. *)
val bundled : unit -> workload list

(** How mutants are evaluated.  [Fork] (the default) compiles one
    padded design per (workload, strategy), records when each fault
    site first activates in a single unfaulted baseline run, and
    evaluates each mutant from the engine snapshot taken just before
    its site's first activation.  [From_reset] compiles and simulates
    every mutant from cycle zero (the escape hatch, and the reference
    the CI classification-identity gate compares against). *)
type mode = Fork | From_reset

type config = {
  mode : mode;
  strategies : (string * Core.Driver.strategy) list;
  budget : int option;
      (** per-mutant cycle budget; [None] = 4x the unfaulted baseline
          cycle count of the workload, plus slack *)
  watchdog : int option;
      (** live-lock watchdog window; [None] = budget / 20, floor 200 *)
  max_mutants : int option;
      (** per-workload site cap, taken round-robin across fault kinds;
          the report records how many sites were dropped *)
  jobs : int option;
      (** worker domains for the mutant sweep; [None] =
          {!Exec.Pool.default_jobs} ([INCA_JOBS] or all cores);
          [Some 1] runs serially without spawning any domain.  The
          report is byte-identical for every job count. *)
  prune_hangs : bool;
      (** let the liveness pre-filter ({!Faults.Prefilter.hang_verdicts})
          classify provably blocking mutants [Hang_detected] without
          simulating them; [false] simulates every such mutant.  The
          classification map is byte-identical either way (CI-gated). *)
}

(** Every strategy of {!Core.Driver.all_strategies} except the carte
    transport flavour: baseline / unoptimized / parallelized /
    optimized. *)
val default_strategies : (string * Core.Driver.strategy) list

val default_config : config

type outcome_class =
  | Detected_by_assertion  (** a synthesized assertion aborted the run *)
  | Hang_detected  (** deadlock detector or live-lock watchdog fired *)
  | Silent_corruption
      (** the run finished with wrong output, or crashed the toolchain *)
  | Benign  (** finished with output equal to the golden run *)
  | Budget_exceeded  (** still running at the cycle budget *)

val class_name : outcome_class -> string

(** Detection means the platform raised a flag the engineer can act on:
    an assertion notification or a hang/live-lock report. *)
val detected : outcome_class -> bool

(** Structured outcome diagnostics: runs keep the raw data and the
    report renders it on demand via {!detail_string}, so classification
    does not format strings inside the sweep's hot loop. *)
type detail =
  | No_detail
  | Message of string  (** assertion text, toolchain crash, sim error *)
  | Spin of { label : string; sites : (string * int) list }
      (** "live-lock" or "deadlock", with (process, state) spin sites *)
  | Output_diff of string list  (** drains whose output differs from golden *)

(** Human-readable rendering of a {!detail} ([""] for [No_detail]). *)
val detail_string : detail -> string

type run = {
  workload : string;
  strategy : string;
  fault : Faults.Fault.t;
  outcome : outcome_class;
  detail : detail;  (** assertion message, spin sites, or output diff *)
  cycles : int;  (** cycles consumed (cycles to detection when detected) *)
  retried : bool;  (** first attempt crashed; this is the retry's result *)
}

type strategy_summary = {
  strategy : string;
  mutants : int;
  by_assertion : int;
  by_hang : int;
  silent : int;
  benign : int;
  over_budget : int;
  mean_detection_cycles : float option;
}

type report = {
  workloads : string list;
  site_count : int;  (** mutants swept per strategy (after any cap) *)
  dropped : int;  (** sites dropped by [max_mutants] *)
  kind_counts : (string * int) list;  (** sites per fault kind *)
  pruned_static : int;
      (** mutant runs the static pre-filter ({!Faults.Prefilter})
          proved equivalent or dead and classified [Benign] without
          simulating *)
  pruned_hang : int;
      (** mutant runs the liveness pre-filter proved certainly blocking
          and classified [Hang_detected] without simulating *)
  runs : run list;
  summaries : strategy_summary list;
}

(** Fault sites of a workload's baseline-compiled IR. *)
val enumerate : workload -> Faults.Fault.t list

(** Sweep every (workload, strategy, fault site) mutant.  The plan —
    compile-cache warm-up, per-workload site enumeration, pre-filters,
    golden and unfaulted runs, and per-(workload, strategy) fork
    contexts — runs as index-ordered batches on an {!Exec.Pool} of
    [config.jobs] workers, then every mutant is evaluated on the same
    pool.  Compiles go through the shared {!Exec.Cache}, and results
    are collected by index, so the report is byte-identical for every
    job count.  A failing plan step re-raises its own exception (a
    workload that does not complete raises [Invalid_argument]).
    [progress] (if given) is called once per classified mutant run, on
    the calling domain, in deterministic (sweep) order. *)
val run : ?config:config -> ?progress:(run -> unit) -> workload list -> report

val detected_of_summary : strategy_summary -> int

(** Per fault kind: (kind, sites, detections per strategy). *)
val kind_matrix : report -> (string * int * (string * int) list) list

(** The human-readable coverage table. *)
val render : report -> string

(** The classification map: one [workload TAB strategy TAB fault TAB
    class] line per mutant run, in canonical sweep order.  Byte-
    identical between [Fork] and [From_reset] modes (CI-gated); cycle
    counts and details may legitimately differ. *)
val render_classes : report -> string

(** The report as a JSON payload (the [inca campaign] entry in a
    {!Core.Report} envelope). *)
val json_of : report -> Json.t
