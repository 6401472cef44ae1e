(** Differential co-simulation oracle.

    Runs one program through the software-simulation golden path
    ({!Interp} via {!Core.Driver.software_sim}) and through the
    cycle-accurate circuit ({!Sim.Engine}) under every assertion
    synthesis strategy, and classifies every way the two executions can
    disagree — the paper's Section 5.1 divergence, found mechanically.

    The oracle re-injects the program through the printer and parser
    before checking ([parse_and_check (program_to_string p)]): every
    node then carries a real source location (generated ASTs carry
    none), the check exercises the front end on every program, and a
    reproducer written to the corpus is checked by construction exactly
    as the in-memory program was.

    The testbench is derived from the program text alone with
    {!Mine.Trace.auto_options}, so any candidate the shrinker proposes
    — and any corpus file replayed later — carries its own stimulus. *)

type dclass =
  | Output_mismatch  (** drained streams differ from the golden run *)
  | Spurious_fire    (** circuit assertion fired; software run was clean *)
  | Missed_abort     (** software aborted on an assertion; circuit finished *)
  | Proved_fired     (** an assertion {!Analysis.Absint} proved still fired *)
  | Liveness_unsound
      (** {!Analysis.Live}'s verdict contradicts reality: a proved
          deadlock-free design deadlocked (in software simulation or in
          any circuit strategy's fault-free run), or a claimed certain
          deadlock completed.  Always a bug in the liveness analyzer. *)
  | Hang             (** one side hangs or live-locks while the other completes *)
  | Cycle_blowup     (** circuit ran past the cycle budget or ratio bound *)
  | Crash            (** toolchain exception, simulator error, interp error *)

type divergence = {
  dclass : dclass;
  strategy : string;  (** strategy name, or [""] when not strategy-specific *)
  detail : string;    (** human-readable: message, streams, process names *)
}

val class_name : dclass -> string

(** Stable identity of a divergence for corpus deduplication and report
    grouping: ["class"] or ["class:strategy"]. *)
val class_key : divergence -> string

type outcome = {
  source : string;  (** the program as checked (printed, re-elaborated) *)
  divergences : divergence list;
      (** empty = all executions agree; order is deterministic
          (program-level first, then strategy table order) *)
  baseline_cycles : int option;
      (** circuit cycles of the finished baseline run, for bench rates *)
}

val agrees : outcome -> bool

(** Strategy table checked by default: every canonical strategy except
    the carte transport flavour (same policy as the campaign engine). *)
val default_strategies : (string * Core.Driver.strategy) list

val default_max_cycles : int  (** 20_000 *)

val default_watchdog : int  (** 500 *)

(** [check p] runs the full differential comparison.  [faults] are
    injected into every circuit compile (never into the golden software
    run) — the torture tests use a known translation fault to make a
    deterministic divergence on demand.  [max_cycles] bounds every
    circuit run and [watchdog] arms the live-lock detector, so a
    generator- or shrinker-induced livelock degrades to a classified
    {!Hang}/{!Cycle_blowup} instead of wedging the process.
    [bmc_depth] additionally cross-checks every Absint-proved assertion
    against the bounded model checker to that depth: a replay-confirmed
    BMC counterexample for a proved assertion is a {!Proved_fired}
    divergence with strategy ["bmc"] — a genuine verifier bug, since
    both sides over-approximate the same semantics.  (Skipped under
    fault injection: BMC models the unfaulted design.)

    A single fault with an enumerated padded twin is evaluated through
    the campaign's fork-point evaluator ({!Campaign.evaluate}): compile
    the all-sites-padded design once, run it unarmed to find the site's
    first activation, then replay the shared prefix with the pad armed
    under a cycle budget trimmed to the ratio bound.  [from_reset] (default [false]) is the
    escape hatch: inject every fault into a separate compile and
    simulate from cycle zero, the pre-split-stream behaviour.  The
    divergence classes agree between the two paths (details such as
    cycle counts may differ — padding perturbs the schedule).

    Never raises: toolchain failures classify as {!Crash}. *)
val check :
  ?strategies:(string * Core.Driver.strategy) list ->
  ?faults:Faults.Fault.t list ->
  ?from_reset:bool ->
  ?max_cycles:int ->
  ?watchdog:int ->
  ?bmc_depth:int ->
  Front.Ast.program ->
  outcome
