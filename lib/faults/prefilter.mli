(** Static mutant pre-filter: a forward abstract interpretation of the
    baseline IR (interval x constancy x parity, the {!Analysis.Domain}
    the assertion verifier uses) that proves fault sites equivalent to
    the unfaulted design or statically dead, so the campaign can skip
    simulating them.  Streams and extern calls are unconstrained,
    memories are flow-insensitive joins, loops reach a widened fixpoint
    — but every register, process parameters included, starts at [0],
    so a verdict other than [Unknown] does {e not} hold for every
    workload: a loop bounded by a parameter is analysed as never
    entered.  Input-independent, so fork-point and from-reset campaign
    modes prune identically. *)

type verdict =
  | Equivalent  (** the rewrite is an identity on every reachable value *)
  | Dead        (** the site is statically unreachable *)
  | Unknown     (** could diverge: simulate it *)

val verdict_name : verdict -> string

(** One verdict per fault, in order.  [prog] must be the same
    (baseline-strategy) IR the faults were enumerated on by
    {!Fault.sites}: occurrence indices are matched against that IR's
    site numbering. *)
val verdicts : Mir.Ir.program_ir -> Fault.t list -> verdict list

(** The liveness pre-filter: [Certain_hang] proves a mutant blocks the
    token network on every execution {e without} having first written a
    divergent token, fired an assertion, or risked a trap — so the
    engine can only classify it as a hang, and the campaign may record
    that class without simulating.

    The proof perturbs the baseline {!Analysis.Chan} traces exactly the
    way the fault rewrites the lowered design (a drop-write removes the
    site's pushes; a loop-off-by-one shifts the compare bound and
    re-expands the loop) and re-runs the {!Analysis.Live} token
    network.  It requires the unfaulted network to provably complete,
    and checks the faulted process's executed divergence is free of
    writes, assertions and traps, so every process observes baseline
    values right up to the global block.  [Hang_unknown] means
    simulate; it is the verdict for every fault kind that perturbs
    values rather than token counts. *)
type hang_verdict = Certain_hang of string | Hang_unknown

val hang_verdicts :
  params:(string * (string * int64) list) list ->
  feeds:(string * int) list ->
  drains:string list ->
  Front.Ast.program ->
  Fault.t list ->
  hang_verdict list
