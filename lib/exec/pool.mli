(** Work-stealing parallel job executor on OCaml 5 domains.

    Runs a fixed array of pure, independent jobs over N worker domains
    with per-job crash isolation and bounded retry.  Outcomes are
    returned {e indexed by job}, never by completion order, so parallel
    output is byte-identical to serial output.

    Worker domains are spawned on first need, up to [jobs - 1], and
    parked between batches, so later calls reuse them.  One batch runs
    at a time: a call issued while a batch is running (from inside a
    job, or from another systhread) runs inline, exactly as with
    [jobs = 1].  Once a worker exists the OCaml runtime refuses
    [Unix.fork].

    Determinism contract for jobs: no shared mutable state, no
    wall-clock reads, no ambient RNG (derive seeds from the job index
    the closure captures).  Timeouts are logical, not preemptive — a
    domain cannot be killed, so jobs must bound themselves (the
    campaign's cycle budget and live-lock watchdog do exactly that). *)

(** The result of one job: [value] is [Error msg] when every attempt
    raised ([msg] reports the first attempt's exception); [attempts]
    counts executions, so [attempts > 1] means the first attempt
    crashed and the job was retried. *)
type 'a outcome = { value : ('a, string) result; attempts : int }

(** Worker-domain count used when the caller does not pick one: the
    [INCA_JOBS] environment variable if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** Run every job and return the outcomes in job order.  [jobs]
    workers (default {!default_jobs}, clamped to the job count): the
    calling domain plus [jobs - 1] persistent worker domains.  [1] runs
    inline on the calling domain without touching any domain, and so
    does a call made while another batch is running.  [retries] extra
    attempts per crashed job (default 1). *)
val run : ?jobs:int -> ?retries:int -> (unit -> 'a) array -> 'a outcome array

(** [map f items]: {!run} over [fun () -> f item], outcomes in input
    order. *)
val map : ?jobs:int -> ?retries:int -> ('a -> 'b) -> 'a list -> 'b outcome list
