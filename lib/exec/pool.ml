(** Work-stealing parallel job executor on OCaml 5 domains.

    The fault-injection campaign and the mining ranker evaluate hundreds
    of near-identical mutants whose runs are pure and independent — the
    textbook embarrassingly-parallel sweep.  This pool runs a fixed
    array of jobs over N worker domains with per-job crash isolation
    and bounded retry, and returns the outcomes {e indexed by job}, so
    parallel output is byte-identical to serial output regardless of
    completion order.

    Determinism rules (see DESIGN.md):
    - jobs must be pure up to their own allocations — no shared mutable
      state, no wall-clock reads, no ambient RNG (derive any seed from
      the job index the caller closes over);
    - results are collected by job index, never by completion order;
    - [jobs = 1] bypasses domains entirely and runs inline, so the
      serial fallback exercises the exact same code path as the caller
      would have written by hand.

    Worker domains persist: they are spawned on first need and parked
    between batches.  One batch runs at a time; a call made while one
    is running (from inside a job, or from another systhread) runs
    inline like [jobs = 1].  Once workers exist the OCaml runtime
    refuses [Unix.fork].

    Timeouts are logical, not preemptive: a domain cannot be killed, so
    runaway jobs must bound themselves (the campaign's per-mutant cycle
    budget and live-lock watchdog do exactly that). *)

(** The result of one job: [value] is [Error msg] when every attempt
    raised ([msg] is the first attempt's exception, matching the
    diagnostics of an unretried run); [attempts] counts executions, so
    [attempts > 1] means the first attempt crashed and the job was
    retried. *)
type 'a outcome = { value : ('a, string) result; attempts : int }

let env_jobs () =
  match Sys.getenv_opt "INCA_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

(** Worker-domain count used when the caller does not pick one: the
    [INCA_JOBS] environment variable if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)
let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

(* One deque per worker, mutex-guarded: the owner pops from the front,
   thieves steal from the back.  Jobs are only ever enqueued once, before
   the batch is published, so a worker that sees every deque empty is
   done with the batch. *)
type deque = {
  lock : Mutex.t;
  slots : int array;
  mutable head : int;  (* next index the owner pops *)
  mutable tail : int;  (* one past the last stealable index *)
}

let pop_front d =
  Mutex.lock d.lock;
  let r =
    if d.head < d.tail then (
      let j = d.slots.(d.head) in
      d.head <- d.head + 1;
      Some j)
    else None
  in
  Mutex.unlock d.lock;
  r

let steal_back d =
  Mutex.lock d.lock;
  let r =
    if d.head < d.tail then (
      let j = d.slots.(d.tail - 1) in
      d.tail <- d.tail - 1;
      Some j)
    else None
  in
  Mutex.unlock d.lock;
  r

(* Crash isolation: catch everything, retry up to [retries] extra times,
   and report the first exception when all attempts fail. *)
let run_attempts ~retries fn =
  let rec go attempt first_err =
    match fn () with
    | v -> { value = Ok v; attempts = attempt }
    | exception e ->
        let msg =
          match first_err with Some m -> m | None -> Printexc.to_string e
        in
        if attempt > retries then { value = Error msg; attempts = attempt }
        else go (attempt + 1) (Some msg)
  in
  go 1 None

(* --- persistent workers ------------------------------------------------

   Worker domains are spawned on first need, up to [jobs - 1], and then
   parked on [wake] between batches, so every later batch reuses them.
   A short-lived domain that ran allocation-heavy jobs costs resident
   memory a parked one does not.  One batch runs at a time: whoever
   holds [busy] publishes a batch body, runs worker 0 itself and waits
   on [idle] for the workers it enlisted.  All of the state below is
   guarded by [lock]; [spawned] is only touched by the [busy] holder. *)

let lock = Mutex.create ()
let wake = Condition.create ()
let idle = Condition.create ()
let busy = ref false
let batch_id = ref 0  (* bumped each time a batch is published *)
let body : (int -> unit) ref = ref ignore  (* the batch, by worker id *)
let enlisted = ref 0  (* workers 1..enlisted take part in the batch *)
let pending = ref 0  (* enlisted workers still running *)
let spawned = ref 0

let rec park id seen =
  Mutex.lock lock;
  while !batch_id = seen do
    Condition.wait wake lock
  done;
  let seen = !batch_id in
  let work = if id <= !enlisted then Some !body else None in
  Mutex.unlock lock;
  (match work with
  | None -> ()
  | Some work ->
      work id;
      Mutex.lock lock;
      decr pending;
      if !pending = 0 then Condition.signal idle;
      Mutex.unlock lock);
  park id seen

(* Take the pool for one batch; [false] when a batch is already running,
   which the caller answers by running inline. *)
let acquire () =
  Mutex.lock lock;
  let free = not !busy in
  if free then busy := true;
  Mutex.unlock lock;
  free

(* Run [worker 0 .. worker (jobs - 1)] to completion, worker 0 on the
   calling domain.  Requires [busy]; releases it. *)
let run_batch ~jobs (worker : int -> unit) =
  (try
     while !spawned < jobs - 1 do
       let id = !spawned + 1 and seen = !batch_id in
       ignore (Domain.spawn (fun () -> park id seen));
       spawned := id
     done
   with Failure _ -> () (* the domain limit: fewer helpers, worker 0 steals the rest *));
  let helpers = Stdlib.min (jobs - 1) !spawned in
  Mutex.lock lock;
  body := worker;
  enlisted := helpers;
  pending := helpers;
  incr batch_id;
  Condition.broadcast wake;
  Mutex.unlock lock;
  worker 0;
  Mutex.lock lock;
  while !pending > 0 do
    Condition.wait idle lock
  done;
  body := ignore;
  busy := false;
  Mutex.unlock lock

(** Run every job of [fns] and return the outcomes in job order.
    [jobs] workers (default {!default_jobs}; clamped to the job count):
    the calling domain plus [jobs - 1] persistent worker domains.  [1]
    runs inline on the calling domain without touching a domain, and so
    does a call made while another batch is running — from inside a
    job or from another systhread — so nested and concurrent calls get
    the [jobs = 1] outcomes.  [retries] is the number of extra attempts
    after a crash (default 1, the campaign's historical crash-isolation
    policy). *)
let run ?jobs ?(retries = 1) (fns : (unit -> 'a) array) : 'a outcome array =
  let n = Array.length fns in
  let jobs =
    let requested = match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs () in
    Stdlib.min requested (Stdlib.max 1 n)
  in
  if n = 0 then [||]
  else if jobs = 1 || not (acquire ()) then
    Array.map (fun fn -> run_attempts ~retries fn) fns
  else begin
    let results : 'a outcome option array = Array.make n None in
    (* deal each worker a contiguous block; stealing rebalances the tail *)
    let deques =
      Array.init jobs (fun w ->
          let lo = w * n / jobs and hi = (w + 1) * n / jobs in
          {
            lock = Mutex.create ();
            slots = Array.init (hi - lo) (fun i -> lo + i);
            head = 0;
            tail = hi - lo;
          })
    in
    let exec j = results.(j) <- Some (run_attempts ~retries fns.(j)) in
    let worker w =
      let rec steal k =
        if k >= jobs then None
        else
          match steal_back deques.((w + k) mod jobs) with
          | Some j -> Some j
          | None -> steal (k + 1)
      in
      let rec loop () =
        match pop_front deques.(w) with
        | Some j ->
            exec j;
            loop ()
        | None -> (
            match steal 1 with
            | Some j ->
                exec j;
                loop ()
            | None -> ())
      in
      loop ()
    in
    run_batch ~jobs worker;
    Array.map
      (function
        | Some o -> o
        | None ->
            (* unreachable: every enqueued index is popped exactly once
               and executed before its worker reports done *)
            assert false)
      results
  end

(** [map f items] = {!run} over [fun () -> f item], outcomes in input
    order. *)
let map ?jobs ?retries f items =
  Array.to_list
    (run ?jobs ?retries (Array.of_list (List.map (fun x () -> f x) items)))
