(** Two-tier content-hash compile cache over {!Core.Driver.front}.

    Memoizes the fault-independent prefix of a compile, keyed by a
    digest of (pretty-printed program, strategy identity).  Safe to hit
    from every worker domain; cached fronts are immutable and shared.
    The process-wide instance deliberately spans campaign and mining
    sweeps — a ranking run re-evaluates the same base program dozens of
    times and hits across sweeps.

    The optional disk tier — enabled by the [INCA_CACHE_DIR] environment
    variable or {!set_dir} — is a content-addressed store that persists
    fronts and arbitrary blobs (campaign baseline snapshots) across
    processes.  Entries are written atomically with a versioned header
    bound to the running executable; corrupt or incompatible entries
    read as misses, never errors.  Both tiers are safe to use from
    concurrent worker domains. *)

type stats = { hits : int; misses : int; disk_hits : int; disk_misses : int }

(** Point the disk tier at a directory ([None] disables it).  Initially
    taken from [INCA_CACHE_DIR] when set. *)
val set_dir : string option -> unit

(** The disk store directory currently in use, if any. *)
val dir : unit -> string option

(** The cache key for a (program, strategy, induction-pruned set)
    triple (exposed for tests).  The pruned assertion keys are part of
    the front's identity: a front with checkers removed by a
    k-induction proof must never be served for an unpruned request. *)
val key :
  ?induction_proved:(string * Front.Loc.t * string) list ->
  strategy:Core.Driver.strategy ->
  Front.Ast.program ->
  string

(** Memoized {!Core.Driver.front}: physically the same front for equal
    (program, strategy, induction-pruned set) content within a process;
    across processes the disk tier is consulted before compiling. *)
val front :
  ?strategy:Core.Driver.strategy ->
  ?induction_proved:(string * Front.Loc.t * string) list ->
  Front.Ast.program ->
  Core.Driver.front

(** [Driver.compile] through the cache: the fault-independent prefix is
    memoized, fault injection and scheduling run per call. *)
val compile :
  ?strategy:Core.Driver.strategy ->
  ?induction_proved:(string * Front.Loc.t * string) list ->
  ?faults:Faults.Fault.t list ->
  Front.Ast.program ->
  Core.Driver.compiled

(** Persist an arbitrary value under (kind, key) in the disk store.
    No-op when the disk tier is disabled. *)
val store_blob : kind:string -> key:string -> 'a -> unit

(** Fetch a blob; [None] on any miss (disabled tier, absent, corrupt,
    written by a different binary).  The caller guarantees the expected
    type matches what {!store_blob} stored under this (kind, key). *)
val load_blob : kind:string -> key:string -> 'a option

(** Cumulative counters since start or the last {!reset_memory}:
    [hits]/[misses] for the in-memory tier, [disk_hits]/[disk_misses]
    for disk-store consultations (front misses and blob loads). *)
val stats : unit -> stats

(** Drop every cached front from the in-memory tier and zero the
    counters (bench harness resets between timed runs so each run is
    measured cold).  The disk store is deliberately untouched. *)
val reset_memory : unit -> unit

(** Backwards-compatible alias for {!reset_memory}. *)
val reset : unit -> unit

type disk_stats = { entries : int; bytes : int }

(** Entry count and total size of the disk store ([None] when the disk
    tier is disabled). *)
val disk_stats : unit -> disk_stats option

(** Delete every entry in the disk store; the directory is kept. *)
val clear_disk : unit -> unit

(** LRU eviction by last-touch time: delete oldest entries until at most
    [max_bytes] remain.  Returns the number of entries removed. *)
val gc : max_bytes:int -> int
