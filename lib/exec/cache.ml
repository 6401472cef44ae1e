(** Two-tier content-hash compile cache.

    A fault-injection sweep compiles hundreds of mutants that differ
    only in the injected IR rewrite; everything before fault injection —
    assertion synthesis, lowering, IR optimization, checker synthesis —
    is identical per (program, strategy).  This cache memoizes exactly
    that prefix ({!Core.Driver.front}), keyed by a digest of the
    pretty-printed program and the strategy identity, so the ~5
    strategies x hundreds-of-mutants sweep stops recompiling identical
    baselines.

    The in-memory tier dies with the process; the optional on-disk tier
    (enabled by [INCA_CACHE_DIR] or {!set_dir}) is a content-addressed
    store that persists fronts — and, through the generic blob API,
    campaign baseline snapshots — across processes, so repeated [inca
    campaign]/[mine]/[bench] sessions start warm.  Disk entries are
    written atomically (temp file + rename) with a versioned header that
    includes a digest of the running executable: fronts contain
    closures, and [Marshal.Closures] images are only valid within the
    binary that produced them.  A corrupt, truncated or incompatible
    entry is treated as a miss, never an error.

    Concurrency: the table is mutex-guarded and safe to hit from every
    worker domain; fronts are immutable, so one cached value is shared
    by concurrent {!Core.Driver.finish} calls.  A compile on miss runs
    {e outside} the lock — two domains racing on the same key may
    duplicate work, but the first insert wins and both observe the same
    value.  The campaign plan warms each distinct (program,
    strategy) front in its own pool job before anything else looks it
    up, so each key costs exactly one miss and the hit/miss counters
    are the same for every worker count.  The disk tier is reached from
    worker domains too: temp files are private to a (process, domain)
    and the executable digest is computed once under a lock. *)

module Driver = Core.Driver

type stats = { hits : int; misses : int; disk_hits : int; disk_misses : int }

let lock = Mutex.create ()
let table : (string, Driver.front) Hashtbl.t = Hashtbl.create 64
let hit_count = Atomic.make 0
let miss_count = Atomic.make 0
let disk_hit_count = Atomic.make 0
let disk_miss_count = Atomic.make 0

(* --- Disk tier -------------------------------------------------------------- *)

let magic = "INCA-CACHE"
let format_version = 1

(* Marshalled closures are only valid inside the binary that wrote
   them: stamp every entry with the executable's digest.  Computed on
   first use under a lock: worker domains reach it concurrently, and a
   [lazy] forced from two domains at once raises [Lazy.Undefined]. *)
let digest_lock = Mutex.create ()
let digest_memo : Digest.t option ref = ref None

let exe_digest () =
  Mutex.protect digest_lock (fun () ->
      match !digest_memo with
      | Some d -> d
      | None ->
          let d = try Digest.file Sys.executable_name with _ -> Digest.string "unknown" in
          digest_memo := Some d;
          d)

let cache_dir : string option ref = ref (Sys.getenv_opt "INCA_CACHE_DIR")

let set_dir d = cache_dir := d
let dir () = !cache_dir

let header () =
  Printf.sprintf "%s\x01%d\x01%s\x01" magic format_version
    (Digest.to_hex (exe_digest ()))

(* Keys are hex digests and kinds are short identifiers, so a flat
   [dir/kind-key.bin] layout needs no subdirectories. *)
let entry_path dir ~kind ~key = Filename.concat dir (kind ^ "-" ^ key ^ ".bin")

let ensure_dir d =
  try
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    true
  with _ -> Sys.file_exists d && Sys.is_directory d

(* Atomic publish: write a private temp file, then rename into place.
   Readers either see the old entry, the new entry, or nothing. *)
let disk_store ~kind ~key (v : 'a) =
  match !cache_dir with
  | None -> ()
  | Some d -> (
      try
        if ensure_dir d then begin
          let path = entry_path d ~kind ~key in
          let tmp =
            Filename.concat d
              (Printf.sprintf ".tmp-%d-%d-%s-%s" (Unix.getpid ())
                 (Domain.self () :> int) kind key)
          in
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc (header ());
              Marshal.to_channel oc v [ Marshal.Closures ]);
          Sys.rename tmp path
        end
      with _ -> ())

(* Any failure — missing file, short read, bad header, marshal error —
   is a miss.  A hit refreshes the entry's mtime so GC is LRU-ish. *)
let disk_load ~kind ~key : 'a option =
  match !cache_dir with
  | None -> None
  | Some d -> (
      let path = entry_path d ~kind ~key in
      match open_in_bin path with
      | exception _ -> None
      | ic -> (
          let r =
            try
              let h = header () in
              let buf = really_input_string ic (String.length h) in
              if buf <> h then None else Some (Marshal.from_channel ic)
            with _ -> None
          in
          close_in_noerr ic;
          (try Unix.utimes path 0.0 0.0 with _ -> ());
          r))

let disk_enabled () = !cache_dir <> None

(* --- Keys ------------------------------------------------------------------- *)

(* The induction-pruned assertion set is part of the front's identity:
   a front compiled with checkers pruned by a k-induction proof must
   never be served for a request without that pruning (and vice versa),
   exactly like the strategy fields. *)
let pruned_id (induction_proved : (string * Front.Loc.t * string) list) =
  String.concat "\x01"
    (List.map
       (fun (p, (loc : Front.Loc.t), text) ->
         Printf.sprintf "%s:%d:%d:%s" p loc.Front.Loc.line loc.Front.Loc.col text)
       induction_proved)

(** The cache key: a digest of the pretty-printed program, the
    {!Core.Driver.strategy_id} and the induction-pruned assertion set —
    content identity, not physical identity, so re-parsed or
    re-instrumented copies of the same program still hit. *)
let key ?(induction_proved = []) ~(strategy : Driver.strategy)
    (prog : Front.Ast.program) =
  Digest.to_hex
    (Digest.string
       (Driver.strategy_id strategy ^ "\x00"
       ^ pruned_id induction_proved
       ^ "\x00"
       ^ Front.Pretty.program_to_string prog))

(* --- Fronts ----------------------------------------------------------------- *)

(** Memoized {!Core.Driver.front}: memory tier first, then the disk
    store, then a real compile (published to both tiers). *)
let front ?(strategy = Driver.optimized) ?(induction_proved = [])
    (prog : Front.Ast.program) : Driver.front =
  let k = key ~induction_proved ~strategy prog in
  let cached =
    Mutex.lock lock;
    let r = Hashtbl.find_opt table k in
    Mutex.unlock lock;
    r
  in
  match cached with
  | Some f ->
      Atomic.incr hit_count;
      f
  | None ->
      Atomic.incr miss_count;
      let from_disk =
        if not (disk_enabled ()) then None
        else begin
          let r = (disk_load ~kind:"front" ~key:k : Driver.front option) in
          (match r with
          | Some _ -> Atomic.incr disk_hit_count
          | None -> Atomic.incr disk_miss_count);
          r
        end
      in
      let f =
        match from_disk with
        | Some f -> f
        | None ->
            let f = Driver.front ~strategy ~induction_proved prog in
            if disk_enabled () then disk_store ~kind:"front" ~key:k f;
            f
      in
      Mutex.lock lock;
      let f =
        match Hashtbl.find_opt table k with
        | Some winner -> winner (* another domain inserted first *)
        | None ->
            Hashtbl.add table k f;
            f
      in
      Mutex.unlock lock;
      f

(** [Driver.compile] through the cache: the fault-independent prefix is
    memoized, fault injection and scheduling run per call. *)
let compile ?strategy ?induction_proved ?faults (prog : Front.Ast.program) :
    Driver.compiled =
  Driver.finish ?faults (front ?strategy ?induction_proved prog)

(* --- Generic blobs ---------------------------------------------------------- *)

(** Persist an arbitrary (closure-free or not) value under (kind, key).
    No-ops when the disk tier is disabled.  The campaign stores baseline
    engine snapshots this way. *)
let store_blob ~kind ~key (v : 'a) = disk_store ~kind ~key v

(** Fetch a blob; [None] on any miss (disabled tier, absent, corrupt,
    different binary).  Counted in the disk hit/miss statistics. *)
let load_blob ~kind ~key : 'a option =
  if not (disk_enabled ()) then None
  else begin
    let r = disk_load ~kind ~key in
    (match r with
    | Some _ -> Atomic.incr disk_hit_count
    | None -> Atomic.incr disk_miss_count);
    r
  end

(* --- Statistics and maintenance --------------------------------------------- *)

let stats () =
  {
    hits = Atomic.get hit_count;
    misses = Atomic.get miss_count;
    disk_hits = Atomic.get disk_hit_count;
    disk_misses = Atomic.get disk_miss_count;
  }

(** Drop every cached front from the in-memory tier and zero the
    counters.  The disk store is deliberately untouched — bench cold
    runs must not silently wipe a persistent artifact store. *)
let reset_memory () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock;
  Atomic.set hit_count 0;
  Atomic.set miss_count 0;
  Atomic.set disk_hit_count 0;
  Atomic.set disk_miss_count 0

(** Backwards-compatible alias for {!reset_memory}. *)
let reset () = reset_memory ()

let is_entry name =
  Filename.check_suffix name ".bin" && not (String.length name > 0 && name.[0] = '.')

let entry_files d =
  match Sys.readdir d with
  | exception _ -> []
  | names ->
      Array.to_list names
      |> List.filter is_entry
      |> List.filter_map (fun n ->
             let path = Filename.concat d n in
             match Unix.stat path with
             | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                 Some (path, st_size, st_mtime)
             | _ | (exception _) -> None)

type disk_stats = { entries : int; bytes : int }

(** Entry count and total size of the disk store ([None] when the disk
    tier is disabled). *)
let disk_stats () =
  match !cache_dir with
  | None -> None
  | Some d ->
      let files = entry_files d in
      Some
        {
          entries = List.length files;
          bytes = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 files;
        }

(** Delete every entry in the disk store (the store directory itself is
    kept).  Explicit by design: see {!reset_memory}. *)
let clear_disk () =
  match !cache_dir with
  | None -> ()
  | Some d ->
      List.iter (fun (path, _, _) -> try Sys.remove path with _ -> ()) (entry_files d)

(** LRU eviction: delete oldest-touched entries until the store holds at
    most [max_bytes].  Returns the number of entries removed. *)
let gc ~max_bytes =
  match !cache_dir with
  | None -> 0
  | Some d ->
      let files =
        entry_files d |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
        (* newest first *)
      in
      let removed = ref 0 in
      let total = ref 0 in
      List.iter
        (fun (path, sz, _) ->
          total := !total + sz;
          if !total > max_bytes then begin
            (try
               Sys.remove path;
               incr removed
             with _ -> ())
          end)
        files;
      !removed
