(* Executor tests: the work-stealing pool (job order, crash isolation,
   retry accounting, serial fallback), the content-hash compile cache
   (physical sharing, per-strategy keys, hit/miss counters), and the
   end-to-end determinism contract — a campaign swept on 4 domains must
   render byte-identically to the same sweep on 1. *)

open Front
module Driver = Core.Driver
module Pool = Exec.Pool
module Cache = Exec.Cache

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let elab = Typecheck.parse_and_check ~file:"test.c"

(* --- pool ---------------------------------------------------------------- *)

let test_pool_drains_all_jobs_despite_crashes () =
  (* every 3rd job always raises; the pool must still deliver every
     outcome, in job order, with the failures isolated as [Error] *)
  let n = 16 in
  let fns =
    Array.init n (fun i () ->
        if i mod 3 = 0 then failwith (Printf.sprintf "boom %d" i) else i * 10)
  in
  let out = Pool.run ~jobs:4 ~retries:1 fns in
  check tint "one outcome per job" n (Array.length out);
  Array.iteri
    (fun i (o : int Pool.outcome) ->
      if i mod 3 = 0 then begin
        (match o.Pool.value with
        | Error msg ->
            check tbool (Printf.sprintf "job %d error names itself" i) true
              (let sub = Printf.sprintf "boom %d" i in
               let ls = String.length sub and lm = String.length msg in
               let rec go j = j + ls <= lm && (String.sub msg j ls = sub || go (j + 1)) in
               go 0)
        | Ok _ -> Alcotest.failf "job %d should have failed" i);
        check tint (Printf.sprintf "job %d retried once" i) 2 o.Pool.attempts
      end
      else
        match o.Pool.value with
        | Ok v ->
            check tint (Printf.sprintf "job %d value in order" i) (i * 10) v;
            check tint (Printf.sprintf "job %d ran once" i) 1 o.Pool.attempts
        | Error m -> Alcotest.failf "job %d unexpectedly failed: %s" i m)
    out

let test_pool_retry_recovers_transient_crash () =
  (* jobs that crash on their first attempt and succeed on the second:
     the retry must recover them and the accounting must show it *)
  let n = 8 in
  let tries = Array.init n (fun _ -> Atomic.make 0) in
  let fns =
    Array.init n (fun i () ->
        if Atomic.fetch_and_add tries.(i) 1 = 0 then failwith "transient" else i)
  in
  let out = Pool.run ~jobs:4 ~retries:1 fns in
  Array.iteri
    (fun i (o : int Pool.outcome) ->
      (match o.Pool.value with
      | Ok v -> check tint (Printf.sprintf "job %d recovered" i) i v
      | Error m -> Alcotest.failf "job %d not recovered: %s" i m);
      check tint (Printf.sprintf "job %d took two attempts" i) 2 o.Pool.attempts)
    out

let unwrap (o : int Pool.outcome) =
  match o.Pool.value with Ok v -> v | Error m -> Alcotest.failf "job failed: %s" m

let test_pool_serial_matches_parallel () =
  let fns = Array.init 32 (fun i () -> i * i) in
  let serial = Array.map unwrap (Pool.run ~jobs:1 fns) in
  let par = Array.map unwrap (Pool.run ~jobs:4 fns) in
  check (Alcotest.array tint) "serial = parallel, in job order" serial par

let test_pool_back_to_back_batches () =
  (* the parked workers are reused by every batch; each batch must still
     deliver its own outcomes, in job order *)
  for b = 1 to 500 do
    let n = 1 + (b mod 13) in
    let out = Array.map unwrap (Pool.run ~jobs:4 (Array.init n (fun i () -> (b * 100) + i))) in
    check (Alcotest.array tint)
      (Printf.sprintf "batch %d in job order" b)
      (Array.init n (fun i -> (b * 100) + i))
      out
  done

(* inner jobs: a value, a persistent crash, and a transient one *)
let inner_jobs k =
  let tries = Atomic.make 0 in
  [|
    (fun () -> k * 10);
    (fun () -> failwith (Printf.sprintf "inner %d" k));
    (fun () -> if Atomic.fetch_and_add tries 1 = 0 then failwith "transient" else k);
  |]

let test_pool_nested_run_is_inline () =
  (* a job that calls the pool while its own batch runs gets exactly the
     [jobs = 1] outcomes, without deadlocking on the busy pool *)
  let outer =
    Pool.run ~jobs:2 (Array.init 6 (fun k () -> (Pool.run ~jobs:2 (inner_jobs k), k)))
  in
  Array.iteri
    (fun k (o : (int Pool.outcome array * int) Pool.outcome) ->
      match o.Pool.value with
      | Ok (nested, k') ->
          check tint "outer order" k k';
          check tbool
            (Printf.sprintf "job %d: nested outcomes = jobs 1 outcomes" k)
            true
            (nested = Pool.run ~jobs:1 (inner_jobs k))
      | Error m -> Alcotest.failf "outer job %d failed: %s" k m)
    outer

let test_pool_concurrent_systhreads () =
  (* two systhreads share the pool: whichever finds a batch running runs
     inline, and both always get their own outcomes in job order *)
  let failures = Atomic.make 0 in
  let client base () =
    for b = 1 to 100 do
      let n = 1 + (b mod 7) in
      let out =
        Pool.run ~jobs:2 (Array.init n (fun i () -> base + (b * 10) + i))
      in
      let expect = Array.init n (fun i -> base + (b * 10) + i) in
      if Array.map (fun (o : int Pool.outcome) -> o.Pool.value) out
         <> Array.map (fun v -> Ok v) expect
      then Atomic.incr failures
    done
  in
  let a = Thread.create (client 100_000) () and b = Thread.create (client 200_000) () in
  Thread.join a;
  Thread.join b;
  check tint "every batch of both threads correct" 0 (Atomic.get failures)

(* --- cache --------------------------------------------------------------- *)

let cache_source =
  {|
stream int32 data_in depth 16;
stream int32 data_out depth 16;

process hw worker(int32 n) {
  int32 i;
  for (i = 0; i < n; i = i + 1) {
    int32 x;
    x = stream_read(data_in);
    assert(x < 1000);
    stream_write(data_out, x + 1);
  }
}
|}

let test_cache_returns_shared_front () =
  let prog = elab cache_source in
  Cache.reset ();
  let a = Cache.front ~strategy:Driver.optimized prog in
  let b = Cache.front ~strategy:Driver.optimized prog in
  check tbool "same (program, strategy) shares one front" true (a == b);
  let s = Cache.stats () in
  check tint "one miss" 1 s.Cache.misses;
  check tint "one hit" 1 s.Cache.hits

let test_cache_distinct_fronts_per_strategy () =
  let prog = elab cache_source in
  Cache.reset ();
  let fronts =
    List.map (fun (_, st) -> Cache.front ~strategy:st prog) Driver.all_strategies
  in
  (* every strategy gets its own slot: distinct keys, no cross-strategy
     physical sharing, and a second lookup hits every slot *)
  let keys = List.map (fun (_, st) -> Cache.key ~strategy:st prog) Driver.all_strategies in
  check tint "one key per strategy"
    (List.length Driver.all_strategies)
    (List.length (List.sort_uniq compare keys));
  List.iteri
    (fun i fi ->
      List.iteri
        (fun j fj ->
          if i < j then
            check tbool (Printf.sprintf "fronts %d and %d distinct" i j) false (fi == fj))
        fronts)
    fronts;
  let s = Cache.stats () in
  check tint "all first lookups miss" (List.length Driver.all_strategies) s.Cache.misses;
  List.iter
    (fun (_, st) -> ignore (Cache.front ~strategy:st prog))
    Driver.all_strategies;
  let s = Cache.stats () in
  check tint "all second lookups hit" (List.length Driver.all_strategies) s.Cache.hits

let test_cache_compile_equals_driver_compile () =
  let prog = elab cache_source in
  Cache.reset ();
  let direct = Driver.compile ~strategy:Driver.parallelized prog in
  let cached = Cache.compile ~strategy:Driver.parallelized prog in
  check tstr "identical VHDL through the cache" (Driver.vhdl direct) (Driver.vhdl cached);
  check tint "identical ALUTs" direct.Driver.area.Rtl.Area.aluts
    cached.Driver.area.Rtl.Area.aluts

(* --- disk tier ----------------------------------------------------------- *)

let with_disk_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "inca-cache-test-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  Cache.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Cache.clear_disk ();
      (try Sys.rmdir dir with _ -> ());
      Cache.set_dir None;
      Cache.reset_memory ())
    (fun () -> f dir)

let test_disk_cache_warm_hit_across_processes () =
  (* entries are keyed by the producing executable's digest; dropping
     the in-memory tier is exactly what a new process of this binary
     sees, so a second "process" must warm-start from disk *)
  with_disk_cache (fun _dir ->
      let prog = elab cache_source in
      Cache.reset_memory ();
      ignore (Cache.front ~strategy:Driver.optimized prog);
      let s = Cache.stats () in
      check tint "cold run misses the disk too" 1 s.Cache.disk_misses;
      (match Cache.disk_stats () with
      | Some d -> check tbool "entry persisted" true (d.Cache.entries >= 1)
      | None -> Alcotest.fail "disk tier should be enabled");
      Cache.reset_memory ();
      ignore (Cache.front ~strategy:Driver.optimized prog);
      let s = Cache.stats () in
      check tint "warm run loads from disk" 1 s.Cache.disk_hits;
      check tint "no disk miss on the warm run" 0 s.Cache.disk_misses)

let test_disk_cache_blob_roundtrip () =
  with_disk_cache (fun _dir ->
      Cache.reset_memory ();
      Cache.store_blob ~kind:"test" ~key:"k1" [ 1; 2; 3 ];
      check tbool "blob round-trips" true
        (Cache.load_blob ~kind:"test" ~key:"k1" = Some [ 1; 2; 3 ]);
      check tbool "absent blob is a miss, not an error" true
        (Cache.load_blob ~kind:"test" ~key:"absent" = (None : int list option)))

let test_disk_cache_corruption_is_a_miss () =
  with_disk_cache (fun dir ->
      Cache.reset_memory ();
      Cache.store_blob ~kind:"test" ~key:"victim" "payload";
      (* truncate the entry mid-header *)
      let path =
        match Sys.readdir dir |> Array.to_list with
        | [ one ] -> Filename.concat dir one
        | files ->
            List.find
              (fun f -> Filename.check_suffix f ".bin")
              (List.map (Filename.concat dir) files)
      in
      let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 path in
      output_string oc "INCA";
      close_out oc;
      check tbool "truncated entry reads as a miss" true
        (Cache.load_blob ~kind:"test" ~key:"victim" = (None : string option));
      (* overwrite with garbage of plausible length *)
      let oc = open_out_bin path in
      output_string oc (String.make 256 '\xff');
      close_out oc;
      check tbool "garbage entry reads as a miss" true
        (Cache.load_blob ~kind:"test" ~key:"victim" = (None : string option)))

let test_disk_cache_gc_and_clear () =
  with_disk_cache (fun _dir ->
      Cache.reset_memory ();
      for i = 1 to 8 do
        Cache.store_blob ~kind:"test"
          ~key:(Printf.sprintf "k%d" i)
          (String.make 1024 'x')
      done;
      let before =
        match Cache.disk_stats () with Some d -> d | None -> Alcotest.fail "enabled"
      in
      check tint "eight entries" 8 before.Cache.entries;
      let removed = Cache.gc ~max_bytes:(before.Cache.bytes / 2) in
      check tbool "gc evicted something" true (removed > 0);
      let after =
        match Cache.disk_stats () with Some d -> d | None -> Alcotest.fail "enabled"
      in
      check tbool "gc respects the byte bound" true
        (after.Cache.bytes <= before.Cache.bytes / 2);
      Cache.clear_disk ();
      match Cache.disk_stats () with
      | Some d -> check tint "clear empties the store" 0 d.Cache.entries
      | None -> Alcotest.fail "enabled")

let test_disk_cache_parallel_campaign () =
  (* a cold campaign on 4 workers reaches the disk tier from worker
     domains: it must store one baseline bundle per (workload, strategy),
     and a later process must read the store back identically at any
     job count *)
  with_disk_cache (fun dir ->
      let workloads =
        List.filter
          (fun (w : Campaign.workload) -> List.mem w.Campaign.wname [ "fir"; "dct" ])
          (Campaign.bundled ())
      in
      let sweep jobs =
        Cache.reset_memory ();
        let config = { Campaign.default_config with Campaign.jobs = Some jobs } in
        let classes = Campaign.render_classes (Campaign.run ~config workloads) in
        (classes, Cache.stats ())
      in
      let cold, _ = sweep 4 in
      let entries prefix =
        List.length
          (List.filter (String.starts_with ~prefix) (Array.to_list (Sys.readdir dir)))
      in
      check tint "one campaign-base blob per (workload, strategy)"
        (List.length workloads * List.length Campaign.default_strategies)
        (entries "campaign-base-");
      let warm1, s1 = sweep 1 in
      let warm4, s4 = sweep 4 in
      check tstr "warm jobs 1 classes = cold" cold warm1;
      check tstr "warm jobs 4 classes = cold" cold warm4;
      check tint "every entry read back" (entries "") s1.Cache.disk_hits;
      check tint "no disk miss when warm" 0 s1.Cache.disk_misses;
      check tint "same disk hits at jobs 1 and 4" s1.Cache.disk_hits s4.Cache.disk_hits;
      check tint "same disk misses at jobs 1 and 4" s1.Cache.disk_misses
        s4.Cache.disk_misses)

(* --- end-to-end determinism ---------------------------------------------- *)

(* dune runtest runs tests from the test dir; dune exec from the root —
   probe both prefixes for the shared example sources *)
let example path =
  List.find Sys.file_exists
    [ Filename.concat ".." path; path; Filename.concat "../.." path ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_campaign_parallel_byte_identical () =
  (* the acceptance contract: examples/campaign.c swept on 4 domains
     renders byte-identically (text and JSON) to the serial sweep *)
  let src = read_file (example "examples/campaign.c") in
  let prog = Typecheck.parse_and_check ~file:"campaign.c" src in
  let options = Mine.Trace.auto_options prog in
  let workloads = [ { Campaign.wname = "campaign"; program = prog; options } ] in
  let sweep jobs =
    let config =
      { Campaign.default_config with Campaign.max_mutants = Some 6; jobs = Some jobs }
    in
    let r = Campaign.run ~config workloads in
    (Campaign.render r, Json.to_string (Campaign.json_of r))
  in
  let ser_txt, ser_json = sweep 1 in
  let par_txt, par_json = sweep 4 in
  check tstr "text report byte-identical" ser_txt par_txt;
  check tstr "json report byte-identical" ser_json par_json

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "drains all jobs despite crashes" `Quick
            test_pool_drains_all_jobs_despite_crashes;
          Alcotest.test_case "retry recovers transient crash" `Quick
            test_pool_retry_recovers_transient_crash;
          Alcotest.test_case "serial matches parallel" `Quick
            test_pool_serial_matches_parallel;
          Alcotest.test_case "500 back-to-back batches" `Quick
            test_pool_back_to_back_batches;
          Alcotest.test_case "nested run is inline" `Quick test_pool_nested_run_is_inline;
          Alcotest.test_case "concurrent systhreads" `Quick
            test_pool_concurrent_systhreads;
        ] );
      ( "cache",
        [
          Alcotest.test_case "shared front per key" `Quick test_cache_returns_shared_front;
          Alcotest.test_case "distinct fronts per strategy" `Quick
            test_cache_distinct_fronts_per_strategy;
          Alcotest.test_case "compile equals Driver.compile" `Quick
            test_cache_compile_equals_driver_compile;
        ] );
      ( "disk",
        [
          (* first: the first disk access of the process happens on workers *)
          Alcotest.test_case "parallel campaign stores and reloads" `Quick
            test_disk_cache_parallel_campaign;
          Alcotest.test_case "warm hit across processes" `Quick
            test_disk_cache_warm_hit_across_processes;
          Alcotest.test_case "blob round-trip" `Quick test_disk_cache_blob_roundtrip;
          Alcotest.test_case "corruption is a miss" `Quick
            test_disk_cache_corruption_is_a_miss;
          Alcotest.test_case "gc and clear" `Quick test_disk_cache_gc_and_clear;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "campaign --jobs 4 = --jobs 1" `Quick
            test_campaign_parallel_byte_identical;
        ] );
    ]
