(* The repository benchmark.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Workloads (all in this one process, at most two domains busy):
   - campaign: [Campaign.run] over the bundled applications, fork mode,
     hang pruning, two workers, compile cache emptied before each pass;
   - fuzz:     clean [Torture.Fuzz.run] sweeps (fuel 8, two workers);
   - shrink:   the fault leg: [Torture.Fuzz.run] with a dropped stream
     write, so the program diverges and is delta-debugged;
   - serve:    an in-process [inca serve] daemon and one closed-loop
     client cycling through check / prove / campaign jobs.

   With [--trace 0] the benchmark times untraced passes for [--seconds]
   and reports the end-to-end metrics:
   - setup_s: the median of five set-ups (inputs, references, daemon,
     warm-up pass), the first counted from process start;
   - wall_s: the fastest pass.  On a shared host, contention only ever
     slows a pass down; over ten runs of the campaign the fastest pass
     spread 2-18% where the median pass spread 19-33%;
   - peak_rss_mb: the process's peak resident set.
   A pass that fails its check counts in [failed].

   With [--trace 1] it alternates untraced passes with traced ones (the
   same work, re-enacted through the public layer calls in {!Mirror}
   with every call in a span), reports per-layer metrics, prints a
   self-time table to stderr and writes the spans as Chrome trace-event
   JSON under [perfbench_out/].  The request latencies of the untraced
   passes are reported there too (request.p50_ms and request.tail_ms,
   the highest percentile with ten requests beyond it), where a request
   is one pass, except for serve, where it is one served job: medians
   follow the host's contention too closely to carry a bound.

   Every pass checks its outputs; the last line of stdout is the result
   object. *)

let process_start = Unix.gettimeofday ()

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let usage = "perfbench --workload campaign|fuzz|shrink|serve --seed N --seconds S --trace 0|1"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- statistics ---------------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fastest xs = List.fold_left Float.min infinity xs

(* The highest percentile with at least ten samples beyond it (the 11th
   largest sample), but never below the median: a run with fewer than 21
   requests has no tail to speak of. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  let i = max (n / 2) (n - 11) in
  (a.(i), 100.0 *. float_of_int (i + 1) /. float_of_int n)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.0

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --- workloads ------------------------------------------------------------ *)

(* One pass: the latency of each request it served (one request per pass
   except for [serve]) and how many of them failed their check. *)
type result = { latencies : float list; failed : int }

let timed_check f =
  let ok, dt = time (fun () -> try f () with e -> log "pass raised %s" (Printexc.to_string e); false) in
  if not ok then log "pass failed its correctness check";
  { latencies = [ dt ]; failed = (if ok then 0 else 1) }

type instance = {
  pass : unit -> result;  (** one untraced pass *)
  traced : unit -> result;  (** the same pass re-enacted with spans *)
  attribute : unit -> unit;
      (** traced calls made after a traced pass, outside its wall time:
          the in-process reference work [serve] compares against *)
  stop : unit -> unit;
}

type workload = {
  name : string;
  jobs : int;  (** worker domains of the parallel sections *)
  setup : unit -> instance;
}

let cache_counters () =
  let s = Exec.Cache.stats () in
  Span.count "exec.cache.hits" s.Exec.Cache.hits;
  Span.count "exec.cache.misses" s.Exec.Cache.misses;
  Span.count "exec.cache.disk_hits" s.Exec.Cache.disk_hits

(* campaign: 5 apps x 67 sites x 4 strategies.  The expected counts are
   the recorded classification: 164 runs pruned as equivalent/dead, 16
   as certain hangs, and every strategy detecting 5 mutants, all of them
   hangs. *)
let campaign =
  let setup () =
    let ws = Campaign.bundled () in
    let run jobs =
      Exec.Cache.reset_memory ();
      Campaign.run ~config:{ Campaign.default_config with Campaign.jobs = Some jobs } ws
    in
    let reference = Campaign.render_classes (run 1) in
    let check (r : Campaign.report) =
      Campaign.render_classes r = reference
      && List.length r.Campaign.runs = 268
      && r.Campaign.pruned_static = 164
      && r.Campaign.pruned_hang = 16
      && List.for_all
           (fun (s : Campaign.strategy_summary) ->
             Campaign.detected_of_summary s = 5 && s.Campaign.by_assertion = 0)
           r.Campaign.summaries
    in
    ignore (run 2);
    {
      pass = (fun () -> timed_check (fun () -> check (run 2)));
      traced =
        (fun () ->
          timed_check (fun () ->
              Exec.Cache.reset_memory ();
              let classes = Mirror.campaign ~jobs:2 ws in
              cache_counters ();
              classes = reference));
      attribute = ignore;
      stop = ignore;
    }
  in
  { name = "campaign"; jobs = 2; setup }

(* Run seeds whose 200-program clean sweep agrees everywhere; other
   seeds (1 and 5, for instance) find real divergences, which would turn
   the sweep into a shrink.  Every pass sweeps all five, in an order
   [--seed] picks: the sweeps differ in cost by up to 30%, and letting
   the seed choose four of the five spread the fastest pass by 25% over
   ten seeds. *)
let fuzz_pool = [| 2L; 3L; 4L; 6L; 42L |]
let fuzz_count = 200

(* A seeded permutation of [a]. *)
let shuffle a =
  let st = Random.State.make [| !seed |] in
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let fuzz =
  let setup () =
    let seeds = Array.to_list (shuffle fuzz_pool) in
    log "fuzz: run seeds %s" (String.concat " " (List.map Int64.to_string seeds));
    let sweep s = Torture.Fuzz.run ~jobs:2 ~seed:s ~count:fuzz_count ~fuel:8 () in
    let cycles = List.map (fun s -> (s, (sweep s).Torture.Fuzz.r_baseline_cycles)) seeds in
    {
      pass =
        (fun () ->
          timed_check (fun () ->
              List.for_all
                (fun s ->
                  let r = sweep s in
                  r.Torture.Fuzz.r_findings = []
                  && r.Torture.Fuzz.r_baseline_cycles = List.assoc s cycles)
                seeds));
      traced =
        (fun () ->
          timed_check (fun () ->
              List.for_all
                (fun s ->
                  let c, findings =
                    Mirror.fuzz ~jobs:2 ~seed:s ~count:fuzz_count ~fuel:8 ~faults:[] ()
                  in
                  findings = [] && c = List.assoc s cycles)
                seeds));
      attribute = ignore;
      stop = ignore;
    }
  in
  { name = "fuzz"; jobs = 2; setup }

(* The fault the bench harness injects: drop p0's first write to chan1. *)
let drop_write =
  [ Faults.Fault.Drop_stream_write
      { fproc = "p0"; stream = "chan1"; select = Faults.Fault.Nth 0 } ]

(* The shrink input: run seed 17's program, shrunk for 37 attempts,
   which stops right after its first candidate that no longer
   terminates, so every pass burns the interpreter's 10M-step budget
   exactly once.  Of 44 scanned fault-leg programs it is the one whose
   non-terminating candidate spins without growing the heap (0.7 s per
   pass, 10 MB); the others' candidates fill a drained stream, reach
   200-360 MB and take 1.5-3.3 s per candidate, bimodally with the GC.
   The seed therefore does not change this workload. *)
let shrink_seed = 17L
let shrink_attempts = 37
let shrink_classes = [ "hang:baseline" ]

let shrink =
  let setup () =
    let reference = ref None in
    let same text =
      match !reference with
      | None ->
          reference := Some text;
          true
      | Some t -> t = text
    in
    let inst =
      {
        pass =
          (fun () ->
            timed_check (fun () ->
                let r =
                  Torture.Fuzz.run ~jobs:1 ~seed:shrink_seed ~count:1 ~faults:drop_write
                    ~shrink_attempts ()
                in
                match r.Torture.Fuzz.r_findings with
                | [ f ] ->
                    f.Torture.Fuzz.f_classes = shrink_classes
                    && same (Front.Pretty.program_to_string f.Torture.Fuzz.f_shrunk)
                | _ -> false));
        traced =
          (fun () ->
            timed_check (fun () ->
                match
                  Mirror.fuzz ~jobs:1 ~seed:shrink_seed ~count:1 ~fuel:8 ~faults:drop_write
                    ~shrink_attempts ()
                with
                | _, [ f ] -> f.Mirror.classes = shrink_classes && same f.Mirror.shrunk
                | _ -> false));
        attribute = ignore;
        stop = ignore;
      }
    in
    (* the warm-up pass records the shrunk program later passes must match *)
    ignore (inst.pass ());
    inst
  in
  { name = "shrink"; jobs = 1; setup }

(* serve: the job mix, built from the examples. *)
let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let source name = Core.Job.Text { name; text = read_file (Filename.concat "examples" name) }

let check_job name =
  Core.Job.Check
    { Core.Job.k_sources = [ source name ]; k_strategy = "optimized"; k_nabort = false;
      k_ndebug = false; k_only = None; k_ignore = None; k_watchdog = None }

let prove_job () =
  Core.Job.Prove
    { Core.Job.p_sources = [ source "prove_demo.c"; source "mine_demo.c" ]; p_depth = 8;
      p_induction = 4; p_assertion = None; p_conflict_limit = 200_000; p_jobs = Some 1 }

let campaign_job () =
  Core.Job.Campaign
    { Core.Job.a_source = Some (source "fir.c"); a_stimulus = Core.Job.empty_stimulus;
      a_budget = None; a_watchdog = None; a_max_mutants = Some 8; a_jobs = Some 1;
      a_from_reset = false; a_max_cycles = 1_000_000; a_prune_hangs = true }

(* One cycle: every check twice, one prove, one campaign, in a seeded
   order. *)
let mix () =
  let checks =
    List.map check_job [ "fir.c"; "dct.c"; "mine_demo.c"; "prove_demo.c"; "campaign.c" ]
  in
  Array.to_list (shuffle (Array.of_list ((prove_job () :: campaign_job () :: checks) @ checks)))

(* The layer calls of a prove job ([Sched]'s prove path with one worker),
   for the bmc per-layer metrics. *)
let prove_layers = function
  | Core.Job.Prove p ->
      List.iter
        (function
          | Core.Job.Text { name; text } ->
              let prog = Mirror.parse ~file:name text in
              let f = Span.run "core.front" (fun () -> Core.Verify.front_of prog) in
              Span.count "core.front_calls" 1;
              let absint = Mirror.absint prog in
              List.iter
                (fun id ->
                  let r, _ =
                    Span.run "bmc.check_target" (fun () ->
                        Core.Verify.check_target ~depth:p.Core.Job.p_depth
                          ~induction:p.Core.Job.p_induction
                          ~conflict_limit:p.Core.Job.p_conflict_limit f ~absint id)
                  in
                  Span.count "bmc.sat_conflicts" r.Analysis.Verdict.pr_conflicts;
                  Span.count "bmc.sat_decisions" r.Analysis.Verdict.pr_decisions;
                  Span.count "bmc.sat_propagations" r.Analysis.Verdict.pr_propagations)
                (Core.Verify.target_ids f)
          | Core.Job.Path _ -> ())
        p.Core.Job.p_sources
  | _ -> ()

let serve =
  let setup () =
    let dir = "perfbench_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let socket = Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
    Exec.Cache.reset_memory ();
    let jobs = mix () in
    let reference =
      List.map (fun j -> Core.Report.to_string (Serve.Sched.run j).Serve.Sched.sc_report) jobs
    in
    let server = Serve.Server.start ~socket ~jobs:1 () in
    let request job expected =
      match Serve.Server.request ~socket job with
      | Ok (report, _) -> Core.Report.to_string report = expected
      | Error e ->
          log "request failed: %s" e;
          false
    in
    let cycle () =
      let rs =
        List.map2
          (fun job expected ->
            time (fun () ->
                try Span.run "serve.request" (fun () -> request job expected) with _ -> false))
          jobs reference
      in
      { latencies = List.map snd rs;
        failed = List.length (List.filter (fun (ok, _) -> not ok) rs) }
    in
    let cache_before = ref (Exec.Cache.stats ()) in
    ignore (cycle ());
    {
      pass = cycle;
      traced =
        (fun () ->
          cache_before := Exec.Cache.stats ();
          cycle ());
      attribute =
        (fun () ->
          List.iter
            (fun job -> ignore (Span.run "serve.sched" (fun () -> Serve.Sched.run job)))
            jobs;
          List.iter prove_layers jobs;
          let a = Exec.Cache.stats () and b = !cache_before in
          Span.count "exec.cache.hits" (a.Exec.Cache.hits - b.Exec.Cache.hits);
          Span.count "exec.cache.misses" (a.Exec.Cache.misses - b.Exec.Cache.misses);
          Span.count "exec.cache.disk_hits" (a.Exec.Cache.disk_hits - b.Exec.Cache.disk_hits));
      stop = (fun () -> Serve.Server.stop server);
    }
  in
  { name = "serve"; jobs = 1; setup }

let workloads = [ campaign; fuzz; shrink; serve ]

(* --- metrics ---------------------------------------------------------------- *)

let metric name unit value = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ])

(* Layer spans: calls into one layer's public functions.  Every other
   span is a phase (pass, campaign.plan, torture.oracle, ...) whose self
   time is bookkeeping outside the named layers. *)
let layer_metrics =
  [
    ("front.parse_s", [ "front.parse"; "front.print" ]);
    ("core.front_s", [ "core.front" ]);
    ("core.finish_s", [ "core.finish" ]);
    ("exec.cache_s", [ "exec.cache" ]);
    ("faults.prefilter_s", [ "faults.prefilter" ]);
    ("faults.hang_prefilter_s", [ "faults.hang_prefilter" ]);
    ("faults.instrument_s", [ "faults.instrument"; "faults.sites" ]);
    ("sim.engine_s", [ "sim.engine" ]);
    ("interp.sim_s", [ "interp.sim" ]);
    ("analysis.absint_s", [ "analysis.absint" ]);
    ("analysis.live_s", [ "analysis.live" ]);
    ("torture.gen_s", [ "torture.gen" ]);
    ("bmc.check_target_s", [ "bmc.check_target" ]);
    ("serve.request_s", [ "serve.request" ]);
    ("serve.sched_s", [ "serve.sched" ]);
  ]

(* Phases reported by their whole duration (children included). *)
let phase_metrics =
  [
    ("campaign.plan_s", "campaign.plan");
    ("campaign.eval_s", "campaign.eval");
    ("torture.oracle_s", "torture.oracle");
    ("torture.keep_s", "torture.keep");
    ("exec.pool.busy_s", "exec.pool.job");
  ]

let counter_metrics =
  [
    "front.parse_calls"; "core.front_calls"; "core.finish_calls"; "exec.cache.hits";
    "exec.cache.misses"; "exec.cache.disk_hits"; "faults.pruned_static"; "faults.pruned_hang";
    "campaign.mutant_runs"; "campaign.mutants_simulated"; "sim.cycles"; "sim.runs";
    "sim.restores"; "interp.runs"; "interp.fuel_exhausted"; "torture.oracle_calls";
    "torture.shrink_attempts"; "torture.shrink_accepted"; "bmc.sat_conflicts";
    "bmc.sat_decisions"; "bmc.sat_propagations";
  ]

let is_layer name = List.exists (fun (_, names) -> List.mem name names) layer_metrics

(* Per-layer metrics of the traced passes [passes] (ids), per pass. *)
let layer_report ~jobs ~passes ~counters ~overhead spans =
  let npass = float_of_int (List.length passes) in
  let spans = List.filter (fun (s : Span.t) -> List.mem s.Span.pass passes) spans in
  let selfs = Span.self_times spans in
  let self_of names =
    List.fold_left
      (fun a ((s : Span.t), d) -> if List.mem s.Span.name names then a +. d else a)
      0.0 selfs
  in
  let dur (s : Span.t) = s.Span.stop -. s.Span.start in
  let total_of name =
    List.fold_left (fun a (s : Span.t) -> if s.Span.name = name then a +. dur s else a) 0.0 spans
  in
  let count_of name = List.length (List.filter (fun (s : Span.t) -> s.Span.name = name) spans) in
  let times = List.map (fun (m, names) -> (m, self_of names /. npass)) layer_metrics in
  let phases = List.map (fun (m, name) -> (m, total_of name /. npass)) phase_metrics in
  let all_self = List.fold_left (fun a (_, d) -> a +. d) 0.0 selfs in
  let layer_self =
    List.fold_left (fun a ((s : Span.t), d) -> if is_layer s.Span.name then a +. d else a) 0.0 selfs
  in
  (* the wall of the sections that ran pool jobs: the parents of the jobs *)
  let parallel_wall =
    let parents =
      List.sort_uniq compare
        (List.filter_map
           (fun (s : Span.t) -> if s.Span.name = "exec.pool.job" then Some s.Span.parent else None)
           spans)
    in
    List.fold_left
      (fun a (s : Span.t) -> if List.mem s.Span.id parents then a +. dur s else a)
      0.0 spans
  in
  let busy = total_of "exec.pool.job" in
  let engine_s = List.assoc "sim.engine_s" times in
  let cycles = float_of_int (Option.value ~default:0 (List.assoc_opt "sim.cycles" counters)) in
  (* served minus in-process: the i-th request of a pass and the i-th
     in-process run after it are the same job *)
  let overhead_ms =
    let starts name p =
      List.sort compare
        (List.filter_map
           (fun (s : Span.t) ->
             if s.Span.name = name && s.Span.pass = p then Some (s.Span.start, dur s) else None)
           spans)
    in
    let diffs =
      List.concat_map
        (fun p ->
          let served = starts "serve.request" p and local = starts "serve.sched" p in
          if List.length served <> List.length local then []
          else List.map2 (fun (_, a) (_, b) -> (a -. b) *. 1000.0) served local)
        passes
    in
    if diffs = [] then 0.0 else median diffs
  in
  (* self-time table *)
  let names = List.sort_uniq compare (List.map (fun ((s : Span.t), _) -> s.Span.name) selfs) in
  log "%-24s %8s %12s %12s %7s" "span" "calls" "self s/pass" "total s/pass" "share";
  List.iter
    (fun n ->
      let self = self_of [ n ] in
      log "%-24s %8d %12.4f %12.4f %6.1f%%%s" n (count_of n) (self /. npass) (total_of n /. npass)
        (100.0 *. self /. all_self)
        (if is_layer n then "" else "  (other)"))
    names;
  log "named layers cover %.1f%% of traced time; tracing overhead %.4f s/pass"
    (100.0 *. layer_self /. all_self) overhead;
  List.map (fun (m, v) -> metric m "s" v) (times @ phases)
  @ List.map
      (fun m -> metric m "count" (float_of_int (Option.value ~default:0 (List.assoc_opt m counters))))
      counter_metrics
  @ [
      metric "sim.cycles_per_s" "1/s" (if engine_s > 0.0 then cycles /. engine_s else 0.0);
      metric "exec.pool.efficiency" "ratio"
        (if parallel_wall > 0.0 then busy /. (float_of_int jobs *. parallel_wall) else 0.0);
      metric "serve.roundtrip_overhead_ms" "ms" overhead_ms;
      metric "trace.overhead_s" "s" overhead;
      metric "trace.coverage" "ratio" (if all_self > 0.0 then layer_self /. all_self else 0.0);
    ]

(* --- runs ------------------------------------------------------------------- *)

let print_result ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.int attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Obj metrics);
          ]))

let setups = 5
let min_passes = 3

let end_to_end w =
  (* set up several times and keep the last instance; the first set-up
     counts from process start *)
  let rec go i acc =
    let t0 = if i = 0 then process_start else Unix.gettimeofday () in
    let inst = w.setup () in
    let acc = (Unix.gettimeofday () -. t0) :: acc in
    if i + 1 < setups then begin
      inst.stop ();
      go (i + 1) acc
    end
    else (inst, acc)
  in
  let inst, setup_times = go 0 [] in
  let t_end = Unix.gettimeofday () +. float_of_int !seconds in
  let rec loop n walls lat failed =
    if n >= min_passes && Unix.gettimeofday () >= t_end then (walls, lat, failed)
    else
      let r, dt = time inst.pass in
      loop (n + 1) (dt :: walls) (r.latencies @ lat) (failed + r.failed)
  in
  let walls, lat, failed = loop 0 [] [] 0 in
  inst.stop ();
  log "%s: %d passes, wall_s %s, setups %s" w.name (List.length walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") (sorted walls)))
    (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev setup_times)));
  print_result ~attempted:(List.length lat) ~failed
    [
      metric "setup_s" "s" (median setup_times);
      metric "wall_s" "s" (fastest walls);
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
    ]

let per_layer w =
  Span.enable ();
  let inst = w.setup () in
  let t_end = Unix.gettimeofday () +. float_of_int !seconds in
  let latencies = ref [] in
  (* alternate untraced and traced passes; every traced pass must
     repeat the first one's work counters exactly *)
  let rec loop k plain traced passes counters attempted failed =
    if k >= 2 * min_passes && Unix.gettimeofday () >= t_end then
      (plain, traced, passes, counters, attempted, failed)
    else if k mod 2 = 0 then begin
      Span.set_pass (-1);
      let r, dt = time inst.pass in
      latencies := r.latencies @ !latencies;
      loop (k + 1) (dt :: plain) traced passes counters
        (attempted + List.length r.latencies) (failed + r.failed)
    end
    else begin
      let id = (k / 2) + 1 in
      Span.set_pass id;
      let r, dt = time (fun () -> Span.run "pass" inst.traced) in
      inst.attribute ();
      let c = Span.take_counters () in
      let mismatch = match counters with Some c0 -> c0 <> c | None -> false in
      if mismatch then log "work counters differ between traced passes";
      loop (k + 1) plain (dt :: traced) (id :: passes)
        (Some (Option.value ~default:c counters))
        (attempted + List.length r.latencies)
        (failed + r.failed + if mismatch then 1 else 0)
    end
  in
  let plain, traced, passes, counters, attempted, failed = loop 0 [] [] [] None 0 0 in
  inst.stop ();
  let spans = Span.all () in
  let dir = "perfbench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" w.name !seed) in
  Span.write_chrome path spans;
  log "%s: %d traced passes (%d spans) written to %s" w.name (List.length traced)
    (List.length spans) path;
  let counters = Option.value ~default:[] counters in
  let tail_s, pct = tail !latencies in
  log "%s: request tail = p%.1f of %d untraced requests" w.name pct (List.length !latencies);
  print_result ~attempted ~failed
    (metric "request.p50_ms" "ms" (1000.0 *. median !latencies)
     :: metric "request.tail_ms" "ms" (1000.0 *. tail_s)
     :: layer_report ~jobs:w.jobs ~passes ~counters
          ~overhead:(fastest traced -. fastest plain) spans)

let () =
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline usage;
      exit 2
  | Some w ->
      (* every pass starts cold or warm from memory only, never from disk *)
      Exec.Cache.set_dir None;
      if !trace = 0 then end_to_end w else per_layer w
