(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus the ablations called out in DESIGN.md,
   and runs bechamel micro-benchmarks of the compiler itself.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # one artifact
     dune exec bench/main.exe -- --help  # list artifacts

   Paper reference numbers are printed next to measured values; see
   EXPERIMENTS.md for the comparison discussion. *)

module Driver = Core.Driver
module Engine = Sim.Engine
module Area = Rtl.Area
module Timing = Rtl.Timing
module Stratix = Device.Stratix

let elab = Front.Typecheck.parse_and_check

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let pct part whole = 100.0 *. float_of_int part /. float_of_int whole

(* A bench artifact: one JSON object on one line.  Timings and ratios
   are rounded to [digits] decimals, the precision they are reported
   at. *)
let fixed digits x =
  let s = 10.0 ** float_of_int digits in
  Json.float (Float.round (x *. s) /. s)

let write_artifact path fields =
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj fields));
  output_char oc '\n';
  close_out oc;
  print_endline ("  wrote " ^ path)

(* --- Tables 1 and 2: case-study overheads ---------------------------------- *)

type paper_row = {
  p_logic : int * int;
  p_alut : int * int;
  p_regs : int * int;
  p_ram : int * int;
  p_ic : int * int;
  p_fmax : float * float;
}

let paper_table1 =
  {
    p_logic = (13677, 13851);
    p_alut = (7929, 8025);
    p_regs = (10019, 10055);
    p_ram = (222912, 223488);
    p_ic = (24657, 24878);
    p_fmax = (145.7, 142.0);
  }

let paper_table2 =
  {
    p_logic = (12250, 12273);
    p_alut = (6726, 6809);
    p_regs = (9371, 9417);
    p_ram = (141120, 141696);
    p_ic = (19904, 19994);
    p_fmax = (77.5, 79.3);
  }

let overhead_table ~title ~paper (orig : Driver.compiled) (opt : Driver.compiled) =
  section title;
  let cap = Stratix.ep2s180 in
  let row name total (o, a) (po, pa) =
    Printf.printf "  %-18s %9d %9d  %+6d (%+.2f%%)   [paper: %d -> %d, %+.2f%%]\n" name o a
      (a - o)
      (pct (a - o) total)
      po pa
      (pct (pa - po) total)
  in
  let ao = orig.Driver.area and aa = opt.Driver.area in
  Printf.printf "  %-18s %9s %9s  %-16s %s\n" "" "Original" "Assert" "Overhead" "";
  row "Logic used" cap.Stratix.aluts (ao.Area.logic, aa.Area.logic) paper.p_logic;
  row "Comb. ALUT" cap.Stratix.aluts (ao.Area.aluts, aa.Area.aluts) paper.p_alut;
  row "Registers" cap.Stratix.registers (ao.Area.registers, aa.Area.registers) paper.p_regs;
  row "Block RAM bits" cap.Stratix.bram_bits (ao.Area.ram_bits, aa.Area.ram_bits) paper.p_ram;
  row "Block interconnect" cap.Stratix.interconnect (ao.Area.interconnect, aa.Area.interconnect)
    paper.p_ic;
  let fo = orig.Driver.timing.Timing.fmax_mhz and fa = opt.Driver.timing.Timing.fmax_mhz in
  let po, pa = paper.p_fmax in
  Printf.printf "  %-18s %9.1f %9.1f  %+6.1f (%+.2f%%)   [paper: %.1f -> %.1f, %+.2f%%]\n"
    "Frequency (MHz)" fo fa (fa -. fo)
    (100.0 *. (fa -. fo) /. fo)
    po pa
    (100.0 *. (pa -. po) /. po)

let table1 () =
  let prog = elab ~file:"des3.c" (Apps.Des_src.demo_source ()) in
  let orig = Driver.compile ~strategy:Driver.baseline prog in
  let opt = Driver.compile ~strategy:Driver.parallelized prog in
  overhead_table ~title:"Table 1: Triple-DES assertion overhead (EP2S180)"
    ~paper:paper_table1 orig opt;
  (* Section 5.2 also compares against unoptimized assertions: the
     optimized checkers move the comparisons out of the nested loop *)
  let unopt = Driver.compile ~strategy:Driver.unoptimized prog in
  Printf.printf
    "  (unoptimized assertions: %+d ALUTs and %d states vs %+d ALUTs and %d states optimized)\n"
    (unopt.Driver.area.Area.aluts - orig.Driver.area.Area.aluts)
    (Hls.Fsmd.num_states (List.hd unopt.Driver.fsmds))
    (opt.Driver.area.Area.aluts - orig.Driver.area.Area.aluts)
    (Hls.Fsmd.num_states (List.hd opt.Driver.fsmds));
  (* prove the design still decrypts in circuit *)
  let text = "Table one validation run." in
  let cipher = Apps.Des_src.demo_ciphertext text in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("cipher_in", cipher) ];
          drains = [ "plain_out" ];
          params = [ ("des3", [ ("nblocks", Int64.of_int (List.length cipher)) ]) ];
        }
      opt
  in
  Printf.printf "  (validated: %d blocks decrypted to the oracle plaintext in %d cycles)\n"
    (List.length cipher)
    r.Driver.engine.Engine.cycles

let table2 () =
  let prog = elab ~file:"edge.c" (Apps.Edge_src.demo_source ()) in
  let orig = Driver.compile ~strategy:Driver.baseline prog in
  let opt = Driver.compile ~strategy:Driver.parallelized prog in
  overhead_table ~title:"Table 2: Edge-detection assertion overhead (EP2S180)"
    ~paper:paper_table2 orig opt;
  let w = Apps.Edge_src.default_width and h = 16 in
  let img = Apps.Edge_ref.test_image ~w ~h in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("pixels_in", Apps.Edge_ref.to_stream img) ];
          drains = [ "pixels_out" ];
          params = [ ("edge", [ ("width", Int64.of_int w); ("height", Int64.of_int h) ]) ];
        }
      opt
  in
  let ok =
    List.assoc "pixels_out" r.Driver.engine.Engine.drained
    = Array.to_list (Array.map Int64.of_int (Apps.Edge_ref.filter ~w ~h img))
  in
  Printf.printf "  (validated: %dx%d image filtered, matches reference: %b)\n" w h ok

(* --- Tables 3 and 4: latency/rate overhead --------------------------------- *)

let t3_strategy = { Driver.optimized with Driver.replicate = false; share = `Per_proc }
let t4_strategy = { Driver.optimized with Driver.share = `Per_proc }

let kernel_cycles src strategy =
  let n = 64 in
  let c = Driver.compile ~strategy (elab ~file:"kernel.c" src) in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("input", Apps.Micro_src.feed_positive n) ];
          drains = [ "output" ];
          params = [ ("kernel", [ ("n", Int64.of_int n) ]) ];
        }
      c
  in
  match r.Driver.engine.Engine.outcome with
  | Engine.Finished -> (r.Driver.engine.Engine.cycles, r.Driver.engine.Engine.pipes)
  | _ -> failwith "kernel did not finish"

let table3 () =
  section "Table 3: non-pipelined single-comparison assertion latency overhead";
  Printf.printf "  %-24s %12s %12s   %s\n" "Assertion data" "Unoptimized" "Optimized"
    "[paper]";
  let row name src (paper_u, paper_o) =
    let per strategy =
      let total, _ = kernel_cycles src strategy in
      total / 64
    in
    let base = per Driver.baseline in
    let u = per Driver.unoptimized - base in
    let o = per t3_strategy - base in
    Printf.printf "  %-24s %12d %12d   [%d / %d]\n" name u o paper_u paper_o
  in
  row "Scalar variable" Apps.Micro_src.scalar_nonpipelined (1, 0);
  row "Array (non-consecutive)" Apps.Micro_src.array_nonconsecutive (1, 0);
  row "Array (consecutive)" Apps.Micro_src.array_consecutive (2, 1)

let table4 () =
  section "Table 4: pipelined single-comparison assertion overhead (latency, rate)";
  Printf.printf "  %-16s %-18s %-18s %-18s\n" "Assertion data" "Original" "Unoptimized"
    "Optimized";
  let stats src strategy =
    let _, pipes = kernel_cycles src strategy in
    match List.filter (fun (p : Engine.pipe_stats) -> p.Engine.issues > 0) pipes with
    | [ p ] -> (p.Engine.latency_measured, p.Engine.ii_measured)
    | _ -> failwith "expected one pipe"
  in
  let row name src paper =
    let bl, br = stats src Driver.baseline in
    let ul, ur = stats src Driver.unoptimized in
    let ol, or_ = stats src t4_strategy in
    Printf.printf "  %-16s lat %d rate %-6.2f lat %d rate %-6.2f lat %d rate %-6.2f %s\n" name
      bl br ul ur ol or_ paper
  in
  row "Scalar variable" Apps.Micro_src.scalar_pipelined
    "[paper: (2,1) -> (3,2) -> (2,1)]";
  row "Array" Apps.Micro_src.array_pipelined
    "[paper: (2,2) -> (4,3) -> (3,2); replication hides the extract read here]"

(* --- Figures 4 and 5: scalability ------------------------------------------- *)

let sweep_sizes = [ 1; 2; 4; 8; 16; 32; 64; 128 ]

let loopback_compile n strategy =
  Driver.compile ~strategy (elab ~file:"loopback.c" (Apps.Loopback_src.source ~n ()))

let figure4 () =
  section "Figure 4: assertion frequency scalability (fmax in MHz vs processes)";
  Printf.printf "  %4s %10s %12s %12s\n" "N" "original" "unoptimized" "optimized";
  List.iter
    (fun n ->
      let f s = (loopback_compile n s).Driver.timing.Timing.fmax_mhz in
      Printf.printf "  %4d %10.1f %12.1f %12.1f\n" n (f Driver.baseline)
        (f Driver.unoptimized)
        (f { Driver.unoptimized with Driver.share = `Shared 32 }))
    sweep_sizes;
  print_endline
    "  [paper at N=128: original 190.6, unoptimized 154 (-18.8%), optimized 189.3]"

let figure5 () =
  section "Figure 5: assertion resource scalability (ALUT overhead % of EP2S180)";
  Printf.printf "  %4s %12s %12s %9s\n" "N" "unoptimized" "optimized" "ratio";
  List.iter
    (fun n ->
      let aluts s = (loopback_compile n s).Driver.area.Area.aluts in
      let base = aluts Driver.baseline in
      let u = pct (aluts Driver.unoptimized - base) Stratix.ep2s180.Stratix.aluts in
      let o =
        pct
          (aluts { Driver.unoptimized with Driver.share = `Shared 32 } - base)
          Stratix.ep2s180.Stratix.aluts
      in
      Printf.printf "  %4d %11.2f%% %11.2f%% %8.1fx\n" n u o (u /. o))
    sweep_sizes;
  print_endline "  [paper at N=128: unoptimized 4.07%, optimized 1.34% (>3x reduction)]"

(* --- Section 5.1: in-circuit verification and debugging ------------------------ *)

let sec51 () =
  section "Section 5.1: bugs invisible to software simulation";
  (* example 1: narrowed comparison (Figure 3) *)
  let fig3 =
    {| stream int32 out depth 4;
       process hw check() {
         int64 c1; int64 c2; int32 addr;
         c1 = 4294967296; c2 = 4294967286; addr = 0;
         if (c2 > c1) { addr = addr - 10; }
         assert(addr >= 0);
         stream_write(out, addr);
       } |}
  in
  let faults =
    [ Faults.Fault.Narrow_compare
        { fproc = "check"; select = Faults.Fault.All; mask_bits = 5 } ]
  in
  let c = Driver.compile ~strategy:Driver.parallelized ~faults (elab ~file:"fig3.c" fig3) in
  let sw = Driver.software_sim c in
  let hw = Driver.simulate c in
  Printf.printf "  Figure 3 (5-bit comparison fault):  software %s   in-circuit %s\n"
    (if Interp.ok sw then "PASS" else "FAIL")
    (match hw.Driver.engine.Engine.outcome with
    | Engine.Aborted _ -> "CAUGHT"
    | _ -> "missed");
  (* example 2: hang located by assert(0) tracing *)
  let hang_src =
    {| stream int32 din depth 16; stream int32 dout depth 16;
       process hw worker(int32 n) {
         int32 flags[4]; int32 i;
         assert(0);
         flags[0] = 0;
         for (i = 0; i < n; i = i + 1) {
           int32 v; v = stream_read(din); stream_write(dout, v + 1);
         }
         assert(0);
         flags[0] = 1;
         int32 done; done = flags[0];
         while (done == 0) { done = flags[0]; }
         assert(0);
       } |}
  in
  let faults = [ Faults.Fault.Read_for_write { fproc = "worker"; select = Faults.Fault.Nth 1 } ] in
  let strategy = { Driver.unoptimized with Driver.nabort = true } in
  let c = Driver.compile ~strategy ~faults (elab ~file:"worker.c" hang_src) in
  let options =
    {
      Driver.default_sim_options with
      Driver.feeds = [ ("din", [ 1L; 2L; 3L; 4L ]) ];
      drains = [ "dout" ];
      params = [ ("worker", [ ("n", 4L) ]) ];
      max_cycles = 3_000;
    }
  in
  let sw = Driver.software_sim ~options ~nabort:true c in
  let hw = Driver.simulate ~options c in
  Printf.printf
    "  DES-style hang (write became read): software trace %d points, in-circuit trace %d \
     points -> hang localized between points %d and %d\n"
    (List.length sw.Interp.failures)
    (List.length hw.Driver.failed_assertions)
    (List.length hw.Driver.failed_assertions)
    (List.length hw.Driver.failed_assertions + 1)

(* --- Ablations ------------------------------------------------------------------- *)

let ablation_sharing_width () =
  section "Ablation: failure-channel sharing width (128-process loopback)";
  Printf.printf "  %6s %10s %14s\n" "width" "streams" "ALUT overhead";
  let prog = elab ~file:"loopback.c" (Apps.Loopback_src.source ~n:128 ()) in
  let base = (Driver.compile ~strategy:Driver.baseline prog).Driver.area.Area.aluts in
  List.iter
    (fun bits ->
      let c =
        Driver.compile ~strategy:{ Driver.unoptimized with Driver.share = `Shared bits } prog
      in
      Printf.printf "  %6d %10d %13.2f%%\n" bits
        (c.Driver.area.Area.streams)
        (pct (c.Driver.area.Area.aluts - base) Stratix.ep2s180.Stratix.aluts))
    [ 1; 2; 4; 8; 16; 32; 63 ]

let ablation_replication () =
  section "Ablation: resource replication on the pipelined array kernel";
  let stats strategy =
    let _, pipes = kernel_cycles Apps.Micro_src.array_pipelined strategy in
    match List.filter (fun (p : Engine.pipe_stats) -> p.Engine.issues > 0) pipes with
    | [ p ] -> (p.Engine.latency_measured, p.Engine.ii_measured)
    | _ -> failwith "expected one pipe"
  in
  let area strategy =
    let c = Driver.compile ~strategy (elab ~file:"kernel.c" Apps.Micro_src.array_pipelined) in
    c.Driver.area.Area.ram_bits
  in
  let l1, r1 = stats { t4_strategy with Driver.replicate = false } in
  let l2, r2 = stats t4_strategy in
  Printf.printf "  without replication: latency %d rate %.2f (RAM %d bits)\n" l1 r1
    (area { t4_strategy with Driver.replicate = false });
  Printf.printf "  with replication:    latency %d rate %.2f (RAM %d bits)\n" l2 r2
    (area t4_strategy);
  Printf.printf "  [paper: replication traded one extra RAM for a 33%% rate improvement]\n"

let ablation_binding () =
  section "Ablation: functional-unit sharing (Triple-DES datapath)";
  let prog = elab ~file:"des3.c" (Apps.Des_src.demo_source ()) in
  let c = Driver.compile ~strategy:Driver.baseline prog in
  let fsmd = List.hd c.Driver.fsmds in
  let shared = Hls.Binding.bind ~policy:`Shared fsmd in
  let flat = Hls.Binding.bind ~policy:`Flat fsmd in
  Printf.printf "  operations: %d, units with sharing: %d, without: %d (%.1fx reduction)\n"
    shared.Hls.Binding.total_ops shared.Hls.Binding.total_units flat.Hls.Binding.total_units
    (float_of_int flat.Hls.Binding.total_units /. float_of_int shared.Hls.Binding.total_units)

let ablation_checker_latency () =
  section "Ablation: checker pipeline latency vs notification delay";
  let src =
    {| stream int32 input depth 16; stream int32 output depth 16;
       process hw kernel(int32 n) {
         int32 i;
         #pragma pipeline
         for (i = 0; i < n; i = i + 1) {
           int32 x; x = stream_read(input);
           assert(x < 1000);
           stream_write(output, x);
         }
       } |}
  in
  Printf.printf "  %8s %16s %18s\n" "latency" "total cycles" "failure reported at";
  List.iter
    (fun lat ->
      let strategy =
        { Driver.parallelized with Driver.checker_latency = Some lat; nabort = true }
      in
      let c = Driver.compile ~strategy (elab ~file:"k.c" src) in
      let n = 32 in
      let feeds = List.init n (fun i -> if i = 10 then 5000L else Int64.of_int i) in
      let r =
        Driver.simulate
          ~options:
            {
              Driver.default_sim_options with
              Driver.feeds = [ ("input", feeds) ];
              drains = [ "output" ];
              params = [ ("kernel", [ ("n", Int64.of_int n) ]) ];
            }
          c
      in
      Printf.printf "  %8d %16d %18s\n" lat r.Driver.engine.Engine.cycles
        (if r.Driver.failed_assertions <> [] then "yes (application unaffected)" else "MISSED"))
    [ 1; 4; 16; 64 ]

let ablation_transport () =
  section "Ablation: failure transport (Impulse-C streams vs Carte-C DMA, Section 4.3)";
  let prog = elab ~file:"loopback.c" (Apps.Loopback_src.source ~n:32 ()) in
  let base = Driver.compile ~strategy:Driver.baseline prog in
  Printf.printf "  %-28s %8s %14s %10s\n" "transport" "channels" "ALUT overhead" "fmax";
  List.iter
    (fun (name, strategy) ->
      let c = Driver.compile ~strategy prog in
      Printf.printf "  %-28s %8d %13.2f%% %9.1f\n" name
        (List.length c.Driver.plan.Core.Share.streams)
        (pct (c.Driver.area.Area.aluts - base.Driver.area.Area.aluts)
           Stratix.ep2s180.Stratix.aluts)
        c.Driver.timing.Timing.fmax_mhz)
    [
      ("stream per process", Driver.parallelized);
      ("shared 32-bit streams", Driver.optimized);
      ("DMA mailbox (Carte-C)", Driver.carte);
    ];
  print_endline
    "  (DMA batches notification: the CPU polls every 32 cycles instead of per message)"

(* --- Future work: timing assertions (Section 6) -------------------------------------- *)

let timing_demo () =
  section "Section 6 future work: timing assertions (cycle budgets between code points)";
  let src =
    {| stream int32 inp depth 4; stream int32 out depth 4;
       process hw producer(int32 n) {
         int32 i;
         for (i = 0; i < n; i = i + 1) {
           assert(true);
           stream_write(inp, i);
           assert(true);
         }
       }
       process hw consumer(int32 n) {
         int32 i;
         for (i = 0; i < n; i = i + 1) {
           int32 v; v = stream_read(inp);
           if ((v & 7) == 7) {
             int32 k; int32 acc; acc = v;
             for (k = 0; k < 40; k = k + 1) { acc = acc + k; }
             v = acc;
           }
           stream_write(out, v);
         }
       } |}
  in
  let c = Driver.compile ~strategy:Driver.parallelized (elab ~file:"timed.c" src) in
  Printf.printf "  %8s %30s\n" "budget" "outcome";
  List.iter
    (fun budget ->
      let r =
        Driver.simulate
          ~options:
            {
              Driver.default_sim_options with
              Driver.drains = [ "out" ];
              params = [ ("producer", [ ("n", 32L) ]); ("consumer", [ ("n", 32L) ]) ];
              timing_checks =
                [ { Sim.Engine.tc_name = "service-rate"; from_tap = 0; to_tap = 1;
                    budget; soft = true } ];
              max_cycles = 10_000;
            }
          c
      in
      Printf.printf "  %8d %30s\n" budget
        (match r.Driver.engine.Engine.timing_violations with
        | [] -> "met"
        | vs -> Printf.sprintf "%d violations (first at cycle %d)" (List.length vs) (snd (List.hd vs))))
    [ 4; 8; 16; 64; 300 ]

(* --- Fault-injection campaign -------------------------------------------------------- *)

(* One timed sweep at a given job count and evaluation mode, from a
   cold in-memory compile cache so the hit/miss split is a property of
   the sweep and not of whoever ran before us.  The disk tier (when
   INCA_CACHE_DIR is set) is deliberately left alone: its cross-run
   hits are exactly what the artifact reports. *)
let timed_campaign ?(prune_hangs = true) ~mode ~jobs workloads =
  Exec.Cache.reset_memory ();
  let t0 = Unix.gettimeofday () in
  let c0 = Engine.executed_cycles () in
  let n = ref 0 in
  let config =
    { Campaign.default_config with Campaign.mode; jobs = Some jobs; prune_hangs }
  in
  let report = Campaign.run ~config ~progress:(fun _ -> incr n) workloads in
  let dt = Unix.gettimeofday () -. t0 in
  (report, !n, dt, Exec.Cache.stats (), Engine.executed_cycles () - c0)

let campaign_bench () =
  section "Fault-injection campaign: assertion coverage and sweep throughput";
  let workloads = Campaign.bundled () in
  let jobs = Exec.Pool.default_jobs () in
  (* A/B at the same job count: from-reset (compile + simulate every
     mutant from cycle zero) vs fork-point (restore the pre-activation
     snapshot).  Classification must agree exactly. *)
  let reset_report, n, reset_dt, _, reset_cycles =
    timed_campaign ~mode:Campaign.From_reset ~jobs workloads
  in
  let serial_report, _, serial_dt, _, _ =
    timed_campaign ~mode:Campaign.Fork ~jobs:1 workloads
  in
  let report, _, dt, stats, fork_cycles =
    timed_campaign ~mode:Campaign.Fork ~jobs workloads
  in
  (* Hang pruning A/B: the same sweep with the liveness prefilter off
     must simulate every provably hanging mutant to the same class.
     Pruning may only change *how* a hang is established, never what
     the campaign concludes. *)
  let noprune_report, _, noprune_dt, _, _ =
    timed_campaign ~prune_hangs:false ~mode:Campaign.Fork ~jobs workloads
  in
  print_endline (Campaign.render report);
  if Json.to_string (Campaign.json_of report) <> Json.to_string (Campaign.json_of serial_report) then begin
    Printf.eprintf "  DETERMINISM VIOLATION: %d-domain report differs from serial\n" jobs;
    exit 1
  end;
  if Campaign.render_classes report <> Campaign.render_classes reset_report then begin
    prerr_endline
      "  INVARIANT VIOLATION: fork-point classification differs from from-reset";
    exit 1
  end;
  if Campaign.render_classes report <> Campaign.render_classes noprune_report then begin
    prerr_endline
      "  INVARIANT VIOLATION: hang pruning changed the classification map";
    exit 1
  end;
  if report.Campaign.pruned_hang = 0 then begin
    prerr_endline
      "  FAIL: liveness prefilter proved no bundled mutant certainly hanging";
    exit 1
  end;
  if noprune_report.Campaign.pruned_hang <> 0 then begin
    prerr_endline "  INVARIANT VIOLATION: --no-prune sweep still pruned mutants";
    exit 1
  end;
  let mps = float_of_int n /. dt in
  let reset_mps = float_of_int n /. reset_dt in
  let speedup = serial_dt /. dt in
  let fork_speedup = reset_dt /. dt in
  let fork_cycle_ratio = float_of_int reset_cycles /. float_of_int (max 1 fork_cycles) in
  Printf.printf
    "  %d mutant runs: serial %.2fs, %d domain(s) %.2fs (%.2fx), %.1f mutants/sec\n"
    n serial_dt jobs dt speedup mps;
  Printf.printf
    "  from-reset: %.2fs (%.1f mutants/sec); fork-point is %.2fx faster \
     (classifications identical)\n"
    reset_dt reset_mps fork_speedup;
  Printf.printf
    "  simulated cycles: fork-point %d (baselines and replays included), from-reset %d \
     (%.2fx fewer)\n"
    fork_cycles reset_cycles fork_cycle_ratio;
  Printf.printf
    "  liveness prefilter: %d hang-class mutant runs pruned (sweep %.2fs vs %.2fs \
     unpruned; classifications identical)\n"
    report.Campaign.pruned_hang dt noprune_dt;
  Printf.printf "  compile cache: %d hits / %d misses per sweep (reports byte-identical)\n"
    stats.Exec.Cache.hits stats.Exec.Cache.misses;
  (match Exec.Cache.dir () with
  | Some dir ->
      Printf.printf "  disk store (%s): %d hits / %d misses this sweep\n" dir
        stats.Exec.Cache.disk_hits stats.Exec.Cache.disk_misses
  | None -> ());
  (* machine-readable artifact: throughput, parallel speedup, the
     fork-vs-reset split and cache effectiveness (memory and disk
     tiers) plus the full report (per-strategy detection counts and
     mean cycles-to-detection) *)
  write_artifact "BENCH_campaign.json"
    [
      ("mutant_runs", Json.int n);
      ("elapsed_seconds", fixed 3 dt);
      ("serial_wall_seconds", fixed 3 serial_dt);
      ("wall_seconds", fixed 3 dt);
      ("jobs", Json.int jobs);
      ("speedup", fixed 3 speedup);
      ("mutants_per_second", fixed 1 mps);
      ("from_reset_wall_seconds", fixed 3 reset_dt);
      ("from_reset_mutants_per_second", fixed 1 reset_mps);
      ("fork_speedup_vs_reset", fixed 3 fork_speedup);
      ("fork_cycles", Json.int fork_cycles);
      ("from_reset_cycles", Json.int reset_cycles);
      ("fork_cycle_ratio_vs_reset", fixed 3 fork_cycle_ratio);
      ("pruned_static", Json.int report.Campaign.pruned_static);
      ("pruned_hang", Json.int report.Campaign.pruned_hang);
      ("no_prune_wall_seconds", fixed 3 noprune_dt);
      ("cache_hits", Json.int stats.Exec.Cache.hits);
      ("cache_misses", Json.int stats.Exec.Cache.misses);
      ("disk_hits", Json.int stats.Exec.Cache.disk_hits);
      ("disk_misses", Json.int stats.Exec.Cache.disk_misses);
      ("report", Campaign.json_of report);
    ]

(* CI smoke: a single bundled workload, capped, asserting the compile
   cache actually absorbed the per-mutant front-end work. *)
let campaign_smoke () =
  section "Campaign smoke: FIR sweep, compile-cache effectiveness";
  let workloads =
    List.filter (fun (w : Campaign.workload) -> w.Campaign.wname = "fir")
      (Campaign.bundled ())
  in
  if workloads = [] then begin
    prerr_endline "  no bundled FIR workload";
    exit 1
  end;
  Exec.Cache.reset_memory ();
  let config =
    { Campaign.default_config with Campaign.max_mutants = Some 8; jobs = None }
  in
  let report = Campaign.run ~config workloads in
  let stats = Exec.Cache.stats () in
  Printf.printf "  %d mutants swept, cache: %d hits / %d misses\n"
    (List.length report.Campaign.runs) stats.Exec.Cache.hits stats.Exec.Cache.misses;
  if stats.Exec.Cache.hits = 0 then begin
    prerr_endline "  FAIL: compile cache recorded no hits across a mutant sweep";
    exit 1
  end;
  print_endline "  ok: cache_hits > 0"

(* --- Assertion mining ---------------------------------------------------------------- *)

(* Sweep the miner over the four bundled case studies with the bundled
   campaign stimuli as base, capped so the artifact stays interactive:
   each workload traces 5 stimuli, keeps at most 8 candidates, and
   ranks each against at most 10 mutants. *)
let mine_bench () =
  section "Assertion mining: invariants ranked by mutant kills";
  Exec.Cache.reset_memory ();
  let jobs = Exec.Pool.default_jobs () in
  let t0 = Unix.gettimeofday () in
  let config =
    {
      Mine.Rank.default_config with
      Mine.Rank.max_candidates = 8;
      max_mutants = Some 10;
      jobs = Some jobs;
    }
  in
  let results =
    List.map
      (fun (w : Campaign.workload) ->
        let r =
          Mine.Rank.mine ~config ~name:w.Campaign.wname ~options:w.Campaign.options
            w.Campaign.program
        in
        print_string (Mine.Rank.render ~top:5 r);
        print_newline ();
        r)
      (Campaign.bundled ())
  in
  let dt = Unix.gettimeofday () -. t0 in
  let total_survivors = List.fold_left (fun acc r -> acc + r.Mine.Rank.survivors) 0 results in
  let total_marginal =
    List.fold_left
      (fun acc (r : Mine.Rank.result) ->
        acc + List.fold_left (fun a s -> a + s.Mine.Rank.marginal) 0 r.Mine.Rank.scored)
      0 results
  in
  let stats = Exec.Cache.stats () in
  Printf.printf "  %d survivors across %d workloads, %d marginal detections, %.2fs\n"
    total_survivors (List.length results) total_marginal dt;
  Printf.printf "  compile cache: %d hits / %d misses (%d sweep domain(s))\n"
    stats.Exec.Cache.hits stats.Exec.Cache.misses jobs;
  let oc = open_out "BENCH_mine.json" in
  Printf.fprintf oc
    "{\"elapsed_seconds\": %.3f, \"survivors\": %d, \"marginal_detections\": %d, \
     \"jobs\": %d, \"cache_hits\": %d, \"cache_misses\": %d, \"workloads\": [%s]}\n"
    dt total_survivors total_marginal jobs stats.Exec.Cache.hits stats.Exec.Cache.misses
    (String.concat ", "
       (List.map (fun r -> Json.to_string (Mine.Rank.json_of ~top:5 r)) results));
  close_out oc;
  print_endline "  wrote BENCH_mine.json"

(* --- Static assertion verification --------------------------------------------------- *)

(* Classify every bundled app's assertions with the abstract
   interpreter and price the --prune-proved dividend: the area and fmax
   a design gives back when checkers for statically proved assertions
   are not synthesized.  Self-gating: at least one assertion must be
   proved across the bundle and pruning it must save both ALUTs and
   registers, else the artifact exits 1. *)
let check_bench () =
  section "Static verification: assertion classes and the --prune-proved dividend";
  let strategy = Driver.parallelized in
  Printf.printf "  %-8s %9s %7s %9s %8s %7s %7s %7s %11s %13s\n" "app" "asserts" "proved"
    "violated" "unknown" "pruned" "aluts" "regs" "fmax(MHz)" "liveness";
  let rows =
    List.map
      (fun (w : Campaign.workload) ->
        let name = w.Campaign.wname and prog = w.Campaign.program in
        let opts = w.Campaign.options in
        let live =
          Analysis.Live.analyze ~params:opts.Driver.params
            ~feeds:(List.map (fun (s, vs) -> (s, List.length vs)) opts.Driver.feeds)
            ~drains:opts.Driver.drains prog
        in
        let r = Analysis.Absint.analyze prog in
        let p, v, u =
          List.fold_left
            (fun (p, v, u) (vd : Analysis.Absint.verdict) ->
              match vd.Analysis.Absint.vclass with
              | Analysis.Absint.Proved -> (p + 1, v, u)
              | Analysis.Absint.Violated _ -> (p, v + 1, u)
              | Analysis.Absint.Unknown -> (p, v, u + 1))
            (0, 0, 0) r.Analysis.Absint.verdicts
        in
        let base = Driver.compile ~strategy prog in
        let pruned = Driver.compile ~strategy ~prune_proved:true prog in
        let alut_d = base.Driver.area.Area.aluts - pruned.Driver.area.Area.aluts in
        let reg_d = base.Driver.area.Area.registers - pruned.Driver.area.Area.registers in
        let fmax_d =
          pruned.Driver.timing.Timing.fmax_mhz -. base.Driver.timing.Timing.fmax_mhz
        in
        let ps = pruned.Driver.pruned in
        Printf.printf "  %-8s %9d %7d %9d %8d %7d %+7d %+7d %+11.1f %13s\n" name
          (p + v + u) p v u ps.Driver.absint_pruned alut_d reg_d fmax_d
          (Analysis.Live.class_name live);
        (name, p + v + u, p, v, u, alut_d, reg_d, fmax_d, ps, live))
      (Campaign.bundled ())
  in
  let total_proved =
    List.fold_left (fun acc (_, _, p, _, _, _, _, _, _, _) -> acc + p) 0 rows
  in
  let dividend =
    List.exists (fun (_, _, p, _, _, a, rg, _, _, _) -> p > 0 && a > 0 && rg > 0) rows
  in
  let liveness_proved =
    List.length
      (List.filter
         (fun (_, _, _, _, _, _, _, _, _, l) ->
           match l with Analysis.Live.Deadlock_free _ -> true | _ -> false)
         rows)
  in
  let false_deadlocks =
    List.filter_map
      (fun (name, _, _, _, _, _, _, _, _, l) ->
        match l with Analysis.Live.Deadlock _ -> Some name | _ -> None)
      rows
  in
  let oc = open_out "BENCH_check.json" in
  Printf.fprintf oc
    "{\"strategy\": \"parallelized\", \"total_proved\": %d, \"liveness_proved\": %d, \
     \"apps\": [%s]}\n"
    total_proved liveness_proved
    (String.concat ", "
       (List.map
          (fun (name, n, p, v, u, a, rg, f, (ps : Driver.prune_stats), live) ->
            Printf.sprintf
              "{\"name\": \"%s\", \"assertions\": %d, \"proved\": %d, \"violated\": %d, \
               \"unknown\": %d, \"pruned_absint\": %d, \"pruned_induction\": %d, \
               \"alut_delta\": %d, \"reg_delta\": %d, \"fmax_delta_mhz\": %.2f, \
               \"liveness\": \"%s\"}"
              name n p v u ps.Driver.absint_pruned ps.Driver.induction_pruned a rg f
              (Analysis.Live.class_name live))
          rows));
  close_out oc;
  print_endline "  wrote BENCH_check.json";
  if total_proved = 0 then begin
    prerr_endline "  FAIL: no bundled assertion was statically proved";
    exit 1
  end;
  if not dividend then begin
    prerr_endline "  FAIL: pruning the proved assertions saved no ALUTs/registers";
    exit 1
  end;
  if false_deadlocks <> [] then begin
    Printf.eprintf "  FAIL: liveness analyzer claims a false deadlock on: %s\n"
      (String.concat ", " false_deadlocks);
    exit 1
  end;
  if liveness_proved = 0 then begin
    prerr_endline "  FAIL: no bundled app was proved deadlock-free";
    exit 1
  end;
  Printf.printf
    "  ok: %d proved, pruning pays a positive ALUT and register dividend; \
     %d/%d apps proved deadlock-free\n"
    total_proved liveness_proved (List.length rows)

(* --- Bounded model checking ----------------------------------------------------------- *)

(* Prove the examples corpus with the netlist-level BMC: bounded search
   to depth 8 plus 4-induction, every counterexample replayed through
   the cycle-accurate simulator before it counts.  Self-gating: the
   sweep must confirm at least one genuine violation (mine_demo's
   negative-feed underflow) and prove at least one assertion by
   induction that the abstract interpreter leaves Unknown (prove_demo's
   masked nibble), and pruning the induction-proved checkers must save
   both ALUTs and registers.  The JSON artifact carries counts and
   solver statistics only — no wall-clock — and is asserted
   byte-identical serial vs parallel. *)
let prove_bench () =
  section "BMC: bounded proofs, k-induction, counterexample replay";
  let read_file path =
    if not (Sys.file_exists path) then
      failwith (path ^ " not found (run from the project root)");
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let depth = 8 and induction = 4 in
  let files = [ "mine_demo.c"; "prove_demo.c"; "dct.c"; "fir.c" ] in
  let jobs = Exec.Pool.default_jobs () in
  let prove_file ~jobs name =
    let prog = elab ~file:name (read_file (Filename.concat "examples" name)) in
    let f = Core.Verify.front_of prog in
    let absint = Analysis.Absint.analyze prog in
    let results =
      List.map
        (fun (o : _ Exec.Pool.outcome) ->
          match o.Exec.Pool.value with
          | Ok r -> r
          | Error m -> failwith (name ^ ": prove worker failed: " ^ m))
        (Exec.Pool.map ~jobs
           (fun id ->
             fst (Core.Verify.check_target ~depth ~induction f ~absint id))
           (Core.Verify.target_ids f))
    in
    {
      Analysis.Verdict.p_depth = depth;
      p_induction = induction;
      p_results = results;
    }
  in
  let t0 = Unix.gettimeofday () in
  let reports = List.map (fun n -> (n, prove_file ~jobs n)) files in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (name, r) ->
      let serial = prove_file ~jobs:1 name in
      if
        Json.to_string (Analysis.Verdict.json_of ~file:name r)
        <> Json.to_string (Analysis.Verdict.json_of ~file:name serial)
      then begin
        Printf.eprintf
          "  DETERMINISM VIOLATION: %s prove report differs from serial\n" name;
        exit 1
      end)
    reports;
  Printf.printf "  %-14s %7s %9s %8s %8s %10s\n" "file" "proved" "violated"
    "bounded" "unknown" "conflicts";
  List.iter
    (fun (name, r) ->
      let p, v, b, u = Analysis.Verdict.tally r in
      Printf.printf "  %-14s %7d %9d %8d %8d %10d\n" name p v b u
        (Analysis.Verdict.conflicts r))
    reports;
  let tp, tv, tb, tu =
    List.fold_left
      (fun (p, v, b, u) (_, r) ->
        let p', v', b', u' = Analysis.Verdict.tally r in
        (p + p', v + v', b + b', u + u'))
      (0, 0, 0, 0) reports
  in
  let sum f =
    List.fold_left
      (fun acc (_, r) ->
        List.fold_left (fun a pr -> a + f pr) acc r.Analysis.Verdict.p_results)
      0 reports
  in
  let conflicts = sum (fun pr -> pr.Analysis.Verdict.pr_conflicts) in
  let decisions = sum (fun pr -> pr.Analysis.Verdict.pr_decisions) in
  let propagations = sum (fun pr -> pr.Analysis.Verdict.pr_propagations) in
  Printf.printf
    "  %d assertions: %d proved, %d violated, %d bounded, %d unknown\n"
    (tp + tv + tb + tu) tp tv tb tu;
  Printf.printf "  solver: %d conflicts, %d decisions in %.2fs (%.0f conflicts/sec)\n"
    conflicts decisions dt
    (float_of_int conflicts /. dt);
  let has cls r =
    List.exists (fun pr -> cls pr.Analysis.Verdict.pr_class) r.Analysis.Verdict.p_results
  in
  if
    not
      (has (function Analysis.Verdict.Bviolated _ -> true | _ -> false)
         (List.assoc "mine_demo.c" reports))
  then begin
    prerr_endline "  FAIL: mine_demo's underflow was not confirmed Violated";
    exit 1
  end;
  if
    not
      (has (function Analysis.Verdict.Bproved _ -> true | _ -> false)
         (List.assoc "prove_demo.c" reports))
  then begin
    prerr_endline "  FAIL: no prove_demo assertion was proved by induction";
    exit 1
  end;
  (* the induction dividend: prune what induction proved and price it *)
  let demo =
    elab ~file:"prove_demo.c" (read_file "examples/prove_demo.c")
  in
  let rep, _ = Core.Verify.prove ~depth ~induction demo in
  let keys = Core.Verify.induction_proved_keys rep in
  let base = Driver.compile ~strategy:Driver.parallelized demo in
  let pruned =
    Driver.compile ~strategy:Driver.parallelized ~induction_proved:keys demo
  in
  let alut_d = base.Driver.area.Area.aluts - pruned.Driver.area.Area.aluts in
  let reg_d =
    base.Driver.area.Area.registers - pruned.Driver.area.Area.registers
  in
  Printf.printf
    "  induction dividend: %d checker(s) pruned, %+d ALUTs, %+d registers\n"
    (List.length keys) (-alut_d) (-reg_d);
  if keys = [] || alut_d <= 0 || reg_d <= 0 then begin
    prerr_endline
      "  FAIL: pruning the induction-proved checkers saved no ALUTs/registers";
    exit 1
  end;
  let oc = open_out "BENCH_prove.json" in
  Printf.fprintf oc
    "{\"depth\": %d, \"induction\": %d, \"proved\": %d, \"violated\": %d, \
     \"bounded\": %d, \"unknown\": %d, \"conflicts\": %d, \"decisions\": %d, \
     \"propagations\": %d, \"induction_pruned\": %d, \"alut_delta\": %d, \
     \"reg_delta\": %d, \"files\": [%s]}\n"
    depth induction tp tv tb tu conflicts decisions propagations
    (List.length keys) alut_d reg_d
    (String.concat ", "
       (List.map
          (fun (name, r) ->
            Printf.sprintf "{\"name\": \"%s\", \"report\": %s}" name
              (String.trim (Json.to_string (Analysis.Verdict.json_of ~file:name r))))
          reports));
  close_out oc;
  print_endline "  wrote BENCH_prove.json"

(* --- Torture harness ----------------------------------------------------------------- *)

(* Two legs.  The clean leg times generator + oracle throughput over the
   default 200-program campaign and asserts the run agrees everywhere
   and is byte-identical serial vs parallel.  The fault leg injects a
   known translation fault so the oracle has real divergences to
   classify and the shrinker real work to do, giving the artifact
   non-trivial class counts and shrink ratios. *)
let torture_bench () =
  section "Torture harness: co-simulation throughput, divergences, shrink ratios";
  let jobs = Exec.Pool.default_jobs () in
  let count = Torture.Fuzz.default_count in
  let t0 = Unix.gettimeofday () in
  let serial = Torture.Fuzz.run ~jobs:1 ~seed:42L ~count () in
  let serial_dt = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let clean = Torture.Fuzz.run ~jobs ~seed:42L ~count () in
  let dt = Unix.gettimeofday () -. t0 in
  if Json.to_string (Torture.Fuzz.json_of clean) <> Json.to_string (Torture.Fuzz.json_of serial) then begin
    Printf.eprintf "  DETERMINISM VIOLATION: %d-domain fuzz report differs from serial\n" jobs;
    exit 1
  end;
  if clean.Torture.Fuzz.r_findings <> [] then begin
    prerr_endline "  FAIL: clean torture run diverged; see `inca fuzz --seed 42`";
    exit 1
  end;
  let pps = float_of_int count /. dt in
  Printf.printf
    "  clean: %d programs, serial %.2fs, %d domain(s) %.2fs (%.2fx), %.1f programs/sec\n"
    count serial_dt jobs dt (serial_dt /. dt) pps;
  Printf.printf "  clean: all strategies agree (%d baseline cycles simulated)\n"
    clean.Torture.Fuzz.r_baseline_cycles;
  (* fault leg: drop p0's first write to chan1 — a deterministic
     translation bug the differential oracle must catch.  A/B'd
     between from-reset (inject the fault into a separate compile and
     simulate every leg from cycle zero) and the fork-point path
     (padded design, arm the pad at its first activation, trimmed
     budget); the divergence classes must agree. *)
  let faults =
    [ Faults.Fault.Drop_stream_write
        { fproc = "p0"; stream = "chan1"; select = Faults.Fault.Nth 0 } ]
  in
  let fcount = 12 in
  let t0 = Unix.gettimeofday () in
  let faulty_reset =
    Torture.Fuzz.run ~jobs ~seed:42L ~count:fcount ~faults ~from_reset:true ()
  in
  let frdt = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let faulty = Torture.Fuzz.run ~jobs ~seed:42L ~count:fcount ~faults () in
  let fdt = Unix.gettimeofday () -. t0 in
  print_string (Torture.Fuzz.render faulty);
  if faulty.Torture.Fuzz.r_findings = [] then begin
    prerr_endline "  FAIL: injected fault produced no divergence";
    exit 1
  end;
  let classes_of (r : Torture.Fuzz.report) =
    List.map
      (fun (f : Torture.Fuzz.finding) -> (f.Torture.Fuzz.f_index, f.Torture.Fuzz.f_classes))
      r.Torture.Fuzz.r_findings
  in
  if classes_of faulty <> classes_of faulty_reset then begin
    prerr_endline
      "  INVARIANT VIOLATION: fork-point fault classes differ from from-reset";
    exit 1
  end;
  let ratios =
    List.map
      (fun (f : Torture.Fuzz.finding) ->
        let s = f.Torture.Fuzz.f_stats in
        ( s.Torture.Shrink.orig_lines,
          s.Torture.Shrink.min_lines,
          float_of_int s.Torture.Shrink.orig_lines
          /. float_of_int (max 1 s.Torture.Shrink.min_lines) ))
      faulty.Torture.Fuzz.r_findings
  in
  let mean_ratio =
    List.fold_left (fun a (_, _, r) -> a +. r) 0.0 ratios
    /. float_of_int (List.length ratios)
  in
  Printf.printf
    "  fault leg: %d/%d divergent in %.2fs (from-reset %.2fs, fork-point %.2fx \
     faster, classes identical), mean shrink ratio %.1fx\n"
    (List.length faulty.Torture.Fuzz.r_findings)
    fcount fdt frdt (frdt /. fdt) mean_ratio;
  write_artifact "BENCH_torture.json"
    [
      ("count", Json.int count);
      ("jobs", Json.int jobs);
      ("serial_wall_seconds", fixed 3 serial_dt);
      ("wall_seconds", fixed 3 dt);
      ("programs_per_second", fixed 1 pps);
      ("baseline_cycles", Json.int clean.Torture.Fuzz.r_baseline_cycles);
      ("fault_count", Json.int fcount);
      ("fault_wall_seconds", fixed 3 fdt);
      ("fault_from_reset_wall_seconds", fixed 3 frdt);
      ("fault_fork_speedup", fixed 3 (frdt /. fdt));
      ("mean_shrink_ratio", fixed 2 mean_ratio);
      ( "shrinks",
        Json.list
          (fun (o, m, r) ->
            Json.Obj
              [ ("orig_lines", Json.int o); ("min_lines", Json.int m); ("ratio", fixed 2 r) ])
          ratios );
      ("clean_report", Torture.Fuzz.json_of clean);
      ("fault_report", Torture.Fuzz.json_of faulty);
    ]

(* --- Serve daemon: job throughput, shard-merge determinism, warm cache ------------- *)

let serve_bench () =
  section "Serve daemon: jobs/sec warm vs cold, shard determinism, cache reuse";
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "inca-bench-%d.sock" (Unix.getpid ()))
  in
  Exec.Cache.reset_memory ();
  let t = Serve.Server.start ~socket () in
  let submit job =
    match Serve.Server.request ~socket job with
    | Ok (report, cache) -> (report, cache)
    | Error e ->
        Printf.eprintf "  SERVE FAILURE: %s\n" e;
        Serve.Server.stop t;
        exit 1
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* check-job throughput: the first request compiles cold, repeats hit
     the daemon's in-process cache *)
  let check_job =
    Core.Job.Check
      {
        Core.Job.k_sources =
          [ Core.Job.Text { name = "fir.c"; text = Apps.Fir_src.source () } ];
        k_strategy = "optimized";
        k_nabort = false;
        k_ndebug = false;
        k_only = None;
        k_ignore = None;
        k_watchdog = None;
      }
  in
  let (cold_rep, _), cold_dt = timed (fun () -> submit check_job) in
  let warm_n = 5 in
  let warm_reps, warm_dt =
    timed (fun () -> List.init warm_n (fun _ -> submit check_job))
  in
  List.iter
    (fun (r, _) ->
      if Core.Report.to_string r <> Core.Report.to_string cold_rep then begin
        prerr_endline "  DETERMINISM VIOLATION: warm check report differs from cold";
        Serve.Server.stop t;
        exit 1
      end)
    warm_reps;
  let warm_jps = float_of_int warm_n /. warm_dt in
  let warm_speedup = cold_dt /. (warm_dt /. float_of_int warm_n) in
  Printf.printf "  check job: cold %.3fs, warm %.1f jobs/sec (%.1fx)\n" cold_dt
    warm_jps warm_speedup;
  (* shard-merge determinism over the socket: the same campaign sharded
     across the pool and forced serial must serialize identically *)
  let campaign_job jobs =
    Core.Job.Campaign
      {
        Core.Job.a_source =
          Some (Core.Job.Text { name = "fir.c"; text = Apps.Fir_src.source () });
        a_stimulus = Core.Job.empty_stimulus;
        a_budget = None;
        a_watchdog = None;
        a_max_mutants = Some 8;
        a_jobs = jobs;
        a_from_reset = false;
        a_max_cycles = 1_000_000;
        a_prune_hangs = true;
      }
  in
  let (par_rep, _), par_dt = timed (fun () -> submit (campaign_job None)) in
  let (ser_rep, _), _ = timed (fun () -> submit (campaign_job (Some 1))) in
  if Core.Report.to_string par_rep <> Core.Report.to_string ser_rep then begin
    prerr_endline
      "  DETERMINISM VIOLATION: sharded campaign report differs from --jobs 1";
    Serve.Server.stop t;
    exit 1
  end;
  print_endline "  sharded campaign report is byte-identical to --jobs 1";
  (* cache reuse: resubmitting the same campaign must hit the warm store *)
  let (_, cache), _ = timed (fun () -> submit (campaign_job None)) in
  if cache.Serve.Proto.cd_memory_hits + cache.Serve.Proto.cd_disk_hits = 0 then begin
    prerr_endline "  CACHE VIOLATION: resubmitted campaign hit the cache zero times";
    Serve.Server.stop t;
    exit 1
  end;
  Printf.printf "  resubmitted campaign: %d memory hit(s), %d disk hit(s)\n"
    cache.Serve.Proto.cd_memory_hits cache.Serve.Proto.cd_disk_hits;
  Serve.Server.stop t;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\"check_cold_seconds\": %.3f, \"check_warm_jobs_per_second\": %.1f, \
     \"check_warm_speedup\": %.3f, \"campaign_seconds\": %.3f, \
     \"shard_determinism\": \"ok\", \"campaign_memory_hits\": %d, \
     \"campaign_disk_hits\": %d}\n"
    cold_dt warm_jps warm_speedup par_dt cache.Serve.Proto.cd_memory_hits
    cache.Serve.Proto.cd_disk_hits;
  close_out oc;
  print_endline "  wrote BENCH_serve.json"

(* --- Bechamel micro-benchmarks ------------------------------------------------------ *)

let bechamel () =
  section "Bechamel: compiler and simulator throughput";
  let open Bechamel in
  let des_prog = elab ~file:"des3.c" (Apps.Des_src.demo_source ()) in
  let edge_prog = elab ~file:"edge.c" (Apps.Edge_src.demo_source ()) in
  let loop_prog = elab ~file:"loopback.c" (Apps.Loopback_src.source ~n:8 ()) in
  let micro = elab ~file:"k.c" Apps.Micro_src.array_pipelined in
  (* lowering requires assertion synthesis (or stripping) to have run *)
  let des_stripped = Core.Instrument.strip_asserts (List.hd des_prog.Front.Ast.procs) in
  let des_ir = Mir.Opt.optimize (Mir.Lower.lower_proc des_prog des_stripped) in
  let tests =
    [
      Test.make ~name:"parse+typecheck edge-detect"
        (Staged.stage (fun () -> ignore (elab ~file:"edge.c" (Apps.Edge_src.demo_source ()))));
      Test.make ~name:"lower+optimize 3DES"
        (Staged.stage (fun () ->
             ignore (Mir.Opt.optimize (Mir.Lower.lower_proc des_prog des_stripped))));
      Test.make ~name:"schedule 3DES FSMD"
        (Staged.stage (fun () -> ignore (Hls.Schedule.compile_proc des_ir)));
      Test.make ~name:"full compile (edge, optimized)"
        (Staged.stage (fun () ->
             ignore (Driver.compile ~strategy:Driver.parallelized edge_prog)));
      Test.make ~name:"modulo-schedule micro kernel"
        (Staged.stage (fun () ->
             ignore (Driver.compile ~strategy:Driver.baseline micro)));
      Test.make ~name:"simulate 8-stage loopback (64 values)"
        (Staged.stage
           (let c = Driver.compile ~strategy:Driver.optimized loop_prog in
            fun () ->
              ignore
                (Driver.simulate
                   ~options:
                     {
                       Driver.default_sim_options with
                       Driver.feeds = [ ("feed_in", Apps.Loopback_src.feed ~count:64) ];
                       drains = [ "loop_out" ];
                       params = Apps.Loopback_src.params ~n:8 ~count:64;
                     }
                   c)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            Printf.printf "  %-40s %12.1f ns/run\n"
              (match String.index_opt name '/' with
              | Some i -> String.sub name (i + 1) (String.length name - i - 1)
              | None -> name)
              est
        | _ -> Printf.printf "  %-40s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

(* --- Driver ----------------------------------------------------------------------- *)

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("figure4", figure4);
    ("figure5", figure5);
    ("sec51", sec51);
    ("ablation-sharing", ablation_sharing_width);
    ("ablation-replication", ablation_replication);
    ("ablation-binding", ablation_binding);
    ("ablation-checker", ablation_checker_latency);
    ("ablation-transport", ablation_transport);
    ("timing", timing_demo);
    ("campaign", campaign_bench);
    ("campaign-smoke", campaign_smoke);
    ("mine", mine_bench);
    ("check", check_bench);
    ("prove", prove_bench);
    ("torture", torture_bench);
    ("serve", serve_bench);
    ("bechamel", bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] | [ "all" ] ->
      List.iter (fun (_, f) -> f ()) artifacts;
      print_newline ()
  | [ "--help" ] | [ "help" ] ->
      print_endline "artifacts:";
      List.iter (fun (n, _) -> Printf.printf "  %s\n" n) artifacts
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n artifacts with
          | Some f -> f ()
          | None -> Printf.eprintf "unknown artifact %s (try --help)\n" n)
        names
