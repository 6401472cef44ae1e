(* inca — In-Circuit Assertions for high-level synthesis.

   Command-line driver around {!Core.Driver}:

     inca compile app.c --strategy optimized
     inca instrument app.c            # print the instrumented HLL (Figure 2)
     inca vhdl app.c -o out.vhdl
     inca simulate app.c --feed input=1,2,3 --drain output --param main:n=3
     inca campaign [app.c] --jobs 4   # fault-injection sweep + coverage report
     inca mine app.c --top 5          # mine invariants, rank by mutant kills
     inca check app.c                 # scheduler invariant lint
     inca fuzz --seed 42 --count 200  # differential torture test + auto-shrink
     inca serve --socket inca.sock    # batch verification daemon
     inca submit --socket inca.sock job.json
     inca jobs                        # print the job/report protocol schema

   The verification subcommands (compile, check, prove, campaign, mine,
   fuzz) are thin adapters: each builds a {!Core.Job}, hands it to
   {!Serve.Sched.run}, and renders the resulting {!Core.Report} — the
   same path every daemon request takes, so [--json] output and a
   served job's report are the same bytes.

   Flag plumbing shared between subcommands (strategy selection,
   testbench stimulus, sweep caps, --jobs) lives in {!Cli}.

   Exit status is meaningful for scripting: [simulate] exits 1 when the
   run fails (assertion failure, hang, or budget), [campaign] exits 1
   when any mutant silently escapes a non-baseline strategy. *)

open Cmdliner

let stimulus_of (st : Cli.stimulus) =
  { Core.Job.feeds = st.Cli.feeds; drains = st.Cli.drains; params = st.Cli.params }

let expand_dirs paths =
  List.concat_map
    (fun p ->
      if Sys.is_directory p then
        Sys.readdir p |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".c")
        |> List.sort compare
        |> List.map (Filename.concat p)
      else [ p ])
    paths

(* The standard rendering of a scheduled job: the full report envelope
   on stdout under --json (valid JSON with "error" set even on
   failure), the human text plus an stderr error line otherwise. *)
let finish ~json (o : Serve.Sched.outcome) =
  let rep = o.Serve.Sched.sc_report in
  if json then print_endline (Core.Report.to_string rep)
  else begin
    print_string o.Serve.Sched.sc_text;
    match rep.Core.Report.error with Some m -> prerr_endline m | None -> ()
  end;
  rep.Core.Report.exit_code

let write_report path (rep : Core.Report.t) =
  let oc = open_out path in
  output_string oc (Core.Report.to_string rep);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

(* --- compile ------------------------------------------------------------------- *)

let compile_cmd =
  let prune_induction_arg =
    Arg.(
      value
      & opt int 0
      & info [ "prune-induction" ]
          ~doc:
            "Also run the bounded model checker and prune every assertion proved by \
             k-induction up to $(docv) (0 disables).  Reported separately from the \
             absint-proved count."
          ~docv:"K")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the area/timing report as a JSON report envelope.")
  in
  let run file (sel : Cli.strategy_sel) prune prune_ind json =
    finish ~json
      (Serve.Sched.run
         (Core.Job.Compile
            {
              Core.Job.c_source = Core.Job.Path file;
              c_strategy = sel.Cli.sname;
              c_nabort = sel.Cli.nabort;
              c_ndebug = sel.Cli.ndebug;
              c_prune_proved = prune;
              c_prune_induction = prune_ind;
            }))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile and print an area/timing report")
    Term.(
      const run $ Cli.file_arg $ Cli.strategy_args () $ Cli.prune_arg
      $ prune_induction_arg $ json_arg)

(* --- instrument ---------------------------------------------------------------- *)

let instrument_cmd =
  let run file sel =
    let c = Cli.load sel file in
    print_endline (Front.Pretty.program_to_string c.Core.Driver.instrumented);
    print_endline "/* --- generated notification function --- */";
    print_endline (Core.Driver.notification_source c);
    0
  in
  Cmd.v
    (Cmd.info "instrument"
       ~doc:"Print the instrumented HLL source and the generated notification function")
    Term.(const run $ Cli.file_arg $ Cli.strategy_args ())

(* --- vhdl ------------------------------------------------------------------------ *)

let vhdl_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let run file sel prune out =
    Cli.or_static_violation @@ fun () ->
    let c = Cli.load ~prune_proved:prune sel file in
    (match out with
    | None -> print_string (Core.Driver.vhdl c)
    | Some path ->
        let oc = open_out path in
        output_string oc (Core.Driver.vhdl c);
        close_out oc;
        Printf.printf "wrote %s\n" path);
    `Ok 0
  in
  Cmd.v
    (Cmd.info "vhdl" ~doc:"Emit VHDL for the synthesized design")
    Term.(ret (const run $ Cli.file_arg $ Cli.strategy_args () $ Cli.prune_arg $ out_arg))

(* --- simulate -------------------------------------------------------------------- *)

let simulate_cmd =
  let run file sel prune (tb : Cli.testbench) =
    Cli.or_static_violation @@ fun () ->
    let c = Cli.load ~prune_proved:prune sel file in
    let options = Cli.sim_options_of tb in
    let wd, from_auto = Cli.resolve_watchdog tb c.Core.Driver.source in
    if from_auto then
      (* stderr, so scripted stdout comparisons stay stable *)
      (match wd with
      | Some k -> Printf.eprintf "watchdog: auto window %d cycles (proved completion bound)\n" k
      | None -> Printf.eprintf "watchdog: auto requested but liveness not proved; watchdog off\n");
    let options = { options with Core.Driver.watchdog = wd } in
    let r = Core.Driver.simulate ~options c in
    let e = r.Core.Driver.engine in
    (match (tb.Cli.vcd, e.Sim.Engine.vcd) with
    | Some path, Some contents ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote waveform to %s\n" path
    | _ -> ());
    List.iter print_endline r.Core.Driver.messages;
    (match e.Sim.Engine.outcome with
    | Sim.Engine.Finished -> Printf.printf "finished in %d cycles\n" e.Sim.Engine.cycles
    | Sim.Engine.Aborted m -> Printf.printf "aborted after %d cycles: %s\n" e.Sim.Engine.cycles m
    | Sim.Engine.Hang blocked ->
        Printf.printf "HANG after %d cycles:\n" e.Sim.Engine.cycles;
        List.iter
          (fun line -> Printf.printf "  %s\n" line)
          (Sim.Engine.describe_blocked c.Core.Driver.fsmds blocked)
    | Sim.Engine.Livelock spinning ->
        Printf.printf "LIVELOCK detected by watchdog after %d cycles:\n" e.Sim.Engine.cycles;
        List.iter (fun (p, s) -> Printf.printf "  %s spinning in state %d\n" p s) spinning;
        (* scripting contract: a watchdog trip names the livelocked
           processes on stderr alongside the nonzero exit *)
        Printf.eprintf "watchdog: livelocked process(es): %s\n"
          (String.concat ", " (List.map fst spinning))
    | Sim.Engine.Out_of_cycles ->
        Printf.printf "still running after %d cycles\n" e.Sim.Engine.cycles
    | Sim.Engine.Sim_error m -> Printf.printf "simulation error: %s\n" m);
    List.iter
      (fun (s, vs) ->
        Printf.printf "%s: %s\n" s (String.concat " " (List.map Int64.to_string vs)))
      e.Sim.Engine.drained;
    List.iter
      (fun (p : Sim.Engine.pipe_stats) ->
        if p.Sim.Engine.issues > 0 then
          Printf.printf "pipeline in %s: II=%d (measured %.2f), latency %d, %d iterations\n"
            p.Sim.Engine.ps_proc p.Sim.Engine.ii_static p.Sim.Engine.ii_measured
            p.Sim.Engine.latency_measured p.Sim.Engine.issues)
      e.Sim.Engine.pipes;
    (* scripting contract: nonzero when the run raised any flag — an
       assertion failure (even under NABORT), a hang, or the budget *)
    match (e.Sim.Engine.outcome, r.Core.Driver.failed_assertions) with
    | Sim.Engine.Finished, [] -> `Ok 0
    | _ -> `Ok 1
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run the design in the cycle-accurate simulator.  Exits 1 when the run fails: \
          an assertion fires, the design hangs, or the cycle budget is exceeded.")
    Term.(
      ret (const run $ Cli.file_arg $ Cli.strategy_args () $ Cli.prune_arg $ Cli.testbench_args))

(* --- swsim ------------------------------------------------------------------------ *)

let swsim_cmd =
  let nabort_arg =
    Arg.(
      value & flag & info [ "nabort" ] ~doc:"Keep running after assertion failures (NABORT).")
  in
  let ndebug_arg =
    Arg.(value & flag & info [ "ndebug" ] ~doc:"Strip all assertions (NDEBUG).")
  in
  let run file nabort ndebug (st : Cli.stimulus) =
    let sel =
      { Cli.sname = "baseline"; strategy = Core.Driver.baseline; nabort; ndebug }
    in
    let c = Cli.load sel file in
    let r =
      Core.Driver.software_sim
        ~options:
          {
            Core.Driver.default_sim_options with
            Core.Driver.feeds = st.Cli.feeds;
            drains = st.Cli.drains;
            params = st.Cli.params;
          }
        ~nabort c
    in
    List.iter print_endline r.Interp.log;
    (match r.Interp.outcome with
    | Interp.Completed -> print_endline "software simulation completed"
    | Interp.Aborted f -> Printf.printf "aborted: %s\n" (Interp.failure_message f)
    | Interp.Deadlocked blocked ->
        print_endline "DEADLOCK:";
        List.iter
          (fun (p, loc) -> Printf.printf "  %s blocked at %s\n" p (Front.Loc.to_string loc))
          blocked
    | Interp.Fuel_exhausted -> print_endline "step budget exhausted (runaway loop?)"
    | Interp.Runtime_error m -> Printf.printf "runtime error: %s\n" m);
    List.iter
      (fun (s, vs) ->
        Printf.printf "%s: %s\n" s (String.concat " " (List.map Int64.to_string vs)))
      r.Interp.drained;
    if Interp.ok r then 0 else 1
  in
  Cmd.v
    (Cmd.info "swsim"
       ~doc:
         "Run the program under software simulation (untimed C semantics, the Impulse-C \
          desktop path the paper contrasts against)")
    Term.(const run $ Cli.file_arg $ nabort_arg $ ndebug_arg $ Cli.stimulus_args)

(* --- campaign --------------------------------------------------------------------- *)

let campaign_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "InCA-C source file to campaign.  Omit to sweep the bundled case-study \
             applications (FIR, DCT, Triple-DES, edge detection).")
  in
  let max_mutants_arg =
    Cli.max_mutants_arg
      ~doc:
        "Per-workload mutant cap, taken round-robin across fault kinds; the report \
         counts dropped sites."
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ]
          ~doc:"Also write the report envelope as JSON to $(docv)." ~docv:"PATH")
  in
  let runs_arg =
    Arg.(value & flag & info [ "runs" ] ~doc:"Print the classification of every mutant run.")
  in
  let from_reset_arg =
    Arg.(
      value
      & flag
      & info [ "from-reset" ]
          ~doc:
            "Compile and simulate every mutant from cycle zero instead of restoring the \
             fork-point snapshot taken just before its fault site first activates (the \
             split-simulation fast path).  Classification is identical in both modes; \
             use for A/B timing or as an escape hatch.")
  in
  let classes_arg =
    Arg.(
      value
      & flag
      & info [ "classes" ]
          ~doc:
            "Print the per-mutant classification map (one tab-separated \
             workload/strategy/fault/class line per mutant).  Byte-identical between \
             fork-point and --from-reset evaluation; CI diffs the two to gate the \
             invariant.")
  in
  let no_prune_arg =
    Arg.(
      value
      & flag
      & info [ "no-prune" ]
          ~doc:
            "Simulate mutants the liveness pre-filter proves certainly blocking instead \
             of classifying them hang statically.  The classification map is \
             byte-identical either way; CI diffs the two to gate the invariant.")
  in
  let run file stimulus budget watchdog max_mutants jobs json_out show_runs from_reset
      show_classes max_cycles no_prune =
    let o =
      Serve.Sched.run
        (Core.Job.Campaign
           {
             Core.Job.a_source = Option.map (fun p -> Core.Job.Path p) file;
             a_stimulus = stimulus_of stimulus;
             a_budget = budget;
             a_watchdog = watchdog;
             a_max_mutants = max_mutants;
             a_jobs = jobs;
             a_from_reset = from_reset;
             a_max_cycles = max_cycles;
             a_prune_hangs = not no_prune;
           })
    in
    let rep = o.Serve.Sched.sc_report in
    (match o.Serve.Sched.sc_result with
    | Some (Serve.Sched.R_campaign r) ->
        if show_classes then print_string (Campaign.render_classes r)
        else print_endline (Campaign.render r);
        if show_runs then begin
          print_endline "\nper-mutant classification:";
          List.iter
            (fun (run : Campaign.run) ->
              let detail = Campaign.detail_string run.Campaign.detail in
              Printf.printf "  %-10s %-13s %-42s %-9s %6d cyc%s%s\n" run.Campaign.workload
                run.Campaign.strategy
                (Faults.Fault.describe run.Campaign.fault)
                (Campaign.class_name run.Campaign.outcome)
                run.Campaign.cycles
                (if detail <> "" then "  " ^ detail else "")
                (if run.Campaign.retried then "  [retried]" else ""))
            r.Campaign.runs
        end
    | _ -> ());
    (* the report envelope on disk even on failure, so scripted --json
       consumers always get {"schema_version": …, "error": …} *)
    (match json_out with Some path -> write_report path rep | None -> ());
    (* disk-store effectiveness on stderr, so scripted report diffs
       (stdout) stay byte-identical between cold and warm runs *)
    (match Exec.Cache.dir () with
    | Some dir ->
        let s = Exec.Cache.stats () in
        Printf.eprintf "cache: %d disk hit(s), %d disk miss(es) (%s)\n"
          s.Exec.Cache.disk_hits s.Exec.Cache.disk_misses dir
    | None -> ());
    (* scripting contract: nonzero when a mutant silently escaped an
       instrumented strategy (the baseline control has no assertions, so
       its silent corruptions are expected and don't count) *)
    (match rep.Core.Report.error with Some m -> prerr_endline m | None -> ());
    rep.Core.Report.exit_code
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Fault-injection campaign: enumerate every candidate fault site, run one mutant \
          per site under each assertion-synthesis strategy, and print the \
          assertion-coverage report.  Exits 1 when any mutant silently escapes an \
          instrumented (non-baseline) strategy.")
    Term.(
      const run $ file_arg $ Cli.stimulus_args $ Cli.budget_arg $ Cli.sweep_watchdog_arg
      $ max_mutants_arg $ Cli.jobs_arg $ json_arg $ runs_arg $ from_reset_arg
      $ classes_arg $ Cli.max_cycles_arg () $ no_prune_arg)

(* --- mine ------------------------------------------------------------------------- *)

let mine_cmd =
  let strategy_arg =
    Cli.strategy_opt
      ~default:("parallelized", Core.Driver.parallelized)
      ~doc:
        "Synthesis strategy the mined assertions are compiled and ranked under: \
         baseline, unoptimized, parallelized, optimized, or carte."
      ()
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"Report the $(docv) best candidates." ~docv:"N")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the ranking as a JSON report envelope instead of text.")
  in
  let emit_arg =
    Arg.(
      value
      & flag
      & info [ "emit" ]
          ~doc:
            "Print the InCA-C source instrumented with the top candidates (after the \
             report).")
  in
  let max_candidates_arg =
    Arg.(
      value
      & opt int 12
      & info [ "max-candidates" ]
          ~doc:"Candidate cap after inference, taken round-robin across template kinds.")
  in
  let max_mutants_arg = Cli.max_mutants_arg ~doc:"Fault-site cap per ranking sweep." in
  let run file strategy top json emit stimulus max_candidates max_mutants budget jobs =
    finish ~json
      (Serve.Sched.run
         (Core.Job.Mine
            {
              Core.Job.m_source = Core.Job.Path file;
              m_strategy = fst strategy;
              m_stimulus = stimulus_of stimulus;
              m_top = top;
              m_max_candidates = max_candidates;
              m_max_mutants = max_mutants;
              m_budget = budget;
              m_jobs = jobs;
              m_emit = emit;
            }))
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:
         "Mine candidate invariants from software-simulation traces (Daikon-style \
          templates over multiple derived stimuli), inject the survivors as in-circuit \
          assertions, and rank them by fault-detection power with area/fmax cost")
    Term.(
      const run $ Cli.file_arg $ strategy_arg $ top_arg $ json_arg $ emit_arg
      $ Cli.stimulus_args $ max_candidates_arg $ max_mutants_arg $ Cli.budget_arg
      $ Cli.jobs_arg)

(* --- fuzz ------------------------------------------------------------------------- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int64 42L & info [ "seed" ] ~doc:"Run seed; every program derives from it.")
  in
  let count_arg =
    Arg.(
      value
      & opt Cli.positive_int Torture.Fuzz.default_count
      & info [ "count" ] ~doc:"Number of programs to generate and check.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (Cli.int_at_least 0) Torture.Fuzz.default_fuel
      & info [ "fuel" ] ~doc:"Generator size budget per program.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt string Torture.Corpus.default_dir
      & info [ "corpus-dir" ]
          ~doc:"Directory shrunk reproducers are written to (one per divergence class).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ]
          ~doc:"Also write the report envelope as JSON to $(docv)." ~docv:"PATH")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt Cli.positive_int Torture.Oracle.default_watchdog
      & info [ "watchdog" ]
          ~doc:"Live-lock watchdog window for every circuit run, in cycles.")
  in
  let bmc_depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "bmc-depth" ]
          ~doc:
            "Cross-check every statically proved assertion against the bounded model \
             checker to this depth; a replay-confirmed counterexample for a proved \
             assertion is a proved-fired:bmc divergence."
          ~docv:"K")
  in
  let run seed count fuel jobs max_cycles watchdog bmc_depth corpus_dir json_out =
    let o =
      Serve.Sched.run
        (Core.Job.Fuzz
           {
             Core.Job.z_seed = seed;
             z_count = Some count;
             z_fuel = Some fuel;
             z_max_cycles = Some max_cycles;
             z_watchdog = Some watchdog;
             z_bmc_depth = bmc_depth;
             z_corpus_dir = Some corpus_dir;
             z_jobs = jobs;
           })
    in
    let rep = o.Serve.Sched.sc_report in
    print_string o.Serve.Sched.sc_text;
    (match json_out with Some path -> write_report path rep | None -> ());
    (* scripting contract: any divergence fails the run; each one has
       already been shrunk and written to the corpus directory *)
    (match rep.Core.Report.error with Some m -> prerr_endline m | None -> ());
    rep.Core.Report.exit_code
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Torture-test the whole toolchain: generate seeded random InCA-C programs, run \
          each through software simulation (golden) and the cycle-accurate circuit under \
          every assertion-synthesis strategy, and compare outputs, assertion fires, \
          static-analysis verdicts and cycle ratios.  Every divergence is delta-debugged \
          to a minimal reproducer.  The report is byte-identical across runs and --jobs \
          values.  Exits 1 when any divergence is found.")
    Term.(
      const run $ seed_arg $ count_arg $ fuel_arg $ Cli.jobs_arg
      $ Cli.max_cycles_arg ~default:Torture.Oracle.default_max_cycles ()
      $ watchdog_arg $ bmc_depth_arg $ corpus_arg $ json_arg)

(* --- cache ------------------------------------------------------------------------ *)

let cache_cmd =
  let stats_arg =
    Arg.(
      value
      & flag
      & info [ "stats" ]
          ~doc:"Print store entry count, total bytes and this process's hit counters \
                (the default action).")
  in
  let gc_arg =
    Arg.(
      value
      & flag
      & info [ "gc" ]
          ~doc:"Evict least-recently-used entries until at most $(b,--max-bytes) remain.")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~doc:"Size bound for $(b,--gc), in bytes." ~docv:"N")
  in
  let clear_arg =
    Arg.(value & flag & info [ "clear" ] ~doc:"Delete every entry in the store.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ]
          ~doc:"Operate on this store directory instead of $(b,INCA_CACHE_DIR)."
          ~docv:"DIR")
  in
  let print_stats () =
    match Exec.Cache.disk_stats () with
    | None -> ()
    | Some d ->
        Printf.printf "store: %s\n"
          (match Exec.Cache.dir () with Some p -> p | None -> "?");
        Printf.printf "entries: %d\n" d.Exec.Cache.entries;
        Printf.printf "bytes: %d\n" d.Exec.Cache.bytes;
        let s = Exec.Cache.stats () in
        Printf.printf
          "this process: %d memory hits, %d misses; %d disk hits, %d disk misses\n"
          s.Exec.Cache.hits s.Exec.Cache.misses s.Exec.Cache.disk_hits
          s.Exec.Cache.disk_misses
  in
  let run dir _stats gc max_bytes clear =
    (match dir with Some _ -> Exec.Cache.set_dir dir | None -> ());
    match Exec.Cache.dir () with
    | None ->
        `Error
          ( false,
            "no cache directory configured; set INCA_CACHE_DIR or pass --dir" )
    | Some _ ->
        if clear then begin
          Exec.Cache.clear_disk ();
          print_endline "cleared"
        end;
        (match (gc, max_bytes) with
        | true, Some n -> Printf.printf "evicted %d entr(ies)\n" (Exec.Cache.gc ~max_bytes:n)
        | true, None ->
            prerr_endline "cache: --gc requires --max-bytes";
            exit 1
        | false, _ -> ());
        print_stats ();
        `Ok 0
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect and manage the on-disk compile/snapshot store.  The store is enabled \
          by the $(b,INCA_CACHE_DIR) environment variable (or $(b,--dir)) and persists \
          compiled fronts and campaign baseline snapshots across processes; entries are \
          keyed by content digest and bound to the producing binary, so a stale or \
          corrupt entry reads as a miss, never an error.")
    Term.(ret (const run $ dir_arg $ stats_arg $ gc_arg $ max_bytes_arg $ clear_arg))

(* --- check ------------------------------------------------------------------------ *)

let check_cmd =
  let paths_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"PATH"
          ~doc:
            "InCA-C source files or directories (a directory expands to its *.c files, \
             sorted).")
  in
  let json_arg =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON report envelope covering every file.  The output is valid \
             JSON even when parsing or compilation fails.")
  in
  let run paths (sel : Cli.strategy_sel) json (only, ignore_) watchdog =
    finish ~json
      (Serve.Sched.run
         (Core.Job.Check
            {
              Core.Job.k_sources =
                List.map (fun p -> Core.Job.Path p) (expand_dirs paths);
              k_strategy = sel.Cli.sname;
              k_nabort = sel.Cli.nabort;
              k_ndebug = sel.Cli.ndebug;
              k_only = only;
              k_ignore = ignore_;
              k_watchdog = watchdog;
            }))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify and lint the program: classify every assertion as \
          proved/violated/unknown by abstract interpretation, run the InCA-C lint suite \
          (BRAM port contention, status-channel overflow, uninitialized reads, undrained \
          streams, dead assertions), and check the scheduled design against FSMD and IR \
          invariants.  Exits 1 when any error-severity finding is reported.")
    Term.(
      const run $ paths_arg $ Cli.strategy_args () $ json_arg $ Cli.code_filter_args
      $ Cli.check_watchdog_arg)

(* --- prove ------------------------------------------------------------------------ *)

let prove_cmd =
  let paths_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"PATH"
          ~doc:
            "InCA-C source files or directories (a directory expands to its *.c files, \
             sorted).")
  in
  let depth_arg =
    Arg.(
      value
      & opt int 12
      & info [ "depth" ] ~doc:"Cycles to unroll the design (the bound of the search).")
  in
  let induction_arg =
    Arg.(
      value
      & opt int 4
      & info [ "induction" ]
          ~doc:
            "Maximum k tried for the k-induction unbounded proof of assertions the \
             bounded search could not violate; 0 disables induction.")
  in
  let assertion_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "assertion" ] ~doc:"Check only the assertion with this id." ~docv:"ID")
  in
  let conflict_arg =
    Arg.(
      value
      & opt int 200_000
      & info [ "conflict-limit" ]
          ~doc:"Solver conflict budget per SAT query; exhausted queries report unknown.")
  in
  let json_arg =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:
            "Emit one deterministic JSON report envelope covering every file, \
             byte-identical across --jobs values.")
  in
  let run paths depth induction assertion conflict_limit jobs json =
    finish ~json
      (Serve.Sched.run
         (Core.Job.Prove
            {
              Core.Job.p_sources =
                List.map (fun p -> Core.Job.Path p) (expand_dirs paths);
              p_depth = depth;
              p_induction = induction;
              p_assertion = assertion;
              p_conflict_limit = conflict_limit;
              p_jobs = jobs;
            }))
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Bounded model checking of the synthesized design: bit-blast the scheduled \
          FSMDs, stream FIFOs and block RAMs into an AIG, unroll to --depth cycles and \
          classify every assertion as proved (k-induction), violated (with a \
          cycle-accurate counterexample replayed through the simulator), bounded, or \
          unknown.  Also reports checker reachability (cover).  Exits 1 when any \
          replay-confirmed violation is found, 2 on compile errors.")
    Term.(
      const run $ paths_arg $ depth_arg $ induction_arg $ assertion_arg $ conflict_arg
      $ Cli.jobs_arg $ json_arg)

(* --- serve ------------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~doc:"Unix socket path." ~docv:"PATH")

let serve_cmd =
  let run socket jobs =
    match Serve.Server.start ~socket ?jobs () with
    | exception Failure m ->
        prerr_endline m;
        1
    | t ->
        let stop _ = Serve.Server.signal_stop t in
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        Printf.eprintf "inca serve: listening on %s\n%!" socket;
        (* idle interruptibly: a signal wakes the sleep and its handler
           runs here, on the main thread, before we join the accept loop *)
        while not (Serve.Server.stopping t) do
          try Unix.sleepf 0.5 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        Serve.Server.wait t;
        0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batch verification daemon: accept newline-delimited JSON jobs \
          (compile, check, prove, campaign, mine, fuzz) over a Unix socket, schedule \
          them on the shared worker pool — campaign and mine jobs are sharded by \
          workload x strategy x fault site and merged deterministically — and stream \
          progress events followed by the report envelope.  The in-process and on-disk \
          compile caches stay warm across jobs; stop with SIGINT/SIGTERM.  See \
          $(b,inca jobs) for the protocol schema.")
    Term.(const run $ socket_arg $ Cli.jobs_arg)

let jobs_cmd =
  let run () =
    print_endline (Json.to_string (Serve.Proto.describe ()));
    0
  in
  Cmd.v
    (Cmd.info "jobs"
       ~doc:
         "Print the machine-readable protocol schema of $(b,inca serve): the request \
          and event envelopes, the report envelope, and the fields of every job kind.")
    Term.(const run $ const ())

let submit_cmd =
  let job_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"JOBFILE"
          ~doc:"Job JSON (an envelope or a bare job object); reads stdin when omitted.")
  in
  let run socket jobfile =
    let text =
      match jobfile with
      | Some p -> Serve.Sched.read_file p
      | None -> In_channel.input_all stdin
    in
    match Json.parse text with
    | Error e ->
        prerr_endline e;
        3
    | Ok j -> (
        match Serve.Proto.decode_request j with
        | Error e ->
            prerr_endline e;
            3
        | Ok req -> (
            let on_progress ~seq ~label ~data:_ =
              Printf.eprintf "[%d] %s\n%!" seq label
            in
            match
              Serve.Server.request ~socket ~id:req.Serve.Proto.req_id ~on_progress
                req.Serve.Proto.req_job
            with
            | Error e ->
                prerr_endline e;
                3
            | Ok (report, cache) ->
                (* stderr so the stdout envelope diffs clean against a
                   cold CLI run *)
                Printf.eprintf "cache: %d memory hit(s), %d disk hit(s)\n"
                  cache.Serve.Proto.cd_memory_hits cache.Serve.Proto.cd_disk_hits;
                print_endline (Core.Report.to_string report);
                report.Core.Report.exit_code))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one job to a running $(b,inca serve) daemon and print the report \
          envelope on stdout (progress events and cache counters go to stderr).  Exits \
          with the report's exit code, or 3 on connection/protocol errors.")
    Term.(const run $ socket_arg $ job_arg)

let main =
  let doc = "in-circuit assertion synthesis for high-level synthesis" in
  Cmd.group
    (Cmd.info "inca" ~version:"1.0.0" ~doc)
    [
      compile_cmd; instrument_cmd; vhdl_cmd; simulate_cmd; swsim_cmd; campaign_cmd;
      mine_cmd; check_cmd; fuzz_cmd; prove_cmd; cache_cmd; serve_cmd; jobs_cmd;
      submit_cmd;
    ]

let () = exit (Cmd.eval' main)
