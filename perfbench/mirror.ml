(* Traced re-enactments of the entry points that hide their layer calls.

   [Campaign.run], [Torture.Oracle.check] and [Torture.Fuzz.run] do not
   expose the calls they make into the lower layers.  For the traced run
   the benchmark issues the same public calls, in the same order, on the
   same inputs, each inside a span, and keeps the entry point's own
   bookkeeping as the remainder of the enclosing phase span.  Every
   re-enactment is checked against the real entry point's output (class
   map, divergence classes, shrunk program), so a drift between the two
   shows up as a failed pass instead of a wrong profile. *)

module Driver = Core.Driver
module Engine = Sim.Engine
module Fault = Faults.Fault
module Prefilter = Faults.Prefilter
module Oracle = Torture.Oracle

(* --- layer calls -------------------------------------------------------- *)

let parse ?file src =
  Span.count "front.parse_calls" 1;
  Span.run "front.parse" (fun () -> Front.Typecheck.parse_and_check ?file src)

let print prog = Span.run "front.print" (fun () -> Front.Pretty.program_to_string prog)

let front ?strategy prog =
  Span.count "core.front_calls" 1;
  Span.run "core.front" (fun () -> Driver.front ?strategy prog)

let finish ?faults f =
  Span.count "core.finish_calls" 1;
  Span.run "core.finish" (fun () -> Driver.finish ?faults f)

(* [Exec.Cache.front]: a miss runs [Driver.front] inside the lookup, so
   the span is filed under core when the miss counter moved. *)
let cache_front ?strategy prog =
  let misses () = (Exec.Cache.stats ()).Exec.Cache.misses in
  let before = misses () in
  Span.run "exec.cache"
    ~rename:(fun _ ->
      if misses () > before then begin
        Span.count "core.front_calls" 1;
        "core.front"
      end
      else "exec.cache")
    (fun () -> Exec.Cache.front ?strategy prog)

let cache_compile ?strategy ?faults prog = finish ?faults (cache_front ?strategy prog)

let engine f = Span.run "sim.engine" f

let ran (r : Engine.result) ~from =
  Span.count "sim.runs" 1;
  Span.count "sim.cycles" (r.Engine.cycles - from)

let simulate ~options c =
  engine (fun () ->
      let r = Driver.simulate ~options c in
      ran r.Driver.engine ~from:0;
      r)

let prepare ?options ?on_site c = engine (fun () -> Driver.prepare ?options ?on_site c)

let run_session ses ~from =
  engine (fun () ->
      let r = Driver.session_result ses (Engine.run ses.Driver.ses_engine) in
      ran r.Driver.engine ~from;
      r)

let run_until ses ~cycle =
  engine (fun () ->
      let e = ses.Driver.ses_engine in
      let from = Engine.current_cycle e in
      let o = Engine.run_until e ~cycle in
      Span.count "sim.cycles" (Engine.current_cycle e - from);
      o)

let restore ses snap =
  Span.count "sim.restores" 1;
  engine (fun () -> Engine.restore ses.Driver.ses_engine snap)

let software_sim ~options c =
  Span.count "interp.runs" 1;
  Span.run "interp.sim" (fun () ->
      let r = Driver.software_sim ~options c in
      if r.Interp.outcome = Interp.Fuel_exhausted then
        Span.count "interp.fuel_exhausted" 1;
      r)

let absint prog = Span.run "analysis.absint" (fun () -> Analysis.Absint.analyze prog)

let live ~(options : Driver.sim_options) prog =
  Span.run "analysis.live" (fun () ->
      Analysis.Live.analyze ~params:options.Driver.params
        ~feeds:(List.map (fun (s, vs) -> (s, List.length vs)) options.Driver.feeds)
        ~drains:options.Driver.drains prog)

(* --- Campaign.run ------------------------------------------------------- *)

let drained_equal ~drains golden actual =
  List.for_all
    (fun s ->
      let get l = Option.value ~default:[] (List.assoc_opt s l) in
      get golden = get actual)
    drains

let never = max_int

(* The fork-point context of one (workload, strategy): padded compile,
   neutral run with first activations, then a replay snapshotting at
   each activation cycle — [Campaign.plan]'s [build_fork_ctx] with the
   disk tier off. *)
let fork_ctx (w : Campaign.workload) strategy ~budget ~watchdog ~golden =
  let f = cache_front ~strategy w.Campaign.program in
  let inst = Span.run "faults.instrument" (fun () -> Fault.instrument_all f.Driver.f_ir) in
  let compiled = finish { f with Driver.f_ir = inst.Fault.ip_prog } in
  let sites = inst.Fault.ip_sites in
  let nsites = List.length sites in
  let probe = { w.Campaign.options with Driver.max_cycles = budget; watchdog = Some watchdog } in
  let first_act = Array.make nsites never in
  let on_site cycle idx =
    if idx >= 0 && idx < nsites && first_act.(idx) = never then first_act.(idx) <- cycle
  in
  let base = run_session (prepare ~options:probe ~on_site compiled) ~from:0 in
  if base.Driver.engine.Engine.outcome <> Engine.Finished then None
  else
    let wanted =
      List.sort_uniq compare
        (List.filter_map
           (fun (s : Fault.site) ->
             let c = first_act.(s.Fault.s_index) in
             if s.Fault.s_padded && c <> never then Some c else None)
           sites)
    in
    let ses = prepare ~options:probe compiled in
    let snaps =
      List.filter_map
        (fun c ->
          match run_until ses ~cycle:c with
          | None -> Some (c, engine (fun () -> Engine.snapshot ses.Driver.ses_engine))
          | Some _ -> None)
        wanted
    in
    if List.length snaps <> List.length wanted then None
    else if
      not
        (drained_equal ~drains:w.Campaign.options.Driver.drains golden
           base.Driver.engine.Engine.drained)
    then None
    else
      let fb = (4 * base.Driver.engine.Engine.cycles) + 2000 in
      let options =
        { w.Campaign.options with Driver.max_cycles = fb; watchdog = Some (max 200 (fb / 20)) }
      in
      Some (compiled, sites, first_act, snaps, base, options)

type disposition =
  | Pruned
  | Pruned_hang
  | Baseline of Driver.sim_result
  | Simulate of (unit -> Driver.sim_result)

let class_of ~drains ~golden (r : Driver.sim_result) =
  match r.Driver.engine.Engine.outcome with
  | Engine.Aborted _ -> Campaign.Detected_by_assertion
  | Engine.Livelock _ | Engine.Hang _ -> Campaign.Hang_detected
  | Engine.Out_of_cycles -> Campaign.Budget_exceeded
  | Engine.Sim_error _ -> Campaign.Silent_corruption
  | Engine.Finished ->
      if drained_equal ~drains golden r.Driver.engine.Engine.drained then Campaign.Benign
      else Campaign.Silent_corruption

(* One traced pass of [Campaign.run] over [workloads] with the default
   strategies, fork mode, hang pruning and [jobs] workers.  Returns the
   classification map in [Campaign.render_classes] form. *)
let campaign ~jobs (workloads : Campaign.workload list) =
  let strategies = Campaign.default_strategies in
  let mutants =
    Span.run "campaign.plan" (fun () ->
        List.concat_map
          (fun (w : Campaign.workload) ->
            let prog = w.Campaign.program and options = w.Campaign.options in
            List.iter (fun (_, strategy) -> ignore (cache_front ~strategy prog)) strategies;
            let base_ir = (cache_front ~strategy:Driver.baseline prog).Driver.f_ir in
            let faults = Span.run "faults.sites" (fun () -> Fault.sites base_ir) in
            let verdicts =
              let ir = (cache_front ~strategy:Driver.baseline prog).Driver.f_ir in
              Span.run "faults.prefilter" (fun () -> Prefilter.verdicts ir faults)
            in
            let hangs =
              Span.run "faults.hang_prefilter" (fun () ->
                  Prefilter.hang_verdicts ~params:options.Driver.params
                    ~feeds:(List.map (fun (s, vs) -> (s, List.length vs)) options.Driver.feeds)
                    ~drains:options.Driver.drains prog faults)
            in
            let golden =
              (software_sim ~options (cache_compile ~strategy:Driver.baseline prog))
                .Interp.drained
            in
            let base_cycles =
              (simulate ~options (cache_compile ~strategy:Driver.baseline prog))
                .Driver.engine.Engine.cycles
            in
            let budget = (4 * base_cycles) + 2000 in
            let watchdog = max 200 (budget / 20) in
            let ctxs =
              List.filter_map
                (fun (sname, strategy) ->
                  Option.map
                    (fun ctx -> (sname, ctx))
                    (fork_ctx w strategy ~budget ~watchdog ~golden))
                strategies
            in
            List.concat_map
              (fun (sname, strategy) ->
                let ctx = List.assoc_opt sname ctxs in
                List.map2
                  (fun (fault, hang) verdict ->
                    let legacy () =
                      Simulate
                        (fun () ->
                          let options =
                            { options with Driver.max_cycles = budget; watchdog = Some watchdog }
                          in
                          simulate ~options (cache_compile ~strategy ~faults:[ fault ] prog))
                    in
                    let disp =
                      match (verdict, hang) with
                      | (Prefilter.Equivalent | Prefilter.Dead), _ ->
                          Span.count "faults.pruned_static" 1;
                          Pruned
                      | Prefilter.Unknown, Prefilter.Certain_hang _ ->
                          Span.count "faults.pruned_hang" 1;
                          Pruned_hang
                      | Prefilter.Unknown, Prefilter.Hang_unknown -> (
                          match ctx with
                          | None -> legacy ()
                          | Some (compiled, sites, first_act, snaps, base, fopts) -> (
                              match
                                List.find_opt (fun (s : Fault.site) -> s.Fault.s_fault = fault) sites
                              with
                              | Some site when site.Fault.s_padded ->
                                  let act = first_act.(site.Fault.s_index) in
                                  if act = never then Baseline base
                                  else if List.mem_assoc act snaps then
                                    Simulate
                                      (fun () ->
                                        let ses = prepare ~options:fopts compiled in
                                        restore ses (List.assoc act snaps);
                                        engine (fun () ->
                                            Engine.arm ses.Driver.ses_engine
                                              [ (site.Fault.s_proc, site.Fault.s_arm) ]);
                                        run_session ses ~from:act)
                                  else legacy ()
                              | _ -> legacy ()))
                    in
                    (w, sname, fault, golden, disp))
                  (List.combine faults hangs) verdicts)
              strategies)
          workloads)
  in
  let mutants = Array.of_list mutants in
  Span.count "campaign.mutant_runs" (Array.length mutants);
  Array.iter
    (function
      | _, _, _, _, Simulate _ -> Span.count "campaign.mutants_simulated" 1 | _ -> ())
    mutants;
  (* every shard goes to the pool, as in [Campaign.run], so the workers
     are dealt the same blocks *)
  let results =
    Span.run "campaign.eval" (fun () ->
        let parent = Span.current () in
        Exec.Pool.run ~jobs ~retries:1
          (Array.map
             (fun (_, _, _, _, disp) () ->
               Span.run ~parent "exec.pool.job" (fun () ->
                   match disp with Simulate f -> Some (f ()) | _ -> None))
             mutants))
  in
  Span.run "campaign.merge" (fun () ->
      let b = Buffer.create 8192 in
      Array.iteri
        (fun i ((w : Campaign.workload), sname, fault, golden, disp) ->
          let drains = w.Campaign.options.Driver.drains in
          let cls =
            match (disp, results.(i).Exec.Pool.value) with
            | Pruned, _ -> Campaign.Benign
            | Pruned_hang, _ -> Campaign.Hang_detected
            | Baseline r, _ | Simulate _, Ok (Some r) -> class_of ~drains ~golden r
            | Simulate _, _ -> Campaign.Silent_corruption
          in
          Printf.bprintf b "%s\t%s\t%s\t%s\n" w.Campaign.wname sname (Fault.describe fault)
            (Campaign.class_name cls))
        mutants;
      Buffer.contents b)

(* --- Oracle.check ------------------------------------------------------- *)

type dclass = Oracle.dclass =
  | Output_mismatch
  | Spurious_fire
  | Missed_abort
  | Proved_fired
  | Liveness_unsound
  | Hang
  | Cycle_blowup
  | Crash

let div dclass strategy detail = { Oracle.dclass; strategy; detail }
let exn_detail stage e = Printf.sprintf "%s: %s" stage (Printexc.to_string e)

let sw_stuck (r : Interp.result) =
  match r.Interp.outcome with
  | Interp.Deadlocked _ | Interp.Fuel_exhausted -> true
  | Interp.Completed | Interp.Aborted _ | Interp.Runtime_error _ -> false

let ratio_bound = 16
let ratio_slack = 2048

type leg = Legacy of Driver.compiled | Padded of Driver.compiled * Fault.site

let compile_leg ~faults ~strategy prog =
  match faults with
  | [ fault ] -> (
      let f = front ~strategy prog in
      let inst = Span.run "faults.instrument" (fun () -> Fault.instrument_all f.Driver.f_ir) in
      match
        List.find_opt
          (fun (s : Fault.site) -> s.Fault.s_padded && s.Fault.s_fault = fault)
          inst.Fault.ip_sites
      with
      | Some site -> Padded (finish { f with Driver.f_ir = inst.Fault.ip_prog }, site)
      | None -> Legacy (finish ~faults f))
  | _ -> Legacy (finish ~faults (front ~strategy prog))

let simulate_leg ~(options : Driver.sim_options) = function
  | Legacy c -> (simulate ~options c, options.Driver.max_cycles)
  | Padded (c, site) -> (
      let act = ref (-1) in
      let on_site cycle idx = if idx = site.Fault.s_index && !act < 0 then act := cycle in
      let base = run_session (prepare ~options ~on_site c) ~from:0 in
      if !act < 0 then (base, options.Driver.max_cycles)
      else
        let budget =
          match base.Driver.engine.Engine.outcome with
          | Engine.Finished ->
              min options.Driver.max_cycles
                ((ratio_bound * base.Driver.engine.Engine.cycles) + ratio_slack)
          | _ -> options.Driver.max_cycles
        in
        let options = { options with Driver.max_cycles = budget } in
        let arm ses =
          engine (fun () ->
              Engine.arm ses.Driver.ses_engine [ (site.Fault.s_proc, site.Fault.s_arm) ])
        in
        let ses = prepare ~options c in
        match run_until ses ~cycle:!act with
        | None ->
            arm ses;
            (run_session ses ~from:!act, budget)
        | Some _ ->
            let ses = prepare ~options c in
            arm ses;
            (run_session ses ~from:0, budget))

let live_divs ~faults ~live sname (eng : Engine.result) =
  if faults <> [] then []
  else
    let unsound what =
      match live with
      | Analysis.Live.Deadlock_free k ->
          [ div Liveness_unsound sname
              (Printf.sprintf "analyzer proved deadlock-free (bound %d) but the circuit %s" k
                 what) ]
      | _ -> []
    in
    match eng.Engine.outcome with
    | Engine.Finished -> (
        match live with
        | Analysis.Live.Deadlock w ->
            [ div Liveness_unsound sname
                ("analyzer claimed certain deadlock ("
                ^ Analysis.Live.witness_to_string w
                ^ ") but the circuit finished") ]
        | _ -> [])
    | Engine.Hang _ -> unsound "deadlocked"
    | Engine.Livelock _ -> unsound "live-locked (watchdog)"
    | Engine.Aborted _ | Engine.Out_of_cycles | Engine.Sim_error _ -> []

let check_strategy ~options ~sw ~golden ~proved ~live ~faults ~prog (sname, strategy) =
  match compile_leg ~faults ~strategy prog with
  | exception e -> ([ div Crash sname (exn_detail "compile" e) ], None)
  | leg -> (
      match simulate_leg ~options leg with
      | exception e -> ([ div Crash sname (exn_detail "simulate" e) ], None)
      | r, budget ->
          let eng = r.Driver.engine in
          let fsmds = match leg with Legacy c | Padded (c, _) -> c.Driver.fsmds in
          let proved_div =
            List.filter_map
              (fun id ->
                if List.mem id proved then
                  Some
                    (div Proved_fired sname
                       (Printf.sprintf "proved assertion #%d fired in circuit" id))
                else None)
              r.Driver.failed_assertions
          in
          let sw_aborted = match sw.Interp.outcome with Interp.Aborted _ -> true | _ -> false in
          let stripped = strategy.Driver.mode = Driver.Baseline in
          let stuck = sw_stuck sw in
          let divs, cycles =
            match eng.Engine.outcome with
            | Engine.Finished ->
                let c = Some eng.Engine.cycles in
                if stuck then ([ div Hang sname "software run is stuck but circuit finishes" ], c)
                else if sw_aborted then
                  if stripped then ([], c)
                  else
                    ( [ div Missed_abort sname
                          "software aborted on an assertion; circuit finished without firing" ],
                      c )
                else (
                  match
                    List.filter
                      (fun s ->
                        let get l = Option.value ~default:[] (List.assoc_opt s l) in
                        get golden <> get eng.Engine.drained)
                      options.Driver.drains
                  with
                  | [] -> ([], c)
                  | streams ->
                      ( [ div Output_mismatch sname
                            ("output differs on " ^ String.concat ", " streams) ],
                        c ))
            | Engine.Aborted m ->
                if sw_aborted || (stuck && not stripped) then ([], None)
                else ([ div Spurious_fire sname m ], None)
            | Engine.Hang blocked ->
                if stuck then ([], None)
                else
                  ( [ div Hang sname
                        ("circuit deadlock: "
                        ^ String.concat "; " (Engine.describe_blocked fsmds blocked)) ],
                    None )
            | Engine.Livelock spinning ->
                if stuck then ([], None)
                else
                  ( [ div Hang sname
                        ("circuit live-lock: " ^ String.concat ", " (List.map fst spinning)) ],
                    None )
            | Engine.Out_of_cycles ->
                if stuck then ([], None)
                else
                  ( [ div Cycle_blowup sname
                        (Printf.sprintf "still running at the %d-cycle budget" budget) ],
                    None )
            | Engine.Sim_error m -> ([ div Crash sname ("simulator error: " ^ m) ], None)
          in
          (proved_div @ live_divs ~faults ~live sname eng @ divs, cycles))

(* [Oracle.check ~faults prog] with the default strategies, cycle budget
   and watchdog, no BMC cross-check and the fork-point fault path. *)
let oracle ~faults prog : Oracle.outcome =
  Span.count "torture.oracle_calls" 1;
  Span.run "torture.oracle" (fun () ->
      let source = print prog in
      match parse source with
      | exception e ->
          { Oracle.source; divergences = [ div Crash "" (exn_detail "reinject" e) ];
            baseline_cycles = None }
      | prog -> (
          let options =
            let o = Mine.Trace.auto_options prog in
            { o with Driver.max_cycles = Oracle.default_max_cycles;
                     watchdog = Some Oracle.default_watchdog }
          in
          let analysis = try Some (absint prog) with _ -> None in
          let analysis_div =
            if analysis = None then [ div Crash "" "analysis crashed" ] else []
          in
          let proved =
            match analysis with
            | Some a ->
                List.concat
                  (List.mapi
                     (fun i (v : Analysis.Absint.verdict) ->
                       if v.Analysis.Absint.vclass = Analysis.Absint.Proved then [ i ] else [])
                     a.Analysis.Absint.verdicts)
            | None -> []
          in
          let live, live_div =
            match live ~options prog with
            | v -> (v, [])
            | exception e ->
                ( Analysis.Live.Unknown "liveness analyzer crashed",
                  [ div Crash "" (exn_detail "liveness" e) ] )
          in
          match finish (front ~strategy:Driver.baseline prog) with
          | exception e ->
              { Oracle.source;
                divergences =
                  analysis_div @ live_div @ [ div Crash "baseline" (exn_detail "compile" e) ];
                baseline_cycles = None }
          | c_base ->
              let sw =
                try software_sim ~options c_base
                with e ->
                  { Interp.outcome = Interp.Runtime_error (exn_detail "interp" e);
                    failures = []; drained = []; log = [] }
              in
              let sw_div =
                match sw.Interp.outcome with
                | Interp.Runtime_error m -> [ div Crash "" ("software simulation: " ^ m) ]
                | _ -> []
              in
              let sw_proved_div =
                match (sw.Interp.outcome, analysis) with
                | Interp.Aborted f, Some a ->
                    List.concat
                      (List.mapi
                         (fun i (v : Analysis.Absint.verdict) ->
                           if
                             v.Analysis.Absint.vclass = Analysis.Absint.Proved
                             && v.Analysis.Absint.vproc = f.Interp.fproc
                             && v.Analysis.Absint.vloc = f.Interp.floc
                           then
                             [ div Proved_fired ""
                                 (Printf.sprintf "proved assertion #%d fired in software" i) ]
                           else [])
                         a.Analysis.Absint.verdicts)
                | _ -> []
              in
              let sw_live_div =
                match (live, sw.Interp.outcome) with
                | Analysis.Live.Deadlock_free k, Interp.Deadlocked _ ->
                    [ div Liveness_unsound ""
                        (Printf.sprintf
                           "analyzer proved deadlock-free (bound %d) but software simulation \
                            deadlocked"
                           k) ]
                | Analysis.Live.Deadlock w, Interp.Completed ->
                    [ div Liveness_unsound ""
                        ("analyzer claimed certain deadlock ("
                        ^ Analysis.Live.witness_to_string w
                        ^ ") but software simulation completed") ]
                | _ -> []
              in
              if sw_div <> [] then
                { Oracle.source; divergences = analysis_div @ live_div @ sw_div;
                  baseline_cycles = None }
              else
                let per_strategy =
                  List.map
                    (fun s ->
                      ( fst s,
                        check_strategy ~options ~sw ~golden:sw.Interp.drained ~proved ~live
                          ~faults ~prog s ))
                    Oracle.default_strategies
                in
                let baseline_cycles =
                  List.fold_left
                    (fun acc (sname, (_, cycles)) -> if sname = "baseline" then cycles else acc)
                    None per_strategy
                in
                let ratio_div =
                  match baseline_cycles with
                  | None -> []
                  | Some base ->
                      List.concat_map
                        (fun (sname, (_, cycles)) ->
                          match cycles with
                          | Some c when c > (ratio_bound * base) + ratio_slack ->
                              [ div Cycle_blowup sname
                                  (Printf.sprintf "%d cycles vs %d baseline (bound %dx+%d)" c
                                     base ratio_bound ratio_slack) ]
                          | _ -> [])
                        per_strategy
                in
                { Oracle.source;
                  divergences =
                    analysis_div @ live_div @ sw_proved_div @ sw_live_div
                    @ List.concat_map (fun (_, (divs, _)) -> divs) per_strategy
                    @ ratio_div;
                  baseline_cycles }))

(* --- Fuzz.run ------------------------------------------------------------ *)

let class_set ds = List.sort_uniq compare (List.map Oracle.class_key ds)

type finding = { index : int; classes : string list; shrunk : string; stats : Torture.Shrink.stats }

(* One traced pass of [Torture.Fuzz.run ~jobs ~seed ~count ~fuel ~faults
   ?shrink_attempts ()]: generate and check every program on the pool,
   then shrink each divergent one serially.  Returns the summed
   finished-baseline cycles and the findings. *)
let fuzz ~jobs ~seed ~count ~fuel ~faults ?shrink_attempts () =
  let checked =
    Span.run "torture.check" (fun () ->
        let parent = Span.current () in
        Exec.Pool.map ~jobs
          (fun index ->
            Span.run ~parent "exec.pool.job" (fun () ->
                let prog =
                  Span.run "torture.gen" (fun () ->
                      Torture.Gen.generate ~seed:(Torture.Gen.program_seed ~run_seed:seed ~index)
                        ~fuel)
                in
                oracle ~faults prog))
          (List.init count Fun.id))
  in
  let cycles = ref 0 in
  let findings =
    List.concat
      (List.mapi
         (fun index (o : Oracle.outcome Exec.Pool.outcome) ->
           match o.Exec.Pool.value with
           | Error m -> [ { index; classes = [ "harness-crash" ]; shrunk = m;
                            stats = { Torture.Shrink.attempts = 0; accepted = 0;
                                      orig_lines = 0; min_lines = 0 } } ]
           | Ok { Oracle.divergences = []; baseline_cycles; _ } ->
               cycles := !cycles + Option.value ~default:0 baseline_cycles;
               []
           | Ok o ->
               let classes = class_set o.Oracle.divergences in
               let keep cand =
                 Span.run "torture.keep" (fun () -> class_set (oracle ~faults cand).Oracle.divergences = classes)
               in
               let shrunk, stats =
                 Span.run "torture.shrink" (fun () ->
                     Torture.Shrink.shrink ?max_attempts:shrink_attempts ~keep
                       (parse o.Oracle.source))
               in
               Span.count "torture.shrink_attempts" stats.Torture.Shrink.attempts;
               Span.count "torture.shrink_accepted" stats.Torture.Shrink.accepted;
               [ { index; classes; shrunk = Front.Pretty.program_to_string shrunk; stats } ])
         checked)
  in
  (!cycles, findings)
