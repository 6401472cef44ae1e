module Driver = Core.Driver
module Job = Core.Job
module Report = Core.Report

type result =
  | R_compile of Core.Driver.compiled
  | R_check of (string * Analysis.Check.report) list
  | R_prove of (string * Analysis.Verdict.report) list
  | R_campaign of Campaign.report
  | R_mine of Mine.Rank.result
  | R_fuzz of Torture.Fuzz.report

type outcome = {
  sc_report : Core.Report.t;
  sc_text : string;
  sc_result : result option;
}

(* --- shared helpers ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* (display name, source text); [Path] raises [Sys_error] when missing. *)
let load_source (s : Job.source) =
  match s with
  | Job.Path p -> (Filename.basename p, read_file p)
  | Job.Text { name; text } -> (name, text)

let source_name = function
  | Job.Path p -> Filename.basename p
  | Job.Text { name; _ } -> name

(* A usage error: reported with exit code 1 and no payload. *)
exception Usage of string

(* "none" is a scripting-friendly alias for the canonical "baseline". *)
let strategy_of_name = function
  | "none" -> Ok ("baseline", Driver.baseline)
  | s -> (
      match List.assoc_opt s Driver.all_strategies with
      | Some st -> Ok (s, st)
      | None ->
          Error
            (Printf.sprintf "unknown strategy %s (expected one of %s)" s
               (String.concat ", " (List.map fst Driver.all_strategies))))

(* NDEBUG wins over everything; NABORT is folded into the strategy. *)
let apply_flags ~nabort ~ndebug (sname, strategy) =
  if ndebug then ("baseline", Driver.baseline) else (sname, { strategy with Driver.nabort })

let resolve_strategy ?(nabort = false) ?(ndebug = false) name =
  match strategy_of_name name with
  | Ok named -> apply_flags ~nabort ~ndebug named
  | Error m -> raise (Usage m)

let diag_lines diags =
  String.concat "" (List.map (fun d -> Analysis.Diag.to_string d ^ "\n") diags)

let loc_message (loc : Front.Loc.t) m =
  if loc = Front.Loc.none then m
  else Printf.sprintf "%s:%d:%d: %s" loc.Front.Loc.file loc.Front.Loc.line loc.Front.Loc.col m

(* --- compile -------------------------------------------------------------- *)

(* The area/timing report, verbatim from the CLI's former printer so
   [inca compile] output is unchanged. *)
let compile_text (c : Driver.compiled) (r : Driver.rtl) =
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b fmt in
  let a = r.Driver.area in
  let t = r.Driver.timing in
  p "assertions: %d\n" (List.length c.Driver.asserts);
  List.iter
    (fun (id, (info : Core.Assertion.info)) ->
      p "  #%d %s:%d in %s: %s\n" id info.Core.Assertion.aloc.Front.Loc.file
        info.Core.Assertion.aloc.Front.Loc.line info.Core.Assertion.aproc
        info.Core.Assertion.text)
    c.Driver.table;
  p "failure channels: %d\n" (List.length c.Driver.plan.Core.Share.streams);
  (let pr = c.Driver.pruned in
   if pr.Driver.absint_pruned > 0 || pr.Driver.induction_pruned > 0 then
     p "pruned checkers: %d (%d absint-proved, %d induction-proved)\n"
       (pr.Driver.absint_pruned + pr.Driver.induction_pruned)
       pr.Driver.absint_pruned pr.Driver.induction_pruned);
  p "\nEP2S180 utilization:\n";
  p "  ALUTs        %7d (%.2f%%)\n" a.Rtl.Area.aluts
    (100.0 *. float_of_int a.Rtl.Area.aluts /. 143520.0);
  p "  registers    %7d (%.2f%%)\n" a.Rtl.Area.registers
    (100.0 *. float_of_int a.Rtl.Area.registers /. 143520.0);
  p "  RAM bits     %7d (%.2f%%)\n" a.Rtl.Area.ram_bits
    (100.0 *. float_of_int a.Rtl.Area.ram_bits /. 9383040.0);
  p "  interconnect %7d (%.2f%%)\n" a.Rtl.Area.interconnect
    (100.0 *. float_of_int a.Rtl.Area.interconnect /. 536440.0);
  p "  DSP 18x18    %7d\n" a.Rtl.Area.dsps;
  p "\ntiming: fmax %.1f MHz (logic %.2f ns + routing %.2f ns)\n" t.Rtl.Timing.fmax_mhz
    t.Rtl.Timing.logic_ns t.Rtl.Timing.route_ns;
  List.iter
    (fun (f : Hls.Fsmd.t) ->
      p "process %s: %d states, %d pipelined loop(s)\n" f.Hls.Fsmd.proc.Mir.Ir.name
        (Hls.Fsmd.num_states f)
        (Array.length f.Hls.Fsmd.pipes);
      Array.iter
        (fun (pipe : Hls.Fsmd.pipe) ->
          p "  pipeline: II=%d, depth=%d\n" pipe.Hls.Fsmd.ii pipe.Hls.Fsmd.depth)
        f.Hls.Fsmd.pipes)
    c.Driver.fsmds;
  Buffer.contents b

let compile_json ~file ~strategy (c : Driver.compiled) (r : Driver.rtl) : Json.t =
  let a = r.Driver.area in
  let t = r.Driver.timing in
  Json.Obj
    [
      ("file", Json.Str file);
      ("strategy", Json.Str strategy);
      ( "assertions",
        Json.list
          (fun (id, (info : Core.Assertion.info)) ->
            Json.Obj
              [
                ("id", Json.int id);
                ("proc", Json.Str info.Core.Assertion.aproc);
                ("file", Json.Str info.Core.Assertion.aloc.Front.Loc.file);
                ("line", Json.int info.Core.Assertion.aloc.Front.Loc.line);
                ("text", Json.Str info.Core.Assertion.text);
              ])
          c.Driver.table );
      ("failure_channels", Json.int (List.length c.Driver.plan.Core.Share.streams));
      ( "pruned",
        Json.Obj
          [
            ("absint", Json.int c.Driver.pruned.Driver.absint_pruned);
            ("induction", Json.int c.Driver.pruned.Driver.induction_pruned);
          ] );
      ( "area",
        Json.Obj
          [
            ("aluts", Json.int a.Rtl.Area.aluts);
            ("registers", Json.int a.Rtl.Area.registers);
            ("ram_bits", Json.int a.Rtl.Area.ram_bits);
            ("interconnect", Json.int a.Rtl.Area.interconnect);
            ("dsps", Json.int a.Rtl.Area.dsps);
          ] );
      ( "timing",
        Json.Obj
          [
            ("fmax_mhz", Json.float t.Rtl.Timing.fmax_mhz);
            ("logic_ns", Json.float t.Rtl.Timing.logic_ns);
            ("route_ns", Json.float t.Rtl.Timing.route_ns);
          ] );
      ( "processes",
        Json.list
          (fun (f : Hls.Fsmd.t) ->
            Json.Obj
              [
                ("name", Json.Str f.Hls.Fsmd.proc.Mir.Ir.name);
                ("states", Json.int (Hls.Fsmd.num_states f));
                ( "pipelines",
                  Json.list
                    (fun (pipe : Hls.Fsmd.pipe) ->
                      Json.Obj
                        [
                          ("ii", Json.int pipe.Hls.Fsmd.ii);
                          ("depth", Json.int pipe.Hls.Fsmd.depth);
                        ])
                    (Array.to_list f.Hls.Fsmd.pipes) );
              ])
          c.Driver.fsmds );
      ("diagnostics", Json.list Analysis.Diag.json_of (Driver.static_diags c));
    ]

let do_compile (c : Job.compile_params) : outcome =
  let file, src = load_source c.c_source in
  let prog = Front.Typecheck.parse_and_check ~file src in
  let sname, strategy =
    resolve_strategy ~nabort:c.c_nabort ~ndebug:c.c_ndebug c.c_strategy
  in
  let induction_proved =
    if c.c_prune_induction <= 0 then []
    else
      let rep, _ = Core.Verify.prove ~induction:c.c_prune_induction prog in
      Core.Verify.induction_proved_keys rep
  in
  let comp =
    Driver.compile ~strategy ~prune_proved:c.c_prune_proved ~induction_proved prog
  in
  let rtl = Driver.rtl comp in
  let payload = compile_json ~file ~strategy:sname comp rtl in
  match Driver.static_diags comp with
  | [] ->
      {
        sc_report = Report.make ~kind:"compile" payload;
        sc_text = compile_text comp rtl;
        sc_result = Some (R_compile comp);
      }
  | diags ->
      {
        sc_report = Report.fail ~kind:"compile" ~payload "scheduler invariant violations";
        sc_text = compile_text comp rtl ^ diag_lines diags;
        sc_result = Some (R_compile comp);
      }

(* An out-of-range numeric job field is a usage error naming the field,
   raised before any source is compiled. *)
let at_least kind name min v =
  if v < min then
    raise (Usage (Printf.sprintf "%s: %s must be at least %d (got %d)" kind name min v))

(* A watchdog window below one cycle would fire on the first cycle and
   report every run as a hang. *)
let check_window kind = Option.iter (at_least kind "watchdog" 1)

(* --- check ---------------------------------------------------------------- *)

let do_check ?progress (k : Job.check_params) : outcome =
  if k.k_sources = [] then raise (Usage "check: no sources given");
  check_window "check" k.k_watchdog;
  let _, strategy = resolve_strategy ~nabort:k.k_nabort ~ndebug:k.k_ndebug k.k_strategy in
  let share_bits =
    match strategy.Driver.share with `Shared n -> Some n | `Per_proc | `Dma -> None
  in
  let check_one s =
    let file = source_name s in
    let rep =
      match load_source s with
      | exception Sys_error m ->
          Analysis.Check.failure_report ~code:"INCA-P001" Front.Loc.none m
      | file, src -> (
          match Front.Typecheck.parse_and_check ~file src with
          | prog -> (
              let rep =
                Analysis.Check.report_of ?share_bits ~replicate:strategy.Driver.replicate
                  ?watchdog:k.k_watchdog prog
              in
              (* the compiler-side half: FSMD scheduler invariants and
                 lowered-IR well-formedness under the selected strategy;
                 through the cache so a warm daemon skips the rebuild *)
              match Exec.Cache.compile ~strategy prog with
              | c -> Analysis.Check.add_diags rep (Driver.static_diags c)
              | exception e ->
                  Analysis.Check.add_diags rep
                    [
                      Analysis.Diag.error ~code:"INCA-S003" Front.Loc.none
                        ("compilation failed: " ^ Printexc.to_string e);
                    ])
          | exception Front.Typecheck.Error (m, loc) ->
              Analysis.Check.failure_report ~code:"INCA-P002" loc m
          | exception Front.Parser.Error (m, loc) ->
              Analysis.Check.failure_report ~code:"INCA-P001" loc m
          | exception Front.Lexer.Error (m, loc) ->
              Analysis.Check.failure_report ~code:"INCA-P001" loc m)
    in
    (* --only/--ignore restrict diagnostics (and therefore the exit
       status) after every producer has contributed, including the
       compiler-side invariant checks *)
    let rep = Analysis.Check.filter_codes ?only:k.k_only ?ignore:k.k_ignore rep in
    (match progress with
    | Some f ->
        f ~label:("file " ^ file)
          ~data:
            (Json.Obj
               [
                 ("file", Json.Str file);
                 ("failed", Json.Bool (Analysis.Check.failed rep));
               ])
    | None -> ());
    (file, rep)
  in
  let results = List.map check_one k.k_sources in
  let failed = List.exists (fun (_, rep) -> Analysis.Check.failed rep) results in
  let payload =
    Json.Obj
      [
        ( "files",
          Json.list (fun (file, rep) -> Analysis.Check.json_of ~file rep) results );
        ("failed", Json.Bool failed);
      ]
  in
  {
    sc_report = Report.make ~kind:"check" ~exit_code:(if failed then 1 else 0) payload;
    sc_text =
      String.concat "" (List.map (fun (file, rep) -> Analysis.Check.render ~file rep) results);
    sc_result = Some (R_check results);
  }

(* --- prove ---------------------------------------------------------------- *)

let do_prove ?progress ?default_jobs (p : Job.prove_params) : outcome =
  if p.p_sources = [] then raise (Usage "prove: no sources given");
  at_least "prove" "depth" 1 p.p_depth;
  at_least "prove" "induction" 0 p.p_induction;
  at_least "prove" "conflict_limit" 1 p.p_conflict_limit;
  let jobs = match p.p_jobs with Some _ as j -> j | None -> default_jobs in
  let prove_one s =
    let file = source_name s in
    let err m =
      (match progress with
      | Some f -> f ~label:("file " ^ file) ~data:(Json.Obj [ ("file", Json.Str file); ("error", Json.Str m) ])
      | None -> ());
      ( file,
        m ^ "\n",
        Json.Obj [ ("file", Json.Str file); ("error", Json.Str m) ],
        `Error,
        None )
    in
    match load_source s with
    | exception Sys_error m -> err m
    | file, src -> (
        match Front.Typecheck.parse_and_check ~file src with
        | exception Front.Typecheck.Error (m, loc)
        | exception Front.Parser.Error (m, loc)
        | exception Front.Lexer.Error (m, loc) ->
            err (Printf.sprintf "%s:%d:%d: %s" file loc.Front.Loc.line loc.Front.Loc.col m)
        | prog -> (
            match Core.Verify.front_of prog with
            | exception e ->
                err (Printf.sprintf "%s: compilation failed: %s" file (Printexc.to_string e))
            | f ->
                let absint = Analysis.Absint.analyze prog in
                let ids = Core.Verify.target_ids f in
                let ids =
                  match p.p_assertion with
                  | Some a -> List.filter (( = ) a) ids
                  | None -> ids
                in
                let outcomes =
                  Exec.Pool.map ?jobs
                    (fun id ->
                      Core.Verify.check_target ~depth:p.p_depth ~induction:p.p_induction
                        ~conflict_limit:p.p_conflict_limit f ~absint id)
                    ids
                in
                let results, extra =
                  List.fold_left2
                    (fun (rs, ds) id (o : _ Exec.Pool.outcome) ->
                      match o.Exec.Pool.value with
                      | Ok (r, d) ->
                          (r :: rs, match d with Some d -> d :: ds | None -> ds)
                      | Error m ->
                          let info = List.assoc id f.Driver.f_table in
                          ( {
                              Analysis.Verdict.pr_id = id;
                              pr_proc = info.Core.Assertion.aproc;
                              pr_loc = info.Core.Assertion.aloc;
                              pr_text = info.Core.Assertion.text;
                              pr_class = Analysis.Verdict.Bunknown ("worker failed: " ^ m);
                              pr_reach = Analysis.Verdict.Breach_unknown m;
                              pr_dead_lint = false;
                              pr_conflicts = 0;
                              pr_decisions = 0;
                              pr_propagations = 0;
                            }
                            :: rs,
                            ds ))
                    ([], []) ids outcomes
                in
                let results = List.rev results in
                let rep =
                  {
                    Analysis.Verdict.p_depth = p.p_depth;
                    p_induction = p.p_induction;
                    p_results = results;
                  }
                in
                let diags =
                  Analysis.Diag.order
                    (List.filter_map Analysis.Verdict.diag_of results @ List.rev extra)
                in
                let netlist = (Driver.rtl (Driver.finish f)).Driver.netlist in
                let summary = Rtl.Netlist.summarize netlist in
                let text =
                  Printf.sprintf "%s: %d modules, %d primitives, %d sequential state bits\n"
                    file summary.Rtl.Netlist.n_modules summary.Rtl.Netlist.n_prims
                    (Rtl.Netlist.state_bits netlist)
                  ^ Analysis.Verdict.render ~file rep
                  ^ diag_lines diags
                in
                let violated =
                  List.exists
                    (fun (r : Analysis.Verdict.presult) ->
                      match r.Analysis.Verdict.pr_class with
                      | Analysis.Verdict.Bviolated _ -> true
                      | _ -> false)
                    results
                in
                let _, v, _, _ = Analysis.Verdict.tally rep in
                (match progress with
                | Some f ->
                    f ~label:("file " ^ file)
                      ~data:
                        (Json.Obj
                           [ ("file", Json.Str file); ("violated", Json.int v) ])
                | None -> ());
                ( file,
                  text,
                  Analysis.Verdict.json_of ~file rep,
                  (if violated then `Violated else `Ok),
                  Some (file, rep) )))
  in
  let rows = List.map prove_one p.p_sources in
  let statuses = List.map (fun (_, _, _, st, _) -> st) rows in
  let exit_code =
    if List.mem `Error statuses then 2 else if List.mem `Violated statuses then 1 else 0
  in
  let payload =
    Json.Obj [ ("files", Json.list (fun (_, _, j, _, _) -> j) rows) ]
  in
  let reps = List.filter_map (fun (_, _, _, _, r) -> r) rows in
  let report =
    if List.mem `Error statuses then
      Report.fail ~kind:"prove" ~exit_code ~payload "one or more sources failed to compile"
    else Report.make ~kind:"prove" ~exit_code payload
  in
  {
    sc_report = report;
    sc_text = String.concat "" (List.map (fun (_, t, _, _, _) -> t) rows);
    sc_result = Some (R_prove reps);
  }

(* --- campaign ------------------------------------------------------------- *)

let run_json (run : Campaign.run) : Json.t =
  Json.Obj
    [
      ("workload", Json.Str run.Campaign.workload);
      ("strategy", Json.Str run.Campaign.strategy);
      ("fault", Json.Str (Faults.Fault.describe run.Campaign.fault));
      ("class", Json.Str (Campaign.class_name run.Campaign.outcome));
      ("cycles", Json.int run.Campaign.cycles);
    ]

let campaign_workloads ?(stimulus = Job.empty_stimulus) ~max_cycles source =
  let workloads =
    match source with
    | None -> Campaign.bundled ()
    | Some s ->
        let file, src = load_source s in
        let name = Filename.remove_extension file in
        let prog = Front.Typecheck.parse_and_check ~file src in
        let o =
          Mine.Trace.auto_options ~feeds:stimulus.Job.feeds ~drains:stimulus.Job.drains
            ~params:stimulus.Job.params prog
        in
        [
          {
            Campaign.wname = name;
            program = prog;
            options =
              {
                Driver.default_sim_options with
                Driver.feeds = o.Driver.feeds;
                drains = o.Driver.drains;
                params = o.Driver.params;
              };
          };
        ]
  in
  List.map
    (fun (w : Campaign.workload) ->
      { w with Campaign.options = { w.Campaign.options with Driver.max_cycles } })
    workloads

let escapes_of (r : Campaign.report) =
  List.filter
    (fun (run : Campaign.run) ->
      run.Campaign.strategy <> "baseline"
      && run.Campaign.outcome = Campaign.Silent_corruption)
    r.Campaign.runs

let do_campaign ?progress ?default_jobs (a : Job.campaign_params) : outcome =
  check_window "campaign" a.a_watchdog;
  Option.iter (at_least "campaign" "budget" 1) a.a_budget;
  at_least "campaign" "max_cycles" 1 a.a_max_cycles;
  let workloads =
    campaign_workloads ~stimulus:a.a_stimulus ~max_cycles:a.a_max_cycles a.a_source
  in
  let jobs = match a.a_jobs with Some _ as j -> j | None -> default_jobs in
  let config =
    {
      Campaign.default_config with
      Campaign.mode = (if a.a_from_reset then Campaign.From_reset else Campaign.Fork);
      budget = a.a_budget;
      watchdog = a.a_watchdog;
      max_mutants = a.a_max_mutants;
      jobs;
      prune_hangs = a.a_prune_hangs;
    }
  in
  let progress =
    Option.map
      (fun f (r : Campaign.run) ->
        f
          ~label:
            (Printf.sprintf "mutant %s/%s/%s" r.Campaign.workload r.Campaign.strategy
               (Faults.Fault.describe r.Campaign.fault))
          ~data:(run_json r))
      progress
  in
  let rep = Campaign.run ~config ?progress workloads in
  let payload = Campaign.json_of rep in
  let escapes = escapes_of rep in
  let report =
    if escapes = [] then Report.make ~kind:"campaign" payload
    else
      Report.fail ~kind:"campaign" ~payload
        (Printf.sprintf "%d mutant(s) silently escaped an instrumented strategy"
           (List.length escapes))
  in
  {
    sc_report = report;
    sc_text = Campaign.render rep ^ "\n";
    sc_result = Some (R_campaign rep);
  }

(* --- mine ----------------------------------------------------------------- *)

let do_mine ?progress ?default_jobs (m : Job.mine_params) : outcome =
  Option.iter (at_least "mine" "budget" 1) m.m_budget;
  let file, src = load_source m.m_source in
  let name = Filename.remove_extension file in
  let prog = Front.Typecheck.parse_and_check ~file src in
  let strategy = resolve_strategy m.m_strategy in
  let options =
    Mine.Trace.auto_options ~feeds:m.m_stimulus.Job.feeds ~drains:m.m_stimulus.Job.drains
      ~params:m.m_stimulus.Job.params prog
  in
  let jobs = match m.m_jobs with Some _ as j -> j | None -> default_jobs in
  let config =
    {
      Mine.Rank.strategy;
      max_candidates = m.m_max_candidates;
      max_mutants = m.m_max_mutants;
      budget = m.m_budget;
      watchdog = None;
      jobs;
    }
  in
  let hook =
    Option.map
      (fun f (s : Mine.Rank.scored) ->
        f
          ~label:
            (Printf.sprintf "candidate %d" s.Mine.Rank.candidate.Mine.Infer.uid)
          ~data:
            (Json.Obj
               [
                 ("uid", Json.int s.Mine.Rank.candidate.Mine.Infer.uid);
                 ("invariant", Json.Str (Mine.Infer.describe s.Mine.Rank.candidate));
                 ("kills", Json.int s.Mine.Rank.kills);
                 ("marginal", Json.int s.Mine.Rank.marginal);
               ]))
      progress
  in
  let r = Mine.Rank.mine ~config ?progress:hook ~name ~options prog in
  let top = m.m_top in
  let instrumented =
    if not m.m_emit then None
    else
      match Mine.Infer.inject prog (Mine.Rank.top_candidates ~top r) with
      | Some (src, _) -> Some src
      | None -> None
  in
  let payload =
    match Mine.Rank.json_of ~top r with
    | Json.Obj fields when m.m_emit ->
        Json.Obj (fields @ [ ("instrumented", Json.opt Json.str instrumented) ])
    | j -> j
  in
  let text =
    Mine.Rank.render ~top r
    ^
    match instrumented with
    | Some src ->
        "\n/* --- source instrumented with mined assertions --- */\n" ^ src
    | None ->
        if m.m_emit then "could not inject the top candidates together\n" else ""
  in
  {
    sc_report = Report.make ~kind:"mine" payload;
    sc_text = text;
    sc_result = Some (R_mine r);
  }

(* --- fuzz ----------------------------------------------------------------- *)

let do_fuzz ?progress ?default_jobs (z : Job.fuzz_params) : outcome =
  check_window "fuzz" z.z_watchdog;
  Option.iter (at_least "fuzz" "count" 1) z.z_count;
  Option.iter (at_least "fuzz" "fuel" 0) z.z_fuel;
  Option.iter (at_least "fuzz" "max_cycles" 1) z.z_max_cycles;
  let jobs = match z.z_jobs with Some _ as j -> j | None -> default_jobs in
  let r =
    Torture.Fuzz.run ?jobs ~seed:z.z_seed ?count:z.z_count ?fuel:z.z_fuel
      ?max_cycles:z.z_max_cycles ?watchdog:z.z_watchdog ?bmc_depth:z.z_bmc_depth
      ?corpus_dir:z.z_corpus_dir ()
  in
  (match progress with
  | Some f ->
      f ~label:"fuzz"
        ~data:
          (Json.Obj
             [
               ("count", Json.int r.Torture.Fuzz.r_count);
               ("divergent", Json.int (List.length r.Torture.Fuzz.r_findings));
             ])
  | None -> ());
  let payload = Torture.Fuzz.json_of r in
  let report =
    match r.Torture.Fuzz.r_findings with
    | [] -> Report.make ~kind:"fuzz" payload
    | fs ->
        Report.fail ~kind:"fuzz" ~payload
          (Printf.sprintf "%d divergent program(s)%s" (List.length fs)
             (match z.z_corpus_dir with
             | Some d -> Printf.sprintf "; shrunk reproducer(s) in %s" d
             | None -> ""))
  in
  { sc_report = report; sc_text = Torture.Fuzz.render r; sc_result = Some (R_fuzz r) }

(* --- dispatch ------------------------------------------------------------- *)

let run ?progress ?default_jobs (job : Job.t) : outcome =
  let kind = Job.kind job in
  let fail ?payload ~exit_code msg =
    { sc_report = Report.fail ~kind ~exit_code ?payload msg; sc_text = ""; sc_result = None }
  in
  try
    match job with
    | Job.Compile c -> do_compile c
    | Job.Check k -> do_check ?progress k
    | Job.Prove p -> do_prove ?progress ?default_jobs p
    | Job.Campaign a -> do_campaign ?progress ?default_jobs a
    | Job.Mine m -> do_mine ?progress ?default_jobs m
    | Job.Fuzz z -> do_fuzz ?progress ?default_jobs z
  with
  | Usage m -> fail ~exit_code:1 m
  | Driver.Static_violation vs ->
      let diags = List.filter_map Analysis.Check.diag_of_verdict vs in
      {
        sc_report =
          Report.fail ~kind
            ~payload:(Json.Obj [ ("diagnostics", Json.list Analysis.Diag.json_of diags) ])
            "statically violated assertion(s); compile aborted";
        sc_text = diag_lines diags;
        sc_result = None;
      }
  | Front.Typecheck.Error (m, loc)
  | Front.Parser.Error (m, loc)
  | Front.Lexer.Error (m, loc) ->
      fail ~exit_code:1 (loc_message loc m)
  | Sys_error m -> fail ~exit_code:1 m
  | Invalid_argument m -> fail ~exit_code:1 m
  | e -> fail ~exit_code:2 ("internal error: " ^ Printexc.to_string e)
