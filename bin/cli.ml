(* Shared command-line plumbing for the inca subcommands.

   Every subcommand used to carry its own copy of the feed/drain/param
   parsing and the strategy/NABORT/NDEBUG flags; they live here once so
   [simulate], [swsim], [campaign] and [mine] cannot drift apart.  The
   strategy converter is driven by {!Core.Driver.all_strategies}, so a
   new strategy registered there is accepted everywhere at once. *)

open Cmdliner

(* --- strategy selection --------------------------------------------------- *)

(* Name resolution and the NDEBUG/NABORT folding are {!Serve.Sched}'s, so
   the CLI and served jobs cannot drift apart. *)
let strategy_conv : (string * Core.Driver.strategy) Arg.conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Serve.Sched.strategy_of_name s)),
      fun ppf (name, _) -> Format.pp_print_string ppf name )

let strategy_doc =
  "Assertion synthesis strategy: baseline (assertions stripped), unoptimized \
   (if-conversion, Section 4.1), parallelized (checker tasks, Sections 3.1+3.2), \
   optimized (parallelized + 32-way channel sharing, Section 3.3), or carte \
   (DMA-mailbox transport, Section 4.3)."

let strategy_opt ?(default = ("optimized", Core.Driver.optimized)) ?(doc = strategy_doc) () =
  Arg.(value & opt strategy_conv default & info [ "s"; "strategy" ] ~doc)

type strategy_sel = {
  sname : string;
  strategy : Core.Driver.strategy;
  nabort : bool;
  ndebug : bool;
}

let strategy_args ?default () =
  let nabort_arg =
    Arg.(
      value & flag & info [ "nabort" ] ~doc:"Keep running after assertion failures (NABORT).")
  in
  let ndebug_arg =
    Arg.(value & flag & info [ "ndebug" ] ~doc:"Strip all assertions (NDEBUG).")
  in
  let mk (sname, strategy) nabort ndebug = { sname; strategy; nabort; ndebug } in
  Term.(const mk $ strategy_opt ?default () $ nabort_arg $ ndebug_arg)

let apply_sel sel =
  Serve.Sched.apply_flags ~nabort:sel.nabort ~ndebug:sel.ndebug (sel.sname, sel.strategy)

let prune_arg =
  Arg.(
    value
    & flag
    & info [ "prune-proved" ]
        ~doc:
          "Run the static assertion verifier first and drop every statically proved \
           assertion before instrumentation, so no checker hardware is synthesized for \
           it.  A statically violated assertion aborts the compile with a witness.")

let load ?(prune_proved = false) sel path =
  let src = Serve.Sched.read_file path in
  let prog = Front.Typecheck.parse_and_check ~file:(Filename.basename path) src in
  let _, strategy = apply_sel sel in
  Core.Driver.compile ~strategy ~prune_proved prog

(* Shared wrapper for subcommands that compile under [--prune-proved]:
   a statically violated assertion becomes a readable witness trace and
   exit code 1 instead of an unhandled exception. *)
let or_static_violation f =
  match f () with
  | r -> r
  | exception Core.Driver.Static_violation vs ->
      List.iter
        (fun v ->
          match Analysis.Check.diag_of_verdict v with
          | Some d -> prerr_endline (Analysis.Diag.to_string d)
          | None -> ())
        vs;
      `Error (false, "statically violated assertion(s); compile aborted")

(* --- testbench stimulus --------------------------------------------------- *)

let parse_feed s =
  let i = String.index s '=' in
  ( String.sub s 0 i,
    String.split_on_char ',' (String.sub s (i + 1) (String.length s - i - 1))
    |> List.filter (fun x -> x <> "")
    |> List.map Int64.of_string )

let parse_param s =
  let i = String.index s ':' in
  let rest = String.sub s (i + 1) (String.length s - i - 1) in
  let j = String.index rest '=' in
  let v = Int64.of_string (String.sub rest (j + 1) (String.length rest - j - 1)) in
  (String.sub s 0 i, (String.sub rest 0 j, v))

(* Malformed stimulus is a usage error Cmdliner reports (exit 124), not
   an exception escaping the command. *)
let stimulus_conv what expected parse print =
  let parse s =
    match parse s with
    | v -> Ok v
    | exception (Not_found | Failure _) ->
        Error (`Msg (Printf.sprintf "bad %s %S (expected %s)" what s expected))
  in
  Arg.conv (parse, print)

let feed_conv =
  stimulus_conv "feed" "stream=v1,v2,..." parse_feed (fun ppf (s, vs) ->
      Format.fprintf ppf "%s=%s" s (String.concat "," (List.map Int64.to_string vs)))

let param_conv =
  stimulus_conv "param" "proc:name=value" parse_param (fun ppf (p, (k, v)) ->
      Format.fprintf ppf "%s:%s=%Ld" p k v)

let collect_params parsed =
  List.fold_left
    (fun acc (proc, kv) ->
      let cur = try List.assoc proc acc with Not_found -> [] in
      (proc, kv :: cur) :: List.remove_assoc proc acc)
    [] parsed

type stimulus = {
  feeds : (string * int64 list) list;
  drains : string list;
  params : (string * (string * int64) list) list;
}

let stimulus_args =
  let feeds_arg =
    Arg.(value & opt_all feed_conv [] & info [ "feed" ] ~doc:"Testbench input: stream=v1,v2,...")
  in
  let drains_arg =
    Arg.(value & opt_all string [] & info [ "drain" ] ~doc:"Stream to collect output from.")
  in
  let params_arg =
    Arg.(
      value & opt_all param_conv [] & info [ "param" ] ~doc:"Process parameter: proc:name=value")
  in
  let mk feeds drains params =
    { feeds; drains; params = collect_params params }
  in
  Term.(const mk $ feeds_arg $ drains_arg $ params_arg)

(* An integer flag with a floor.  A watchdog window below one cycle
   would fire on the first cycle and report every run as a hang; a cycle
   budget or a program count below one, or a generator size below zero,
   would stop every run at once or fail deep inside the library.  Each
   is a usage error (exit 124) like any malformed value; [expected]
   completes the message. *)
let parse_at_least min ~expected s =
  match int_of_string_opt s with
  | Some n when n >= min -> Ok n
  | _ -> Error (`Msg (Printf.sprintf "invalid value %S (expected %s)" s expected))

let int_at_least min : int Arg.conv =
  Arg.conv
    (parse_at_least min ~expected:(Printf.sprintf "an integer >= %d" min), Format.pp_print_int)

let positive_int = int_at_least 1

(* [--watchdog] accepts a cycle count or "auto", which resolves to the
   liveness analyzer's proved completion bound after the program is
   loaded (see {!resolve_watchdog}). *)
type watchdog_spec = Cycles of int | Auto

let watchdog_conv : watchdog_spec Arg.conv =
  let parse = function
    | "auto" -> Ok Auto
    | s ->
        Result.map
          (fun n -> Cycles n)
          (parse_at_least 1 ~expected:"a positive cycle count or \"auto\"" s)
  in
  let print ppf = function
    | Auto -> Format.pp_print_string ppf "auto"
    | Cycles n -> Format.pp_print_int ppf n
  in
  Arg.conv (parse, print)

type testbench = {
  stimulus : stimulus;
  max_cycles : int;
  vcd : string option;
  watchdog : watchdog_spec option;
}

(* The engine's cycle budget, overridable per-invocation or fleet-wide
   through the environment (CI sets INCA_MAX_CYCLES to keep wedged runs
   bounded).  Shared by simulate, campaign and fuzz so the knob cannot
   drift between subcommands. *)
let max_cycles_arg ?(default = 1_000_000) () =
  Arg.(
    value
    & opt positive_int default
    & info [ "max-cycles" ]
        ~env:(Cmd.Env.info "INCA_MAX_CYCLES")
        ~doc:"Cycle budget for every simulated run.")

let testbench_args =
  let cycles_arg = max_cycles_arg () in
  let vcd_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ]
          ~doc:"Dump a VCD waveform of every FSM state and named register (SignalTap view).")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt (some watchdog_conv) None
      & info [ "watchdog" ] ~docv:"N|auto"
          ~doc:
            "Live-lock watchdog window: stop after N cycles without forward progress \
             (stream push/pop, tap event, or a register/memory value change).  \
             $(b,auto) uses the liveness analyzer's proved completion bound as the \
             window, or leaves the watchdog off when liveness is not proved.")
  in
  let mk stimulus max_cycles vcd watchdog = { stimulus; max_cycles; vcd; watchdog } in
  Term.(const mk $ stimulus_args $ cycles_arg $ vcd_arg $ watchdog_arg)

let sim_options_of (tb : testbench) =
  {
    Core.Driver.feeds = tb.stimulus.feeds;
    drains = tb.stimulus.drains;
    params = tb.stimulus.params;
    hw_models = [];
    max_cycles = tb.max_cycles;
    timing_checks = [];
    trace = tb.vcd <> None;
    watchdog = (match tb.watchdog with Some (Cycles n) -> Some n | Some Auto | None -> None);
  }

(* Resolve [--watchdog auto] against the statically proved completion
   bound of [prog] ([Cycles n] passes through).  Returns the window plus
   whether the analyzer chose it, so the caller can report the bound. *)
let resolve_watchdog (tb : testbench) (prog : Front.Ast.program) : int option * bool =
  match tb.watchdog with
  | Some Auto -> (Core.Driver.auto_watchdog ~options:(sim_options_of tb) prog, true)
  | Some (Cycles n) -> (Some n, false)
  | None -> (None, false)

(* --- sweep flags shared by campaign and mine ------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"InCA-C source file")

let budget_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "budget" ]
        ~doc:"Per-mutant cycle budget (default: 4x the unfaulted run, plus slack).")

let sweep_watchdog_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "watchdog" ]
        ~doc:"Live-lock watchdog window in cycles (default: budget / 20, floor 200).")

let max_mutants_arg ~doc = Arg.(value & opt (some int) None & info [ "max-mutants" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the mutant sweep ($(docv)=1 runs serially without spawning \
     any domain).  Defaults to $(env) or every core.  The report is byte-identical \
     for every job count."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~env:(Cmd.Env.info "INCA_JOBS") ~docv:"N" ~doc)

(* --- diagnostic-code filters (check) --------------------------------------- *)

(* Shared by [inca check] and any future lint-bearing subcommand, so a
   CI leg can gate on exactly one code family:
     inca check --only INCA-L106,INCA-L107 examples/ *)
let code_filter_args =
  let only_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "only" ] ~docv:"CODE,..."
          ~doc:
            "Keep only diagnostics with these comma-separated codes (e.g. \
             INCA-L106,INCA-L107).  Assertion verdict lines are unaffected; the \
             summary and exit status follow the filtered set.")
  in
  let ignore_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "ignore" ] ~docv:"CODE,..."
          ~doc:"Drop diagnostics with these comma-separated codes.")
  in
  Term.(const (fun only ignore -> (only, ignore)) $ only_arg $ ignore_arg)

let check_watchdog_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "watchdog" ] ~docv:"N"
        ~doc:
          "Watchdog window to measure against the proved completion bound: warns \
           (INCA-L109) when the window is below the bound, notes (INCA-L110) when the \
           design provably finishes inside it.")
