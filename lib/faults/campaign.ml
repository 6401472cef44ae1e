(** Fault-injection campaign engine (paper Section 5).

    The paper validates in-circuit assertions by injecting the
    hardware-translation bugs its authors met in practice and checking
    that the synthesized assertions catch them.  This module turns that
    spot check into a campaign: enumerate {e every} candidate fault site
    of a lowered program ({!Fault.sites}), compile one mutant per site
    under each assertion-synthesis strategy, run it in the cycle-accurate
    simulator under a per-mutant cycle budget with the live-lock watchdog
    armed, and classify the outcome against the software-simulation
    golden output.  The aggregated table is an {e assertion-coverage
    report}: which translation faults does each strategy actually
    detect, and how many cycles does detection take? *)

module Driver = Core.Driver
module Engine = Sim.Engine
module Fault = Faults.Fault
module Prefilter = Faults.Prefilter

(* --- workloads ---------------------------------------------------------- *)

type workload = {
  wname : string;
  program : Front.Ast.program;
  options : Driver.sim_options;  (** feeds / drains / params for one run *)
}

let workload ~name ?file ~feeds ~drains ~params source =
  let file = match file with Some f -> f | None -> name ^ ".c" in
  let program = Front.Typecheck.parse_and_check ~file source in
  {
    wname = name;
    program;
    options = { Driver.default_sim_options with Driver.feeds; drains; params };
  }

(** The five bundled case-study applications, sized so a full sweep
    stays interactive. *)
let bundled () =
  let fir =
    let n = 32 in
    let signal = Apps.Fir_ref.test_signal n in
    workload ~name:"fir"
      ~feeds:[ ("samples_in", Apps.Fir_ref.to_stream signal) ]
      ~drains:[ "samples_out" ]
      ~params:[ ("fir", [ ("n", Int64.of_int n) ]) ]
      (Apps.Fir_src.source ())
  in
  let dct =
    let blocks = 2 in
    let samples = Apps.Dct_ref.test_blocks blocks in
    workload ~name:"dct"
      ~feeds:[ ("dct_in", Apps.Dct_ref.to_stream samples) ]
      ~drains:[ "dct_out" ]
      ~params:[ ("dct", [ ("nblocks", Int64.of_int blocks) ]) ]
      (Apps.Dct_src.source ())
  in
  let des =
    let text = "IN-CIRCUIT ABV!!" in
    let cipher = Apps.Des_src.demo_ciphertext text in
    workload ~name:"des3"
      ~feeds:[ ("cipher_in", cipher) ]
      ~drains:[ "plain_out" ]
      ~params:[ ("des3", [ ("nblocks", Int64.of_int (List.length cipher)) ]) ]
      (Apps.Des_src.demo_source ())
  in
  let edge =
    let w = Apps.Edge_src.default_width and h = 8 in
    let img = Apps.Edge_ref.test_image ~w ~h in
    workload ~name:"edge"
      ~feeds:[ ("pixels_in", Apps.Edge_ref.to_stream img) ]
      ~drains:[ "pixels_out" ]
      ~params:
        [ ("edge", [ ("width", Int64.of_int w); ("height", Int64.of_int h) ]) ]
      (Apps.Edge_src.demo_source ())
  in
  let pulse =
    let n = 4096 in
    let signal = Apps.Pulse_src.test_signal n in
    workload ~name:"pulse"
      ~feeds:[ ("pulse_in", Apps.Pulse_src.to_stream signal) ]
      ~drains:[ "stats_out" ]
      ~params:[ ("pulse", [ ("n", Int64.of_int n) ]) ]
      (Apps.Pulse_src.source ())
  in
  [ fir; dct; des; edge; pulse ]

(* --- configuration ------------------------------------------------------ *)

(** How mutants are evaluated.  [Fork] (the default) compiles one
    padded design per (workload, strategy), runs the unfaulted baseline
    once to record when each fault site first activates, and evaluates
    each mutant by restoring the engine snapshot taken just before its
    site's first activation — skipping both the per-mutant compile and
    the shared simulation prefix.  [From_reset] is the escape hatch:
    compile and simulate every mutant from cycle zero, exactly the
    pre-split-stream behaviour.  Both modes produce the same
    classification for every mutant (CI diffs the {!render_classes}
    maps); cycle counts may legitimately differ because padding
    perturbs the schedule. *)
type mode = Fork | From_reset

type config = {
  mode : mode;
  strategies : (string * Driver.strategy) list;
  budget : int option;
      (** per-mutant cycle budget; [None] = 4x the unfaulted baseline
          cycle count of the workload, plus slack *)
  watchdog : int option;
      (** live-lock watchdog window; [None] = budget / 20, floor 200 *)
  max_mutants : int option;
      (** per-workload cap, taken round-robin across fault kinds so a
          truncated campaign still exercises every kind; the report
          records how many sites were dropped *)
  jobs : int option;
      (** worker domains for the mutant sweep; [None] =
          {!Exec.Pool.default_jobs} ([INCA_JOBS] or all cores);
          [Some 1] runs serially without spawning any domain.  The
          report is byte-identical for every job count. *)
  prune_hangs : bool;
      (** let the liveness pre-filter ({!Prefilter.hang_verdicts})
          classify provably blocking mutants [Hang_detected] without
          simulating them; [false] simulates every such mutant (the
          reference the CI classification-identity gate compares
          against) *)
}

(** Every canonical strategy except the carte transport flavour (the
    DMA mailbox changes reporting, not detection — the sweep covers it
    on demand). *)
let default_strategies =
  List.filter (fun (name, _) -> name <> "carte") Driver.all_strategies

let default_config =
  { mode = Fork; strategies = default_strategies; budget = None; watchdog = None;
    max_mutants = None; jobs = None; prune_hangs = true }

(* --- classification ----------------------------------------------------- *)

type outcome_class =
  | Detected_by_assertion  (** a synthesized assertion aborted the run *)
  | Hang_detected  (** deadlock detector or live-lock watchdog fired *)
  | Silent_corruption
      (** the run finished with wrong output, or crashed the toolchain *)
  | Benign  (** finished with output equal to the golden run *)
  | Budget_exceeded  (** still running at the cycle budget *)

let class_name = function
  | Detected_by_assertion -> "assertion"
  | Hang_detected -> "hang"
  | Silent_corruption -> "silent"
  | Benign -> "benign"
  | Budget_exceeded -> "budget"

(** Detection means the platform raised a flag the engineer can act on:
    an assertion notification or a hang/live-lock report. *)
let detected = function
  | Detected_by_assertion | Hang_detected -> true
  | Silent_corruption | Benign | Budget_exceeded -> false

(** Structured outcome diagnostics.  Runs keep the raw data (spin
    sites, differing drains) and the report renders it on demand —
    classification no longer formats strings inside the sweep's hot
    loop. *)
type detail =
  | No_detail
  | Message of string  (** assertion text, toolchain crash, sim error *)
  | Spin of { label : string; sites : (string * int) list }
      (** "live-lock" or "deadlock", with (process, state) spin sites *)
  | Output_diff of string list  (** drains whose output differs from golden *)

type run = {
  workload : string;
  strategy : string;
  fault : Fault.t;
  outcome : outcome_class;
  detail : detail;  (** assertion message, spin sites, or output diff *)
  cycles : int;  (** cycles consumed (cycles to detection when detected) *)
  retried : bool;  (** first attempt crashed; this is the retry's result *)
}

type strategy_summary = {
  strategy : string;
  mutants : int;
  by_assertion : int;
  by_hang : int;
  silent : int;
  benign : int;
  over_budget : int;
  mean_detection_cycles : float option;
      (** mean cycles-to-detection over detected mutants *)
}

type report = {
  workloads : string list;
  site_count : int;  (** mutants swept per strategy (after any cap) *)
  dropped : int;  (** sites dropped by [max_mutants] *)
  kind_counts : (string * int) list;  (** sites per fault kind *)
  pruned_static : int;
      (** mutant runs the static pre-filter proved equivalent or dead
          and classified [Benign] without simulating *)
  pruned_hang : int;
      (** mutant runs the liveness pre-filter proved certainly blocking
          and classified [Hang_detected] without simulating *)
  runs : run list;
  summaries : strategy_summary list;
}

(* --- campaign ----------------------------------------------------------- *)

let enumerate (w : workload) : Fault.t list =
  (* sites live in the pre-fault lowered IR, so the cached compile
     front is all that is needed *)
  Fault.sites (Exec.Cache.front ~strategy:Driver.baseline w.program).Driver.f_ir

(* Take [n] sites round-robin across fault kinds, preserving order
   within a kind, so a capped campaign still exercises every kind. *)
let cap_round_robin n faults =
  let kinds =
    List.fold_left
      (fun acc f ->
        let k = Fault.kind_name f in
        if List.mem_assoc k acc then acc else acc @ [ (k, ref []) ])
      [] faults
  in
  List.iter (fun f -> let q = List.assoc (Fault.kind_name f) kinds in q := f :: !q) faults;
  let queues = List.map (fun (k, q) -> (k, ref (List.rev !q))) kinds in
  let out = ref [] and left = ref n and progress = ref true in
  while !left > 0 && !progress do
    progress := false;
    List.iter
      (fun (_, q) ->
        if !left > 0 then
          match !q with
          | [] -> ()
          | f :: tl ->
              q := tl;
              out := f :: !out;
              decr left;
              progress := true)
      queues
  done;
  List.rev !out

(* Rendering of structured diagnostics, run once per displayed row (not
   inside the sweep's hot loop). *)
let detail_string = function
  | No_detail -> ""
  | Message m -> m
  | Spin { label; sites } ->
      let b = Buffer.create 64 in
      Buffer.add_string b label;
      Buffer.add_string b ": ";
      List.iteri
        (fun i (p, st) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b p;
          Buffer.add_char b '@';
          Buffer.add_string b (string_of_int st))
        sites;
      Buffer.contents b
  | Output_diff drains ->
      "output differs on " ^ String.concat ", " drains

let differing_drains ~drains golden actual =
  List.filter
    (fun s ->
      let get l = try List.assoc s l with Not_found -> [] in
      get golden <> get actual)
    drains

(* The golden run: software simulation of the unfaulted program — the
   desktop-simulation path the paper contrasts against, which never sees
   translation faults. *)
let golden_drained (w : workload) =
  let c = Exec.Cache.compile ~strategy:Driver.baseline w.program in
  let r = Driver.software_sim ~options:w.options c in
  match r.Interp.outcome with
  | Interp.Completed -> r.Interp.drained
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Campaign: workload %s does not complete under software simulation \
            (check feeds/params)"
           w.wname)

let unfaulted_cycles (w : workload) =
  let c = Exec.Cache.compile ~strategy:Driver.baseline w.program in
  let r = Driver.simulate ~options:w.options c in
  match r.Driver.engine.Engine.outcome with
  | Engine.Finished -> r.Driver.engine.Engine.cycles
  | _ ->
      invalid_arg
        (Printf.sprintf "Campaign: unfaulted baseline of workload %s does not finish"
           w.wname)

(* One mutant attempt, run on a worker domain: compile through the
   shared front cache, then simulate under the cycle budget with the
   watchdog armed.  Crash isolation and the single retry live in
   {!Exec.Pool}. *)
let attempt_mutant ~budget ~watchdog (w : workload) strategy fault =
  let options =
    { w.options with Driver.max_cycles = budget; watchdog = Some watchdog }
  in
  let c = Exec.Cache.compile ~strategy ~faults:[ fault ] w.program in
  Driver.simulate ~options c

(* --- fork-point evaluation ---------------------------------------------- *)

(* The one padded-design evaluation path, shared by the sweep below and
   the fuzz oracle: compile the all-sites-padded design, run it unarmed
   once to record every site's first activation, and realize a fault by
   arming its pad at that cycle — restored from a snapshot (the sweep's
   per-pair contexts) or replayed in place ({!evaluate}, one fault per
   probe).  Budgets and fallbacks stay with the callers. *)

type padded = { pd_compiled : Driver.compiled; pd_sites : Fault.site list }

let padded (front : Driver.front) (inst : Fault.instrumented) =
  {
    pd_compiled = Driver.finish { front with Driver.f_ir = inst.Fault.ip_prog };
    pd_sites = inst.Fault.ip_sites;
  }

let twin sites fault =
  List.find_opt (fun (s : Fault.site) -> s.Fault.s_padded && s.Fault.s_fault = fault) sites

type mutant = Armed of padded * Fault.site | Unpadded of Driver.compiled

(* The padded design is only finished when the fault has a twin. *)
let mutant (front : Driver.front) faults =
  match faults with
  | [ fault ] -> (
      let inst = Fault.instrument_all front.Driver.f_ir in
      match twin inst.Fault.ip_sites fault with
      | Some site -> Armed (padded front inst, site)
      | None -> Unpadded (Driver.finish ~faults front))
  | _ -> Unpadded (Driver.finish ~faults front)

(* Sentinel for "this site never activates under the stimulus". *)
let never = max_int

type probe = { pb_first_act : int array; pb_base : Driver.sim_result }

let probe options pd =
  let nsites = List.length pd.pd_sites in
  let first_act = Array.make nsites never in
  let on_site cycle idx =
    if idx >= 0 && idx < nsites && first_act.(idx) = never then first_act.(idx) <- cycle
  in
  let ses = Driver.prepare ~options ~on_site pd.pd_compiled in
  { pb_first_act = first_act; pb_base = Driver.session_result ses (Engine.run ses.Driver.ses_engine) }

let first_activation pb (site : Fault.site) =
  let c = pb.pb_first_act.(site.Fault.s_index) in
  if c = never then None else Some c

type start = Restore of Engine.snapshot | Replay of int

(* Fresh engine and notification state, brought to the activation cycle,
   then exactly this site's pad registers armed and the run finished. *)
let run_armed options pd (site : Fault.site) ~from =
  let ses = Driver.prepare ~options pd.pd_compiled in
  let ses =
    match from with
    | Restore snap ->
        Engine.restore ses.Driver.ses_engine snap;
        ses
    | Replay cycle -> (
        match Engine.run_until ses.Driver.ses_engine ~cycle with
        | None -> ses
        | Some _ ->
            (* unreachable when the cycle came from an unarmed run under
               the same stimulus, but arming from reset is always faithful *)
            Driver.prepare ~options pd.pd_compiled)
  in
  Engine.arm ses.Driver.ses_engine [ (site.Fault.s_proc, site.Fault.s_arm) ];
  Driver.session_result ses (Engine.run ses.Driver.ses_engine)

(* A site that never activates cannot change anything the unarmed run
   executed, so that run is the mutant's result. *)
let evaluate options ~armed_options = function
  | Unpadded c -> (Driver.simulate ~options c, options)
  | Armed (pd, site) -> (
      let pb = probe options pd in
      match first_activation pb site with
      | None -> (pb.pb_base, options)
      | Some act ->
          let options = armed_options pb.pb_base in
          (run_armed options pd site ~from:(Replay act), options))

(* What the disk tier persists per (workload, strategy): the probe and a
   snapshot just before each distinct activation cycle, everything
   derivable only by simulating.  The padded compile itself is covered
   by the front cache; re-running [Driver.finish] per process is cheap
   relative to the baseline replays this skips. *)
type bundle = { bb_probe : probe; bb_snaps : (int * Engine.snapshot) list }

(* Fork-mode evaluation context for one (workload, strategy).
   Immutable after construction; worker domains share it and only
   mutate their own freshly prepared engines. *)
type fork_ctx = {
  fc_padded : padded;
  fc_options : Driver.sim_options;  (** per-mutant budget + watchdog *)
  fc_bundle : bundle;
}

let bundle_key (w : workload) strategy ~budget ~watchdog =
  let b = Buffer.create 256 in
  Buffer.add_string b (Exec.Cache.key ~strategy w.program);
  Buffer.add_char b '\x00';
  Buffer.add_string b w.wname;
  List.iter
    (fun (s, vs) ->
      Printf.bprintf b "|f:%s" s;
      List.iter (fun v -> Printf.bprintf b ",%Ld" v) vs)
    w.options.Driver.feeds;
  List.iter (fun s -> Printf.bprintf b "|d:%s" s) w.options.Driver.drains;
  List.iter
    (fun (p, kvs) ->
      Printf.bprintf b "|p:%s" p;
      List.iter (fun (k, v) -> Printf.bprintf b ",%s=%Ld" k v) kvs)
    w.options.Driver.params;
  Printf.bprintf b "|b:%d|w:%d|v2" budget watchdog;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The activation cycles needing a snapshot: one per distinct
   first-activation cycle of any padded site (independent of the
   [max_mutants] cap, so a cached bundle serves every cap). *)
let snapshot_cycles pd pb =
  List.sort_uniq compare
    (List.filter_map
       (fun (s : Fault.site) -> if s.Fault.s_padded then first_activation pb s else None)
       pd.pd_sites)

(* Replay the unarmed design once, snapshotting at each activation
   cycle; [None] when the run ends before the last one. *)
let snapshots options pd pb =
  let cycles = snapshot_cycles pd pb in
  let ses = Driver.prepare ~options pd.pd_compiled in
  let snaps =
    List.filter_map
      (fun c ->
        match Engine.run_until ses.Driver.ses_engine ~cycle:c with
        | None -> Some (c, Engine.snapshot ses.Driver.ses_engine)
        | Some _ -> None)
      cycles
  in
  if List.length snaps = List.length cycles then Some snaps else None

(* Per-mutant budget and watchdog: explicit [config] values as-is, else
   4x [base_cycles] plus slack, and budget / 20 with a floor of 200. *)
let limits (config : config) base_cycles =
  let budget = match config.budget with Some b -> b | None -> (4 * base_cycles) + 2000 in
  (budget, match config.watchdog with Some n -> n | None -> Stdlib.max 200 (budget / 20))

(* Build the fork context for one (workload, strategy), as one plan
   job.  [None] = fall back to the legacy from-reset path
   for every site of this pair: the padded neutral baseline must finish
   and match the golden output (it always should — every pad is an
   identity when unarmed — but a safety valve beats a wrong report). *)
let build_fork_ctx config (w : workload) strategy ~budget ~watchdog ~golden =
  let front = Exec.Cache.front ~strategy w.program in
  let pd = padded front (Fault.instrument_all front.Driver.f_ir) in
  (* Probe cap: generous, derived from the *unpadded* baseline; the
     pads inflate the schedule but stay far inside 4x + slack. *)
  let probe_options =
    { w.options with Driver.max_cycles = budget; watchdog = Some watchdog }
  in
  let finished pb = pb.pb_base.Driver.engine.Engine.outcome = Engine.Finished in
  let key = bundle_key w strategy ~budget ~watchdog in
  let valid bb =
    Array.length bb.bb_probe.pb_first_act = List.length pd.pd_sites
    && finished bb.bb_probe
    && List.for_all (fun c -> List.mem_assoc c bb.bb_snaps) (snapshot_cycles pd bb.bb_probe)
  in
  let bundle =
    match (Exec.Cache.load_blob ~kind:"campaign-base" ~key : bundle option) with
    | Some bb when valid bb -> Some bb
    | _ ->
        let pb = probe probe_options pd in
        if not (finished pb) then None
        else
          Option.map
            (fun snaps ->
              let bb = { bb_probe = pb; bb_snaps = snaps } in
              Exec.Cache.store_blob ~kind:"campaign-base" ~key bb;
              bb)
            (snapshots probe_options pd pb)
  in
  match bundle with
  | Some bb
    when differing_drains ~drains:w.options.Driver.drains golden
           bb.bb_probe.pb_base.Driver.engine.Engine.drained
         = [] ->
      (* Budget for armed mutants: the legacy path's shape, but relative
         to the *padded* baseline, so the pads' schedule inflation
         cannot push a finishing mutant over the budget boundary. *)
      let budget, watchdog = limits config bb.bb_probe.pb_base.Driver.engine.Engine.cycles in
      Some
        {
          fc_padded = pd;
          fc_options = { w.options with Driver.max_cycles = budget; watchdog = Some watchdog };
          fc_bundle = bb;
        }
  | _ -> None

(* Classify a mutant's simulation (or its toolchain crash) against the
   golden output; pure bookkeeping. *)
let classify ~golden (w : workload) sname fault (result : (Driver.sim_result, string) result) :
    run =
  let outcome, detail, cycles =
    match result with
    | Error msg -> (Silent_corruption, Message ("toolchain crash: " ^ msg), 0)
    | Ok r -> (
        let cycles = r.Driver.engine.Engine.cycles in
        match r.Driver.engine.Engine.outcome with
        | Engine.Aborted m -> (Detected_by_assertion, Message m, cycles)
        | Engine.Livelock spinning ->
            (Hang_detected, Spin { label = "live-lock"; sites = spinning }, cycles)
        | Engine.Hang blocked ->
            (Hang_detected, Spin { label = "deadlock"; sites = blocked }, cycles)
        | Engine.Out_of_cycles -> (Budget_exceeded, No_detail, cycles)
        | Engine.Sim_error m ->
            (Silent_corruption, Message ("simulator error: " ^ m), cycles)
        | Engine.Finished -> (
            match
              differing_drains ~drains:w.options.Driver.drains golden
                r.Driver.engine.Engine.drained
            with
            | [] -> (Benign, No_detail, cycles)
            | diff -> (Silent_corruption, Output_diff diff, cycles)))
  in
  {
    workload = w.wname;
    strategy = sname;
    fault;
    outcome;
    detail;
    cycles;
    retried = false;
  }

let summarize strategies runs =
  List.map
    (fun (sname, _) ->
      let rs = List.filter (fun (r : run) -> r.strategy = sname) runs in
      let count c = List.length (List.filter (fun (r : run) -> r.outcome = c) rs) in
      let det = List.filter (fun (r : run) -> detected r.outcome) rs in
      let mean_detection_cycles =
        match det with
        | [] -> None
        | _ ->
            Some
              (List.fold_left (fun acc r -> acc +. float_of_int r.cycles) 0.0 det
              /. float_of_int (List.length det))
      in
      {
        strategy = sname;
        mutants = List.length rs;
        by_assertion = count Detected_by_assertion;
        by_hang = count Hang_detected;
        silent = count Silent_corruption;
        benign = count Benign;
        over_budget = count Budget_exceeded;
        mean_detection_cycles;
      })
    strategies

(* How one mutant gets its result.  [Pruned]: the static pre-filter
   proved it equivalent to the baseline (or its site dead) — no
   simulation, classified [Benign].  [Pruned_hang]: the liveness
   pre-filter proved the mutant blocks the channel network on every
   execution before any divergent write, assertion or trap — no
   simulation, classified [Hang_detected] with the static witness.
   [Baseline_equiv]: the site never activates under the workload, so
   the mutant's run *is* the recorded neutral-baseline run.
   [Simulate]: run it on a worker domain, via the fork-point restore or
   the legacy from-reset path. *)
type disposition =
  | Pruned
  | Pruned_hang of string
  | Baseline_equiv of Driver.sim_result
  | Simulate of (unit -> Driver.sim_result)

(* --- planning -------------------------------------------------------------- *)

(* One schedulable unit of a campaign: a single (workload, strategy,
   fault site) mutant, carrying everything its evaluation needs so it
   can run on any worker domain without touching shared mutable
   state. *)
type shard = {
  sh_workload : workload;
  sh_strategy : string;
  sh_fault : Fault.t;
  sh_golden : (string * int64 list) list;
  sh_disp : disposition;
}

type plan = {
  pl_workloads : string list;
  pl_strategies : (string * Driver.strategy) list;
  pl_site_count : int;
  pl_dropped : int;
  pl_kind_counts : (string * int) list;
  pl_shards : shard array;
}

(* The per-workload half of the plan: capped sites, both pre-filters'
   verdicts, the golden output and the derived budget and watchdog. *)
type prep = {
  pr_sites : Fault.t list;
  pr_dropped : int;
  pr_verdicts : Prefilter.verdict list;
  pr_hangs : Prefilter.hang_verdict list;
  pr_golden : (string * int64 list) list;
  pr_budget : int;
  pr_watchdog : int;
}

let prep (config : config) (w : workload) : prep =
  let sites = enumerate w in
  let sites, dropped =
    match config.max_mutants with
    | Some n when List.length sites > n -> (cap_round_robin n sites, List.length sites - n)
    | _ -> (sites, 0)
  in
  (* The pre-filter analyzes the baseline IR the sites were enumerated
     on; its verdicts are input-independent, so they apply identically
     in both modes — the classification-identity gate depends on that. *)
  let verdicts =
    let base_front = Exec.Cache.front ~strategy:Driver.baseline w.program in
    Prefilter.verdicts base_front.Driver.f_ir sites
  in
  (* The liveness pre-filter works on the AST and the workload's
     stimulus (token counts, not values), so — like the value
     pre-filter — its verdicts are identical in both modes. *)
  let hangs =
    if config.prune_hangs then
      Prefilter.hang_verdicts ~params:w.options.Driver.params
        ~feeds:(List.map (fun (s, vs) -> (s, List.length vs)) w.options.Driver.feeds)
        ~drains:w.options.Driver.drains w.program sites
    else List.map (fun _ -> Prefilter.Hang_unknown) sites
  in
  let golden = golden_drained w in
  let budget, watchdog = limits config (unfaulted_cycles w) in
  {
    pr_sites = sites;
    pr_dropped = dropped;
    pr_verdicts = verdicts;
    pr_hangs = hangs;
    pr_golden = golden;
    pr_budget = budget;
    pr_watchdog = watchdog;
  }

(* Run plan jobs as one index-ordered pool batch.  Plan jobs are not
   retried: a failure re-raises the original exception of the lowest
   failing index, so callers see the exception itself (a workload that
   does not complete raises [Invalid_argument]) at every job count. *)
let plan_batch ~jobs (fns : (unit -> 'a) list) : 'a list =
  let caught f () = match f () with v -> Ok v | exception e -> Error e in
  let results =
    Array.map
      (fun (o : _ Exec.Pool.outcome) ->
        match o.Exec.Pool.value with Ok r -> r | Error m -> Error (Failure m))
      (Exec.Pool.run ?jobs ~retries:0 (Array.of_list (List.map caught fns)))
  in
  Array.iter (function Error e -> raise e | Ok _ -> ()) results;
  List.filter_map Result.to_option (Array.to_list results)

(* Plan the sweep in three pool batches on [config.jobs] — compile-cache
   warm-up, per-workload prep, per-(workload, strategy) fork contexts —
   then count and flatten serially, so the plan is the same for every
   job count. *)
let plan (config : config) (workloads : workload list) : plan =
  let batch fns = plan_batch ~jobs:config.jobs fns in
  (* One job per distinct (program, strategy) front, baseline included
     for site enumeration and the golden run: each key costs exactly
     one miss in any order, and every later lookup hits. *)
  let fronts =
    List.concat_map
      (fun w ->
        List.map
          (fun strategy -> (Exec.Cache.key ~strategy w.program, (w.program, strategy)))
          (Driver.baseline :: List.map snd config.strategies))
      workloads
  in
  let fronts =
    List.rev
      (List.fold_left
         (fun acc (k, f) -> if List.mem_assoc k acc then acc else (k, f) :: acc)
         [] fronts)
  in
  ignore
    (batch
       (List.map
          (fun (_, (program, strategy)) () -> ignore (Exec.Cache.front ~strategy program))
          fronts));
  let preps = batch (List.map (fun w () -> prep config w) workloads) in
  let ctxs =
    match config.mode with
    | From_reset -> List.map (fun _ -> List.map (fun _ -> None) config.strategies) workloads
    | Fork ->
        let jobs =
          List.concat
            (List.map2
               (fun w pr ->
                 List.map
                   (fun (_, strategy) () ->
                     build_fork_ctx config w strategy ~budget:pr.pr_budget
                       ~watchdog:pr.pr_watchdog ~golden:pr.pr_golden)
                   config.strategies)
               workloads preps)
        in
        let nstrat = List.length config.strategies in
        let all = Array.of_list (batch jobs) in
        List.mapi (fun i _ -> Array.to_list (Array.sub all (i * nstrat) nstrat)) workloads
  in
  let kind_tbl = Hashtbl.create 8 in
  List.iter
    (fun pr ->
      List.iter
        (fun f ->
          let k = Fault.kind_name f in
          Hashtbl.replace kind_tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt kind_tbl k)))
        pr.pr_sites)
    preps;
  let kind_counts =
    List.filter_map
      (fun k -> Option.map (fun n -> (k, n)) (Hashtbl.find_opt kind_tbl k))
      [ "narrow-compare"; "read-for-write"; "stuck-stream-bit"; "drop-stream-write";
        "loop-off-by-one" ]
  in
  (* One shard per (workload, strategy, site), flattened in the serial
     sweep order: workload outermost, then strategy, then site.  Each
     carries its disposition; only [Simulate] ones cost a simulation,
     and the result list stays in canonical order for every job
     count. *)
  let shards =
    List.concat
      (List.map2
         (fun (w, pr) strat_ctxs ->
           List.concat
             (List.map2
                (fun (sname, strategy) ctx ->
                  List.map2
                    (fun (fault, hang) verdict ->
                      let legacy () =
                        Simulate
                          (fun () ->
                            attempt_mutant ~budget:pr.pr_budget ~watchdog:pr.pr_watchdog w
                              strategy fault)
                      in
                      let disp =
                        match (verdict : Prefilter.verdict) with
                        | Prefilter.Equivalent | Prefilter.Dead -> Pruned
                        | Prefilter.Unknown -> (
                            match (hang : Prefilter.hang_verdict) with
                            | Prefilter.Certain_hang witness -> Pruned_hang witness
                            | Prefilter.Hang_unknown -> (
                                match ctx with
                                | None -> legacy ()
                                | Some ({ fc_bundle = bb; _ } as ctx) -> (
                                    match twin ctx.fc_padded.pd_sites fault with
                                    | None -> legacy ()
                                    | Some site -> (
                                        match first_activation bb.bb_probe site with
                                        | None -> Baseline_equiv bb.bb_probe.pb_base
                                        | Some act -> (
                                            match List.assoc_opt act bb.bb_snaps with
                                            | Some snap ->
                                                Simulate
                                                  (fun () ->
                                                    run_armed ctx.fc_options ctx.fc_padded
                                                      site ~from:(Restore snap))
                                            | None -> legacy ())))))
                      in
                      {
                        sh_workload = w;
                        sh_strategy = sname;
                        sh_fault = fault;
                        sh_golden = pr.pr_golden;
                        sh_disp = disp;
                      })
                    (List.combine pr.pr_sites pr.pr_hangs)
                    pr.pr_verdicts)
                config.strategies strat_ctxs))
         (List.combine workloads preps) ctxs)
  in
  {
    pl_workloads = List.map (fun w -> w.wname) workloads;
    pl_strategies = config.strategies;
    pl_site_count = List.fold_left (fun n pr -> n + List.length pr.pr_sites) 0 preps;
    pl_dropped = List.fold_left (fun n pr -> n + pr.pr_dropped) 0 preps;
    pl_kind_counts = kind_counts;
    pl_shards = Array.of_list shards;
  }

(* Evaluate one shard on a worker domain: pruned shards classify
   without simulating, baseline-equivalent shards reuse the recorded
   neutral run, and the rest simulate. *)
let eval_shard (s : shard) : run =
  let pruned outcome detail =
    {
      workload = s.sh_workload.wname;
      strategy = s.sh_strategy;
      fault = s.sh_fault;
      outcome;
      detail;
      cycles = 0;
      retried = false;
    }
  in
  let simulated r = classify ~golden:s.sh_golden s.sh_workload s.sh_strategy s.sh_fault r in
  match s.sh_disp with
  | Pruned -> pruned Benign No_detail
  | Pruned_hang witness -> pruned Hang_detected (Message ("statically proved hang: " ^ witness))
  | Baseline_equiv base -> simulated (Ok base)
  | Simulate f -> simulated (Ok (f ()))

(** Sweep every enumerated fault site of every workload under every
    strategy: plan on an {!Exec.Pool} of [config.jobs] workers, evaluate
    every shard on the same pool, and assemble the report in
    shard-index order — so the report is byte-identical for every job
    count.  [progress] (if given) is called once per classified mutant
    run, on the calling domain, in deterministic (shard-index) order. *)
let run ?(config = default_config) ?progress (workloads : workload list) : report =
  let p = plan config workloads in
  let outcomes =
    Exec.Pool.run ?jobs:config.jobs ~retries:1
      (Array.map (fun s () -> eval_shard s) p.pl_shards)
  in
  let runs =
    List.mapi
      (fun i (o : run Exec.Pool.outcome) ->
        let r =
          match o.Exec.Pool.value with
          | Ok r -> r
          | Error m ->
              (* crashed twice: a toolchain crash is silent corruption *)
              let s = p.pl_shards.(i) in
              classify ~golden:s.sh_golden s.sh_workload s.sh_strategy s.sh_fault (Error m)
        in
        if o.Exec.Pool.attempts > 1 then { r with retried = true } else r)
      (Array.to_list outcomes)
  in
  Option.iter (fun f -> List.iter f runs) progress;
  let pruned f = Array.fold_left (fun n s -> if f s.sh_disp then n + 1 else n) 0 p.pl_shards in
  {
    workloads = p.pl_workloads;
    site_count = p.pl_site_count;
    dropped = p.pl_dropped;
    kind_counts = p.pl_kind_counts;
    pruned_static = pruned (function Pruned -> true | _ -> false);
    pruned_hang = pruned (function Pruned_hang _ -> true | _ -> false);
    runs;
    summaries = summarize p.pl_strategies runs;
  }

(* --- rendering ---------------------------------------------------------- *)

let detected_of_summary s = s.by_assertion + s.by_hang

(** Per fault kind, detections per strategy (the coverage matrix). *)
let kind_matrix (r : report) =
  List.map
    (fun (kind, sites) ->
      let per_strategy =
        List.map
          (fun s ->
            let det =
              List.length
                (List.filter
                   (fun (run : run) ->
                     run.strategy = s.strategy
                     && Fault.kind_name run.fault = kind
                     && detected run.outcome)
                   r.runs)
            in
            (s.strategy, det))
          r.summaries
      in
      (kind, sites, per_strategy))
    r.kind_counts

let render (r : report) : string =
  let b = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  p "=== fault-injection campaign: %s ===" (String.concat ", " r.workloads);
  p "sites: %d mutants per strategy (%s)%s" r.site_count
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) r.kind_counts))
    (if r.dropped > 0 then Printf.sprintf "; %d sites dropped by cap" r.dropped else "");
  if r.pruned_static > 0 then
    p "pruned: %d mutant runs proved equivalent/dead statically (not simulated)"
      r.pruned_static;
  if r.pruned_hang > 0 then
    p "pruned: %d mutant runs proved certainly hanging statically (classified hang, \
       not simulated)"
      r.pruned_hang;
  p "";
  p "%-14s %7s %7s %6s %7s %7s %7s %9s %14s" "strategy" "mutants" "assert" "hang"
    "silent" "benign" "budget" "detected" "mean-det-cyc";
  List.iter
    (fun s ->
      p "%-14s %7d %7d %6d %7d %7d %7d %9d %14s" s.strategy s.mutants s.by_assertion
        s.by_hang s.silent s.benign s.over_budget (detected_of_summary s)
        (match s.mean_detection_cycles with
        | Some m -> Printf.sprintf "%.1f" m
        | None -> "-"))
    r.summaries;
  p "";
  p "assertion coverage by fault kind (detected/sites):";
  let strategies = List.map (fun s -> s.strategy) r.summaries in
  p "%-18s %s" "kind"
    (String.concat " " (List.map (Printf.sprintf "%12s") strategies));
  List.iter
    (fun (kind, sites, per_strategy) ->
      p "%-18s %s" kind
        (String.concat " "
           (List.map
              (fun (_, det) -> Printf.sprintf "%12s" (Printf.sprintf "%d/%d" det sites))
              per_strategy)))
    (kind_matrix r);
  Buffer.contents b

(** The classification map: one line per mutant run, [workload TAB
    strategy TAB fault TAB class], in canonical sweep order.  This is
    the fork-vs-from-reset invariant surface: the two modes must
    produce byte-identical maps (cycle counts and details may differ —
    padding legitimately perturbs the schedule).  CI diffs this. *)
let render_classes (r : report) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (run : run) ->
      Buffer.add_string b run.workload;
      Buffer.add_char b '\t';
      Buffer.add_string b run.strategy;
      Buffer.add_char b '\t';
      Buffer.add_string b (Fault.describe run.fault);
      Buffer.add_char b '\t';
      Buffer.add_string b (class_name run.outcome);
      Buffer.add_char b '\n')
    r.runs;
  Buffer.contents b

let json_of (r : report) : Json.t =
  Json.Obj
    [
      ("workloads", Json.list Json.str r.workloads);
      ("sites", Json.int r.site_count);
      ("dropped", Json.int r.dropped);
      ("pruned_static", Json.int r.pruned_static);
      ("pruned_hang", Json.int r.pruned_hang);
      ("kinds", Json.Obj (List.map (fun (k, n) -> (k, Json.int n)) r.kind_counts));
      ( "strategies",
        Json.list
          (fun s ->
            Json.Obj
              [
                ("strategy", Json.Str s.strategy);
                ("mutants", Json.int s.mutants);
                ("detected_by_assertion", Json.int s.by_assertion);
                ("hang_detected", Json.int s.by_hang);
                ("silent_corruption", Json.int s.silent);
                ("benign", Json.int s.benign);
                ("budget_exceeded", Json.int s.over_budget);
                ("detected", Json.int (detected_of_summary s));
                ("mean_detection_cycles", Json.opt Json.float s.mean_detection_cycles);
              ])
          r.summaries );
      ( "runs",
        Json.list
          (fun (run : run) ->
            Json.Obj
              [
                ("workload", Json.Str run.workload);
                ("strategy", Json.Str run.strategy);
                ("fault", Json.Str (Fault.describe run.fault));
                ("kind", Json.Str (Fault.kind_name run.fault));
                ("class", Json.Str (class_name run.outcome));
                ("detail", Json.Str (detail_string run.detail));
                ("cycles", Json.int run.cycles);
                ("retried", Json.Bool run.retried);
              ])
          r.runs );
    ]
