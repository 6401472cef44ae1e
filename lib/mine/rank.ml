(** Mutant-kill ranking of mined invariants.

    The scoring loop closes the paper's argument: an invariant mined
    from the software-simulation traces is re-synthesized as an
    in-circuit assertion and judged by the translation faults it
    actually catches in the cycle-accurate circuit — with its EP2S180
    area and fmax price printed next to the kill count, the same
    cost/coverage trade the paper's tables make for hand-written
    assertions. *)

module Driver = Core.Driver
module Fault = Faults.Fault

type config = {
  strategy : string * Driver.strategy;
  max_candidates : int;
  max_mutants : int option;
  budget : int option;
  watchdog : int option;
  jobs : int option;
      (** worker domains for each ranking sweep; [None] =
          {!Exec.Pool.default_jobs}, [Some 1] = serial.  Candidates are
          scored serially — parallelism lives inside each campaign
          sweep, so domains never nest. *)
}

let default_config =
  {
    strategy = ("parallelized", Driver.parallelized);
    max_candidates = 12;
    max_mutants = None;
    budget = None;
    watchdog = None;
    jobs = None;
  }

type scored = {
  candidate : Infer.candidate;
  kills : int;
  marginal : int;
  newly_detected : string list;
  mutants : int;
  alut_delta : int;
  reg_delta : int;
  fmax_delta_mhz : float;
  source : string;
}

type result = {
  rname : string;
  strategy_name : string;
  stimuli : string list;
  inferred : int;
  capped : int;
  static_proved : int;
  survivors : int;
  mutants : int;
  base_detected : int;
  scored : scored list;
}

(* Faults a campaign sweep detected, as stable description strings
   (ordinals are enumerated on the baseline IR, so descriptions align
   between the base and instrumented sweeps). *)
let detected_set (r : Campaign.report) =
  List.filter_map
    (fun (run : Campaign.run) ->
      if Campaign.detected run.Campaign.outcome then
        Some (Fault.describe run.Campaign.fault)
      else None)
    r.Campaign.runs
  |> List.sort_uniq compare

let mine ?(config = default_config) ?progress ~name ?options (prog : Front.Ast.program) :
    result =
  let base_options =
    match options with Some o -> o | None -> Trace.auto_options prog
  in
  let stimuli = Trace.variants base_options in
  let traces = Trace.collect prog stimuli in
  if not (List.exists (fun (t : Trace.run_trace) -> t.Trace.tr_stimulus = "base") traces)
  then
    invalid_arg
      (Printf.sprintf
         "Mine: %s does not pass software simulation under the base stimulus (check \
          feeds/params)"
         name);
  let passing =
    List.filter
      (fun (st : Trace.stimulus) ->
        List.exists (fun (t : Trace.run_trace) -> t.Trace.tr_stimulus = st.Trace.label) traces)
      stimuli
  in
  let inferred = Infer.infer prog traces in
  let kept = Infer.cap_round_robin config.max_candidates inferred in
  let survivors = Infer.survivors prog ~stimuli:passing kept in
  (* Static pre-filter: a candidate the abstract interpreter already
     proves is the hardware twin of an assertion that can never fire on
     correct silicon for a *trivial* reason (e.g. subsumed by the loop
     bounds) — spending a campaign sweep on it buys nothing a cheaper
     proved hand-written assertion would not.  Injected copies are
     identified by (proc, text) multiset difference against the base
     program, since injection pretty-prints and re-parses (locations
     shift). *)
  let base_assert_counts =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (p : Front.Ast.proc) ->
        List.iter
          (fun (_, _, text) ->
            let k = (p.Front.Ast.pname, text) in
            Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
          (Front.Ast.assertions_of p.Front.Ast.body))
      prog.Front.Ast.procs;
    tbl
  in
  let statically_proved (c : Infer.candidate) =
    match Infer.inject prog [ c ] with
    | None | (exception _) -> false
    | Some (_, p') ->
        let remaining = Hashtbl.copy base_assert_counts in
        let injected =
          List.filter
            (fun (v : Analysis.Absint.verdict) ->
              let k = (v.Analysis.Absint.vproc, v.Analysis.Absint.vtext) in
              match Hashtbl.find_opt remaining k with
              | Some n when n > 0 ->
                  Hashtbl.replace remaining k (n - 1);
                  false
              | _ -> true)
            (Analysis.Absint.analyze p').Analysis.Absint.verdicts
        in
        injected <> []
        && List.for_all
             (fun (v : Analysis.Absint.verdict) ->
               v.Analysis.Absint.vclass = Analysis.Absint.Proved)
             injected
  in
  let static_dropped, survivors = List.partition statically_proved survivors in
  let ccfg =
    {
      Campaign.mode = Campaign.default_config.Campaign.mode;
      strategies = [ config.strategy ];
      budget = config.budget;
      watchdog = config.watchdog;
      max_mutants = config.max_mutants;
      jobs = config.jobs;
      prune_hangs = Campaign.default_config.Campaign.prune_hangs;
    }
  in
  let sweep p nm =
    Campaign.run ~config:ccfg
      [ { Campaign.wname = nm; program = p; options = base_options } ]
  in
  let base_report = sweep prog name in
  let base_set = detected_set base_report in
  let base_rtl = Driver.rtl (Exec.Cache.compile ~strategy:(snd config.strategy) prog) in
  let scored =
    List.filter_map
      (fun (c : Infer.candidate) ->
        match Infer.inject prog [ c ] with
        | None -> None
        | Some (src, p') -> (
            match
              let rep = sweep p' (name ^ "+" ^ string_of_int c.Infer.uid) in
              let rtl = Driver.rtl (Exec.Cache.compile ~strategy:(snd config.strategy) p') in
              (rep, rtl)
            with
            | rep, rtl ->
                let det = detected_set rep in
                let newly = List.filter (fun d -> not (List.mem d base_set)) det in
                let s =
                  {
                    candidate = c;
                    kills = List.length det;
                    marginal = List.length newly;
                    newly_detected = newly;
                    mutants = rep.Campaign.site_count;
                    alut_delta =
                      rtl.Driver.area.Rtl.Area.aluts
                      - base_rtl.Driver.area.Rtl.Area.aluts;
                    reg_delta =
                      rtl.Driver.area.Rtl.Area.registers
                      - base_rtl.Driver.area.Rtl.Area.registers;
                    fmax_delta_mhz =
                      rtl.Driver.timing.Rtl.Timing.fmax_mhz
                      -. base_rtl.Driver.timing.Rtl.Timing.fmax_mhz;
                    source = src;
                  }
                in
                (match progress with Some f -> f s | None -> ());
                Some s
            | exception _ -> None))
      survivors
  in
  let ranked =
    List.sort
      (fun a b ->
        if a.marginal <> b.marginal then compare b.marginal a.marginal
        else if a.kills <> b.kills then compare b.kills a.kills
        else
          let aa = a.alut_delta + a.reg_delta and bb = b.alut_delta + b.reg_delta in
          if aa <> bb then compare aa bb
          else compare a.candidate.Infer.uid b.candidate.Infer.uid)
      scored
  in
  {
    rname = name;
    strategy_name = fst config.strategy;
    stimuli = List.map (fun (t : Trace.run_trace) -> t.Trace.tr_stimulus) traces;
    inferred = List.length inferred;
    capped = List.length kept;
    static_proved = List.length static_dropped;
    survivors = List.length scored;
    mutants = base_report.Campaign.site_count;
    base_detected = List.length base_set;
    scored = ranked;
  }

let take n l =
  let rec go n = function x :: tl when n > 0 -> x :: go (n - 1) tl | _ -> [] in
  go n l

let top_candidates ?(top = max_int) (r : result) =
  List.map (fun s -> s.candidate) (take top r.scored)

(* --- rendering ----------------------------------------------------------- *)

let render ?(top = max_int) (r : result) : string =
  let b = Buffer.create 2048 in
  let p fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt
  in
  p "=== assertion mining: %s (strategy %s) ===" r.rname r.strategy_name;
  p "traces: %d passing stimuli (%s)" (List.length r.stimuli)
    (String.concat ", " r.stimuli);
  p "candidates: %d inferred, %d kept, %d statically proved (dropped), %d survive \
     injection + falsification"
    r.inferred r.capped r.static_proved r.survivors;
  p "fault sites: %d mutants; base program detects %d" r.mutants r.base_detected;
  p "";
  p "%4s %5s %4s %8s %8s %10s  %s" "rank" "kills" "new" "aluts" "regs" "fmax(MHz)"
    "invariant";
  List.iteri
    (fun i s ->
      p "%4d %5d %4d %+8d %+8d %+10.1f  %s  [%s]" (i + 1) s.kills s.marginal
        s.alut_delta s.reg_delta s.fmax_delta_mhz
        (Infer.describe s.candidate)
        (Infer.template_kind s.candidate.Infer.template);
      List.iter (fun d -> p "%38s newly detects: %s" "" d) s.newly_detected)
    (take top r.scored);
  if r.scored = [] then p "(no candidate survived)";
  Buffer.contents b

let json_of ?(top = max_int) (r : result) : Json.t =
  Json.Obj
    [
      ("name", Json.Str r.rname);
      ("strategy", Json.Str r.strategy_name);
      ("stimuli", Json.list Json.str r.stimuli);
      ("inferred", Json.int r.inferred);
      ("kept", Json.int r.capped);
      ("static_proved", Json.int r.static_proved);
      ("survivors", Json.int r.survivors);
      ("mutants", Json.int r.mutants);
      ("base_detected", Json.int r.base_detected);
      ( "ranking",
        Json.list
          (fun s ->
            Json.Obj
              [
                ("uid", Json.int s.candidate.Infer.uid);
                ("invariant", Json.Str (Infer.describe s.candidate));
                ("kind", Json.Str (Infer.template_kind s.candidate.Infer.template));
                ("kills", Json.int s.kills);
                ("marginal", Json.int s.marginal);
                ("newly_detected", Json.list Json.str s.newly_detected);
                ("mutants", Json.int s.mutants);
                ("alut_delta", Json.int s.alut_delta);
                ("reg_delta", Json.int s.reg_delta);
                ("fmax_delta_mhz", Json.float s.fmax_delta_mhz);
              ])
          (take top r.scored) );
    ]
