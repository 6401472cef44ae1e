(* Fault-injection tests: selector semantics of Fault.apply, each fault
   kind round-tripped through the cycle-accurate simulator, the
   live-lock watchdog, the campaign engine, and the per-stream routing
   of the generated notification function. *)

open Front
module Engine = Sim.Engine
module Driver = Core.Driver
module Fault = Faults.Fault

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let elab = Typecheck.parse_and_check ~file:"test.c"

let has_sub ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A kernel with two stores and two stream writes, so the Nth selector
   has distinguishable sites to pick between. *)
let two_site_source =
  {|
stream int32 data_in depth 16;
stream int32 data_out depth 16;

process hw worker(int32 n) {
  int32 buf[4];
  int32 i;
  buf[0] = 11;
  buf[1] = 22;
  for (i = 0; i < n; i = i + 1) {
    int32 x;
    x = stream_read(data_in);
    stream_write(data_out, x + buf[0]);
    stream_write(data_out, x + buf[1]);
  }
}
|}

let run ?(faults = []) ?(strategy = Driver.baseline) ?(watchdog = None)
    ?(max_cycles = 20_000) ~feeds ~drains ~params source =
  let prog = elab source in
  let c = Driver.compile ~strategy ~faults prog in
  Driver.simulate
    ~options:
      {
        Driver.default_sim_options with
        Driver.feeds;
        drains;
        params;
        max_cycles;
        watchdog;
      }
    c

let worker_opts =
  ( [ ("data_in", [ 1L; 2L; 3L ]) ],
    [ "data_out" ],
    [ ("worker", [ ("n", 3L) ]) ] )

let run_worker ?faults ?watchdog () =
  let feeds, drains, params = worker_opts in
  run ?faults ?watchdog ~feeds ~drains ~params two_site_source

let drained r = List.assoc "data_out" r.Driver.engine.Engine.drained

(* --- selector semantics ------------------------------------------------------- *)

let test_selector_all_hits_every_site () =
  (* dropping ALL writes to data_out leaves nothing to drain *)
  let r =
    run_worker
      ~faults:
        [ Fault.Drop_stream_write
            { fproc = "worker"; stream = "data_out"; select = Fault.All } ]
      ()
  in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tint "no outputs at all" 0 (List.length (drained r))

let test_selector_nth_hits_one_site () =
  (* dropping only write #1 halves the outputs; write #0 still flows *)
  let r =
    run_worker
      ~faults:
        [ Fault.Drop_stream_write
            { fproc = "worker"; stream = "data_out"; select = Fault.Nth 1 } ]
      ()
  in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "only the buf[0] writes survive" true
    (drained r = [ 12L; 13L; 14L ])

let test_selector_nth_out_of_range_is_noop () =
  let clean = run_worker () in
  let r =
    run_worker
      ~faults:
        [
          Fault.Drop_stream_write
            { fproc = "worker"; stream = "data_out"; select = Fault.Nth 99 };
          Fault.Read_for_write { fproc = "worker"; select = Fault.Nth 99 };
          Fault.Narrow_compare { fproc = "worker"; select = Fault.Nth 99; mask_bits = 5 };
          Fault.Loop_bound_off_by_one
            { fproc = "worker"; select = Fault.Nth 99; delta = 1L };
          Fault.Stuck_stream_bit
            { fproc = "worker"; stream = "data_out"; select = Fault.Nth 99; bit = 3;
              stuck_to = true };
        ]
      ()
  in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "output identical to the clean run" true (drained r = drained clean)

let test_apply_other_procs_untouched () =
  let r =
    run_worker
      ~faults:
        [ Fault.Drop_stream_write
            { fproc = "not_worker"; stream = "data_out"; select = Fault.All } ]
      ()
  in
  check tbool "wrong proc name is a no-op" true (drained r = drained (run_worker ()))

(* --- new fault kinds round-trip through the simulator ------------------------- *)

let test_stuck_bit_sets_bit_in_output () =
  let r =
    run_worker
      ~faults:
        [ Fault.Stuck_stream_bit
            { fproc = "worker"; stream = "data_out"; select = Fault.All; bit = 7;
              stuck_to = true } ]
      ()
  in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "every drained value has bit 7 set" true
    (List.for_all (fun v -> Int64.logand v 128L = 128L) (drained r));
  check tbool "values differ from clean run" true (drained r <> drained (run_worker ()))

let test_stuck_bit_clears_bit_in_output () =
  let r =
    run_worker
      ~faults:
        [ Fault.Stuck_stream_bit
            { fproc = "worker"; stream = "data_out"; select = Fault.All; bit = 2;
              stuck_to = false } ]
      ()
  in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "every drained value has bit 2 clear" true
    (List.for_all (fun v -> Int64.logand v 4L = 0L) (drained r))

let test_drop_write_advances_without_pushing () =
  (* the dropped write must not stall the FSM: the loop still runs to
     completion and the process halts *)
  let r =
    run_worker
      ~faults:
        [ Fault.Drop_stream_write
            { fproc = "worker"; stream = "data_out"; select = Fault.All } ]
      ()
  in
  check tbool "process halts despite dropped writes" true
    (r.Driver.engine.Engine.outcome = Engine.Finished)

let test_loop_bound_plus_one_over_reads () =
  (* one extra iteration reads a 4th value from a 3-element feed: the
     process blocks on the empty input and the hang detector fires *)
  let r =
    run_worker
      ~faults:
        [ Fault.Loop_bound_off_by_one
            { fproc = "worker"; select = Fault.Nth 0; delta = 1L } ]
      ()
  in
  match r.Driver.engine.Engine.outcome with
  | Engine.Hang blocked ->
      check tbool "worker named" true (List.exists (fun (p, _) -> p = "worker") blocked)
  | o ->
      Alcotest.failf "expected hang, got %s"
        (match o with
        | Engine.Finished -> "finished"
        | Engine.Aborted m -> "aborted " ^ m
        | Engine.Livelock _ -> "livelock"
        | Engine.Out_of_cycles -> "out of cycles"
        | _ -> "other")

let test_loop_bound_minus_one_truncates () =
  let r =
    run_worker
      ~faults:
        [ Fault.Loop_bound_off_by_one
            { fproc = "worker"; select = Fault.Nth 0; delta = -1L } ]
      ()
  in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tint "one iteration (two writes) missing" 4 (List.length (drained r))

let test_faulted_software_sim_still_clean () =
  (* the software path interprets the source, so the fault is invisible
     there — the paper's headline scenario *)
  let prog = elab two_site_source in
  let faults =
    [ Fault.Stuck_stream_bit
        { fproc = "worker"; stream = "data_out"; select = Fault.All; bit = 7;
          stuck_to = true } ]
  in
  let c = Driver.compile ~strategy:Driver.baseline ~faults prog in
  let feeds, drains, params = worker_opts in
  let sw =
    Driver.software_sim
      ~options:{ Driver.default_sim_options with Driver.feeds; drains; params }
      c
  in
  check tbool "software simulation completes" true (sw.Interp.outcome = Interp.Completed);
  check tbool "software output is the clean output" true
    (List.assoc "data_out" sw.Interp.drained = drained (run_worker ()))

(* --- site enumeration --------------------------------------------------------- *)

let test_sites_cover_all_kinds () =
  let prog =
    elab
      {|
stream int32 s_in depth 16;
stream int32 s_out depth 16;

process hw kern(int32 n) {
  int32 buf[4];
  int32 i;
  int64 acc;
  acc = 0;
  for (i = 0; i < n; i = i + 1) {
    int32 x;
    x = stream_read(s_in);
    buf[i % 4] = x;
    acc = acc + x;
    if (acc > 1000000) {
      acc = 0;
    }
    stream_write(s_out, buf[i % 4]);
  }
}
|}
  in
  let c = Driver.compile ~strategy:Driver.baseline prog in
  let sites = Fault.sites c.Driver.ir in
  let count k = List.length (List.filter (fun f -> Fault.kind_name f = k) sites) in
  check tbool "narrow-compare sites" true (count "narrow-compare" >= 1);
  check tbool "read-for-write sites" true (count "read-for-write" >= 1);
  check tint "stuck-bit: two polarities per write site" 2 (count "stuck-stream-bit");
  check tint "drop-write: one per write site" 1 (count "drop-stream-write");
  check tint "loop: both deltas" 2 (count "loop-off-by-one");
  check tbool "at least the acceptance kinds" true
    (List.length (List.sort_uniq compare (List.map Fault.kind_name sites)) >= 4)

let test_sites_skip_software_procs () =
  let prog =
    elab
      {|
stream int32 s_out depth 16;

process sw host(int32 n) {
  int32 mem[4];
  mem[0] = n;
  stream_write(s_out, mem[0]);
}
|}
  in
  let c = Driver.compile ~strategy:Driver.baseline prog in
  check tint "software processes contribute no sites" 0
    (List.length (Fault.sites c.Driver.ir))

(* --- live-lock watchdog ------------------------------------------------------- *)

let spin_source =
  {|
stream int32 data_in depth 16;
stream int32 data_out depth 16;

process hw worker(int32 n) {
  int32 flags[4];
  int32 i;
  flags[0] = 0;
  for (i = 0; i < n; i = i + 1) {
    int32 v;
    v = stream_read(data_in);
    stream_write(data_out, v + 1);
  }
  flags[0] = 1;
  int32 done;
  done = flags[0];
  while (done == 0) {
    done = flags[0];
  }
}
|}

let run_spin ?watchdog () =
  run
    ~faults:[ Fault.Read_for_write { fproc = "worker"; select = Fault.Nth 1 } ]
    ?watchdog
    ~feeds:[ ("data_in", [ 1L; 2L; 3L; 4L ]) ]
    ~drains:[ "data_out" ]
    ~params:[ ("worker", [ ("n", 4L) ]) ]
    ~max_cycles:5_000 spin_source

let test_watchdog_classifies_livelock () =
  (* without the watchdog the spin burns the whole budget... *)
  let free = run_spin () in
  check tbool "no watchdog: out of cycles" true
    (free.Driver.engine.Engine.outcome = Engine.Out_of_cycles);
  (* ...with it, the spin is named in well under 10% of that budget *)
  let wd = run_spin ~watchdog:(Some 200) () in
  match wd.Driver.engine.Engine.outcome with
  | Engine.Livelock spinning ->
      check tbool "spinning process named" true
        (List.exists (fun (p, _) -> p = "worker") spinning);
      check tbool "detected in <10% of the budget" true
        (wd.Driver.engine.Engine.cycles * 10 < free.Driver.engine.Engine.cycles)
  | _ -> Alcotest.fail "watchdog did not classify the spin as live-lock"

let test_watchdog_quiet_on_clean_run () =
  let r = run_worker ~watchdog:(Some 200) () in
  check tbool "clean run unaffected by watchdog" true
    (r.Driver.engine.Engine.outcome = Engine.Finished)

let test_watchdog_waits_for_real_hang () =
  (* a genuine deadlock (empty feed) should still be reported as Hang,
     not Livelock: no activity at all trips the stronger detector *)
  let r =
    run ~watchdog:(Some 200)
      ~feeds:[ ("data_in", []) ]
      ~drains:[ "data_out" ]
      ~params:[ ("worker", [ ("n", 3L) ]) ]
      two_site_source
  in
  match r.Driver.engine.Engine.outcome with
  | Engine.Hang _ -> ()
  | Engine.Livelock _ -> Alcotest.fail "starved read misclassified as live-lock"
  | _ -> Alcotest.fail "expected a hang"

(* --- campaign ------------------------------------------------------------------ *)

let micro_workload () =
  Campaign.workload ~name:"micro"
    ~feeds:[ ("s_in", [ 5L; 9L; 13L; 17L ]) ]
    ~drains:[ "s_out" ]
    ~params:[ ("kern", [ ("n", 4L) ]) ]
    {|
stream int32 s_in depth 16;
stream int32 s_out depth 16;

process hw kern(int32 n) {
  int32 buf[4];
  int32 i;
  for (i = 0; i < n; i = i + 1) {
    int32 x;
    x = stream_read(s_in);
    assert(x < 1000);
    buf[i % 4] = x;
    stream_write(s_out, buf[i % 4] * 2);
  }
}
|}

let test_campaign_classifies_all_mutants () =
  let w = micro_workload () in
  let sites = Campaign.enumerate w in
  check tbool "several sites" true (List.length sites >= 5);
  let r = Campaign.run [ w ] in
  check tint "every site ran under every strategy"
    (List.length sites * List.length Campaign.default_strategies)
    (List.length r.Campaign.runs);
  check tint "nothing dropped" 0 r.Campaign.dropped;
  (* summaries partition the runs *)
  List.iter
    (fun (s : Campaign.strategy_summary) ->
      check tint
        ("summary total for " ^ s.Campaign.strategy)
        (List.length sites)
        (s.Campaign.by_assertion + s.Campaign.by_hang + s.Campaign.silent
       + s.Campaign.benign + s.Campaign.over_budget))
    r.Campaign.summaries

let test_campaign_detection_monotone () =
  (* instrumented strategies must detect at least as much as baseline —
     the acceptance criterion for the bundled sweep is strict *)
  let r = Campaign.run [ micro_workload () ] in
  let det name =
    Campaign.detected_of_summary
      (List.find (fun (s : Campaign.strategy_summary) -> s.Campaign.strategy = name)
         r.Campaign.summaries)
  in
  check tbool "optimized >= baseline" true (det "optimized" >= det "baseline")

let test_campaign_cap_round_robin () =
  let w = micro_workload () in
  let config = { Campaign.default_config with Campaign.max_mutants = Some 4 } in
  let r = Campaign.run ~config [ w ] in
  check tint "capped" (4 * List.length Campaign.default_strategies)
    (List.length r.Campaign.runs);
  check tbool "drop count recorded" true
    (r.Campaign.dropped = List.length (Campaign.enumerate w) - 4);
  (* round-robin: with 4 slots and >=4 kinds available, no kind hogs *)
  check tbool "multiple kinds survive the cap" true
    (List.length r.Campaign.kind_counts >= 3)

let test_campaign_render_and_json () =
  let r =
    Campaign.run
      ~config:{ Campaign.default_config with Campaign.max_mutants = Some 3 }
      [ micro_workload () ]
  in
  let table = Campaign.render r in
  check tbool "table names strategies" true
    (has_sub ~sub:"baseline" table && has_sub ~sub:"optimized" table);
  check tbool "table has the kind matrix" true
    (has_sub ~sub:"assertion coverage by fault kind" table);
  let json = Json.to_string (Campaign.json_of r) in
  check tbool "json has runs" true (has_sub ~sub:"\"runs\"" json);
  check tbool "json has strategies" true (has_sub ~sub:"\"strategies\"" json);
  check tbool "json quotes classes" true
    (has_sub ~sub:"\"class\"" json)

(* Fork-point evaluation must classify every mutant exactly like the
   from-reset path, at every job count — the whole optimization rests
   on this invariant (CI gates it on the bundled workloads too). *)
let test_campaign_fork_matches_from_reset () =
  let w = micro_workload () in
  let classes mode jobs =
    let config =
      { Campaign.default_config with Campaign.mode; jobs = Some jobs }
    in
    Campaign.render_classes (Campaign.run ~config [ w ])
  in
  let reset = classes Campaign.From_reset 1 in
  check tbool "classification map is non-empty" true (String.length reset > 0);
  List.iter
    (fun jobs ->
      check tbool
        (Printf.sprintf "fork jobs=%d matches from-reset" jobs)
        true
        (classes Campaign.Fork jobs = reset))
    [ 1; 4 ]

(* The liveness pre-filter: the micro workload feeds exactly n=4 tokens,
   so the +1 loop mutant blocks reading a 5th token on every execution
   (provable), while the -1 mutant completes with short output (not a
   hang, must stay unproved). *)
let test_prefilter_hang_verdicts () =
  let w = micro_workload () in
  let faults = Campaign.enumerate w in
  let o = w.Campaign.options in
  let verdicts =
    Faults.Prefilter.hang_verdicts ~params:o.Driver.params
      ~feeds:(List.map (fun (s, vs) -> (s, List.length vs)) o.Driver.feeds)
      ~drains:o.Driver.drains w.Campaign.program faults
  in
  check tint "one verdict per fault" (List.length faults) (List.length verdicts);
  List.iter2
    (fun f v ->
      match f with
      | Fault.Loop_bound_off_by_one { delta; _ } when delta > 0L ->
          check tbool
            ("+1 loop mutant proved hanging: " ^ Fault.describe f)
            true
            (match v with Faults.Prefilter.Certain_hang _ -> true | _ -> false)
      | Fault.Loop_bound_off_by_one _ ->
          (* -1 truncates: completes with short output, not a hang *)
          check tbool
            ("-1 loop mutant not claimed: " ^ Fault.describe f)
            true (v = Faults.Prefilter.Hang_unknown)
      | _ -> ())
    faults verdicts;
  check tbool "at least one hang proved" true
    (List.exists
       (function Faults.Prefilter.Certain_hang _ -> true | _ -> false)
       verdicts)

(* Pruning may only skip simulations, never change a classification:
   the map must be byte-identical with the pre-filter on and off. *)
let test_campaign_prune_hangs_identity () =
  let w = micro_workload () in
  let run prune =
    Campaign.run
      ~config:{ Campaign.default_config with Campaign.prune_hangs = prune }
      [ w ]
  in
  let pruned = run true and simulated = run false in
  check tbool "pre-filter proves at least one hang" true
    (pruned.Campaign.pruned_hang > 0);
  check tint "nothing pruned when disabled" 0 simulated.Campaign.pruned_hang;
  check Alcotest.string "classification map is byte-identical"
    (Campaign.render_classes simulated)
    (Campaign.render_classes pruned);
  check tbool "json reports the pruned count" true
    (has_sub ~sub:"\"pruned_hang\"" (Json.to_string (Campaign.json_of pruned)))

let test_campaign_static_prefilter_prunes () =
  (* micro's stream write is [buf[i % 4] * 2] — always even — so the
     stuck-at-0 bit-0 mutant is provably an identity and must be
     pruned (classified Benign without simulating), in both modes *)
  let w = micro_workload () in
  let run_mode mode =
    Campaign.run ~config:{ Campaign.default_config with Campaign.mode } [ w ]
  in
  let fork = run_mode Campaign.Fork in
  let reset = run_mode Campaign.From_reset in
  check tbool "some mutants pruned statically" true (fork.Campaign.pruned_static > 0);
  check tint "both modes prune identically" fork.Campaign.pruned_static
    reset.Campaign.pruned_static;
  check tbool "json reports the pruned count" true
    (has_sub ~sub:"\"pruned_static\"" (Json.to_string (Campaign.json_of fork)))

(* The plan runs as pool batches on [config.jobs] workers: on the
   bundled sweep the compile cache must see the same hits and misses
   (one miss per distinct front) and the classification map must be the
   same at every job count. *)
let test_campaign_plan_deterministic () =
  let ws = Campaign.bundled () in
  let sweep jobs =
    Exec.Cache.reset_memory ();
    let config = { Campaign.default_config with Campaign.jobs = Some jobs } in
    let classes = Campaign.render_classes (Campaign.run ~config ws) in
    let s = Exec.Cache.stats () in
    (classes, s.Exec.Cache.hits, s.Exec.Cache.misses)
  in
  let reference, _, _ = sweep 1 in
  List.iter
    (fun jobs ->
      let classes, hits, misses = sweep jobs in
      check tint (Printf.sprintf "cache hits at jobs %d" jobs) 44 hits;
      check tint (Printf.sprintf "cache misses at jobs %d" jobs) 20 misses;
      check Alcotest.string (Printf.sprintf "classes at jobs %d" jobs) reference classes)
    [ 1; 2; 4 ]

(* A plan step that fails re-raises its own exception, from the lowest
   failing workload, whatever the job count. *)
let test_campaign_plan_failure_same_at_any_jobs () =
  let starved name =
    (* four reads, two tokens: software simulation never completes *)
    let w = micro_workload () in
    {
      w with
      Campaign.wname = name;
      options = { w.Campaign.options with Driver.feeds = [ ("s_in", [ 1L; 2L ]) ] };
    }
  in
  let ws = [ micro_workload (); starved "starved1"; starved "starved2" ] in
  let raised jobs =
    match Campaign.run ~config:{ Campaign.default_config with Campaign.jobs = Some jobs } ws with
    | _ -> Alcotest.failf "jobs %d: a starved workload must not plan" jobs
    | exception Invalid_argument m -> m
  in
  let serial = raised 1 in
  check tbool "names the first starved workload" true (has_sub ~sub:"starved1" serial);
  check Alcotest.string "same exception at jobs 2" serial (raised 2)

(* --- notification routing ------------------------------------------------------ *)

let two_proc_source =
  {|
stream int32 a_out depth 16;
stream int32 b_out depth 16;

process hw p0(int32 n) {
  int32 x;
  x = n;
  assert(x > 0);
  stream_write(a_out, x);
}

process hw p1(int32 n) {
  int32 y;
  y = n;
  assert(y < 100);
  stream_write(b_out, y);
}
|}

let test_notify_per_stream_cases () =
  let c = Driver.compile ~strategy:Driver.parallelized (elab two_proc_source) in
  let src = (Driver.notification_source c) in
  (* split the generated C at the second drain loop *)
  let idx =
    let sub = "co_stream_read(__err_p1" in
    let n = String.length sub and l = String.length src in
    let rec go i =
      if i + n > l then Alcotest.fail "no __err_p1 drain loop"
      else if String.sub src i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  let first = String.sub src 0 idx in
  let second = String.sub src idx (String.length src - idx) in
  check tbool "p0's loop reports p0's assertion" true (has_sub ~sub:"`x > 0'" first);
  check tbool "p0's loop omits p1's assertion" false (has_sub ~sub:"`y < 100'" first);
  check tbool "p1's loop reports p1's assertion" true (has_sub ~sub:"`y < 100'" second);
  check tbool "p1's loop omits p0's assertion" false (has_sub ~sub:"`x > 0'" second)

let test_notify_shared_channel_words () =
  (* under 32-way sharing both assertions ride one stream: its single
     drain loop must carry both, keyed by distinct failure words *)
  let c = Driver.compile ~strategy:Driver.optimized (elab two_proc_source) in
  let src = (Driver.notification_source c) in
  check tbool "both assertions in the shared loop" true
    (has_sub ~sub:"`x > 0'" src && has_sub ~sub:"`y < 100'" src)

(* --- fault pins ----------------------------------------------------------------- *)

(* One digest per (program, strategy) over everything that decides what
   a fault site is: the {!Fault.sites} list, the IR after {!Fault.apply}
   of every site and of each kind's [All] selector, the padded program
   and its site records from {!Fault.instrument_all}, and the static
   pre-filter's verdicts.  A refactor of the site walkers must leave
   every digest unchanged. *)

module Ir = Mir.Ir

(* [Ir.proc_to_string] omits instruction types and register origins:
   append both so retyped or renamed pads move the digest too. *)
let proc_text (p : Ir.proc_ir) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Ir.proc_to_string p);
  List.iter
    (fun (r, (info : Ir.reg_info)) ->
      Printf.bprintf b "r%d:%s:%s " r (Pretty.string_of_ty info.Ir.rty)
        (Option.value ~default:"-" info.Ir.origin))
    p.Ir.regs;
  Ir.iter_segments
    (List.iter (fun (g : Ir.ginst) ->
         match g.Ir.i with
         | Ir.Bin { ty; _ } | Ir.Un { ty; _ } | Ir.Copy { ty; _ } ->
             Printf.bprintf b "%s " (Pretty.string_of_ty ty)
         | _ -> Buffer.add_string b ". "))
    p.Ir.body;
  Buffer.contents b

let all_selectors (ir : Ir.program_ir) =
  List.concat_map
    (fun (p : Ir.proc_ir) ->
      if p.Ir.kind <> Ast.Hardware then []
      else
        let fproc = p.Ir.name in
        [ Fault.Narrow_compare { fproc; select = Fault.All; mask_bits = 5 };
          Fault.Read_for_write { fproc; select = Fault.All } ]
        @ List.concat_map
            (fun (d : Ast.stream_decl) ->
              let width =
                match d.Ast.elem with
                | Ast.Tint (_, w) -> Ast.bits_of_width w
                | Ast.Tbool -> 1
                | _ -> 32
              in
              let stream = d.Ast.sname in
              [ Fault.Stuck_stream_bit
                  { fproc; stream; select = Fault.All; bit = max 1 (width / 2) - 1;
                    stuck_to = true };
                Fault.Stuck_stream_bit
                  { fproc; stream; select = Fault.All; bit = 0; stuck_to = false };
                Fault.Drop_stream_write { fproc; stream; select = Fault.All } ])
            ir.Ir.streams
        @ [ Fault.Loop_bound_off_by_one { fproc; select = Fault.All; delta = 1L };
            Fault.Loop_bound_off_by_one { fproc; select = Fault.All; delta = -1L } ])
    ir.Ir.procs

(* Returns the site count and the digest text of one lowered program. *)
let fault_digest (ir : Ir.program_ir) =
  let b = Buffer.create 65536 in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  let base = List.map (fun p -> (p, proc_text p)) ir.Ir.procs in
  let program (prog : Ir.program_ir) =
    List.iter
      (fun (p : Ir.proc_ir) ->
        line
          (match List.find_opt (fun (q, _) -> q == p) base with
          | Some (_, text) -> text
          | None -> proc_text p))
      prog.Ir.procs
  in
  let sites = Fault.sites ir in
  List.iter (fun f -> line (Fault.describe f)) sites;
  List.iter
    (fun f ->
      line ("apply " ^ Fault.describe f);
      program (Fault.apply f ir))
    (sites @ all_selectors ir);
  let inst = Fault.instrument_all ir in
  program inst.Fault.ip_prog;
  List.iter
    (fun (s : Fault.site) ->
      line
        (Printf.sprintf "%d %s %s [%s] %b" s.Fault.s_index (Fault.describe s.Fault.s_fault)
           s.Fault.s_proc
           (String.concat ";"
              (List.map (fun (n, v) -> Printf.sprintf "%s=%Ld" n v) s.Fault.s_arm))
           s.Fault.s_padded))
    inst.Fault.ip_sites;
  line
    (String.concat " "
       (List.map Faults.Prefilter.verdict_name (Faults.Prefilter.verdicts ir sites)));
  (List.length sites, Digest.string (Buffer.contents b))

let pin_of digests =
  let n = List.fold_left (fun acc (k, _) -> acc + k) 0 digests in
  Printf.sprintf "%d sites %s" n
    (Digest.to_hex (Digest.string (String.concat "" (List.map snd digests))))

(* Every group the pins cover, in a fixed order: examples × all
   strategies; the bundled campaign workloads × default strategies;
   torture programs 0-199 of run seed 42 in blocks of 50 per default
   strategy. *)
let fault_pin_groups () =
  let ir ~strategy prog = (Driver.front ~strategy prog).Driver.f_ir in
  let examples =
    Pin.example_files ()
    |> List.concat_map (fun f ->
           let prog = Typecheck.parse_and_check ~file:f (Pin.read_example f) in
           List.map
             (fun (sname, strategy) ->
               (f ^ "/" ^ sname, fun () -> [ fault_digest (ir ~strategy prog) ]))
             Driver.all_strategies)
  in
  let bundled =
    List.concat_map
      (fun (w : Campaign.workload) ->
        List.map
          (fun (sname, strategy) ->
            ( "bundled " ^ w.Campaign.wname ^ "/" ^ sname,
              fun () -> [ fault_digest (ir ~strategy w.Campaign.program) ] ))
          Campaign.default_strategies)
      (Campaign.bundled ())
  in
  let torture =
    List.concat_map
      (fun (sname, strategy) ->
        List.map
          (fun block ->
            ( Printf.sprintf "torture 42 #%d-%d/%s" (50 * block) ((50 * block) + 49) sname,
              fun () ->
                List.map
                  (fun index ->
                    let seed = Torture.Gen.program_seed ~run_seed:42L ~index in
                    let prog = Torture.Gen.generate ~seed ~fuel:Torture.Fuzz.default_fuel in
                    fault_digest (ir ~strategy prog))
                  (List.init 50 (fun i -> (50 * block) + i)) ))
          [ 0; 1; 2; 3 ])
      Campaign.default_strategies
  in
  examples @ bundled @ torture

(* Re-pin only for an intended change of the fault sites or their
   rewrites. *)
let fault_pins =
  [
    ("campaign.c/baseline", "32 sites 0d30a3bf0fc6afba027b05607459ca2e");
    ("campaign.c/unoptimized", "48 sites eda91c8423399d66457db7b9d14c5a75");
    ("campaign.c/parallelized", "32 sites 8e5bd3db6d7caa7d077a7648c94cfdab");
    ("campaign.c/optimized", "32 sites 2cde8976150bd2c1d0257e171e52a975");
    ("campaign.c/carte", "32 sites b1ae7b4c7335d36753fe17c4a88ebb99");
    ("dct.c/baseline", "12 sites 19ef2c294776ac7eb186ddc8ef9a3e76");
    ("dct.c/unoptimized", "21 sites 1f055f4622f3d86676313a84128b8ee1");
    ("dct.c/parallelized", "12 sites 108a1441bd36fc34811be719c670276a");
    ("dct.c/optimized", "12 sites e1844830721e770654bd8f343f16c2f4");
    ("dct.c/carte", "12 sites b77f58a0a3c8ba0f278baa7297475c47");
    ("deadlock.c/baseline", "10 sites 330bd6ab7938eab09e353b8b59da85cb");
    ("deadlock.c/unoptimized", "10 sites 330bd6ab7938eab09e353b8b59da85cb");
    ("deadlock.c/parallelized", "10 sites 330bd6ab7938eab09e353b8b59da85cb");
    ("deadlock.c/optimized", "10 sites 330bd6ab7938eab09e353b8b59da85cb");
    ("deadlock.c/carte", "10 sites 330bd6ab7938eab09e353b8b59da85cb");
    ("fir.c/baseline", "5 sites 4ee96e5573b4c80b7b852989c944f6a6");
    ("fir.c/unoptimized", "11 sites 86e9c31e164075261ebae500752352f6");
    ("fir.c/parallelized", "5 sites 7f52cfe3edb782cd381d45dcf9f1026f");
    ("fir.c/optimized", "5 sites 93c441ead5945dadfb9d15c0620bcf39");
    ("fir.c/carte", "5 sites 300dffea83afd419a1e50abdb8d61036");
    ("mine_demo.c/baseline", "5 sites edf3a8f9d710ef5bb96ba2d4f2878d7c");
    ("mine_demo.c/unoptimized", "8 sites 4f24383280609a796a03f560129b15b3");
    ("mine_demo.c/parallelized", "5 sites 2517850669e7c2ab13a0394f3e6c3ca1");
    ("mine_demo.c/optimized", "5 sites c0cdb663e7aeeaa4bbe2f3fb5209cce4");
    ("mine_demo.c/carte", "5 sites e6c33b3eb331600a73a7124ebb01aa43");
    ("prove_demo.c/baseline", "5 sites 8fb8fa5ecebb14096e0160f129028b03");
    ("prove_demo.c/unoptimized", "11 sites 70dddd6112ad54526af91893ee881957");
    ("prove_demo.c/parallelized", "5 sites 66327268eb3ca5f8fc03bed25bad11a1");
    ("prove_demo.c/optimized", "5 sites e3f4149b65e98655d61dede1e0e84abe");
    ("prove_demo.c/carte", "5 sites a23d8059bfafb4ffd0eca66d8b12b6c4");
    ("bundled fir/baseline", "5 sites 4ee96e5573b4c80b7b852989c944f6a6");
    ("bundled fir/unoptimized", "11 sites 86e9c31e164075261ebae500752352f6");
    ("bundled fir/parallelized", "5 sites 7f52cfe3edb782cd381d45dcf9f1026f");
    ("bundled fir/optimized", "5 sites 93c441ead5945dadfb9d15c0620bcf39");
    ("bundled dct/baseline", "12 sites 19ef2c294776ac7eb186ddc8ef9a3e76");
    ("bundled dct/unoptimized", "21 sites 1f055f4622f3d86676313a84128b8ee1");
    ("bundled dct/parallelized", "12 sites 108a1441bd36fc34811be719c670276a");
    ("bundled dct/optimized", "12 sites e1844830721e770654bd8f343f16c2f4");
    ("bundled des3/baseline", "11 sites ede83e67e659d80430d979c7d80935d5");
    ("bundled des3/unoptimized", "17 sites a57a4ed1e26402384e6dd05bcedb55b5");
    ("bundled des3/parallelized", "11 sites 4788a77b17039c50ea5b36c1530d2265");
    ("bundled des3/optimized", "11 sites 80a2dfe384bceb521ff206c530440f80");
    ("bundled edge/baseline", "11 sites bdaacb696f790bc0a6dbbecd7f758905");
    ("bundled edge/unoptimized", "17 sites 5f49e5aa21d13cc6d3efdd53edf95c71");
    ("bundled edge/parallelized", "11 sites 6e7d5af5dcff78bc546fc7a6890d977f");
    ("bundled edge/optimized", "11 sites ca26588c2beea5a94678b00f79e8e82f");
    ("bundled pulse/baseline", "28 sites 680acc7102aea3dd1e433e4fceb5a4e1");
    ("bundled pulse/unoptimized", "37 sites f30d47796a66c4c69eaaf47f5d8c7db1");
    ("bundled pulse/parallelized", "28 sites f8ce58bd6eeb639c709f5e6e13abb945");
    ("bundled pulse/optimized", "28 sites bb5f7d37da73ef71eb9751c1771d6174");
    ("torture 42 #0-49/baseline", "582 sites 734a422c71384a7f18453c0261f7cd82");
    ("torture 42 #50-99/baseline", "660 sites 22db5e510ef3c8f51142e7aceafa4b78");
    ("torture 42 #100-149/baseline", "653 sites 4c732aebbee0b2715a0f608cb375f0bb");
    ("torture 42 #150-199/baseline", "588 sites ae21dd89c4f7620dcfb28dd412ce7f80");
    ("torture 42 #0-49/unoptimized", "840 sites e8f9254cb40af35861ca7c33d0fbd48b");
    ("torture 42 #50-99/unoptimized", "927 sites a96f4f5e261f687fedbfc0042ba19aec");
    ("torture 42 #100-149/unoptimized", "917 sites 46b5246d2419b0dd1ca6c0d67a19d3a9");
    ("torture 42 #150-199/unoptimized", "805 sites 2f82df2b9983d776c5e5390078f69579");
    ("torture 42 #0-49/parallelized", "582 sites 98c6b3aafb44cfe98c877171e59fe0f6");
    ("torture 42 #50-99/parallelized", "660 sites 83941b4c7fcff798e35e2ad1e53f83b2");
    ("torture 42 #100-149/parallelized", "653 sites e6497d6b5eee0f547ea84494aa3d58a9");
    ("torture 42 #150-199/parallelized", "588 sites faf6137e7e8f882093e1a2d8950c46a3");
    ("torture 42 #0-49/optimized", "582 sites 5a7c33d394f0a4b48b6f9d4aab9df6d1");
    ("torture 42 #50-99/optimized", "660 sites 5b53550810117e8be17b222c6e2efacb");
    ("torture 42 #100-149/optimized", "653 sites e2a424b9a38d0c4784cc0f1a00678486");
    ("torture 42 #150-199/optimized", "588 sites 784b35c154c469908da3f427ce95d17f");
  ]

let test_fault_pins () =
  let got = List.map (fun (name, digests) -> (name, pin_of (digests ()))) (fault_pin_groups ()) in
  if got <> fault_pins then
    List.iter (fun (name, pin) -> Printf.printf "    (%S, %S);\n" name pin) got;
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "fault pins" fault_pins got

let () =
  Alcotest.run "faults"
    [
      ( "selector",
        [
          Alcotest.test_case "All hits every site" `Quick test_selector_all_hits_every_site;
          Alcotest.test_case "Nth hits one site" `Quick test_selector_nth_hits_one_site;
          Alcotest.test_case "out-of-range Nth is a no-op" `Quick
            test_selector_nth_out_of_range_is_noop;
          Alcotest.test_case "other procs untouched" `Quick test_apply_other_procs_untouched;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "stuck bit set" `Quick test_stuck_bit_sets_bit_in_output;
          Alcotest.test_case "stuck bit cleared" `Quick test_stuck_bit_clears_bit_in_output;
          Alcotest.test_case "dropped write advances" `Quick
            test_drop_write_advances_without_pushing;
          Alcotest.test_case "loop +1 over-reads" `Quick test_loop_bound_plus_one_over_reads;
          Alcotest.test_case "loop -1 truncates" `Quick test_loop_bound_minus_one_truncates;
          Alcotest.test_case "software sim stays clean" `Quick
            test_faulted_software_sim_still_clean;
        ] );
      ( "sites",
        [
          Alcotest.test_case "all kinds enumerated" `Quick test_sites_cover_all_kinds;
          Alcotest.test_case "software procs skipped" `Quick test_sites_skip_software_procs;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "live-lock classified fast" `Quick
            test_watchdog_classifies_livelock;
          Alcotest.test_case "quiet on clean run" `Quick test_watchdog_quiet_on_clean_run;
          Alcotest.test_case "real hang stays Hang" `Quick test_watchdog_waits_for_real_hang;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "classifies all mutants" `Quick
            test_campaign_classifies_all_mutants;
          Alcotest.test_case "detection monotone" `Quick test_campaign_detection_monotone;
          Alcotest.test_case "cap is round-robin" `Quick test_campaign_cap_round_robin;
          Alcotest.test_case "render + json" `Quick test_campaign_render_and_json;
          Alcotest.test_case "fork matches from-reset" `Quick
            test_campaign_fork_matches_from_reset;
          Alcotest.test_case "hang verdicts on micro" `Quick test_prefilter_hang_verdicts;
          Alcotest.test_case "hang pruning preserves classes" `Quick
            test_campaign_prune_hangs_identity;
          Alcotest.test_case "static pre-filter prunes" `Quick
            test_campaign_static_prefilter_prunes;
          Alcotest.test_case "plan deterministic across jobs" `Quick
            test_campaign_plan_deterministic;
          Alcotest.test_case "plan failure same at any jobs" `Quick
            test_campaign_plan_failure_same_at_any_jobs;
        ] );
      ( "notify",
        [
          Alcotest.test_case "per-stream cases" `Quick test_notify_per_stream_cases;
          Alcotest.test_case "shared channel carries all" `Quick
            test_notify_shared_channel_words;
        ] );
      ("pins", [ Alcotest.test_case "fault digests" `Quick test_fault_pins ]);
    ]
