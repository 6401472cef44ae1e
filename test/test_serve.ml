(* The serve subsystem: Job/Report codec round-trips, protocol
   tolerance (unknown fields in, version mismatches rejected with a
   diagnostic), scheduler-vs-library equivalence, and the daemon's
   survival contract over a real Unix socket (malformed requests,
   mid-job client disconnects, warm-cache resubmission), and usage
   errors for out-of-range numeric job fields (prove depth, induction
   and conflict limit; watchdog, budget, max_cycles, fuzz count and
   fuel) on both paths. *)

module Job = Core.Job
module Report = Core.Report

let fir_source () = Apps.Fir_src.source ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- generators ----------------------------------------------------------- *)

let gen_name =
  QCheck.Gen.oneofl
    [ "in"; "out"; "acc"; "a b"; "q\"uote"; "back\\slash"; "new\nline"; "tab\there" ]

let gen_i64 =
  QCheck.Gen.(
    frequency
      [
        (8, map Int64.of_int small_signed_int);
        (1, return Int64.min_int);
        (1, return Int64.max_int);
      ])

let gen_source =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Job.Path s) gen_name;
        map2 (fun name text -> Job.Text { name; text }) gen_name gen_name;
      ])

let gen_stimulus =
  QCheck.Gen.(
    let feed key = map (fun vs -> (key, vs)) (small_list gen_i64) in
    let params key = map (fun kvs -> (key, kvs)) (small_list (pair gen_name gen_i64)) in
    (* distinct outer keys: duplicate stream names would collapse in a
       JSON object *)
    map3
      (fun feeds drains params -> { Job.feeds; drains; params })
      (oneof [ return []; map (fun f -> [ f ]) (feed "s1");
               map2 (fun a b -> [ a; b ]) (feed "s1") (feed "s2") ])
      (small_list gen_name)
      (oneof [ return []; map (fun p -> [ p ]) (params "p1");
               map2 (fun a b -> [ a; b ]) (params "p1") (params "p2") ]))

let gen_job =
  QCheck.Gen.(
    let opt g = oneof [ return None; map (fun v -> Some v) g ] in
    oneof
      [
        map3
          (fun s strat (a, b, c) ->
            Job.Compile
              {
                Job.c_source = s; c_strategy = strat; c_nabort = a; c_ndebug = b;
                c_prune_proved = c; c_prune_induction = 0;
              })
          gen_source gen_name (triple bool bool bool);
        map3
          (fun srcs (strat, only, ign) ((a, b), w) ->
            Job.Check
              {
                Job.k_sources = srcs; k_strategy = strat; k_nabort = a; k_ndebug = b;
                k_only = only; k_ignore = ign; k_watchdog = w;
              })
          (small_list gen_source)
          (triple gen_name (opt (small_list gen_name)) (opt (small_list gen_name)))
          (pair (pair bool bool) (opt small_nat))
        |> map (fun j -> j);
        map3
          (fun srcs (d, i, c) (a, j) ->
            Job.Prove
              {
                Job.p_sources = srcs; p_depth = d; p_induction = i; p_assertion = a;
                p_conflict_limit = c; p_jobs = j;
              })
          (small_list gen_source) (triple small_nat small_nat small_nat)
          (pair (opt small_nat) (opt small_nat));
        map3
          (fun src st ((b, w, m, j), ((fr, mc), ph)) ->
            Job.Campaign
              {
                Job.a_source = src; a_stimulus = st; a_budget = b; a_watchdog = w;
                a_max_mutants = m; a_jobs = j; a_from_reset = fr; a_max_cycles = mc;
                a_prune_hangs = ph;
              })
          (opt gen_source) gen_stimulus
          (pair
             (quad (opt small_nat) (opt small_nat) (opt small_nat) (opt small_nat))
             (pair (pair bool small_nat) bool));
        map3
          (fun (src, strat) st ((t, c), (m, b, j, e)) ->
            Job.Mine
              {
                Job.m_source = src; m_strategy = strat; m_stimulus = st; m_top = t;
                m_max_candidates = c; m_max_mutants = m; m_budget = b; m_jobs = j;
                m_emit = e;
              })
          (pair gen_source gen_name) gen_stimulus
          (pair (pair small_nat small_nat)
             (quad (opt small_nat) (opt small_nat) (opt small_nat) bool));
        map3
          (fun seed (c, f, mc, w) (bd, cd, j) ->
            Job.Fuzz
              {
                Job.z_seed = seed; z_count = c; z_fuel = f; z_max_cycles = mc;
                z_watchdog = w; z_bmc_depth = bd; z_corpus_dir = cd; z_jobs = j;
              })
          gen_i64
          (quad (opt small_nat) (opt small_nat) (opt small_nat) (opt small_nat))
          (triple (opt small_nat) (opt gen_name) (opt small_nat));
      ])

let rec gen_json n =
  QCheck.Gen.(
    if n = 0 then
      oneof
        [ return Json.Null; map (fun b -> Json.Bool b) bool; map Json.i64 gen_i64;
          map Json.str gen_name ]
    else
      oneof
        [
          gen_json 0;
          map (fun l -> Json.List l) (list_size (int_bound 3) (gen_json (n - 1)));
          map
            (fun l -> Json.Obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) l))
            (list_size (int_bound 3) (gen_json (n - 1)));
        ])

let gen_report =
  QCheck.Gen.(
    map3
      (fun kind (code, err) payload ->
        { Report.kind; exit_code = code; payload; error = err })
      (oneofl [ "compile"; "check"; "prove"; "campaign"; "mine"; "fuzz" ])
      (pair (int_bound 3) (oneof [ return None; map (fun m -> Some m) gen_name ]))
      (gen_json 2))

(* --- codec round-trips ----------------------------------------------------- *)

let job_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Job.of_json (Job.to_json j) = Ok j"
    (QCheck.make gen_job)
    (fun j -> Job.of_json (Job.to_json j) = Ok j)

let job_roundtrip_via_text =
  QCheck.Test.make ~count:300 ~name:"job codec survives print+parse"
    (QCheck.make gen_job)
    (fun j ->
      match Json.parse (Json.to_string (Job.to_json j)) with
      | Ok j' -> Job.of_json j' = Ok j
      | Error _ -> false)

let report_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Report.of_string (Report.to_string r) = Ok r"
    (QCheck.make gen_report)
    (fun r -> Report.of_string (Report.to_string r) = Ok r)

let test_unknown_fields_tolerated () =
  let j =
    Json.Obj
      [
        ("kind", Json.str "fuzz");
        ("seed", Json.int 7);
        ("some_future_field", Json.str "ignored");
        ("another", Json.List [ Json.int 1 ]);
      ]
  in
  (match Job.of_json j with
  | Ok (Job.Fuzz z) -> Alcotest.(check int64) "seed kept" 7L z.Job.z_seed
  | Ok _ -> Alcotest.fail "decoded to the wrong kind"
  | Error e -> Alcotest.fail ("unknown fields rejected: " ^ e));
  (* the event decoder tolerates unknown fields too *)
  let line =
    {|{"schema_version": 1, "id": "x", "event": "progress", "seq": 3, "label": "l", "data": null, "extra": true}|}
  in
  match Serve.Proto.decode_event line with
  | Ok (id, Serve.Proto.Progress p) ->
      Alcotest.(check string) "id" "x" id;
      Alcotest.(check int) "seq" 3 p.seq
  | _ -> Alcotest.fail "progress event with extra field rejected"

let test_version_mismatch_rejected () =
  let req =
    Json.Obj
      [
        ("schema_version", Json.int 99);
        ("id", Json.str "r1");
        ("job", Json.Obj [ ("kind", Json.str "fuzz") ]);
      ]
  in
  (match Serve.Proto.decode_request req with
  | Error m ->
      Alcotest.(check bool)
        "diagnostic names the versions" true
        (contains ~sub:"schema_version mismatch" m
         || (String.length m >= 22 && String.sub m 0 22 = "schema_version mismatc"))
  | Ok _ -> Alcotest.fail "version 99 accepted");
  (* envelope form requires the version *)
  (match
     Serve.Proto.decode_request
       (Json.Obj [ ("job", Json.Obj [ ("kind", Json.str "fuzz") ]) ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "envelope without schema_version accepted");
  (* report envelopes too *)
  match Report.of_string {|{"schema_version": 2, "kind": "check", "report": {}}|} with
  | Error m ->
      Alcotest.(check bool)
        "mentions schema_version" true
        (String.length m > 0 && String.sub m 0 14 = "schema_version")
  | Ok _ -> Alcotest.fail "future report version accepted"

let test_bare_job_request () =
  let j =
    Json.Obj
      [
        ("kind", Json.str "check");
        ("sources", Json.List [ Json.Obj [ ("path", Json.str "x.c") ] ]);
      ]
  in
  match Serve.Proto.decode_request j with
  | Ok r ->
      Alcotest.(check string) "default id" "-" r.Serve.Proto.req_id;
      Alcotest.(check string) "kind" "check" (Job.kind r.Serve.Proto.req_job)
  | Error e -> Alcotest.fail e

(* [inca jobs] documents exactly the keys the codec writes: for each
   kind, a job with every optional field set encodes to the documented
   key set (plus "kind"). *)
let full_jobs =
  let src = Job.Path "x.c" in
  let stim = Job.empty_stimulus in
  [
    Job.Compile
      {
        Job.c_source = src; c_strategy = "optimized"; c_nabort = false; c_ndebug = false;
        c_prune_proved = false; c_prune_induction = 0;
      };
    Job.Check
      {
        Job.k_sources = [ src ]; k_strategy = "optimized"; k_nabort = false;
        k_ndebug = false; k_only = Some [ "INCA-L104" ]; k_ignore = Some [];
        k_watchdog = Some 10;
      };
    Job.Prove
      {
        Job.p_sources = [ src ]; p_depth = 4; p_induction = 2; p_assertion = Some 0;
        p_conflict_limit = 10; p_jobs = Some 1;
      };
    Job.Campaign
      {
        Job.a_source = Some src; a_stimulus = stim; a_budget = Some 1; a_watchdog = Some 1;
        a_max_mutants = Some 1; a_jobs = Some 1; a_from_reset = false; a_max_cycles = 1;
        a_prune_hangs = true;
      };
    Job.Mine
      {
        Job.m_source = src; m_strategy = "parallelized"; m_stimulus = stim; m_top = 1;
        m_max_candidates = 1; m_max_mutants = Some 1; m_budget = Some 1; m_jobs = Some 1;
        m_emit = false;
      };
    Job.Fuzz
      {
        Job.z_seed = 1L; z_count = Some 1; z_fuel = Some 1; z_max_cycles = Some 1;
        z_watchdog = Some 1; z_bmc_depth = Some 1; z_corpus_dir = Some "d"; z_jobs = Some 1;
      };
  ]

let test_schema_matches_codec () =
  let keys j = List.sort compare (List.map fst (Option.get (Json.get_obj j))) in
  let documented = Option.get (Json.member "jobs" (Serve.Proto.describe ())) in
  Alcotest.(check (list string)) "every kind documented"
    (List.sort compare (List.map Job.kind full_jobs))
    (keys documented);
  List.iter
    (fun job ->
      let kind = Job.kind job in
      Alcotest.(check (list string)) (kind ^ " keys")
        (List.filter (( <> ) "kind") (keys (Job.to_json job)))
        (keys (Option.get (Json.member kind documented))))
    full_jobs

(* --- scheduler ------------------------------------------------------------- *)

let campaign_job ~jobs =
  Job.Campaign
    {
      Job.a_source = Some (Job.Text { name = "fir.c"; text = fir_source () });
      a_stimulus = Job.empty_stimulus;
      a_budget = None;
      a_watchdog = None;
      a_max_mutants = Some 6;
      a_jobs = jobs;
      a_from_reset = false;
      a_max_cycles = 1_000_000;
      a_prune_hangs = true;
    }

(* the scheduled campaign payload is byte-for-byte the library's own
   report JSON, and sharding doesn't change it *)
let test_sched_campaign_matches_library () =
  let prog = Front.Typecheck.parse_and_check ~file:"fir.c" (fir_source ()) in
  let o = Mine.Trace.auto_options prog in
  let workloads =
    [
      {
        Campaign.wname = "fir";
        program = prog;
        options =
          {
            Core.Driver.default_sim_options with
            Core.Driver.feeds = o.Core.Driver.feeds;
            drains = o.Core.Driver.drains;
            params = o.Core.Driver.params;
            max_cycles = 1_000_000;
          };
      };
    ]
  in
  let config =
    { Campaign.default_config with Campaign.max_mutants = Some 6; jobs = Some 2 }
  in
  let direct = Campaign.run ~config workloads in
  let events = ref [] in
  let sched =
    Serve.Sched.run
      ~progress:(fun ~label ~data:_ -> events := label :: !events)
      (campaign_job ~jobs:(Some 2))
  in
  let serial = Serve.Sched.run (campaign_job ~jobs:(Some 1)) in
  Alcotest.(check string)
    "payload = Campaign.json_of"
    (Json.to_string (Campaign.json_of direct))
    (Json.to_string sched.Serve.Sched.sc_report.Report.payload);
  Alcotest.(check string)
    "sharded = serial"
    (Report.to_string serial.Serve.Sched.sc_report)
    (Report.to_string sched.Serve.Sched.sc_report);
  Alcotest.(check int)
    "one progress event per mutant run"
    (List.length direct.Campaign.runs)
    (List.length !events)

(* a certainly-deadlocking two-process design (the examples/deadlock.c
   shape): INCA-L106 error, used to exercise the check code filters *)
let starved_source =
  "stream int32 a depth 4;\n\
   stream int32 b depth 4;\n\
   process hw prod() {\n\
  \  int32 i;\n\
  \  for (i = 0; i < 8; i = i + 1) {\n\
  \    stream_write(a, i);\n\
  \  }\n\
   }\n\
   process hw cons() {\n\
  \  int32 i;\n\
  \  for (i = 0; i < 9; i = i + 1) {\n\
  \    int32 x;\n\
  \    x = stream_read(a);\n\
  \    stream_write(b, x);\n\
  \  }\n\
   }\n"

let filtered_check_job ~only ~ignore_ =
  Job.Check
    {
      Job.k_sources =
        [
          Job.Text { name = "fir.c"; text = fir_source () };
          Job.Text { name = "starved.c"; text = starved_source };
        ];
      k_strategy = "optimized";
      k_nabort = false;
      k_ndebug = false;
      k_only = only;
      k_ignore = ignore_;
      k_watchdog = None;
    }

let test_sched_check_filters_and_determinism () =
  let run job = Serve.Sched.run job in
  let unfiltered = run (filtered_check_job ~only:None ~ignore_:None) in
  Alcotest.(check int) "deadlock fails the check" 1
    unfiltered.Serve.Sched.sc_report.Report.exit_code;
  (* the scheduled check is deterministic: identical text and envelope
     on every run *)
  let again = run (filtered_check_job ~only:None ~ignore_:None) in
  Alcotest.(check string) "rendered text is byte-identical"
    unfiltered.Serve.Sched.sc_text again.Serve.Sched.sc_text;
  Alcotest.(check string) "report envelope is byte-identical"
    (Report.to_string unfiltered.Serve.Sched.sc_report)
    (Report.to_string again.Serve.Sched.sc_report);
  (* --only the liveness family: still fails (L106 is kept), and no
     other code appears in the rendered output *)
  let only =
    run (filtered_check_job ~only:(Some [ "INCA-L106"; "INCA-L107" ]) ~ignore_:None)
  in
  Alcotest.(check int) "liveness-only leg still fails" 1
    only.Serve.Sched.sc_report.Report.exit_code;
  Alcotest.(check bool) "L106 survives --only" true
    (contains ~sub:"INCA-L106" only.Serve.Sched.sc_text);
  Alcotest.(check bool) "L103 filtered by --only" false
    (contains ~sub:"INCA-L103" only.Serve.Sched.sc_text);
  (* --ignore the deadlock code: the error disappears and check passes *)
  let ignored =
    run (filtered_check_job ~only:None ~ignore_:(Some [ "INCA-L106" ]))
  in
  Alcotest.(check int) "ignoring the deadlock code passes" 0
    ignored.Serve.Sched.sc_report.Report.exit_code;
  Alcotest.(check bool) "L106 dropped by --ignore" false
    (contains ~sub:"INCA-L106" ignored.Serve.Sched.sc_text)

let test_sched_failures_are_reports () =
  (* missing file: a failure report, not an exception *)
  let o =
    Serve.Sched.run
      (Job.Compile
         {
           Job.c_source = Job.Path "/nonexistent/nope.c";
           c_strategy = "optimized";
           c_nabort = false;
           c_ndebug = false;
           c_prune_proved = false;
           c_prune_induction = 0;
         })
  in
  Alcotest.(check bool) "nonzero exit" true (o.Serve.Sched.sc_report.Report.exit_code <> 0);
  Alcotest.(check bool) "error set" true (o.Serve.Sched.sc_report.Report.error <> None);
  (* and the envelope still serializes with schema_version + error *)
  let s = Report.to_string o.Serve.Sched.sc_report in
  Alcotest.(check bool) "has schema_version" true
    (contains ~sub:"\"schema_version\"" s);
  Alcotest.(check bool) "has error" true (contains ~sub:"\"error\"" s);
  (* unknown strategy: a usage error, exit 1 *)
  let o =
    Serve.Sched.run
      (Job.Mine
         {
           Job.m_source = Job.Text { name = "t.c"; text = fir_source () };
           m_strategy = "warp-speed";
           m_stimulus = Job.empty_stimulus;
           m_top = 3;
           m_max_candidates = 2;
           m_max_mutants = Some 2;
           m_budget = None;
           m_jobs = Some 1;
           m_emit = false;
         })
  in
  Alcotest.(check int) "usage exit 1" 1 o.Serve.Sched.sc_report.Report.exit_code

(* Out-of-range prove parameters: each is a usage error naming the
   field, refused before any source is compiled. *)
let bad_prove_params =
  [
    ("depth", -3, 4, 200_000);
    ("depth", 0, 4, 200_000);
    ("induction", 8, -1, 200_000);
    ("conflict_limit", 8, 4, 0);
  ]

let prove_job ~depth ~induction ~conflict_limit =
  Job.Prove
    {
      Job.p_sources = [ Job.Text { name = "fir.c"; text = fir_source () } ];
      p_depth = depth;
      p_induction = induction;
      p_assertion = None;
      p_conflict_limit = conflict_limit;
      p_jobs = Some 1;
    }

let check_prove_refused field (rep : Report.t) =
  Alcotest.(check int) (field ^ ": usage exit 1") 1 rep.Report.exit_code;
  Alcotest.(check bool) (field ^ ": error names the field") true
    (match rep.Report.error with
    | Some m -> contains ~sub:(Printf.sprintf "prove: %s must be at least" field) m
    | None -> false)

(* Other out-of-range numeric job fields, refused the same way as on
   the CLI: a watchdog window, a cycle budget, a max_cycles or a fuzz
   count below one, or a fuzz fuel below zero.  (kind, field, least
   allowed value, bad value, the job's other JSON fields); the sources
   do not exist, so a job that is not refused fails differently. *)
let bad_fields =
  let sources = {|"sources": [{"path": "nope.c"}]|}
  and source = {|"source": {"path": "nope.c"}|}
  and fuzz = {|"seed": 1, "count": 1|} in
  List.concat_map
    (fun w ->
      [
        ("check", "watchdog", 1, w, sources);
        ("campaign", "watchdog", 1, w, source);
        ("fuzz", "watchdog", 1, w, fuzz);
      ])
    [ 0; -5 ]
  @ [
      ("campaign", "budget", 1, 0, source);
      ("campaign", "budget", 1, -3, source);
      ("campaign", "max_cycles", 1, 0, source);
      ("mine", "budget", 1, 0, source);
      ("fuzz", "count", 1, -1, {|"seed": 1|});
      ("fuzz", "count", 1, 0, {|"seed": 1|});
      ("fuzz", "fuel", 0, -1, fuzz);
      ("fuzz", "max_cycles", 1, 0, fuzz);
    ]

let field_job_line kind field v fields =
  Printf.sprintf {|{"schema_version": %d, "job": {"kind": "%s", %s, "%s": %d}}|}
    Report.schema_version kind fields field v

let check_field_refused kind field min (rep : Report.t) =
  let what = Printf.sprintf "%s %s" kind field in
  Alcotest.(check int) (what ^ ": usage exit 1") 1 rep.Report.exit_code;
  Alcotest.(check bool) (what ^ ": error names the field") true
    (match rep.Report.error with
    | Some m -> contains ~sub:(Printf.sprintf "%s: %s must be at least %d" kind field min) m
    | None -> false)

let test_sched_prove_params_refused () =
  List.iter
    (fun (field, depth, induction, conflict_limit) ->
      let o = Serve.Sched.run (prove_job ~depth ~induction ~conflict_limit) in
      check_prove_refused field o.Serve.Sched.sc_report)
    bad_prove_params;
  List.iter
    (fun (kind, field, min, v, fields) ->
      match
        Result.bind (Json.parse (field_job_line kind field v fields)) Serve.Proto.decode_request
      with
      | Ok req ->
          check_field_refused kind field min
            (Serve.Sched.run req.Serve.Proto.req_job).Serve.Sched.sc_report
      | Error e -> Alcotest.fail e)
    bad_fields

(* --- the daemon over a real socket ----------------------------------------- *)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "inca-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

let check_job =
  Job.Check
    {
      Job.k_sources = [ Job.Text { name = "fir.c"; text = fir_source () } ];
      k_strategy = "optimized";
      k_nabort = false;
      k_ndebug = false;
      k_only = None;
      k_ignore = None;
      k_watchdog = None;
    }

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_send fd line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s))

let raw_read_line fd =
  let b = Buffer.create 256 in
  let c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> Buffer.contents b
    | _ ->
        if Bytes.get c 0 = '\n' then Buffer.contents b
        else begin
          Buffer.add_char b (Bytes.get c 0);
          go ()
        end
  in
  go ()

let test_daemon_end_to_end () =
  let socket = fresh_socket () in
  let t = Serve.Server.start ~socket () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists socket then Serve.Server.stop t)
  @@ fun () ->
  (* a well-formed job comes back as a report *)
  (match Serve.Server.request ~socket check_job with
  | Ok (rep, _) ->
      Alcotest.(check string) "kind" "check" rep.Report.kind;
      Alcotest.(check int) "exit 0" 0 rep.Report.exit_code
  | Error e -> Alcotest.fail e);
  (* a malformed line gets an error event and the daemon survives *)
  let fd = raw_connect socket in
  raw_send fd "this is not json";
  let line = raw_read_line fd in
  Unix.close fd;
  (match Serve.Proto.decode_event line with
  | Ok (_, Serve.Proto.Failed _) -> ()
  | _ -> Alcotest.fail ("expected an error event, got: " ^ line));
  (* a client that vanishes mid-job doesn't kill the daemon or the job *)
  let fd = raw_connect socket in
  raw_send fd
    (Json.to_string
       (Json.Obj
          [
            ("schema_version", Json.int Report.schema_version);
            ("job", Job.to_json check_job);
          ]));
  Unix.close fd;
  (* an undecodable request (bad version) also gets a diagnostic *)
  let fd = raw_connect socket in
  raw_send fd {|{"schema_version": 42, "id": "v", "job": {"kind": "fuzz"}}|};
  let line = raw_read_line fd in
  Unix.close fd;
  (match Serve.Proto.decode_event line with
  | Ok (id, Serve.Proto.Failed f) ->
      Alcotest.(check string) "id echoed" "v" id;
      Alcotest.(check bool) "names the mismatch" true
        (contains ~sub:"schema_version mismatch" f.message)
  | _ -> Alcotest.fail ("expected an error event, got: " ^ line));
  (* still alive: same job again, warm this time *)
  (match Serve.Server.request ~socket check_job with
  | Ok (rep, cache) ->
      Alcotest.(check int) "exit 0 after abuse" 0 rep.Report.exit_code;
      Alcotest.(check bool) "warm cache hit" true
        (cache.Serve.Proto.cd_memory_hits + cache.Serve.Proto.cd_disk_hits > 0)
  | Error e -> Alcotest.fail e);
  Serve.Server.stop t;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)

let test_daemon_campaign_identical_and_warm () =
  let socket = fresh_socket () in
  let t = Serve.Server.start ~socket () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists socket then Serve.Server.stop t)
  @@ fun () ->
  let progress = ref 0 in
  let first =
    Serve.Server.request ~socket
      ~on_progress:(fun ~seq:_ ~label:_ ~data:_ -> incr progress)
      (campaign_job ~jobs:None)
  in
  let second = Serve.Server.request ~socket (campaign_job ~jobs:None) in
  (match (first, second) with
  | Ok (r1, _), Ok (r2, cache) ->
      Alcotest.(check string) "resubmission byte-identical" (Report.to_string r1)
        (Report.to_string r2);
      Alcotest.(check bool) "progress streamed" true (!progress > 0);
      Alcotest.(check bool) "second submission warm" true
        (cache.Serve.Proto.cd_memory_hits + cache.Serve.Proto.cd_disk_hits > 0)
  | Error e, _ | _, Error e -> Alcotest.fail e);
  Serve.Server.stop t

(* The same refusal for Job JSON written by a client on the socket. *)
let test_daemon_prove_params_refused () =
  let socket = fresh_socket () in
  let t = Serve.Server.start ~socket () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists socket then Serve.Server.stop t)
  @@ fun () ->
  List.iter
    (fun (field, depth, induction, conflict_limit) ->
      let fd = raw_connect socket in
      raw_send fd
        (Printf.sprintf
           {|{"schema_version": %d, "job": {"kind": "prove", "sources": [{"path": "nope.c"}], "depth": %d, "induction": %d, "conflict_limit": %d}}|}
           Report.schema_version depth induction conflict_limit);
      let line = raw_read_line fd in
      Unix.close fd;
      match Serve.Proto.decode_event line with
      | Ok (_, Serve.Proto.Done { report; _ }) -> check_prove_refused field report
      | _ -> Alcotest.fail ("expected a report, got: " ^ line))
    bad_prove_params;
  List.iter
    (fun (kind, field, min, v, fields) ->
      let fd = raw_connect socket in
      raw_send fd (field_job_line kind field v fields);
      let line = raw_read_line fd in
      Unix.close fd;
      match Serve.Proto.decode_event line with
      | Ok (_, Serve.Proto.Done { report; _ }) -> check_field_refused kind field min report
      | _ -> Alcotest.fail ("expected a report, got: " ^ line))
    bad_fields;
  Serve.Server.stop t

let test_stale_socket_reclaimed () =
  let socket = fresh_socket () in
  (* leave a dead socket file behind *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;
  Alcotest.(check bool) "stale file exists" true (Sys.file_exists socket);
  let t = Serve.Server.start ~socket () in
  (match Serve.Server.request ~socket check_job with
  | Ok (rep, _) -> Alcotest.(check int) "served over reclaimed socket" 0 rep.Report.exit_code
  | Error e -> Alcotest.fail e);
  Serve.Server.stop t

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest job_roundtrip;
          QCheck_alcotest.to_alcotest job_roundtrip_via_text;
          QCheck_alcotest.to_alcotest report_roundtrip;
          Alcotest.test_case "unknown fields tolerated" `Quick
            test_unknown_fields_tolerated;
          Alcotest.test_case "version mismatch rejected" `Quick
            test_version_mismatch_rejected;
          Alcotest.test_case "bare job request form" `Quick test_bare_job_request;
          Alcotest.test_case "jobs schema = codec keys" `Quick test_schema_matches_codec;
        ] );
      ( "sched",
        [
          Alcotest.test_case "campaign payload = library report" `Quick
            test_sched_campaign_matches_library;
          Alcotest.test_case "check filters + determinism" `Quick
            test_sched_check_filters_and_determinism;
          Alcotest.test_case "failures are reports" `Quick
            test_sched_failures_are_reports;
          Alcotest.test_case "out-of-range prove parameters refused" `Quick
            test_sched_prove_params_refused;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end over a socket" `Quick test_daemon_end_to_end;
          Alcotest.test_case "campaign identical + warm resubmit" `Quick
            test_daemon_campaign_identical_and_warm;
          Alcotest.test_case "stale socket reclaimed" `Quick
            test_stale_socket_reclaimed;
          Alcotest.test_case "out-of-range prove parameters refused" `Quick
            test_daemon_prove_params_refused;
        ] );
    ]
