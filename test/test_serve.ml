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

(* --- compile-artifact pins ------------------------------------------------- *)

(* What a compile renders, per example and strategy: the [inca compile]
   text and JSON report (both from one [Sched.run]), the VHDL and the
   notification C.  Rendering moved out of the compile must leave every
   digest unchanged. *)
let artifact_pin f (sname, strategy) =
  let o =
    Serve.Sched.run
      (Job.Compile
         {
           Job.c_source = Job.Path (Filename.concat (Pin.examples_dir ()) f);
           c_strategy = sname;
           c_nabort = false;
           c_ndebug = false;
           c_prune_proved = false;
           c_prune_induction = 0;
         })
  in
  let c =
    Core.Driver.compile ~strategy
      (Front.Typecheck.parse_and_check ~file:f (Pin.read_example f))
  in
  Printf.sprintf "(%S, %S, %S, %S, %S);" (f ^ "/" ^ sname)
    (Pin.hex o.Serve.Sched.sc_text)
    (Pin.hex (Report.to_string o.Serve.Sched.sc_report))
    (Pin.hex (Core.Driver.vhdl c))
    (Pin.hex (Core.Driver.notification_source c))

(* (example/strategy, compile text, compile JSON, VHDL, notification C).
   Re-pin only for an intended change of the rendered artifacts. *)
let artifact_pins =
  [
    ( "campaign.c/baseline",
      "3c231bd713c2e4ce9e804abb72881593", "b60bdb16231d551c2a297b46c822e90d",
      "4d1c54abd76ad39575b4f0d5e4df8ed4", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "campaign.c/unoptimized",
      "5b35c0188523c98f2c2eb7bf53e6d4e1", "a040e9f9e245828a60180ef5bfdeb372",
      "b3f070e0f79cc3ca2a159d77c3fbbf9b", "26acd959e6025e1cc0df96a05af9c333" );
    ( "campaign.c/parallelized",
      "4798b6170b909eb5b2ee9acb063c1b1d", "f8c47ee438365cab345fe1dc1824df05",
      "0003b6c175c55d2da4529795561bbe9a", "26acd959e6025e1cc0df96a05af9c333" );
    ( "campaign.c/optimized",
      "131d5c91c6a1b2c1361a5b674c9e07c5", "841cf90c5c342ddaf68fa787464dd008",
      "f33647e83ece00f942217744b3d8535e", "c94ec49d7187cc3a2d9804ae2311a27b" );
    ( "campaign.c/carte",
      "eae39eac3910264ecee0e7f7338759e7", "84e020d62d1242bf58230b77ce2149af",
      "d2c6b5cc07bdc79389b7bf4f7fb5be04", "5c85acb35e293fcc93a70396e7e8bc9c" );
    ( "dct.c/baseline",
      "81f8aa2bbcfe0c8116a30a7efdacada7", "35c4a8ad5614721084dffe0d87d8fe2b",
      "71f1978235617bd808c372094b61653d", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "dct.c/unoptimized",
      "70b6447c8d17aed92f5913c8dbdc7c79", "54d6a4069c852c9fa2c77a2238f10cc9",
      "5c455ccd395350fb8564c73784fca70e", "dcc56cb84516826aea908504f0787bea" );
    ( "dct.c/parallelized",
      "01dcf2752b9dec67126dacf275688c0a", "0b4c774023e0729b43f13ce5f7478685",
      "6f75c5c96ab2b08aae405af979ed832f", "dcc56cb84516826aea908504f0787bea" );
    ( "dct.c/optimized",
      "2987b753d7198e87a6e28ac2fc6e995c", "64a76cc1971d8ec2d6ea7ab7ff057bc8",
      "cd4ab34938fc3d3fa18b7e87aeb16d18", "5437eb2dc22d1204c1df65c169954302" );
    ( "dct.c/carte",
      "69ca256d48f06c9f019115994342185b", "43b7d14efaffe9f5ce78338ee15e9313",
      "671452023fef752ce9d8a0dbf2c94d0c", "59d7caeac0f80fd4da4a11ecfa6ac503" );
    ( "deadlock.c/baseline",
      "089d0dfec4f190145ba26bf1b3306375", "205370dd43f85d79745957eb03f286c6",
      "71e33ddeb867142d0910e502585dc1da", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "deadlock.c/unoptimized",
      "089d0dfec4f190145ba26bf1b3306375", "c36b3008be39e711aba03a916933eafe",
      "71e33ddeb867142d0910e502585dc1da", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "deadlock.c/parallelized",
      "089d0dfec4f190145ba26bf1b3306375", "a6bcf9173d8e49f99f0a73eb737e4602",
      "71e33ddeb867142d0910e502585dc1da", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "deadlock.c/optimized",
      "089d0dfec4f190145ba26bf1b3306375", "5f8191673e3816832d137c6642af55ec",
      "71e33ddeb867142d0910e502585dc1da", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "deadlock.c/carte",
      "089d0dfec4f190145ba26bf1b3306375", "3ac3f025271340e71a58fab111422cff",
      "71e33ddeb867142d0910e502585dc1da", "8f82c0c2dea10255b686491088d98316" );
    ( "fir.c/baseline",
      "a51fdf182c2974fe07ba2b5d9fde4754", "5151440147f92e433d1b28fa1d8a7541",
      "58ce2adde3e7d7495a868a552799960c", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "fir.c/unoptimized",
      "b267b59b46dad16c01c33767094377d3", "875036f687926cdfeb31d9824ac4124c",
      "7d93fc42ba98241e93f6cea51c868297", "e3f90e2aa38bb6fd7abd629d566cc3e9" );
    ( "fir.c/parallelized",
      "4fc33bbfddb6e13e92460ca4514ebcd6", "7b50bbe58873398b1fd7961dcf997137",
      "816cca3b7b7b1df0c391d36c7450a045", "e3f90e2aa38bb6fd7abd629d566cc3e9" );
    ( "fir.c/optimized",
      "614c0b83c42303f7144dab0f76814dd9", "eea7243da6fbe1dd72688598ce75eb48",
      "f9db453cc1cf0570a46e302e3f66e68e", "5ced469fcfbe51a675ef872341fdfae7" );
    ( "fir.c/carte",
      "11ce83c12755a00c84d33eeb1a9f5456", "da14662d397ed8352667d3351f7c2d47",
      "6024058e569d3d1eacfb41617e45c495", "5bdcbe503f14ffb04b64b55eb5b606d9" );
    ( "mine_demo.c/baseline",
      "fa604ef86ae890801a9c0fd21f99817a", "3d65d6502d6a8c03f5b56c2236f6c6b6",
      "8be33a4f7cebc0b6980d2604865ef4ca", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "mine_demo.c/unoptimized",
      "303edce799d3bae6f98a7a851e193fc9", "ef3182d26285d763041343a638ea47b3",
      "1c4a4a44e98f310f0ae77b4124739b6d", "1c557eb66ff27c5fb9b1ba1f4038721b" );
    ( "mine_demo.c/parallelized",
      "b907bd53b8dcd107b63cfb054f7dad1b", "c77b225c011b8c2ef1fe54b884f48a1d",
      "df46230034069ea4f8bf2ecc14f72a57", "1c557eb66ff27c5fb9b1ba1f4038721b" );
    ( "mine_demo.c/optimized",
      "e711dfced3a3698c68fe79112bb60bf3", "697206d28e650db49acb401f6950ba28",
      "f3ce3fa991983e193b0b12c465eb22ae", "03eed446404ee79f6561d1bb29136811" );
    ( "mine_demo.c/carte",
      "6274bdd7b214fa39c6216eb2bb975cda", "7a35c62e5b0b4ed6712fc06263b80ddd",
      "76ee4c48a5e13486fd8444ce08389acf", "50ade0269218f277a29b01d801004780" );
    ( "prove_demo.c/baseline",
      "f5e5e0c38b2c1b1cfaf229f708eda6c5", "240af7d1024f746b03e0d28d6e2b7a2a",
      "686de11bd494e013430c128894c17159", "d9730014077847c7284fc9d1d27c8ac3" );
    ( "prove_demo.c/unoptimized",
      "6f6d85887c41e434fd8aad018df203fc", "c84f030c3bd07cd55edc526156c19537",
      "9d18e949892d6e6f91135d2959b92152", "17639723b08db4f242ae706d87d357a7" );
    ( "prove_demo.c/parallelized",
      "245cf61c39693b289bca7fdf4d3c1c53", "caec451a724b30da41ea4ebcda1b328a",
      "99a636211fe41de4293647b581ae8676", "17639723b08db4f242ae706d87d357a7" );
    ( "prove_demo.c/optimized",
      "83ba2c60ef6882bfdf848b262805c839", "37c04d04fb4e2bef540de72cc2e3d410",
      "414271ebd67dcce9e5119e731e94497a", "19189583385009259704d0cbfb2db7d1" );
    ( "prove_demo.c/carte",
      "41cccbc28e4febd9bdf0380540006dee", "d5709a2ba4b123be31f32d8899d370c4",
      "06fb07c338f7aa15778e235f9b582b84", "c623c691a82fd84a03713607ed066632" );
  ]

let test_artifact_pins () =
  let got =
    List.concat_map
      (fun f -> List.map (artifact_pin f) Core.Driver.all_strategies)
      (Pin.example_files ())
  in
  let show l = String.concat "\n" l in
  Alcotest.(check string) "compile artifacts"
    (show
       (List.map
          (fun (g, t, j, v, n) -> Printf.sprintf "(%S, %S, %S, %S, %S);" g t j v n)
          artifact_pins))
    (show got)

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
      ("pins", [ Alcotest.test_case "compile artifacts" `Quick test_artifact_pins ]);
    ]
