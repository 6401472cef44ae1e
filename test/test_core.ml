(* Core library tests: assertion extraction, instrumentation,
   parallelization, replication, channel sharing, notification, the
   end-to-end driver — and the Table 3/4 latency/rate regressions. *)

open Front
module Engine = Sim.Engine
module Driver = Core.Driver

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let elab = Typecheck.parse_and_check ~file:"app.c"

(* --- Extraction ------------------------------------------------------------ *)

let two_assert_src =
  {| stream int32 inp depth 8; stream int32 out depth 8;
     process hw alpha() {
       int32 x; x = stream_read(inp);
       assert(x > 0);
       stream_write(out, x);
     }
     process hw beta() {
       int32 y; y = stream_read(out);
       assert(y < 100);
     } |}

let test_extract () =
  let asserts = Core.Assertion.extract (elab two_assert_src) in
  check tint "two assertions" 2 (List.length asserts);
  let a = List.nth asserts 0 and b = List.nth asserts 1 in
  check tint "ids sequential" 1 (b.Core.Assertion.id - a.Core.Assertion.id);
  check tstr "proc of first" "alpha" a.Core.Assertion.aproc;
  check tstr "text of first" "x > 0" a.Core.Assertion.text

let test_message_format () =
  let asserts = Core.Assertion.extract (elab two_assert_src) in
  let a = List.hd asserts in
  check tstr "ANSI format" "app.c:4: alpha: Assertion `x > 0' failed."
    (Core.Assertion.message a)

let test_sw_procs_not_extracted () =
  let src = "process sw host() { assert(false); } process hw dev() { assert(true); }" in
  let asserts = Core.Assertion.extract (elab src) in
  check tint "hardware assertions only" 1 (List.length asserts)

(* --- eval_slots -------------------------------------------------------------- *)

let eval_slots_matches_interp =
  QCheck.Test.make ~count:200 ~name:"checker condition evaluation matches C semantics"
    QCheck.(triple int32 int32 (oneofl [ ">"; "<"; "=="; "!="; ">="; "<=" ]))
    (fun (a, b, op) ->
      let src =
        Printf.sprintf "process hw m() { int32 p; int32 q; p = (%ld); q = (%ld); assert(p %s q); }"
          a b op
      in
      let prog = elab src in
      let _, specs = Core.Parallelize.transform prog in
      let spec = List.hd specs in
      let holds =
        Core.Assertion.holds spec.Core.Parallelize.cond
          [| Int64.of_int32 a; Int64.of_int32 b |]
      in
      let expected =
        match op with
        | ">" -> a > b | "<" -> a < b | "==" -> a = b
        | "!=" -> a <> b | ">=" -> a >= b | _ -> a <= b
      in
      holds = expected)

(* --- Compiled checker conditions ---------------------------------------------- *)

(* dune runtest runs from _build/default/test; dune exec from the root *)
let example path =
  List.find Sys.file_exists [ Filename.concat ".." path; path; Filename.concat "../.." path ]

(* Every parallelized assertion condition of the bundled applications
   and the torture corpus, with its slot count. *)
let checker_conds =
  lazy
    (let corpus =
       List.map
         (fun path ->
           Typecheck.parse_and_check ~file:(Filename.basename path)
             (Torture.Corpus.load path).Torture.Corpus.source)
         (Torture.Corpus.files (example Torture.Corpus.default_dir))
     in
     List.concat_map
       (fun prog ->
         let _, specs = Core.Parallelize.transform prog in
         List.map
           (fun (s : Core.Parallelize.checker_spec) ->
             (s.Core.Parallelize.cond, List.length s.Core.Parallelize.slots))
           specs)
       (List.map (fun (w : Campaign.workload) -> w.Campaign.program) (Campaign.bundled ())
       @ corpus))

let word_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ 0L; 1L; -1L; 2L; 255L; 4095L; 0x7fffffffL; -0x80000000L; 0xffffffffL;
                     Int64.max_int; Int64.min_int ]);
        (3, map Int64.of_int small_signed_int);
        (2, ui64);
      ])

(* Both evaluators on the same slots: equal verdicts, or the same
   [Invalid_argument]. *)
let same_verdict cond slots =
  let run f = match f () with b -> Ok b | exception Invalid_argument m -> Error m in
  let compiled = Core.Assertion.compile cond in
  run (fun () -> compiled slots) = run (fun () -> Core.Assertion.holds cond slots)

let compiled_checker_matches_eval_slots =
  QCheck.Test.make ~count:100 ~name:"compiled checker condition = eval_slots"
    (QCheck.make QCheck.Gen.(list_repeat 16 word_gen))
    (fun words ->
      let words = Array.of_list words in
      List.for_all
        (fun (cond, n) ->
          let n = min n (Array.length words) in
          (* one slot short exercises the deferred free-variable error *)
          same_verdict cond (Array.sub words 0 n)
          && (n = 0 || same_verdict cond (Array.sub words 0 (n - 1))))
        (Lazy.force checker_conds))

let test_compile_defers_free_variable () =
  let prog = elab "process hw m() { int32 x; x = 1; assert(x > 0); }" in
  let cond = (List.hd (Core.Assertion.extract prog)).Core.Assertion.cond in
  (* [x] is not a slot: building succeeds, evaluating raises *)
  let compiled = Core.Assertion.compile cond in
  check tbool "raises Invalid_argument at evaluation" true
    (match compiled [| 1L |] with _ -> false | exception Invalid_argument _ -> true);
  check tbool "the corpus has conditions" true (Lazy.force checker_conds <> [])

(* --- Parallelize ------------------------------------------------------------- *)

let test_parallelize_slots_dedup () =
  let src = "process hw m() { int32 x; int32 y; x = 1; y = 2; assert(x + y > x * 2); }" in
  let _, specs = Core.Parallelize.transform (elab src) in
  let spec = List.hd specs in
  (* x appears twice but gets one slot; y one slot *)
  check tint "two slots" 2 (List.length spec.Core.Parallelize.slots)

let test_parallelize_replaces_assert_with_tap () =
  let prog', _ = Core.Parallelize.transform (elab two_assert_src) in
  let no_asserts =
    List.for_all
      (fun (p : Ast.proc) -> Ast.assertions_of p.Ast.body = [])
      prog'.Ast.procs
  in
  check tbool "asserts gone" true no_asserts;
  let taps = ref 0 in
  List.iter
    (fun (p : Ast.proc) ->
      Ast.iter_stmts
        (fun st -> match st.Ast.s with Ast.Tapstmt _ -> incr taps | _ -> ())
        p.Ast.body)
    prog'.Ast.procs;
  check tint "taps inserted" 2 !taps

let test_parallelize_array_leaf () =
  let src = "process hw m() { int32 a[4]; a[0] = 1; assert(a[0] > 0); }" in
  let _, specs = Core.Parallelize.transform (elab src) in
  let spec = List.hd specs in
  match (List.hd spec.Core.Parallelize.slots).Ast.e with
  | Ast.Index ("a", _) -> ()
  | _ -> Alcotest.fail "array read should be a slot"

(* --- Replicate ----------------------------------------------------------------- *)

let test_replicate_redirects_taps () =
  let src = "process hw m() { int32 a[4]; a[0] = 1; assert(a[0] > 0); }" in
  let prog', _ = Core.Parallelize.transform (elab src) in
  let p', mirrors = Core.Replicate.transform_proc (List.hd prog'.Ast.procs) in
  check tbool "mirror table" true (mirrors = [ ("a", "a__rep") ]);
  let redirected = ref false in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s with
      | Ast.Tapstmt (_, args) ->
          List.iter
            (fun (e : Ast.expr) ->
              match e.Ast.e with Ast.Index ("a__rep", _) -> redirected := true | _ -> ())
            args
      | _ -> ())
    p'.Ast.body;
  check tbool "tap reads replica" true !redirected

let test_replicate_scalar_only_no_mirror () =
  let src = "process hw m() { int32 x; x = 1; assert(x > 0); }" in
  let prog', _ = Core.Parallelize.transform (elab src) in
  let _, mirrors = Core.Replicate.transform_proc (List.hd prog'.Ast.procs) in
  check tbool "no mirrors for scalars" true (mirrors = [])

(* --- Share ---------------------------------------------------------------------- *)

let mk_asserts n =
  List.init n (fun i ->
      {
        Core.Assertion.id = i;
        aproc = Printf.sprintf "p%d" (i mod 7);
        aloc = Loc.none;
        text = "x > 0";
        cond = Ast.mk_bool true;
      })

let test_share_per_proc () =
  let plan = Core.Share.plan `Per_proc (mk_asserts 14) in
  check tint "one stream per process" 7 (List.length plan.Core.Share.streams);
  (* each id decodes to itself *)
  List.iter
    (fun id ->
      let stream, word = Core.Share.route_of plan id in
      let dec = List.assoc stream plan.Core.Share.decode in
      check tbool "decode roundtrip" true (dec word = [ id ]))
    [ 0; 5; 13 ]

let test_share_shared_32 () =
  let plan = Core.Share.plan (`Shared 32) (mk_asserts 70) in
  check tint "70 assertions need 3 channels" 3 (List.length plan.Core.Share.streams);
  check tint "collectors match channels" 3 (List.length plan.Core.Share.collector_modules)

let share_decode_roundtrip =
  QCheck.Test.make ~count:100 ~name:"shared channel decode inverts routing"
    QCheck.(pair (int_range 1 120) (int_range 1 63))
    (fun (n, bits) ->
      let plan = Core.Share.plan (`Shared bits) (mk_asserts n) in
      List.for_all
        (fun id ->
          let stream, word = Core.Share.route_of plan id in
          let dec = List.assoc stream plan.Core.Share.decode in
          dec word = [ id ])
        (List.init n (fun i -> i)))

let test_share_stream_costs_one_m4k () =
  let plan = Core.Share.plan `Per_proc (mk_asserts 1) in
  let s = List.hd plan.Core.Share.streams in
  check tint "576 bits per failure stream" 576
    (Device.Stratix.stream_ram_bits
       ~width:(Ast.bits_of_width Ast.W32)
       ~depth:s.Ast.depth)

(* --- Instrument -------------------------------------------------------------------- *)

let test_instrument_shape () =
  let prog = elab two_assert_src in
  let plan = Core.Share.plan `Per_proc (Core.Assertion.extract prog) in
  let prog' = Core.Instrument.transform plan prog in
  (* asserts became if (!cond) stream_write *)
  List.iter
    (fun (p : Ast.proc) ->
      check tbool "no asserts left" true (Ast.assertions_of p.Ast.body = []))
    prog'.Ast.procs;
  check tint "failure streams added" 2
    (List.length prog'.Ast.streams - List.length prog.Ast.streams);
  (* the instrumented source is still a valid program *)
  let printed = Pretty.program_to_string prog' in
  let reparsed = elab printed in
  check tint "instrumented source re-elaborates" 2 (List.length reparsed.Ast.procs)

let test_strip_asserts () =
  let prog = elab two_assert_src in
  let stripped = List.map Core.Instrument.strip_asserts prog.Ast.procs in
  List.iter
    (fun (p : Ast.proc) -> check tbool "stripped" true (Ast.assertions_of p.Ast.body = []))
    stripped

(* --- Notify ------------------------------------------------------------------------ *)

let test_notify_c_source () =
  let prog = elab two_assert_src in
  let c = Driver.compile ~strategy:Driver.unoptimized prog in
  let src = c.Driver.notification_source in
  let contains needle =
    let n = String.length needle and m = String.length src in
    let rec go i = i + n <= m && (String.sub src i n = needle || go (i + 1)) in
    go 0
  in
  check tbool "has case per assertion" true (contains "case 0:" && contains "case 1:");
  check tbool "prints ANSI message" true (contains "Assertion `x > 0' failed");
  check tbool "aborts" true (contains "abort();")

let test_notify_nabort_source () =
  let prog = elab two_assert_src in
  let c =
    Driver.compile ~strategy:{ Driver.unoptimized with Driver.nabort = true } prog
  in
  let src = c.Driver.notification_source in
  let contains needle =
    let n = String.length needle and m = String.length src in
    let rec go i = i + n <= m && (String.sub src i n = needle || go (i + 1)) in
    go 0
  in
  check tbool "NABORT continues" true (contains "NABORT");
  check tbool "no abort" false (contains "abort();")

(* Under the Carte-C flavour (share = `Dma) the notification function
   polls the DMA mailbox instead of reading Impulse-C streams: one
   drain loop over head/tail, switching directly on assertion ids. *)
let test_notify_dma_source () =
  let prog = elab two_assert_src in
  let c = Driver.compile ~strategy:Driver.carte prog in
  let src = c.Driver.notification_source in
  let contains needle =
    let n = String.length needle and m = String.length src in
    let rec go i = i + n <= m && (String.sub src i n = needle || go (i + 1)) in
    go 0
  in
  check tbool "mailbox signature" true
    (contains "assertion_notification(uint32_t *mailbox, int *head, int *tail)");
  check tbool "head/tail drain loop" true (contains "while (*head != *tail)");
  check tbool "ring-buffer pop" true (contains "mailbox[(*head)++ & 63]");
  check tbool "no stream reads" false (contains "co_stream_read");
  check tbool "case per assertion id" true (contains "case 0:" && contains "case 1:");
  check tbool "prints ANSI message" true (contains "Assertion `x > 0' failed")

(* The DMA drain loop is keyed by assertion id: any per-stream routing
   (failure words from the channel-sharing plan) must be ignored. *)
let test_notify_dma_ignores_route () =
  let prog = elab two_assert_src in
  let table =
    List.mapi (fun i a -> (i, a)) (Core.Assertion.extract prog)
  in
  let route = List.map (fun (id, _) -> (id, ("err0", Int64.of_int (100 + id)))) table in
  let src =
    Core.Notify.c_source ~dma:true ~route ~table ~streams:[ "err0" ] ~nabort:false
  in
  let contains needle =
    let n = String.length needle and m = String.length src in
    let rec go i = i + n <= m && (String.sub src i n = needle || go (i + 1)) in
    go 0
  in
  check tbool "keyed by id, not routed word" true
    (contains "case 0:" && contains "case 1:");
  check tbool "routed words absent" false (contains "case 100:" || contains "case 101:")

(* --- Checker ------------------------------------------------------------------------ *)

let test_checker_synthesized () =
  let prog = elab two_assert_src in
  let c = Driver.compile ~strategy:Driver.parallelized prog in
  check tint "two checkers" 2 (List.length c.Driver.checkers);
  List.iter
    (fun (ck : Core.Checker.t) ->
      check tbool "valid checker fsmd" true (Hls.Fsmd.check ck.Core.Checker.fsmd = []);
      check tbool "positive latency" true (ck.Core.Checker.engine.Engine.latency >= 1))
    c.Driver.checkers

(* --- Driver end-to-end --------------------------------------------------------------- *)

let loop_src =
  {| stream int32 inp depth 8; stream int32 out depth 8;
     process hw main(int32 n) {
       int32 i;
       for (i = 0; i < n; i = i + 1) {
         int32 x; x = stream_read(inp);
         assert(x != 3);
         stream_write(out, x + 1);
       }
     } |}

let run_with strategy feeds =
  let c = Driver.compile ~strategy (elab loop_src) in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("inp", feeds) ];
          drains = [ "out" ];
          params = [ ("main", [ ("n", Int64.of_int (List.length feeds)) ]) ];
        }
      c
  in
  (c, r)

let test_driver_all_strategies_catch () =
  List.iter
    (fun strategy ->
      let _, r = run_with strategy [ 1L; 2L; 3L; 4L ] in
      match r.Driver.engine.Engine.outcome with
      | Engine.Aborted msg ->
          check tbool "message mentions x != 3" true
            (String.length msg > 0 && r.Driver.failed_assertions = [ 0 ])
      | _ -> Alcotest.fail "assertion should abort")
    [ Driver.unoptimized; Driver.parallelized; Driver.optimized ]

let test_driver_passing_runs_clean () =
  List.iter
    (fun strategy ->
      let _, r = run_with strategy [ 1L; 2L; 4L; 5L ] in
      check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
      check tbool "no messages" true (r.Driver.messages = []))
    [ Driver.baseline; Driver.unoptimized; Driver.parallelized; Driver.optimized ]

let test_driver_invariants () =
  List.iter
    (fun strategy ->
      let c = Driver.compile ~strategy (elab loop_src) in
      check tbool "fsmd invariants hold" true (Driver.check_invariants c = []))
    [ Driver.baseline; Driver.unoptimized; Driver.parallelized; Driver.optimized ]

let test_driver_ndebug_strips_everything () =
  let c = Driver.compile ~strategy:Driver.baseline (elab loop_src) in
  check tint "no assertions" 0 (List.length c.Driver.asserts |> fun n -> if c.Driver.checkers = [] then 0 else n);
  check tbool "no failure streams" true (c.Driver.plan.Core.Share.streams = [])

let test_driver_area_ordering () =
  (* baseline <= optimized <= unoptimized channel overhead at scale *)
  let prog = elab (Apps.Loopback_src.source ~n:32 ()) in
  let a s = (Driver.compile ~strategy:s prog).Driver.area.Rtl.Area.aluts in
  let base = a Driver.baseline in
  let unopt = a Driver.unoptimized in
  let shared = a { Driver.unoptimized with Driver.share = `Shared 32 } in
  check tbool "assertions cost area" true (base < shared);
  check tbool "sharing saves area" true (shared < unopt)

let test_driver_vhdl_emitted () =
  let v = Driver.vhdl (Driver.compile ~strategy:Driver.parallelized (elab loop_src)) in
  let contains needle s =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check tbool "entity for the process" true (contains "entity main is" v);
  check tbool "checker entity" true (contains "entity __chk0 is" v)

let test_driver_compile_source () =
  let c = Driver.compile_source ~file:"inline.c" loop_src in
  check tint "one assertion" 1 (List.length c.Driver.asserts);
  check tbool "file recorded" true
    ((List.hd c.Driver.asserts).Core.Assertion.aloc.Loc.file = "inline.c")

let test_driver_unoptimized_nabort_collects_all () =
  let strategy = { Driver.unoptimized with Driver.nabort = true } in
  let c = Driver.compile ~strategy (elab loop_src) in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("inp", [ 3L; 3L; 3L; 1L ]) ];
          drains = [ "out" ];
          params = [ ("main", [ ("n", 4L) ]) ];
        }
      c
  in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tint "three failures collected" 3 (List.length r.Driver.failed_assertions);
  check tbool "all data processed" true
    (List.assoc "out" r.Driver.engine.Engine.drained = [ 4L; 4L; 4L; 2L ])

let test_driver_shared_mode_messages () =
  let strategy = { Driver.optimized with Driver.share = `Shared 32 } in
  let c = Driver.compile ~strategy (elab loop_src) in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("inp", [ 3L ]) ];
          drains = [ "out" ];
          params = [ ("main", [ ("n", 1L) ]) ];
        }
      c
  in
  match r.Driver.messages with
  | [ msg ] ->
      check tbool "decoded through the shared channel" true
        (msg = "app.c:6: main: Assertion `x != 3' failed.")
  | other -> Alcotest.fail (Printf.sprintf "expected one message, got %d" (List.length other))

(* Assertion ids follow source order through both branches of an if:
   a failing then-branch assertion reports its own text, not the else
   branch's, under every strategy that synthesizes checkers. *)
let test_driver_if_else_messages () =
  let src =
    {| stream int32 inp depth 4;
       process hw main() {
         int32 v1;
         v1 = stream_read(inp);
         if (v1 != 0) {
           assert(v1 == 0);
         } else {
           assert(5 != 0);
         }
       } |}
  in
  List.iter
    (fun (name, strategy) ->
      let r =
        Driver.simulate
          ~options:{ Driver.default_sim_options with Driver.feeds = [ ("inp", [ 7L ]) ] }
          (Driver.compile ~strategy (elab src))
      in
      check (Alcotest.list tstr) (name ^ ": then-branch message")
        [ "app.c:6: main: Assertion `v1 == 0' failed." ]
        r.Driver.messages)
    [
      ("unoptimized", Driver.unoptimized);
      ("parallelized", Driver.parallelized);
      ("optimized", Driver.optimized);
    ]

let test_driver_mem_ports_strategy () =
  (* doubling the application-visible ports removes the consecutive-array
     overhead (Table 3's mechanism, inverted) *)
  let per strategy =
    let c = Driver.compile ~strategy (Typecheck.parse_and_check ~file:"kernel.c" Apps.Micro_src.array_consecutive) in
    let r =
      Driver.simulate
        ~options:
          {
            Driver.default_sim_options with
            Driver.feeds = [ ("input", Apps.Micro_src.feed_positive 64) ];
            drains = [ "output" ];
            params = [ ("kernel", [ ("n", 64L) ]) ];
          }
        c
    in
    r.Driver.engine.Engine.cycles
  in
  let single = per { Driver.unoptimized with Driver.mem_ports = 1 } in
  let dual = per { Driver.unoptimized with Driver.mem_ports = 2 } in
  check tbool "dual-port RAM is at least as fast" true (dual <= single)

(* --- Carte-C DMA transport (Section 4.3) ----------------------------------------------- *)

let test_carte_transport_catches () =
  let c = Driver.compile ~strategy:Driver.carte (elab loop_src) in
  check tint "one DMA mailbox channel" 1 (List.length c.Driver.plan.Core.Share.streams);
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("inp", [ 1L; 2L; 3L; 4L ]) ];
          drains = [ "out" ];
          params = [ ("main", [ ("n", 4L) ]) ];
        }
      c
  in
  match r.Driver.engine.Engine.outcome with
  | Engine.Aborted _ -> check tbool "decoded" true (r.Driver.failed_assertions = [ 0 ])
  | _ -> Alcotest.fail "DMA transport must still catch the failure"

let test_carte_polling_batches_notification () =
  (* the DMA mailbox is polled every 32 cycles: notification comes later
     than with the streaming bridge, the data is unaffected *)
  let cycles strategy =
    let c = Driver.compile ~strategy:{ strategy with Driver.nabort = true } (elab loop_src) in
    let r =
      Driver.simulate
        ~options:
          {
            Driver.default_sim_options with
            Driver.feeds = [ ("inp", [ 3L; 1L ]) ];
            drains = [ "out" ];
            params = [ ("main", [ ("n", 2L) ]) ];
          }
        c
    in
    check tbool "failure reported" true (r.Driver.failed_assertions = [ 0 ]);
    (r.Driver.engine.Engine.cycles, List.assoc "out" r.Driver.engine.Engine.drained)
  in
  let stream_cycles, stream_out = cycles Driver.parallelized in
  let dma_cycles, dma_out = cycles Driver.carte in
  check tbool "same data either way" true (stream_out = dma_out);
  check tbool "polling extends the run to the next poll" true (dma_cycles >= stream_cycles)

let test_carte_channel_count_constant () =
  (* one mailbox regardless of process count — the Section 4.3 argument
     that the techniques port to non-streaming HLS tools *)
  let prog = elab (Apps.Loopback_src.source ~n:24 ()) in
  let carte = Driver.compile ~strategy:Driver.carte prog in
  let per_proc = Driver.compile ~strategy:Driver.parallelized prog in
  check tint "one failure channel" 1 (List.length carte.Driver.plan.Core.Share.streams);
  check tint "vs one per process" 24 (List.length per_proc.Driver.plan.Core.Share.streams);
  check tbool "fewer total streams" true
    (carte.Driver.area.Rtl.Area.streams < per_proc.Driver.area.Rtl.Area.streams)

(* --- Tables 3 and 4 (regression against the paper) ----------------------------------- *)

let cycles src strategy =
  let n = 64 in
  let c = Driver.compile ~strategy (elab src) in
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
  | _ -> Alcotest.fail "kernel did not finish"

let per_iter src strategy =
  let total, _ = cycles src strategy in
  total / 64

let t3_opt = { Driver.optimized with Driver.replicate = false; share = `Per_proc }
let t4_opt = { Driver.optimized with Driver.share = `Per_proc }

let test_table3_scalar () =
  let base = per_iter Apps.Micro_src.scalar_nonpipelined Driver.baseline in
  check tint "unoptimized +1" (base + 1) (per_iter Apps.Micro_src.scalar_nonpipelined Driver.unoptimized);
  check tint "optimized +0" base (per_iter Apps.Micro_src.scalar_nonpipelined t3_opt)

let test_table3_array_nonconsecutive () =
  let base = per_iter Apps.Micro_src.array_nonconsecutive Driver.baseline in
  check tint "unoptimized +1" (base + 1) (per_iter Apps.Micro_src.array_nonconsecutive Driver.unoptimized);
  check tint "optimized +0" base (per_iter Apps.Micro_src.array_nonconsecutive t3_opt)

let test_table3_array_consecutive () =
  let base = per_iter Apps.Micro_src.array_consecutive Driver.baseline in
  check tint "unoptimized +2" (base + 2) (per_iter Apps.Micro_src.array_consecutive Driver.unoptimized);
  check tint "optimized +1" (base + 1) (per_iter Apps.Micro_src.array_consecutive t3_opt)

let pipe_stats src strategy =
  let _, pipes = cycles src strategy in
  match List.filter (fun (p : Engine.pipe_stats) -> p.Engine.issues > 0) pipes with
  | [ p ] -> (p.Engine.latency_measured, p.Engine.ii_measured)
  | _ -> Alcotest.fail "expected one active pipe"

let test_table4_scalar () =
  let bl, br = pipe_stats Apps.Micro_src.scalar_pipelined Driver.baseline in
  check tint "baseline latency 2" 2 bl;
  check tbool "baseline rate 1" true (br < 1.05);
  let ul, ur = pipe_stats Apps.Micro_src.scalar_pipelined Driver.unoptimized in
  check tint "unoptimized latency 3" 3 ul;
  check tbool "unoptimized rate 2" true (ur > 1.95 && ur < 2.05);
  let ol, or_ = pipe_stats Apps.Micro_src.scalar_pipelined t4_opt in
  check tint "optimized latency 2" 2 ol;
  check tbool "optimized rate 1" true (or_ < 1.05)

let test_table4_array () =
  let bl, br = pipe_stats Apps.Micro_src.array_pipelined Driver.baseline in
  check tint "baseline latency 2" 2 bl;
  check tbool "baseline rate 2" true (br > 1.95 && br < 2.05);
  let ul, ur = pipe_stats Apps.Micro_src.array_pipelined Driver.unoptimized in
  check tint "unoptimized latency 4" 4 ul;
  check tbool "unoptimized rate 3" true (ur > 2.95 && ur < 3.05);
  let ol, or_ = pipe_stats Apps.Micro_src.array_pipelined t4_opt in
  check tbool "optimized latency back to baseline ballpark" true (ol <= 3);
  check tbool "replication restores rate 2" true (or_ > 1.95 && or_ < 2.05)

(* --- Faults end-to-end ------------------------------------------------------------------ *)

let fig3_src =
  {| stream int32 out depth 4;
     process hw check() {
       int64 c1; int64 c2; int32 addr;
       c1 = 4294967296; c2 = 4294967286; addr = 0;
       if (c2 > c1) { addr = addr - 10; }
       assert(addr >= 0);
       stream_write(out, addr);
     } |}

let test_fig3_software_passes_circuit_fails () =
  let faults =
    [ Faults.Fault.Narrow_compare
        { fproc = "check"; select = Faults.Fault.All; mask_bits = 5 } ]
  in
  let c = Driver.compile ~strategy:Driver.parallelized ~faults (elab fig3_src) in
  let sw = Driver.software_sim c in
  check tbool "software passes" true (Interp.ok sw);
  let hw = Driver.simulate c in
  match hw.Driver.engine.Engine.outcome with
  | Engine.Aborted _ -> check tint "assertion 0 failed" 1 (List.length hw.Driver.failed_assertions)
  | _ -> Alcotest.fail "circuit should catch the translation bug"

let test_fig3_without_fault_both_pass () =
  let c = Driver.compile ~strategy:Driver.parallelized (elab fig3_src) in
  check tbool "software passes" true (Interp.ok (Driver.software_sim c));
  check tbool "circuit passes" true
    ((Driver.simulate c).Driver.engine.Engine.outcome = Engine.Finished)

let () =
  Alcotest.run "core"
    [
      ( "extraction",
        [
          Alcotest.test_case "extract" `Quick test_extract;
          Alcotest.test_case "ANSI message" `Quick test_message_format;
          Alcotest.test_case "hardware only" `Quick test_sw_procs_not_extracted;
          QCheck_alcotest.to_alcotest eval_slots_matches_interp;
          QCheck_alcotest.to_alcotest compiled_checker_matches_eval_slots;
          Alcotest.test_case "compiled condition defers free variables" `Quick
            test_compile_defers_free_variable;
        ] );
      ( "parallelize",
        [
          Alcotest.test_case "slot dedup" `Quick test_parallelize_slots_dedup;
          Alcotest.test_case "assert becomes tap" `Quick test_parallelize_replaces_assert_with_tap;
          Alcotest.test_case "array leaves" `Quick test_parallelize_array_leaf;
        ] );
      ( "replicate",
        [
          Alcotest.test_case "tap redirection" `Quick test_replicate_redirects_taps;
          Alcotest.test_case "scalars need no mirror" `Quick test_replicate_scalar_only_no_mirror;
        ] );
      ( "share",
        [
          Alcotest.test_case "per-process channels" `Quick test_share_per_proc;
          Alcotest.test_case "32-way sharing" `Quick test_share_shared_32;
          Alcotest.test_case "stream costs one M4K" `Quick test_share_stream_costs_one_m4k;
          QCheck_alcotest.to_alcotest share_decode_roundtrip;
        ] );
      ( "instrument",
        [
          Alcotest.test_case "if-conversion shape" `Quick test_instrument_shape;
          Alcotest.test_case "NDEBUG strip" `Quick test_strip_asserts;
        ] );
      ( "notify",
        [
          Alcotest.test_case "generated C" `Quick test_notify_c_source;
          Alcotest.test_case "NABORT variant" `Quick test_notify_nabort_source;
          Alcotest.test_case "DMA mailbox drain loop" `Quick test_notify_dma_source;
          Alcotest.test_case "DMA ignores stream routing" `Quick
            test_notify_dma_ignores_route;
        ] );
      ( "checker", [ Alcotest.test_case "synthesis" `Quick test_checker_synthesized ] );
      ( "driver",
        [
          Alcotest.test_case "all strategies catch" `Quick test_driver_all_strategies_catch;
          Alcotest.test_case "passing runs clean" `Quick test_driver_passing_runs_clean;
          Alcotest.test_case "invariants" `Quick test_driver_invariants;
          Alcotest.test_case "baseline strips" `Quick test_driver_ndebug_strips_everything;
          Alcotest.test_case "area ordering" `Quick test_driver_area_ordering;
          Alcotest.test_case "vhdl emitted" `Quick test_driver_vhdl_emitted;
          Alcotest.test_case "compile_source" `Quick test_driver_compile_source;
          Alcotest.test_case "unoptimized NABORT collects all" `Quick
            test_driver_unoptimized_nabort_collects_all;
          Alcotest.test_case "shared-mode messages" `Quick test_driver_shared_mode_messages;
          Alcotest.test_case "if/else messages" `Quick test_driver_if_else_messages;
          Alcotest.test_case "mem_ports strategy" `Quick test_driver_mem_ports_strategy;
        ] );
      ( "carte",
        [
          Alcotest.test_case "DMA notification source" `Quick (fun () ->
              let c = Driver.compile ~strategy:Driver.carte (elab loop_src) in
              let has sub s =
                let m = String.length sub and l = String.length s in
                let rec go i = i + m <= l && (String.sub s i m = sub || go (i + 1)) in
                go 0
              in
              check tbool "polls a mailbox" true (has "mailbox" c.Driver.notification_source);
              check tbool "no stream reads" false
                (has "co_stream_read" c.Driver.notification_source));
          Alcotest.test_case "DMA transport catches" `Quick test_carte_transport_catches;
          Alcotest.test_case "polling batches notification" `Quick
            test_carte_polling_batches_notification;
          Alcotest.test_case "constant channel count" `Quick test_carte_channel_count_constant;
        ] );
      ( "table3",
        [
          Alcotest.test_case "scalar 1/0" `Quick test_table3_scalar;
          Alcotest.test_case "array non-consecutive 1/0" `Quick test_table3_array_nonconsecutive;
          Alcotest.test_case "array consecutive 2/1" `Quick test_table3_array_consecutive;
        ] );
      ( "table4",
        [
          Alcotest.test_case "scalar (1,1)->(0,0)" `Quick test_table4_scalar;
          Alcotest.test_case "array (2,1)->(<=1,0)" `Quick test_table4_array;
        ] );
      ( "faults",
        [
          Alcotest.test_case "figure 3 divergence" `Quick test_fig3_software_passes_circuit_fails;
          Alcotest.test_case "no fault, both pass" `Quick test_fig3_without_fault_both_pass;
        ] );
    ]
