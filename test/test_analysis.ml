(* Static assertion verifier and lint suite tests: domain soundness
   against the concrete Value semantics, the Proved/Violated/Unknown
   classifier, witness replay through the interpreter, whole-corpus
   "proved assertions never fire" sweeps, the five lints, and the
   --prune-proved compile path. *)

open Front
module A = Analysis.Absint
module D = Analysis.Domain
module Diag = Analysis.Diag
module Check = Analysis.Check
module Driver = Core.Driver
module V = Interp.Value

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let elab = Typecheck.parse_and_check ~file:"test.c"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Source files live in examples/; dune runs tests from _build subdirs. *)
let example path =
  List.find Sys.file_exists
    [ Filename.concat ".." path; path; Filename.concat "../.." path ]

(* --- abstract domain vs the concrete Value module ----------------------- *)

(* Every concrete result of Value.binop must be contained in the
   abstract result for every pair of intervals containing the operands.
   This is the soundness statement that makes Proved trustworthy. *)
let test_domain_binop_sound () =
  let tys = Ast.[ Tint (Signed, W8); Tint (Unsigned, W8); Tint (Signed, W32); Tbool ] in
  let samples = [ -3L; -1L; 0L; 1L; 2L; 7L; 127L; 255L ] in
  let ops =
    Ast.
      [
        Add; Sub; Mul; Div; Mod; Shl; Shr; Lt; Le; Gt; Ge; Eq; Ne; Band; Bor; Bxor;
        Land; Lor;
      ]
  in
  let abstractions ty v =
    [ D.const v; D.join (D.const v) (D.const 0L); D.top_of_ty ty; D.top ]
  in
  List.iter
    (fun ty ->
      List.iter
        (fun op ->
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let wa = V.wrap_ty ty a and wb = V.wrap_ty ty b in
                  match V.binop op ty wa wb with
                  | exception _ -> () (* concrete division by zero etc. *)
                  | r ->
                      List.iter
                        (fun da ->
                          List.iter
                            (fun db ->
                              if not (D.leq (D.const r) (D.binop op ty da db)) then
                                Alcotest.failf
                                  "binop unsound: %s at %Ld,%Ld -> %Ld not in %s"
                                  (Ast.show_binop op) wa wb r
                                  (D.to_string (D.binop op ty da db)))
                            (abstractions ty wb))
                        (abstractions ty wa))
                samples)
            samples)
        ops)
    tys

let test_domain_unop_sound () =
  let tys = Ast.[ Tint (Signed, W8); Tint (Unsigned, W16); Tbool ] in
  let samples = [ -2L; -1L; 0L; 1L; 5L; 200L ] in
  List.iter
    (fun ty ->
      List.iter
        (fun op ->
          List.iter
            (fun a ->
              let wa = V.wrap_ty ty a in
              match V.unop op ty wa with
              | exception _ -> ()
              | r ->
                  List.iter
                    (fun da ->
                      check tbool
                        (Printf.sprintf "unop %s %Ld" (Ast.show_unop op) wa)
                        true
                        (D.leq (D.const r) (D.unop op ty da)))
                    [ D.const wa; D.top_of_ty ty; D.top ])
            samples)
        Ast.[ Neg; Lnot; Bnot ])
    tys

(* refine_cmp keeps every concrete lhs for which the comparison really
   evaluated to the assumed branch. *)
let test_refine_cmp_sound () =
  let ty = Ast.Tint (Ast.Signed, Ast.W32) in
  let samples = [ -5L; -1L; 0L; 1L; 3L; 10L ] in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let keep = V.binop op ty a b <> 0L in
              List.iter
                (fun da ->
                  List.iter
                    (fun db ->
                      let refined = D.refine_cmp op ty keep da db in
                      check tbool
                        (Printf.sprintf "refine %s %Ld %Ld" (Ast.show_binop op) a b)
                        true
                        (D.leq (D.const a) refined))
                    [ D.const b; D.join (D.const b) (D.const 0L); D.top_of_ty ty ])
                [ D.const a; D.join (D.const a) (D.const (-5L)); D.top_of_ty ty ])
            samples)
        samples)
    Ast.[ Lt; Le; Gt; Ge; Eq; Ne ]

(* Widening must reach a fixpoint on a strictly growing chain. *)
let test_widen_terminates () =
  let ty = Ast.Tint (Ast.Signed, Ast.W32) in
  let x = ref (D.const 0L) in
  let stable = ref false in
  for i = 1 to 100 do
    if not !stable then begin
      let grown = D.join !x (D.const (Int64.of_int (i * 3))) in
      let w = D.widen ty !x grown in
      if D.equal w !x then stable := true else x := w
    end
  done;
  check tbool "widening chain stabilizes" true !stable

(* --- the classifier ----------------------------------------------------- *)

let verdicts src = (A.analyze (elab src)).A.verdicts

let class_of v = A.class_name v.A.vclass

let test_classifier_proved () =
  let vs =
    verdicts
      "stream int32 out depth 16;\n\
       process hw p() {\n\
      \  int32 i;\n\
      \  int32 s;\n\
      \  s = 0;\n\
      \  for (i = 0; i < 10; i = i + 1) {\n\
      \    assert(i < 10);\n\
      \    assert(i >= 0);\n\
      \    s = s + i;\n\
      \  }\n\
      \  assert(i == 10);\n\
      \  stream_write(out, s);\n\
       }\n"
  in
  check tint "three verdicts" 3 (List.length vs);
  List.iteri
    (fun k v -> check Alcotest.string (Printf.sprintf "verdict %d" k) "proved" (class_of v))
    vs

let violated_src =
  "stream int32 out depth 16;\n\
   process hw p() {\n\
  \  int32 i;\n\
  \  i = 3;\n\
  \  assert(i > 5);\n\
  \  stream_write(out, i);\n\
   }\n"

let test_classifier_violated () =
  match verdicts violated_src with
  | [ v ] -> (
      match v.A.vclass with
      | A.Violated witness ->
          check tbool "witness binds i = 3" true (List.mem ("i", 3L) witness)
      | _ -> Alcotest.failf "expected violated, got %s" (class_of v))
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs)

let test_classifier_unknown () =
  (* A process parameter is unconstrained; the latent mine_demo bug must
     stay Unknown (never Proved) — the CI gate depends on this. *)
  let vs =
    verdicts
      "stream int32 out depth 16;\n\
       process hw p(int32 n) {\n\
      \  assert(n < 100);\n\
      \  stream_write(out, n);\n\
       }\n"
  in
  check tint "one verdict" 1 (List.length vs);
  check Alcotest.string "param compare unknown" "unknown" (class_of (List.hd vs));
  let demo = elab (read_file (example "examples/mine_demo.c")) in
  List.iter
    (fun v ->
      if v.A.vtext = "acc >= 0" then
        check Alcotest.string "mine_demo latent bug" "unknown" (class_of v))
    (A.analyze demo).A.verdicts

(* --- witness replay through the interpreter ----------------------------- *)

let test_witness_replays () =
  let prog = elab violated_src in
  match (A.analyze prog).A.verdicts with
  | [ v ] ->
      check Alcotest.string "violated" "violated" (class_of v);
      let compiled = Driver.compile ~strategy:Driver.parallelized prog in
      let options = { Driver.default_sim_options with drains = [ "out" ] } in
      let r = Driver.software_sim ~options ~nabort:true compiled in
      let fired =
        List.exists
          (fun (f : Interp.failure) ->
            f.Interp.fproc = v.A.vproc && Loc.equal f.Interp.floc v.A.vloc)
          r.Interp.failures
      in
      check tbool "violated assertion fires in the interpreter" true fired
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs)

let test_static_violation_aborts_compile () =
  let prog = elab violated_src in
  match Driver.compile ~strategy:Driver.parallelized ~prune_proved:true prog with
  | _ -> Alcotest.fail "expected Static_violation"
  | exception Driver.Static_violation [ v ] ->
      check Alcotest.string "aborts with the verdict" "violated" (class_of v)
  | exception Driver.Static_violation vs ->
      Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* --- soundness sweep: proved assertions never fire ----------------------- *)

(* For every program in the corpus, every assertion the verifier proves
   must stay silent across the whole derived-stimulus family (the same
   family the miner traces over), run under NABORT so later failures
   are visible too. *)
let sweep name prog =
  let proved =
    List.filter (fun v -> v.A.vclass = A.Proved) (A.analyze prog).A.verdicts
  in
  if proved <> [] then begin
    let compiled = Driver.compile ~strategy:Driver.parallelized prog in
    List.iter
      (fun (st : Mine.Trace.stimulus) ->
        let r = Driver.software_sim ~options:st.Mine.Trace.options ~nabort:true compiled in
        List.iter
          (fun (f : Interp.failure) ->
            if
              List.exists
                (fun v ->
                  v.A.vproc = f.Interp.fproc && Loc.equal v.A.vloc f.Interp.floc)
                proved
            then
              Alcotest.failf "%s/%s: proved assertion fired (%s)" name
                st.Mine.Trace.label f.Interp.ftext)
          r.Interp.failures)
      (Mine.Trace.variants (Mine.Trace.auto_options prog))
  end

let test_soundness_examples () =
  List.iter
    (fun file -> sweep file (Typecheck.parse_and_check ~file (read_file (example file))))
    [ "examples/fir.c"; "examples/mine_demo.c"; "examples/campaign.c" ]

let test_soundness_bundled () =
  List.iter
    (fun (w : Campaign.workload) -> sweep w.Campaign.wname w.Campaign.program)
    (Campaign.bundled ())

(* --- lint suite ---------------------------------------------------------- *)

let diags ?share_bits ?replicate src =
  (Check.report_of ?share_bits ?replicate (elab src)).Check.diags

let has_code c ds = List.exists (fun d -> d.Diag.code = c) ds

let severity_of c ds =
  (List.find (fun d -> d.Diag.code = c) ds).Diag.severity

let test_lint_bram_contention () =
  let src =
    "stream int32 out depth 16;\n\
     process hw p() {\n\
    \  int32 a[4];\n\
    \  int32 i;\n\
    \  for (i = 0; i < 4; i = i + 1) {\n\
    \    a[i] = i;\n\
    \  }\n\
    \  assert(a[0] >= 0);\n\
    \  stream_write(out, a[0]);\n\
     }\n"
  in
  check tbool "L101 when BRAMs are shared" true
    (has_code "INCA-L101" (diags ~replicate:false src));
  check tbool "silent when replicated" false
    (has_code "INCA-L101" (diags ~replicate:true src))

let test_lint_channel_overflow () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "stream int32 out depth 16;\nprocess hw p(int32 n) {\n";
  for k = 1 to 33 do
    Buffer.add_string b (Printf.sprintf "  assert(n != %d);\n" (10_000 + k))
  done;
  Buffer.add_string b "  stream_write(out, n);\n}\n";
  let src = Buffer.contents b in
  let ds = diags ~share_bits:32 src in
  check tbool "L102 at 33 asserts on a 32-bit channel" true (has_code "INCA-L102" ds);
  check tbool "L102 is an error" true (severity_of "INCA-L102" ds = Diag.Error);
  check tbool "no L102 when the channel fits" false
    (has_code "INCA-L102" (diags ~share_bits:64 src))

let test_lint_uninit_read () =
  let ds =
    diags
      "stream int32 out depth 16;\n\
       process hw p() {\n\
      \  int32 x;\n\
      \  int32 y;\n\
      \  y = x + 1;\n\
      \  assert(y > 0);\n\
      \  stream_write(out, y);\n\
       }\n"
  in
  check tbool "L103 on read-before-write" true (has_code "INCA-L103" ds)

let test_lint_undrained_stream () =
  let src depth =
    Printf.sprintf
      "stream int32 sink depth %d;\n\
       process hw p() {\n\
      \  int32 i;\n\
      \  for (i = 0; i < 8; i = i + 1) {\n\
      \    stream_write(sink, i);\n\
      \  }\n\
       }\n"
      depth
  in
  let shallow = diags (src 4) and deep = diags (src 16) in
  check tbool "L104 present" true (has_code "INCA-L104" shallow);
  check tbool "overflowing writer is a warning" true
    (severity_of "INCA-L104" shallow = Diag.Warning);
  check tbool "fitting writer is informational" true
    (has_code "INCA-L104" deep && severity_of "INCA-L104" deep = Diag.Info);
  (* the body bumps the counter past the bound: one trip, one write *)
  let tampered =
    diags
      "stream int32 out depth 4;\n\
       process hw p() {\n\
      \  int32 i;\n\
      \  for (i = 0; i < 8; i = i + 1) {\n\
      \    stream_write(out, i);\n\
      \    i = i + 7;\n\
      \  }\n\
       }\n"
  in
  check tbool "no trip count for a loop that changes its counter" true
    (has_code "INCA-L104" tampered && severity_of "INCA-L104" tampered = Diag.Info)

let test_lint_dead_assertion () =
  let ds =
    diags
      "stream int32 out depth 16;\n\
       process hw p(int32 n) {\n\
      \  assert(n < 100);\n\
      \  assert(n < 200);\n\
      \  stream_write(out, n);\n\
       }\n"
  in
  check tbool "L105 on the subsumed assertion" true (has_code "INCA-L105" ds)

(* --- report rendering ---------------------------------------------------- *)

let test_render_json_shape () =
  let r = Check.report_of (elab violated_src) in
  let js = Json.to_string (Check.json_of ~file:"test.c" r) in
  check tbool "json has class violated" true
    (let needle = "\"class\": \"violated\"" in
     let rec find i =
       i + String.length needle <= String.length js
       && (String.sub js i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  check tbool "json carries witness" true
    (let needle = "\"witness\"" in
     let rec find i =
       i + String.length needle <= String.length js
       && (String.sub js i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  check tbool "report failed" true (Check.failed r)

(* --- --prune-proved on the bundled DCT ----------------------------------- *)

let test_prune_dct () =
  let w =
    List.find
      (fun (w : Campaign.workload) -> w.Campaign.wname = "dct")
      (Campaign.bundled ())
  in
  let prog = w.Campaign.program in
  let base = Driver.compile ~strategy:Driver.parallelized prog in
  let pruned = Driver.compile ~strategy:Driver.parallelized ~prune_proved:true prog in
  let nb = List.length base.Driver.asserts and np = List.length pruned.Driver.asserts in
  check tbool "pruning removes at least one assertion" true (np < nb);
  check tbool "pruning saves ALUTs" true
    (pruned.Driver.area.Rtl.Area.aluts < base.Driver.area.Rtl.Area.aluts);
  check tbool "pruning saves registers" true
    (pruned.Driver.area.Rtl.Area.registers < base.Driver.area.Rtl.Area.registers);
  (* The pruned circuit still runs clean: dropped guards were true. *)
  let r = Driver.simulate ~options:w.Campaign.options pruned in
  check tint "pruned hardware sim has no failures" 0
    (List.length r.Driver.failed_assertions)

(* --- mining pre-filter ---------------------------------------------------- *)

let test_rank_static_discard () =
  (* Every invariant minable from this program is a compile-time fact,
     so the verifier discards it before the (expensive) fault sweep. *)
  let src =
    "stream int32 kout depth 16;\n\
     process hw konst() {\n\
    \  int32 c;\n\
    \  c = 7;\n\
    \  assert(c > 0);\n\
    \  stream_write(kout, c);\n\
     }\n"
  in
  let config =
    {
      Mine.Rank.strategy = ("parallelized", Driver.parallelized);
      max_candidates = 6;
      max_mutants = Some 4;
      budget = None;
      watchdog = None;
      jobs = Some 1;
    }
  in
  let r = Mine.Rank.mine ~config ~name:"konst" (elab src) in
  check tbool "statically proved candidates are dropped" true
    (r.Mine.Rank.static_proved >= 1)

(* --- liveness: Bound / Chan / Live and the INCA-L1xx lint family --------- *)

module Live = Analysis.Live
module Chan = Analysis.Chan
module Bound = Analysis.Bound

let proc_named prog name =
  List.find (fun (p : Ast.proc) -> p.Ast.pname = name) prog.Ast.procs

(* Matched rates: prod pushes 8 tokens on a, cons pops all 8 and pushes
   8 on the externally drained b. *)
let matched_src =
  {|
stream int32 a depth 4;
stream int32 b depth 4;
process hw prod() {
  int32 i;
  for (i = 0; i < 8; i = i + 1) {
    stream_write(a, i * 3);
  }
}
process hw cons() {
  int32 i;
  for (i = 0; i < 8; i = i + 1) {
    int32 x;
    x = stream_read(a);
    stream_write(b, x + 1);
  }
}
|}

(* The committed canary, inline: the consumer reads one token too many. *)
let starved_src =
  {|
stream int32 a depth 4;
stream int32 b depth 4;
process hw prod() {
  int32 i;
  for (i = 0; i < 8; i = i + 1) {
    stream_write(a, i);
  }
}
process hw cons() {
  int32 i;
  for (i = 0; i < 9; i = i + 1) {
    int32 x;
    x = stream_read(a);
    stream_write(b, x);
  }
}
|}

(* Each process reads the other's output before producing its own:
   both block on their first read forever. *)
let circular_src =
  {|
stream int32 ab depth 4;
stream int32 ba depth 4;
process hw pa() {
  int32 i;
  for (i = 0; i < 4; i = i + 1) {
    int32 x;
    x = stream_read(ba);
    stream_write(ab, x + 1);
  }
}
process hw pb() {
  int32 i;
  for (i = 0; i < 4; i = i + 1) {
    int32 x;
    x = stream_read(ab);
    stream_write(ba, x + 1);
  }
}
|}

let test_bound_of_for () =
  let prog = elab matched_src in
  match Chan.loop_headers (proc_named prog "prod") with
  | [ Chan.For_loop (h, body) ] ->
      check tbool "closed loop is Exact 8" true (Bound.of_for h body = Bound.Exact 8);
      (* the off-by-one fault shifts the compare's bound operand, so the
         mutant trip count comes from the shifted bound, not trips+-1 *)
      check tbool "+1 shifts to 9" true (Bound.shifted_trips ~delta:1L h body = Some 9);
      check tbool "-1 shifts to 7" true (Bound.shifted_trips ~delta:(-1L) h body = Some 7)
  | _ -> Alcotest.fail "expected exactly one for loop"

let test_bound_param_env () =
  let prog =
    elab
      "stream int32 o depth 4;\n\
       process hw p(int32 n) {\n\
      \  int32 i;\n\
      \  for (i = 0; i < n; i = i + 1) {\n\
      \    stream_write(o, i);\n\
      \  }\n\
       }\n"
  in
  match Chan.loop_headers (proc_named prog "p") with
  | [ Chan.For_loop (h, body) ] ->
      check tbool "open bound is not Exact" true
        (match Bound.of_for h body with Bound.Exact _ -> false | _ -> true);
      check tbool "param env closes it" true
        (Bound.of_for ~env:[ ("n", 6L) ] h body = Bound.Exact 6)
  | _ -> Alcotest.fail "expected exactly one for loop"

let test_chan_trace_exact () =
  let prog = elab matched_src in
  match Chan.trace prog (proc_named prog "prod") with
  | Error e -> Alcotest.fail ("trace failed: " ^ e)
  | Ok t ->
      check tint "8 ops" 8 (List.length t.Chan.t_ops);
      check tbool "all writes of a, site 0" true
        (List.for_all (fun op -> op = Chan.Write ("a", 0)) t.Chan.t_ops);
      (match Chan.trace ~trips_override:(0, 5) prog (proc_named prog "prod") with
      | Ok t5 -> check tint "trips override forces 5" 5 (List.length t5.Chan.t_ops)
      | Error e -> Alcotest.fail ("override trace failed: " ^ e))

let test_live_deadlock_free () =
  match Live.analyze ~drains:[ "b" ] (elab matched_src) with
  | Live.Deadlock_free k -> check tbool "cycle bound positive" true (k > 0)
  | v -> Alcotest.fail ("expected Deadlock_free, got " ^ Live.verdict_to_string v)

let test_live_read_past_last_write () =
  match Live.analyze ~drains:[ "b" ] (elab starved_src) with
  | Live.Deadlock w ->
      check tbool "reason is starvation" true (w.Live.w_reason = Live.Read_past_last_write);
      check tbool "witness names the blocked reader" true
        (List.exists
           (fun (b : Live.blocked) -> b.Live.b_proc = "cons" && b.Live.b_stream = "a")
           w.Live.w_blocked)
  | v -> Alcotest.fail ("expected Deadlock, got " ^ Live.verdict_to_string v)

let test_live_circular_wait () =
  match Live.analyze (elab circular_src) with
  | Live.Deadlock w ->
      check tbool "reason is a cycle" true (w.Live.w_reason = Live.Circular_wait);
      check tint "both processes blocked" 2 (List.length w.Live.w_blocked)
  | v -> Alcotest.fail ("expected Deadlock, got " ^ Live.verdict_to_string v)

let test_live_external_feed_unknown () =
  (* a stream read but never written in-design must make the verdict
     Unknown (the testbench may feed it) — never a false Deadlock *)
  let src =
    "stream int32 xin depth 4;\n\
     stream int32 o depth 4;\n\
     process hw p() {\n\
    \  int32 i;\n\
    \  for (i = 0; i < 4; i = i + 1) {\n\
    \    int32 x;\n\
    \    x = stream_read(xin);\n\
    \    stream_write(o, x);\n\
    \  }\n\
     }\n"
  in
  (match Live.analyze ~drains:[ "o" ] (elab src) with
  | Live.Unknown _ -> ()
  | v -> Alcotest.fail ("expected Unknown, got " ^ Live.verdict_to_string v));
  (* with the feed declared, the same design proves out *)
  match Live.analyze ~feeds:[ ("xin", 4) ] ~drains:[ "o" ] (elab src) with
  | Live.Deadlock_free _ -> ()
  | v -> Alcotest.fail ("expected Deadlock_free, got " ^ Live.verdict_to_string v)

let test_lint_liveness_deadlock_codes () =
  let starved = diags starved_src in
  check tbool "L106 present" true (has_code "INCA-L106" starved);
  check tbool "L106 is an error" true (severity_of "INCA-L106" starved = Diag.Error);
  let circular = diags circular_src in
  check tbool "L107 present" true (has_code "INCA-L107" circular);
  check tbool "L107 is an error" true (severity_of "INCA-L107" circular = Diag.Error);
  let clean = diags matched_src in
  check tbool "no deadlock codes on a live design" false
    (has_code "INCA-L106" clean || has_code "INCA-L107" clean)

let test_lint_watchdog_budget () =
  let rep w = Check.report_of ?watchdog:w (elab matched_src) in
  let bound =
    match (rep None).Check.liveness with
    | Live.Deadlock_free k -> k
    | v -> Alcotest.fail ("expected Deadlock_free, got " ^ Live.verdict_to_string v)
  in
  let tight = (rep (Some (bound - 1))).Check.diags in
  check tbool "L109 when the window is below the bound" true (has_code "INCA-L109" tight);
  check tbool "L109 is a warning" true (severity_of "INCA-L109" tight = Diag.Warning);
  let roomy = (rep (Some bound)).Check.diags in
  check tbool "L110 when the design finishes inside the window" true
    (has_code "INCA-L110" roomy);
  check tbool "L110 is informational" true (severity_of "INCA-L110" roomy = Diag.Info);
  check tbool "no watchdog lints without --watchdog" false
    (has_code "INCA-L109" (rep None).Check.diags
    || has_code "INCA-L110" (rep None).Check.diags)

let test_check_filter_codes () =
  let rep = Check.report_of (elab starved_src) in
  check tbool "unfiltered report fails on L106" true (Check.failed rep);
  let only = Check.filter_codes ~only:[ "INCA-L104" ] rep in
  check tbool "--only keeps just that family" true
    (List.for_all (fun d -> d.Diag.code = "INCA-L104") only.Check.diags
    && only.Check.diags <> []);
  check tbool "exit status follows the filtered set" false (Check.failed only);
  let ignored = Check.filter_codes ~ignore:[ "INCA-L106" ] rep in
  check tbool "--ignore drops the code" false (has_code "INCA-L106" ignored.Check.diags);
  check tbool "other diags survive --ignore" true (ignored.Check.diags <> []);
  check tbool "verdict lines are untouched" true
    (only.Check.verdicts = rep.Check.verdicts
    && ignored.Check.verdicts = rep.Check.verdicts)

(* NABORT-soundness on real designs: the analyzer must never claim a
   certain deadlock for a workload that actually runs to completion. *)
let test_live_no_false_deadlock_bundled () =
  List.iter
    (fun (w : Campaign.workload) ->
      let o = w.Campaign.options in
      match
        Live.analyze ~params:o.Driver.params
          ~feeds:(List.map (fun (s, vs) -> (s, List.length vs)) o.Driver.feeds)
          ~drains:o.Driver.drains w.Campaign.program
      with
      | Live.Deadlock wtn ->
          Alcotest.fail
            (Printf.sprintf "false deadlock on bundled %s: %s" w.Campaign.wname
               (Live.witness_to_string wtn))
      | Live.Deadlock_free _ | Live.Unknown _ -> ())
    (Campaign.bundled ())

let test_live_examples_canary () =
  let dir = Filename.dirname (example "examples/fir.c") in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".c" then
        let rep =
          Check.report_of (Typecheck.parse_and_check ~file:f (read_file (Filename.concat dir f)))
        in
        match rep.Check.liveness with
        | Live.Deadlock _ ->
            if f <> "deadlock.c" then Alcotest.fail ("false deadlock on examples/" ^ f)
        | Live.Deadlock_free _ | Live.Unknown _ ->
            if f = "deadlock.c" then
              Alcotest.fail "examples/deadlock.c must be reported as a certain deadlock")
    (Sys.readdir dir)

let () =
  Alcotest.run "analysis"
    [
      ( "domain",
        [
          Alcotest.test_case "binop soundness grid" `Quick test_domain_binop_sound;
          Alcotest.test_case "unop soundness grid" `Quick test_domain_unop_sound;
          Alcotest.test_case "refine_cmp soundness" `Quick test_refine_cmp_sound;
          Alcotest.test_case "widening terminates" `Quick test_widen_terminates;
        ] );
      ( "classify",
        [
          Alcotest.test_case "proved" `Quick test_classifier_proved;
          Alcotest.test_case "violated with witness" `Quick test_classifier_violated;
          Alcotest.test_case "unknown" `Quick test_classifier_unknown;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "witness replays" `Quick test_witness_replays;
          Alcotest.test_case "violation aborts compile" `Quick
            test_static_violation_aborts_compile;
          Alcotest.test_case "examples corpus" `Slow test_soundness_examples;
          Alcotest.test_case "bundled apps" `Slow test_soundness_bundled;
        ] );
      ( "lint",
        [
          Alcotest.test_case "L101 bram contention" `Quick test_lint_bram_contention;
          Alcotest.test_case "L102 channel overflow" `Quick test_lint_channel_overflow;
          Alcotest.test_case "L103 uninit read" `Quick test_lint_uninit_read;
          Alcotest.test_case "L104 undrained stream" `Quick test_lint_undrained_stream;
          Alcotest.test_case "L105 dead assertion" `Quick test_lint_dead_assertion;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "bound of closed for" `Quick test_bound_of_for;
          Alcotest.test_case "bound closes under params" `Quick test_bound_param_env;
          Alcotest.test_case "exact channel trace" `Quick test_chan_trace_exact;
          Alcotest.test_case "matched rates prove out" `Quick test_live_deadlock_free;
          Alcotest.test_case "read past last write" `Quick test_live_read_past_last_write;
          Alcotest.test_case "circular wait" `Quick test_live_circular_wait;
          Alcotest.test_case "external feed is unknown" `Quick
            test_live_external_feed_unknown;
          Alcotest.test_case "L106/L107 deadlock lints" `Quick
            test_lint_liveness_deadlock_codes;
          Alcotest.test_case "L109/L110 watchdog budget" `Quick test_lint_watchdog_budget;
          Alcotest.test_case "--only/--ignore filters" `Quick test_check_filter_codes;
          Alcotest.test_case "no false deadlock on bundled apps" `Slow
            test_live_no_false_deadlock_bundled;
          Alcotest.test_case "examples canary" `Slow test_live_examples_canary;
        ] );
      ( "report",
        [ Alcotest.test_case "json shape" `Quick test_render_json_shape ] );
      ( "prune",
        [ Alcotest.test_case "dct dividend" `Slow test_prune_dct ] );
      ( "mine",
        [ Alcotest.test_case "static discard" `Slow test_rank_static_discard ] );
    ]
