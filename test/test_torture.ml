(* Torture-harness tests: generator determinism, the parse ∘ pretty
   fixpoint property, oracle agreement on clean seeds, shrinker
   determinism / divergence preservation / 1-minimality on a
   known-divergent configuration, corpus round-trip and replay of the
   checked-in reproducers, and byte-identical fuzz reports across job
   counts. *)

module Gen = Torture.Gen
module Oracle = Torture.Oracle
module Shrink = Torture.Shrink
module Corpus = Torture.Corpus
module Fuzz = Torture.Fuzz

let check = Alcotest.check
let tstr = Alcotest.string
let tbool = Alcotest.bool
let tint = Alcotest.int

let pretty = Front.Pretty.program_to_string
let reparse s = Front.Typecheck.parse_and_check s

(* The fault leg used by the bench harness and the shrinker tests:
   dropping p0's first write to chan1 starves the next pipeline stage, a
   deterministic translation bug every strategy's circuit exhibits. *)
let known_fault =
  [
    Faults.Fault.Drop_stream_write
      { fproc = "p0"; stream = "chan1"; select = Faults.Fault.Nth 0 };
  ]

let class_set (o : Oracle.outcome) =
  List.sort_uniq compare (List.map Oracle.class_key o.Oracle.divergences)

let gen i = Gen.generate ~seed:(Gen.program_seed ~run_seed:42L ~index:i) ~fuel:8

(* --- generator ------------------------------------------------------------ *)

let test_gen_deterministic () =
  for i = 0 to 9 do
    check tstr
      (Printf.sprintf "program %d regenerates byte-identically" i)
      (pretty (gen i)) (pretty (gen i))
  done;
  check tbool "distinct seeds give distinct programs" true
    (pretty (gen 0) <> pretty (gen 1))

let test_gen_well_typed () =
  (* every generated program survives its own print → parse → elaborate
     round trip — the generator's well-typedness contract *)
  for i = 0 to 49 do
    ignore (reparse (pretty (gen i)))
  done

(* --- pretty-printer round trip ------------------------------------------- *)

let test_pretty_fixpoint () =
  (* parse ∘ pretty is a fixpoint: printing the reparse of a printed
     program changes nothing.  Swept over three fuel levels so the
     property covers straight-line code, loop nests, and dense nests
     with casts, ROMs, and pipelined loops. *)
  List.iter
    (fun fuel ->
      for i = 0 to 99 do
        let p = Gen.generate ~seed:(Gen.program_seed ~run_seed:7L ~index:i) ~fuel in
        let s1 = pretty p in
        let s2 = pretty (reparse s1) in
        check tstr (Printf.sprintf "fixpoint (fuel %d, program %d)" fuel i) s1 s2
      done)
    [ 4; 8; 16 ]

(* --- oracle --------------------------------------------------------------- *)

let test_oracle_clean_agrees () =
  for i = 0 to 19 do
    let o = Oracle.check (gen i) in
    check tbool
      (Printf.sprintf "program %d agrees under every strategy" i)
      true (Oracle.agrees o)
  done

let test_oracle_catches_fault () =
  let o = Oracle.check ~faults:known_fault (gen 0) in
  check tbool "injected fault diverges" false (Oracle.agrees o);
  List.iter
    (fun k ->
      check tbool (k ^ " is a hang") true
        (String.length k >= 5 && String.sub k 0 5 = "hang:"))
    (class_set o)

(* The fork-point fault path (padded design, pad armed at its first
   activation, trimmed budget) must classify every program exactly as
   injecting the fault into a separate compile and simulating from
   reset does.  Every program here has a padded twin of the fault under
   every strategy, so the fork path really runs. *)
let test_oracle_fork_equals_from_reset () =
  let diverging = ref 0 in
  for i = 0 to 49 do
    let prog = gen i in
    List.iter
      (fun (sname, strategy) ->
        let front = Core.Driver.front ~strategy prog in
        let sites = (Faults.Fault.instrument_all front.Core.Driver.f_ir).Faults.Fault.ip_sites in
        check tbool
          (Printf.sprintf "program %d has a padded twin under %s" i sname)
          true
          (List.exists
             (fun (s : Faults.Fault.site) ->
               s.Faults.Fault.s_padded && [ s.Faults.Fault.s_fault ] = known_fault)
             sites))
      Oracle.default_strategies;
    let fork = class_set (Oracle.check ~faults:known_fault prog) in
    let reset = class_set (Oracle.check ~faults:known_fault ~from_reset:true prog) in
    check (Alcotest.list tstr)
      (Printf.sprintf "program %d: fork-point classes = from-reset classes" i)
      reset fork;
    if fork <> [] then incr diverging
  done;
  check tint "programs diverging under the injected fault" 49 !diverging

(* --- shrinker ------------------------------------------------------------- *)

let divergent_base () =
  let prog = gen 0 in
  let o = Oracle.check ~faults:known_fault prog in
  let classes = class_set o in
  check tbool "base program diverges" true (classes <> []);
  let keep cand =
    class_set (Oracle.check ~faults:known_fault cand) = classes
  in
  (prog, classes, keep)

let test_shrink_deterministic () =
  let prog, _, keep = divergent_base () in
  let s1, st1 = Shrink.shrink ~keep prog in
  let s2, st2 = Shrink.shrink ~keep prog in
  check tstr "shrunk program is stable across runs" (pretty s1) (pretty s2);
  check tint "attempt count is stable" st1.Shrink.attempts st2.Shrink.attempts;
  check tbool "shrinking made progress" true
    (st1.Shrink.min_lines < st1.Shrink.orig_lines);
  check tbool "reproducer fits the corpus budget" true (st1.Shrink.min_lines <= 25)

let test_shrink_preserves_divergence () =
  let _, classes, keep = divergent_base () in
  let prog, _, _ = divergent_base () in
  let shrunk, _ = Shrink.shrink ~keep prog in
  check tbool "shrunk program still diverges with the same classes" true
    (class_set (Oracle.check ~faults:known_fault shrunk) = classes)

let test_shrink_one_minimal () =
  let prog, classes, keep = divergent_base () in
  let shrunk, stats = Shrink.shrink ~keep prog in
  check tbool "shrink ran to fixpoint, not out of budget" true
    (stats.Shrink.attempts < 20_000);
  (* 1-minimality over the deletion step: no single statement removal
     that still elaborates may keep the divergence *)
  let n = Shrink.count_stmts shrunk in
  check tbool "shrunk program is non-empty" true (n > 0);
  for i = 0 to n - 1 do
    match Shrink.delete_stmt shrunk i with
    | None -> ()
    | Some cand -> (
        match reparse (pretty cand) with
        | exception _ -> ()  (* deletion broke elaboration: not a candidate *)
        | p ->
            check tbool
              (Printf.sprintf "deleting statement %d kills the divergence" i)
              false
              (class_set (Oracle.check ~faults:known_fault p) = classes))
  done

(* --- corpus --------------------------------------------------------------- *)

let test_corpus_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "inca-corpus-test" in
  let entry =
    {
      Corpus.name = "roundtrip";
      classes = [ "hang:baseline"; "hang:optimized" ];
      seed = Some (-7L);
      fuel = Some 8;
      source = pretty (gen 0);
    }
  in
  let path = Corpus.save ~dir entry in
  let back = Corpus.load path in
  check tstr "name survives" entry.Corpus.name back.Corpus.name;
  check tbool "classes survive" true (entry.Corpus.classes = back.Corpus.classes);
  check tbool "seed survives" true (entry.Corpus.seed = back.Corpus.seed);
  check tbool "fuel survives" true (entry.Corpus.fuel = back.Corpus.fuel);
  check tstr "source survives" entry.Corpus.source back.Corpus.source;
  Sys.remove path

(* dune runtest runs tests from the test dir; dune exec from the root —
   probe both prefixes for the checked-in corpus *)
let corpus_dir () =
  List.find Sys.file_exists
    [
      Filename.concat ".." Corpus.default_dir;
      Corpus.default_dir;
      Filename.concat "../.." Corpus.default_dir;
    ]

let test_corpus_replay () =
  let files = Corpus.files (corpus_dir ()) in
  check tbool "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      match Corpus.replay path with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "regression: %s diverges again: %s"
            (Filename.basename path) msg)
    files

(* --- fuzz campaign -------------------------------------------------------- *)

let test_fuzz_byte_identical_across_jobs () =
  let run jobs = Json.to_string (Fuzz.json_of (Fuzz.run ~jobs ~seed:42L ~count:20 ())) in
  let serial = run 1 in
  check tstr "serial rerun is byte-identical" serial (run 1);
  check tstr "4-domain report is byte-identical to serial" serial (run 4)

let test_fuzz_fault_findings () =
  let r = Fuzz.run ~jobs:1 ~seed:42L ~count:3 ~faults:known_fault () in
  check tint "every program diverges under the injected fault" 3
    (List.length r.Fuzz.r_findings);
  List.iter
    (fun (f : Fuzz.finding) ->
      check tbool "finding was shrunk within the corpus budget" true
        (f.Fuzz.f_stats.Shrink.min_lines <= 25))
    r.Fuzz.r_findings;
  (* the findings feed the fault-injection campaign as workloads *)
  check tint "one workload per finding" 3 (List.length (Fuzz.workloads r))

let () =
  Alcotest.run "torture"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "well-typed" `Quick test_gen_well_typed;
        ] );
      ( "pretty",
        [ Alcotest.test_case "parse-pretty fixpoint" `Quick test_pretty_fixpoint ] );
      ( "oracle",
        [
          Alcotest.test_case "clean seeds agree" `Quick test_oracle_clean_agrees;
          Alcotest.test_case "injected fault diverges" `Quick test_oracle_catches_fault;
          Alcotest.test_case "fork-point classes = from-reset" `Quick
            test_oracle_fork_equals_from_reset;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "deterministic" `Quick test_shrink_deterministic;
          Alcotest.test_case "preserves divergence" `Quick
            test_shrink_preserves_divergence;
          Alcotest.test_case "1-minimal" `Slow test_shrink_one_minimal;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "replay checked-in reproducers" `Quick
            test_corpus_replay;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_fuzz_byte_identical_across_jobs;
          Alcotest.test_case "fault findings shrunk and exported" `Quick
            test_fuzz_fault_findings;
        ] );
    ]
