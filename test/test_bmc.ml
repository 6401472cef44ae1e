(* BMC subsystem tests: the CDCL solver on classic instances, clause
   intake against a list-based reference normalizer, AIG folding and
   hash-consing (against a Hashtbl reference through table growth),
   bit-blast vs the concrete Value semantics, cycle-for-cycle
   model-vs-engine fire equivalence over torture programs under
   solver-free random environments, the Absint↔BMC
   cross-check oracle (a Proved assertion must never be Violated by a
   replay-confirmed counterexample), and the end-to-end prove pipeline:
   mine_demo's latent bug found and replayed, prove_demo's masked nibble
   proved by 1-induction where Absint says Unknown, pruning dividend,
   byte-identical reports across job counts, and pinned verdicts (class,
   k or cycle, reach) for the examples, the torture corpus and a band of
   generated programs, with the solver's work and the induction model's
   size pinned for prove_demo and mine_demo. *)

module Sat = Bmc.Sat
module Aig = Bmc.Aig
module Blast = Bmc.Blast
module Model = Bmc.Model
module Verify = Core.Verify
module Verdict = Analysis.Verdict
module Driver = Core.Driver
module Value = Interp.Value
module Gen = Torture.Gen
module Ast = Front.Ast

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let elab = Front.Typecheck.parse_and_check ~file:"test.c"

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

(* --- SAT solver ------------------------------------------------------------ *)

let test_sat_unit_propagation () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
  Sat.add_clause s [ Sat.pos a ];
  Sat.add_clause s [ Sat.negl a; Sat.pos b ];
  Sat.add_clause s [ Sat.negl b; Sat.pos c ];
  check tbool "implication chain is Sat" true (Sat.solve s = Sat.Sat);
  check tbool "a forced" true (Sat.value s a);
  check tbool "b propagated" true (Sat.value s b);
  check tbool "c propagated" true (Sat.value s c);
  (* the chain was solved by propagation alone: no search happened *)
  check tint "no conflicts" 0 (Sat.conflicts s)

(* PHP(n+1, n): n+1 pigeons into n holes, classically UNSAT and
   resolution-hard enough to force real conflict analysis. *)
let pigeonhole n =
  let s = Sat.create () in
  let v = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Sat.new_var s)) in
  for p = 0 to n do
    Sat.add_clause s (List.init n (fun h -> Sat.pos v.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Sat.add_clause s [ Sat.negl v.(p1).(h); Sat.negl v.(p2).(h) ]
      done
    done
  done;
  s

let test_sat_pigeonhole () =
  let s = pigeonhole 3 in
  check tbool "PHP(4,3) is Unsat" true (Sat.solve s = Sat.Unsat);
  check tbool "search had conflicts" true (Sat.conflicts s > 0);
  (* 3 pigeons into 3 holes is fine *)
  let s = Sat.create () in
  let v = Array.init 3 (fun _ -> Array.init 3 (fun _ -> Sat.new_var s)) in
  for p = 0 to 2 do
    Sat.add_clause s (List.init 3 (fun h -> Sat.pos v.(p).(h)))
  done;
  for h = 0 to 2 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        Sat.add_clause s [ Sat.negl v.(p1).(h); Sat.negl v.(p2).(h) ]
      done
    done
  done;
  check tbool "PHP(3,3) is Sat" true (Sat.solve s = Sat.Sat)

let test_sat_assumptions_incremental () =
  let s = Sat.create () in
  let x = Sat.new_var s and y = Sat.new_var s in
  Sat.add_clause s [ Sat.pos x; Sat.pos y ];
  check tbool "sat under ~x" true
    (Sat.solve ~assumptions:[ Sat.negl x ] s = Sat.Sat);
  check tbool "~x assumption honoured" false (Sat.value s x);
  check tbool "y forced under ~x" true (Sat.value s y);
  check tbool "unsat under ~x ~y" true
    (Sat.solve ~assumptions:[ Sat.negl x; Sat.negl y ] s = Sat.Unsat);
  (* assumption UNSAT must not poison the solver *)
  check tbool "still ok" true (Sat.is_ok s);
  check tbool "sat without assumptions" true (Sat.solve s = Sat.Sat);
  (* clauses added between solve calls take effect *)
  Sat.add_clause s [ Sat.negl x ];
  check tbool "unsat under x after adding ~x" true
    (Sat.solve ~assumptions:[ Sat.pos x ] s = Sat.Unsat);
  check tbool "sat, x now false" true (Sat.solve s = Sat.Sat && not (Sat.value s x))

let test_sat_learning_persists () =
  (* an UNSAT core under assumptions leaves learned clauses behind;
     solving the same query again must be no harder (and still Unsat) *)
  let s = pigeonhole 3 in
  check tbool "first solve Unsat" true (Sat.solve s = Sat.Unsat);
  let c1 = Sat.conflicts s in
  check tbool "re-solve still Unsat" true (Sat.solve s = Sat.Unsat);
  let c2 = Sat.conflicts s - c1 in
  check tbool "level-0 Unsat is remembered without new search" true (c2 = 0)

let test_sat_conflict_limit () =
  let s = pigeonhole 6 in
  check tbool "tiny budget gives Undecided" true
    (Sat.solve ~conflict_limit:3 s = Sat.Undecided);
  check tbool "solver survives budget exhaustion" true (Sat.is_ok s);
  check tbool "full budget resolves Unsat" true (Sat.solve s = Sat.Unsat)

(* Reference clause intake: the list-based normalization (sort, dedupe,
   drop tautologies and clauses satisfied at level 0, drop false
   literals) applied through the solver's own enqueue/propagate/attach
   steps.  [Sat.add_clause] must leave a solver in exactly the state
   this leaves a twin in. *)
let reference_add_clause (s : Sat.t) (lits : Sat.lit list) =
  if Sat.is_ok s then begin
    let sorted = List.sort_uniq compare lits in
    let taut =
      List.exists (fun l -> List.mem (Sat.neg l) sorted) sorted
      || List.exists (fun l -> Sat.lit_value s l = 1) sorted
    in
    if not taut then
      match List.filter (fun l -> Sat.lit_value s l <> 2) sorted with
      | [] -> s.Sat.ok <- false
      | [ l ] ->
          Sat.enqueue s l (-1);
          if Sat.propagate s <> -1 then s.Sat.ok <- false
      | lits -> ignore (Sat.attach_clause s (Array.of_list lits))
  end

(* Random clause streams over few variables, so duplicates,
   complementary pairs and literals already fixed at level 0 (by
   earlier unit clauses) are common. *)
let sat_clause_intake =
  QCheck.Test.make ~count:300 ~name:"clause intake equals the reference normalizer"
    QCheck.int (fun seed ->
      let rs = Random.State.make [| seed |] in
      let nvars = 3 + Random.State.int rs 8 in
      let s = Sat.create () and r = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s);
        ignore (Sat.new_var r)
      done;
      let lit () = (2 * Random.State.int rs nvars) + Random.State.int rs 2 in
      for _ = 1 to 40 do
        let len = 1 + Random.State.int rs 6 in
        let c = ref [] in
        for _ = 1 to len do
          let l =
            match (!c, Random.State.int rs 5) with
            | l :: _, 0 -> l
            | l :: _, 1 -> Sat.neg l
            | _ -> lit ()
          in
          c := l :: !c
        done;
        Sat.add_clause s !c;
        reference_add_clause r !c
      done;
      let clauses (t : Sat.t) = Array.to_list (Array.sub t.Sat.clauses 0 t.Sat.nclauses) in
      let trail (t : Sat.t) = Array.to_list (Array.sub t.Sat.trail 0 t.Sat.trail_n) in
      s.Sat.nclauses = r.Sat.nclauses
      && clauses s = clauses r
      && Sat.is_ok s = Sat.is_ok r
      && trail s = trail r)

(* --- AIG ------------------------------------------------------------------- *)

let test_aig_folding () =
  let g = Aig.create () in
  let x = Aig.new_input g and y = Aig.new_input g in
  check tint "and(true, x) = x" x (Aig.mk_and g Aig.tru x);
  check tint "and(false, x) = false" Aig.fls (Aig.mk_and g Aig.fls x);
  check tint "and(x, x) = x" x (Aig.mk_and g x x);
  check tint "and(x, ~x) = false" Aig.fls (Aig.mk_and g x (Aig.neg x));
  check tint "or(x, true) = true" Aig.tru (Aig.mk_or g x Aig.tru);
  check tint "xor(x, x) = false" Aig.fls (Aig.mk_xor g x x);
  check tint "xor(x, false) = x" x (Aig.mk_xor g x Aig.fls);
  check tint "mux(c, a, a) = a" y (Aig.mk_mux g x y y);
  check tint "double negation" x (Aig.neg (Aig.neg x))

let test_aig_hash_consing () =
  let g = Aig.create () in
  let x = Aig.new_input g and y = Aig.new_input g in
  let a = Aig.mk_and g x y in
  let n = Aig.num_nodes g in
  check tint "and(x,y) structurally shared" a (Aig.mk_and g x y);
  check tint "and(y,x) commutes onto the same node" a (Aig.mk_and g y x);
  check tint "no node allocated for the repeats" n (Aig.num_nodes g)

let test_aig_evaluator () =
  let g = Aig.create () in
  let x = Aig.new_input g and y = Aig.new_input g in
  let f = Aig.mk_xor g x y in
  List.iter
    (fun (bx, by) ->
      let input n =
        if n = Aig.node_of x then bx
        else if n = Aig.node_of y then by
        else false
      in
      let ev = Aig.evaluator g input in
      check tbool
        (Printf.sprintf "xor %b %b" bx by)
        (bx <> by) (ev f);
      check tbool "true literal" true (ev Aig.tru);
      check tbool "false literal" false (ev Aig.fls))
    [ (false, false); (false, true); (true, false); (true, true) ]

(* Reference structural hash: the same folding rules and node numbering
   as [Aig], over a polymorphic [Hashtbl] keyed by the ordered fanin
   pair. *)
module Ref_aig = struct
  type t = { tbl : (int * int, int) Hashtbl.t; mutable n : int }

  let create () = { tbl = Hashtbl.create 16; n = 1 }

  let new_input t =
    let v = t.n in
    t.n <- v + 1;
    2 * v

  let mk_and t a b =
    if a = Aig.fls || b = Aig.fls then Aig.fls
    else if a = Aig.tru then b
    else if b = Aig.tru then a
    else if a = b then a
    else if a = Aig.neg b then Aig.fls
    else
      let key = (min a b, max a b) in
      match Hashtbl.find_opt t.tbl key with
      | Some v -> 2 * v
      | None ->
          let v = t.n in
          t.n <- v + 1;
          Hashtbl.add t.tbl key v;
          2 * v

  let mk_or t a b = Aig.neg (mk_and t (Aig.neg a) (Aig.neg b))
  let mk_xor t a b = mk_or t (mk_and t a (Aig.neg b)) (mk_and t (Aig.neg a) b)

  let mk_mux t c a b =
    if a = b then a
    else if c = Aig.tru then a
    else if c = Aig.fls then b
    else mk_or t (mk_and t c a) (mk_and t (Aig.neg c) b)
end

(* Random gate sequences grow the graph past 10k nodes, through several
   doublings of the hash table; operands are earlier results (or their
   negations, or constants), and about one step in six repeats an
   earlier gate with swapped operands, so lookups hit as well as miss. *)
let aig_hash_consing_growth =
  QCheck.Test.make ~count:4 ~name:"hash consing survives table growth" QCheck.int
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let g = Aig.create () and r = Ref_aig.create () in
      let max_steps = 20_000 in
      let pool = Array.make (8 + max_steps) 0 and npool = ref 0 in
      let push l =
        pool.(!npool) <- l;
        incr npool
      in
      let ok = ref true in
      for _ = 1 to 8 do
        let l = Aig.new_input g in
        ok := !ok && l = Ref_aig.new_input r;
        push l
      done;
      let pick () =
        match Random.State.int rs 40 with
        | 0 -> Aig.tru
        | 1 -> Aig.fls
        | _ ->
            let l = pool.(Random.State.int rs !npool) in
            if Random.State.bool rs then Aig.neg l else l
      in
      let steps = Array.make max_steps (0, 0, 0, 0) and nsteps = ref 0 in
      while !ok && Aig.num_nodes g <= 12_000 && !nsteps < max_steps do
        let op, a, b, c =
          if !nsteps > 0 && Random.State.int rs 6 = 0 then
            let op, a, b, c = steps.(Random.State.int rs !nsteps) in
            (op, b, a, c)
          else (Random.State.int rs 5, pick (), pick (), pick ())
        in
        steps.(!nsteps) <- (op, a, b, c);
        incr nsteps;
        let l, l' =
          match op with
          | 0 -> (Aig.mk_and g a b, Ref_aig.mk_and r a b)
          | 1 -> (Aig.mk_or g a b, Ref_aig.mk_or r a b)
          | 2 -> (Aig.mk_xor g a b, Ref_aig.mk_xor r a b)
          | 3 -> (Aig.mk_mux g c a b, Ref_aig.mk_mux r c a b)
          | _ -> (Aig.new_input g, Ref_aig.new_input r)
        in
        ok := l = l';
        push l
      done;
      !ok && Aig.num_nodes g > 10_000 && Aig.num_nodes g = r.Ref_aig.n)

(* --- bit-blast vs Value ---------------------------------------------------- *)

(* Feed a concrete value in through fresh AIG inputs (not constants), so
   the test exercises the gate-level adders/shifters/dividers rather
   than the constant folder. *)
let input_vec g ty v tbl =
  let s = Value.signedness_of ty in
  let w = Ast.bits_of_width (Value.width_of ty) in
  let vec = Blast.inputs g s w in
  let v = Value.wrap_ty ty v in
  for i = 0 to w - 1 do
    let l = vec.(i) in
    if Aig.is_input g l then
      Hashtbl.replace tbl (Aig.node_of l)
        (Int64.logand (Int64.shift_right_logical v i) 1L = 1L)
  done;
  vec

let blast_tys =
  Ast.
    [
      Tint (Signed, W8);
      Tint (Unsigned, W8);
      Tint (Signed, W32);
      Tint (Unsigned, W32);
      Tint (Signed, W64);
    ]

let blast_samples = [ -128L; -7L; -1L; 0L; 1L; 2L; 3L; 7L; 100L; 255L; 4096L ]

let test_blast_binop_vs_value () =
  let ops =
    Ast.
      [
        Add; Sub; Mul; Div; Mod; Band; Bor; Bxor; Shl; Shr; Lt; Le; Gt; Ge; Eq;
        Ne; Land; Lor;
      ]
  in
  List.iter
    (fun ty ->
      List.iter
        (fun op ->
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let wa = Value.wrap_ty ty a and wb = Value.wrap_ty ty b in
                  (* shift amounts beyond the word and zero divisors are
                     runtime errors in the concrete semantics *)
                  let skip =
                    match op with
                    | Ast.Div | Ast.Mod -> wb = 0L
                    | Ast.Shl | Ast.Shr -> wb < 0L || wb > 63L
                    | _ -> false
                  in
                  if not skip then begin
                    let expected = Value.binop op ty wa wb in
                    let g = Aig.create () in
                    let tbl = Hashtbl.create 64 in
                    let va = input_vec g ty a tbl and vb = input_vec g ty b tbl in
                    let out = Blast.binop g op ty va vb in
                    let ev =
                      Aig.evaluator g (fun n ->
                          Option.value ~default:false (Hashtbl.find_opt tbl n))
                    in
                    let got = Blast.eval_vec ev out in
                    if got <> expected then
                      Alcotest.failf "%s %Ld %Ld (%s): blast %Ld, value %Ld"
                        (Ast.show_binop op) wa wb (Front.Pretty.string_of_ty ty)
                        got expected
                  end)
                blast_samples)
            blast_samples)
        ops)
    blast_tys

let test_blast_unop_cast_vs_value () =
  List.iter
    (fun ty ->
      List.iter
        (fun a ->
          let wa = Value.wrap_ty ty a in
          let g = Aig.create () in
          let tbl = Hashtbl.create 64 in
          let va = input_vec g ty a tbl in
          let ev () =
            Aig.evaluator g (fun n ->
                Option.value ~default:false (Hashtbl.find_opt tbl n))
          in
          List.iter
            (fun op ->
              let got = Blast.eval_vec (ev ()) (Blast.unop g op ty va) in
              let expected = Value.unop op ty wa in
              if got <> expected then
                Alcotest.failf "%s %Ld (%s): blast %Ld, value %Ld"
                  (Ast.show_unop op) wa (Front.Pretty.string_of_ty ty) got
                  expected)
            Ast.[ Neg; Bnot; Lnot ];
          List.iter
            (fun to_ty ->
              let got =
                Blast.eval_vec (ev ()) (Blast.cast g ~from_ty:ty ~to_ty va)
              in
              let expected = Value.cast ~from_ty:ty ~to_ty wa in
              if got <> expected then
                Alcotest.failf "cast %Ld: %s -> %s: blast %Ld, value %Ld" wa
                  (Front.Pretty.string_of_ty ty)
                  (Front.Pretty.string_of_ty to_ty)
                  got expected)
            (Ast.Tbool :: blast_tys))
        blast_samples)
    blast_tys

(* --- model vs engine, cycle for cycle -------------------------------------- *)

(* Deterministic bit stream per (seed, AIG node): splitmix64 finalizer. *)
let hash_bool seed node =
  let x = Int64.add (Int64.mul (Int64.of_int node) 0x9E3779B97F4A7C15L) seed in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94D049BB133111EBL in
  let x = Int64.logxor x (Int64.shift_right_logical x 31) in
  Int64.logand x 1L = 1L

(* Extract the induced testbench from an evaluated unrolling, the same
   way Prove.eval_witness reads a solver model back. *)
let induced_feeds (model : Model.t) ev ~depth =
  List.map
    (fun s ->
      let vs = ref [] in
      for c = 0 to depth - 1 do
        let io = Model.cycle model c in
        match List.find_opt (fun (s', _, _) -> s' = s) io.Model.io_feeds with
        | Some (_, en, v) -> if ev en then vs := Blast.eval_vec ev v :: !vs
        | None -> ()
      done;
      (s, List.rev !vs))
    model.Model.cfg.Model.feeds

let induced_params (model : Model.t) ev =
  List.fold_left
    (fun acc (proc, origin, vec) ->
      let v = Blast.eval_vec ev vec in
      match List.assoc_opt proc acc with
      | Some bs -> (proc, bs @ [ (origin, v) ]) :: List.remove_assoc proc acc
      | None -> acc @ [ (proc, [ (origin, v) ]) ])
    [] model.Model.params

(* Unroll the symbolic model [depth] cycles, pick a random environment,
   and check that the engine — run on the very testbench the environment
   induces — fires exactly the taps the model predicts, at exactly the
   predicted cycles, up to the first predicted division crash. *)
let model_engine_equiv ~seed ~depth (prog : Ast.program) : bool =
  match
    let f = Verify.front_of prog in
    let cfg = Verify.model_config f in
    let model = Model.create cfg in
    for _ = 1 to depth do
      ignore (Model.step model)
    done;
    (f, cfg, model)
  with
  | exception Model.Unsupported _ -> false
  | f, cfg, model -> (
      match
        let ev = Aig.evaluator model.Model.g (hash_bool seed) in
        let horizon =
          let h = ref depth in
          for c = depth - 1 downto 0 do
            if ev (Model.crash_at model c) then h := c
          done;
          !h
        in
        let predicted =
          List.concat
            (List.init horizon (fun c ->
                 List.filter_map
                   (fun (id, l) -> if ev l then Some (id, c) else None)
                   (Model.cycle model c).Model.io_fires))
          |> List.sort_uniq compare
        in
        let feeds = induced_feeds model ev ~depth in
        let params = induced_params model ev in
        (ev, horizon, predicted, feeds, params)
      with
      | exception Model.Unsupported _ -> false
      | _ev, horizon, predicted, feeds, params ->
          let c = Driver.finish f in
          let conds =
            List.map
              (fun (ck : Core.Checker.t) ->
                ( ck.Core.Checker.spec.Core.Parallelize.info.Core.Assertion.id,
                  ck.Core.Checker.spec.Core.Parallelize.cond ))
              c.Driver.checkers
          in
          let observed = ref [] in
          let on_tap cycle tid values =
            if cycle < horizon then
              match List.assoc_opt tid conds with
              | Some cond ->
                  if not (Core.Assertion.holds cond values) then
                    observed := (tid, cycle) :: !observed
              | None -> ()
          in
          let options =
            {
              Driver.default_sim_options with
              Driver.feeds;
              drains = cfg.Model.drains;
              params;
              max_cycles = depth + 64;
            }
          in
          ignore (Driver.simulate ~options ~on_tap c);
          let observed = List.sort_uniq compare !observed in
          if observed <> predicted then
            Alcotest.failf
              "model/engine fire mismatch (seed %Ld, horizon %d): model {%s} \
               engine {%s}"
              seed horizon
              (String.concat "; "
                 (List.map (fun (i, cy) -> Printf.sprintf "#%d@%d" i cy) predicted))
              (String.concat "; "
                 (List.map (fun (i, cy) -> Printf.sprintf "#%d@%d" i cy) observed));
          true)

let test_model_engine_torture () =
  let depth = 6 in
  let covered = ref 0 in
  for i = 0 to 39 do
    let prog =
      Front.Typecheck.parse_and_check
        (Front.Pretty.program_to_string
           (Gen.generate ~seed:(Gen.program_seed ~run_seed:42L ~index:i) ~fuel:8))
    in
    (* two environments per program: all-zero-ish and a scrambled one *)
    List.iter
      (fun seed ->
        if model_engine_equiv ~seed ~depth prog then incr covered)
      [ 0L; Int64.of_int (1 + i) ]
  done;
  check tbool
    (Printf.sprintf "enough torture programs in the BMC fragment (%d)" !covered)
    true (!covered >= 20)

let test_model_engine_examples () =
  (* mine_demo under a hostile seed must show at least one model-level
     fire that the engine then reproduces (the equivalence check inside
     model_engine_equiv does the exact comparison) *)
  let prog = elab (read_file (example "examples/mine_demo.c")) in
  let ran = ref 0 in
  List.iter
    (fun seed -> if model_engine_equiv ~seed ~depth:8 prog then incr ran)
    [ 0L; 7L; 1234567L ];
  check tint "mine_demo is in the BMC fragment" 3 !ran

(* --- Absint cross-check ---------------------------------------------------- *)

(* Soundness, cross-verifier: an assertion the abstract interpreter
   proves can never fire must never be Violated by a replay-confirmed
   BMC counterexample — both over-approximate the same semantics.  Swept
   over the examples corpus and a band of torture programs. *)
let absint_bmc_agree ?(depth = 6) prog =
  let f = Verify.front_of prog in
  let absint = Analysis.Absint.analyze prog in
  List.iteri
    (fun i id ->
      let r, _ = Verify.check_target ~depth f ~absint id in
      match (List.nth_opt absint.Analysis.Absint.verdicts i, r.Verdict.pr_class) with
      | Some { Analysis.Absint.vclass = Analysis.Absint.Proved; _ },
        Verdict.Bviolated cycle ->
          Alcotest.failf
            "verifier divergence: Absint proved %s:%s but BMC violated it at \
             cycle %d (replay confirmed)"
            r.Verdict.pr_proc r.Verdict.pr_text cycle
      | _ -> ())
    (Verify.target_ids f)

let test_absint_cross_examples () =
  List.iter
    (fun file -> absint_bmc_agree (elab (read_file (example file))))
    [
      "examples/fir.c"; "examples/mine_demo.c"; "examples/campaign.c";
      "examples/prove_demo.c"; "examples/dct.c";
    ]

let test_absint_cross_torture () =
  for i = 0 to 14 do
    absint_bmc_agree
      (Front.Typecheck.parse_and_check
         (Front.Pretty.program_to_string
            (Gen.generate ~seed:(Gen.program_seed ~run_seed:9L ~index:i) ~fuel:8)))
  done

let test_oracle_bmc_leg () =
  (* the torture oracle with the BMC leg armed: clean generated programs
     must stay divergence-free (satellite of `inca fuzz --bmc-depth`) *)
  for i = 0 to 7 do
    let prog =
      Gen.generate ~seed:(Gen.program_seed ~run_seed:42L ~index:i) ~fuel:8
    in
    let o = Torture.Oracle.check ~bmc_depth:4 prog in
    check tbool
      (Printf.sprintf "program %d agrees with the BMC leg armed" i)
      true (Torture.Oracle.agrees o)
  done

(* --- end-to-end prove ------------------------------------------------------ *)

(* A witness whose replay stops the engine with a simulator error (here a
   division by zero) is refuted with the error named, not a crash. *)
let test_replay_simulator_error () =
  let prog =
    elab
      "stream int32 inp depth 16; process hw main() { int32 x; int32 y; \
       x = stream_read(inp); y = 100 / x; assert(y > 1000); }"
  in
  let f = Driver.front ~strategy:Driver.parallelized prog in
  let w = { Bmc.Prove.w_cycle = 4; w_feeds = [ ("inp", [ 0L ]) ]; w_params = [] } in
  let contains needle s =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  match Verify.replay f ~id:0 w with
  | Verify.Refuted m ->
      check tbool ("refutation names the simulator error: " ^ m) true
        (contains "simulator error: division by zero" m)
  | Verify.Confirmed c -> Alcotest.failf "replay confirmed at cycle %d" c

let test_prove_mine_demo_violated () =
  let prog = elab (read_file (example "examples/mine_demo.c")) in
  let rep, diags = Verify.prove ~depth:8 prog in
  let violated =
    List.filter
      (fun (r : Verdict.presult) ->
        match r.Verdict.pr_class with Verdict.Bviolated _ -> true | _ -> false)
      rep.Verdict.p_results
  in
  check tint "exactly one violated assertion" 1 (List.length violated);
  (match violated with
  | [ r ] ->
      check tbool "counterexample replayed within the unrolled depth" true
        (match r.Verdict.pr_class with
        | Verdict.Bviolated c -> c < 8
        | _ -> false)
  | _ -> ());
  check tbool "INCA-B001 emitted" true
    (List.exists (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.code = "INCA-B001") diags);
  check tbool "no replay divergence" false
    (List.exists (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.code = "INCA-B006") diags)

let test_prove_demo_induction () =
  let prog = elab (read_file (example "examples/prove_demo.c")) in
  (* Absint leaves the masked-nibble assertion Unknown... *)
  let absint = Analysis.Absint.analyze prog in
  check tbool "absint proves nothing here" true
    (List.for_all
       (fun (v : Analysis.Absint.verdict) ->
         v.Analysis.Absint.vclass <> Analysis.Absint.Proved)
       absint.Analysis.Absint.verdicts);
  (* ...but k-induction closes it *)
  let rep, diags = Verify.prove ~depth:8 ~induction:4 prog in
  let keys = Verify.induction_proved_keys rep in
  check tint "exactly one assertion proved by induction" 1 (List.length keys);
  check tbool "INCA-B002 emitted" true
    (List.exists (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.code = "INCA-B002") diags);
  (* the proof pays: pruning the induction-proved checker saves area *)
  let base = Driver.compile ~strategy:Driver.parallelized prog in
  let pruned =
    Driver.compile ~strategy:Driver.parallelized ~induction_proved:keys prog
  in
  check tbool "ALUT dividend" true
    (pruned.Driver.area.Rtl.Area.aluts < base.Driver.area.Rtl.Area.aluts);
  check tbool "register dividend" true
    (pruned.Driver.area.Rtl.Area.registers < base.Driver.area.Rtl.Area.registers);
  check tint "accounting: one induction-pruned, zero absint-pruned" 1
    pruned.Driver.pruned.Driver.induction_pruned;
  check tint "accounting: absint side" 0 pruned.Driver.pruned.Driver.absint_pruned

let test_prove_without_induction_stays_bounded () =
  (* the same assertion without the induction step is only Bounded —
     the proof really comes from induction, not from the bounded search *)
  let prog = elab (read_file (example "examples/prove_demo.c")) in
  let rep, _ = Verify.prove ~depth:8 ~induction:0 prog in
  check tint "nothing proved without induction" 0
    (List.length (Verify.induction_proved_keys rep));
  let _, _, b, _ = Verdict.tally rep in
  check tint "both assertions bounded" 2 b

let test_prove_deterministic_across_jobs () =
  let prog = elab (read_file (example "examples/prove_demo.c")) in
  let seq, _ = Verify.prove ~depth:8 ~induction:4 prog in
  let pooled jobs =
    let f = Verify.front_of prog in
    let absint = Analysis.Absint.analyze prog in
    let results =
      List.map
        (fun (o : _ Exec.Pool.outcome) ->
          match o.Exec.Pool.value with
          | Ok r -> r
          | Error m -> Alcotest.failf "pool worker failed: %s" m)
        (Exec.Pool.map ~jobs
           (fun id -> fst (Verify.check_target ~depth:8 ~induction:4 f ~absint id))
           (Verify.target_ids f))
    in
    { Verdict.p_depth = 8; p_induction = 4; p_results = results }
  in
  let render r = Json.to_string (Verdict.json_of ~file:"prove_demo.c" r) in
  check tstr "1-domain pool matches sequential" (render seq) (render (pooled 1));
  check tstr "4-domain pool matches sequential" (render seq) (render (pooled 4))

let test_prove_fir_outside_fragment () =
  (* pipelined loops are outside the BMC fragment: Unknown + B005, and
     crucially not misreported as proved or violated *)
  let prog = elab (read_file (example "examples/fir.c")) in
  let rep, diags = Verify.prove ~depth:4 prog in
  let p, v, _, u = Verdict.tally rep in
  check tint "nothing proved" 0 p;
  check tint "nothing violated" 0 v;
  check tbool "assertions classified unknown" true (u > 0);
  check tbool "INCA-B005 emitted" true
    (List.exists (fun (d : Analysis.Diag.t) -> d.Analysis.Diag.code = "INCA-B005") diags)

(* --- verdict pins ----------------------------------------------------------- *)

(* What a prove report says about each assertion apart from the solver
   statistics: id, class with its cycle, k, depth or reason, and reach.
   Recorded at depth 8, induction 4; any change to how the unrolling is
   built or solved must leave every line as it is. *)
let verdict_line (r : Verdict.presult) =
  let cls =
    match r.Verdict.pr_class with
    | Verdict.Bviolated c -> Printf.sprintf "violated at %d" c
    | Verdict.Bproved k -> Printf.sprintf "proved k=%d" k
    | Verdict.Bbounded d -> Printf.sprintf "bounded %d" d
    | Verdict.Bunknown m -> "unknown: " ^ m
  in
  let reach =
    match r.Verdict.pr_reach with
    | Verdict.Breachable c -> Printf.sprintf "reachable at %d" c
    | Verdict.Bunreachable d -> Printf.sprintf "unreachable to %d" d
    | Verdict.Breach_unknown m -> "reach unknown: " ^ m
  in
  Printf.sprintf "#%d %s; %s" r.Verdict.pr_id cls reach

let pin_results prog = (fst (Verify.prove ~depth:8 ~induction:4 prog)).Verdict.p_results

let pin_lines prog = List.map verdict_line (pin_results prog)

(* The solver's work per assertion: conflicts / decisions / propagations.
   The AIG, the SAT variable numbering and the clause database are built
   deterministically, so search repeats exactly; a kernel change that
   reorders any of them shows here before it shifts report bytes. *)
let work_line (r : Verdict.presult) =
  Printf.sprintf "#%d %d/%d/%d" r.Verdict.pr_id r.Verdict.pr_conflicts
    r.Verdict.pr_decisions r.Verdict.pr_propagations

let work_pins =
  [
    ("examples/prove_demo.c", [ "#0 1/32/1658"; "#1 30/1011/119739" ]);
    ("examples/mine_demo.c", [ "#0 0/62/334" ]);
  ]

(* The k-induction model of [Bmc.Prove.k_induction] for assertion [id],
   rebuilt step for step with every k up to [max_k] solved (as when each
   k finds a counterexample to induction): (AIG nodes, SAT variables,
   clauses including learnt ones). *)
let induction_model_sizes prog ~id ~max_k =
  let cfg = Verify.model_config (Verify.front_of prog) in
  let model = Model.create ~free_start:true cfg in
  let solver = Sat.create () in
  let cnf = Bmc.Cnf.create model.Model.g solver in
  List.iter (Bmc.Cnf.assert_lit cnf) model.Model.init_constraints;
  ignore (Model.step model);
  for k = 1 to max_k do
    ignore (Model.step model);
    Bmc.Cnf.assert_lit cnf (Aig.neg (Model.fire_at model (k - 1) id));
    Bmc.Cnf.assert_lit cnf (Aig.neg (Model.crash_at model (k - 1)));
    ignore
      (Sat.solve ~assumptions:[ Bmc.Cnf.lit cnf (Model.fire_at model k id) ] solver)
  done;
  (Aig.num_nodes model.Model.g, solver.Sat.nvars, solver.Sat.nclauses)

let example_pins =
  [
    ("examples/prove_demo.c", [ "#0 proved k=1; reachable at 3"; "#1 bounded 8; reachable at 3" ]);
    ("examples/mine_demo.c", [ "#0 violated at 5; reachable at 5" ]);
    ( "examples/dct.c",
      [
        "#0 bounded 8; unreachable to 8";
        "#1 bounded 8; unreachable to 8";
        "#2 bounded 8; unreachable to 8";
      ] );
    ( "examples/campaign.c",
      [
        "#0 bounded 8; unreachable to 8";
        "#1 bounded 8; unreachable to 8";
        "#2 bounded 8; unreachable to 8";
        "#3 bounded 8; unreachable to 8";
        "#4 bounded 8; unreachable to 8";
      ] );
    ( "examples/fir.c",
      let u = "fir: pipelined loops are outside the BMC fragment" in
      [ "#0 unknown: " ^ u ^ "; reach unknown: " ^ u; "#1 unknown: " ^ u ^ "; reach unknown: " ^ u ] );
  ]

let corpus_pins =
  [
    ("if-else-assert-numbering", [ "#0 bounded 8; unreachable to 8"; "#1 proved k=1; reachable at 3" ]);
    ("stream-read-narrowing", [ "#0 violated at 3; reachable at 3" ]);
    ("tap-reads-unwrapped-pop", [ "#0 violated at 1; reachable at 1" ]);
  ]

(* Generated programs 0..29 of run seed 13 at fuel 8: among them k=2
   proofs after a counterexample to induction at k=1, assertions bounded
   after CTIs at every k, a violation and many outside the fragment. *)
let generated_pin_count = 30
let generated_pin = "c7a54584f3c0bd64d7dd6597dd94c3ef"

let test_verdict_pins () =
  List.iter
    (fun (path, want) ->
      let results = pin_results (elab (read_file (example path))) in
      check (Alcotest.list tstr) path want (List.map verdict_line results);
      match List.assoc_opt path work_pins with
      | Some work ->
          check (Alcotest.list tstr) (path ^ " solver work") work
            (List.map work_line results)
      | None -> ())
    example_pins;
  let prog = elab (read_file (example "examples/prove_demo.c")) in
  let nodes, vars, clauses = induction_model_sizes prog ~id:1 ~max_k:4 in
  check tint "prove_demo #1 induction model: AIG nodes" 74924 nodes;
  check tint "prove_demo #1 induction model: SAT variables" 29994 vars;
  check tint "prove_demo #1 induction model: clauses" 75490 clauses;
  List.iter
    (fun (name, want) ->
      let path = example (Filename.concat Torture.Corpus.default_dir (name ^ ".inca")) in
      let src = (Torture.Corpus.load path).Torture.Corpus.source in
      check (Alcotest.list tstr) name want (pin_lines (elab src)))
    corpus_pins;
  let b = Buffer.create 4096 in
  for i = 0 to generated_pin_count - 1 do
    let prog =
      Front.Typecheck.parse_and_check
        (Front.Pretty.program_to_string
           (Gen.generate ~seed:(Gen.program_seed ~run_seed:13L ~index:i) ~fuel:8))
    in
    List.iter (fun l -> Buffer.add_string b (l ^ "\n")) (pin_lines prog)
  done;
  check tstr "generated programs" generated_pin (Digest.to_hex (Digest.string (Buffer.contents b)))

let () =
  Alcotest.run "bmc"
    [
      ( "sat",
        [
          Alcotest.test_case "unit propagation" `Quick test_sat_unit_propagation;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "assumptions + incremental" `Quick
            test_sat_assumptions_incremental;
          Alcotest.test_case "learning persists" `Quick test_sat_learning_persists;
          Alcotest.test_case "conflict limit" `Quick test_sat_conflict_limit;
          QCheck_alcotest.to_alcotest sat_clause_intake;
        ] );
      ( "aig",
        [
          Alcotest.test_case "constant folding" `Quick test_aig_folding;
          Alcotest.test_case "hash consing" `Quick test_aig_hash_consing;
          Alcotest.test_case "evaluator" `Quick test_aig_evaluator;
          QCheck_alcotest.to_alcotest aig_hash_consing_growth;
        ] );
      ( "blast",
        [
          Alcotest.test_case "binop vs Value" `Slow test_blast_binop_vs_value;
          Alcotest.test_case "unop/cast vs Value" `Quick
            test_blast_unop_cast_vs_value;
        ] );
      ( "model",
        [
          Alcotest.test_case "engine equivalence (torture)" `Slow
            test_model_engine_torture;
          Alcotest.test_case "engine equivalence (mine_demo)" `Quick
            test_model_engine_examples;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "absint agrees (examples)" `Slow
            test_absint_cross_examples;
          Alcotest.test_case "absint agrees (torture)" `Slow
            test_absint_cross_torture;
          Alcotest.test_case "oracle BMC leg" `Slow test_oracle_bmc_leg;
        ] );
      ( "prove",
        [
          Alcotest.test_case "mine_demo violated + replayed" `Quick
            test_prove_mine_demo_violated;
          Alcotest.test_case "prove_demo 1-induction" `Quick
            test_prove_demo_induction;
          Alcotest.test_case "bounded without induction" `Quick
            test_prove_without_induction_stays_bounded;
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_prove_deterministic_across_jobs;
          Alcotest.test_case "fir outside fragment" `Quick
            test_prove_fir_outside_fragment;
          Alcotest.test_case "replay simulator error" `Quick
            test_replay_simulator_error;
        ] );
      ( "pins",
        [ Alcotest.test_case "verdicts at depth 8, induction 4" `Slow test_verdict_pins ] );
    ]
