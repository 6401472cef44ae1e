(* Software-simulation interpreter tests: C semantics, streams,
   assertions (NABORT/NDEBUG), deadlock detection, extern models. *)

open Front
module I = Interp
module V = Interp.Value

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let ti64 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%Ld" v) Int64.equal

let elab = Typecheck.parse_and_check ~file:"test.c"

let run ?cfg src = I.run ?cfg (elab src)

(* --- Value module ------------------------------------------------------- *)

let test_wrap () =
  check ti64 "u8 wrap" 44L (V.wrap Ast.Unsigned Ast.W8 300L);
  check ti64 "i8 wrap" (-56L) (V.wrap Ast.Signed Ast.W8 200L);
  check ti64 "i32 wrap" Int64.(of_int32 Int32.min_int) (V.wrap Ast.Signed Ast.W32 2147483648L);
  check ti64 "w64 identity" (-1L) (V.wrap Ast.Signed Ast.W64 (-1L))

let test_value_div_unsigned () =
  let u32 = Ast.uint32_t in
  (* 4294967286 / 2 as u32 *)
  let a = V.wrap_ty u32 4294967286L in
  check ti64 "unsigned div" 2147483643L (V.binop Ast.Div u32 a 2L)

let test_value_shr () =
  check ti64 "arith shr" (-1L) (V.binop Ast.Shr Ast.int32_t (-2L) 1L);
  check ti64 "logical shr" 2147483647L (V.binop Ast.Shr Ast.uint32_t (V.wrap_ty Ast.uint32_t 0xFFFFFFFFL) 1L)

let test_value_compare_signedness () =
  (* the paper's Figure 3: 4294967286 > 4294967296 must be false at 64 bits *)
  check ti64 "64-bit compare" 0L (V.binop Ast.Gt Ast.int64_t 4294967286L 4294967296L);
  (* but is true if bits are truncated to 5 bits: 22 > 0 *)
  let t5 a = V.wrap Ast.Unsigned Ast.W8 (Int64.logand a 31L) in
  check tbool "5-bit truncation inverts it" true (Int64.compare (t5 4294967286L) (t5 4294967296L) > 0)

let wrap_prop =
  QCheck.Test.make ~count:500 ~name:"wrap is idempotent and in range"
    QCheck.(pair int64 (oneofl Ast.[ W8; W16; W32; W64 ]))
    (fun (v, w) ->
      let u = V.wrap Ast.Unsigned w v in
      let s = V.wrap Ast.Signed w v in
      let n = Ast.bits_of_width w in
      V.wrap Ast.Unsigned w u = u && V.wrap Ast.Signed w s = s
      && (n = 64 || (Int64.compare u 0L >= 0 && Int64.compare u (Int64.shift_left 1L n) < 0)))

(* [wrap] keeps the low bits and extends them by shifting; the
   reference truncates with a mask and ORs the sign extension back in. *)
let wrap_matches_mask_prop =
  QCheck.Test.make ~count:1000 ~name:"wrap matches mask-and-extend"
    QCheck.(triple int64 (oneofl Ast.[ W1; W8; W16; W32; W64 ]) bool)
    (fun (v, w, signed) ->
      let n = Ast.bits_of_width w in
      let mask = if n = 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L in
      let t = Int64.logand v mask in
      let want =
        if (not signed) || n = 64 || Int64.logand t (Int64.shift_left 1L (n - 1)) = 0L then t
        else Int64.logor t (Int64.lognot mask)
      in
      V.wrap (if signed then Ast.Signed else Ast.Unsigned) w v = want)

let add_assoc_prop =
  QCheck.Test.make ~count:500 ~name:"wrapped add matches Int64 add at W64"
    QCheck.(pair int64 int64)
    (fun (a, b) -> V.binop Ast.Add Ast.int64_t a b = Int64.add a b)

let cast_roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"widening then narrowing cast is identity"
    QCheck.(int64)
    (fun v ->
      let v8 = V.wrap Ast.Signed Ast.W8 v in
      let wide = V.cast ~from_ty:(Ast.Tint (Ast.Signed, Ast.W8)) ~to_ty:Ast.int64_t v8 in
      V.cast ~from_ty:Ast.int64_t ~to_ty:(Ast.Tint (Ast.Signed, Ast.W8)) wide = v8)

(* --- Basic interpretation ----------------------------------------------- *)

let test_straightline () =
  let r =
    run
      {| stream int32 o depth 64;
         process hw m() {
           int32 x; int32 y;
           x = 6; y = 7;
           stream_write(o, x * y);
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "completed" true (r.I.outcome = I.Completed);
  check tbool "output" true (r.I.drained = [ ("o", [ 42L ]) ])

let test_loop_sum () =
  let r =
    run
      {| stream int64 o depth 4;
         process hw m() {
           int32 i; int64 acc;
           acc = 0;
           for (i = 1; i <= 100; i = i + 1) { acc = acc + i; }
           stream_write(o, acc);
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "sum 1..100" true (r.I.drained = [ ("o", [ 5050L ]) ])

let test_while_and_arrays () =
  let r =
    run
      {| stream int32 o depth 64;
         process hw m() {
           int32 a[10]; int32 i;
           i = 0;
           while (i < 10) { a[i] = i * i; i = i + 1; }
           stream_write(o, a[7]);
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "a[7]=49" true (r.I.drained = [ ("o", [ 49L ]) ])

let test_producer_consumer () =
  let r =
    run
      {| stream int32 c depth 2;
         stream int32 o depth 64;
         process hw producer() {
           int32 i;
           for (i = 0; i < 5; i = i + 1) { stream_write(c, i * 10); }
         }
         process hw consumer() {
           int32 i; int32 v;
           for (i = 0; i < 5; i = i + 1) { v = stream_read(c); stream_write(o, v + 1); }
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "completed" true (r.I.outcome = I.Completed);
  check tbool "pipeline data" true (r.I.drained = [ ("o", [ 1L; 11L; 21L; 31L; 41L ]) ])

let test_feeds () =
  let r =
    run
      {| stream int32 i depth 8; stream int32 o depth 8;
         process hw m() {
           int32 k; int32 v;
           for (k = 0; k < 3; k = k + 1) { v = stream_read(i); stream_write(o, v * v); }
         } |}
      ~cfg:{ I.default_config with feeds = [ ("i", [ 2L; 3L; 4L ]) ]; drains = [ "o" ] }
  in
  check tbool "squares" true (r.I.drained = [ ("o", [ 4L; 9L; 16L ]) ])

let test_params () =
  let r =
    run
      {| stream int32 o depth 8;
         process hw m(int32 n) { stream_write(o, n + 1); } |}
      ~cfg:{ I.default_config with params = [ ("m", [ ("n", 41L) ]) ]; drains = [ "o" ] }
  in
  check tbool "param" true (r.I.drained = [ ("o", [ 42L ]) ])

let test_c_semantics_wrap () =
  (* int8 overflow wraps *)
  let r =
    run
      {| stream int32 o depth 8;
         process hw m() { int8 x; x = 127; x = x + 1; stream_write(o, (int32)x); } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "int8 overflow wraps to -128" true (r.I.drained = [ ("o", [ -128L ]) ])

let test_figure3_compare_is_correct_in_software () =
  (* Paper Figure 3: the comparison is correct in software simulation. *)
  let r =
    run
      {| stream int32 o depth 8;
         process hw m() {
           int64 c1; int64 c2; int32 addr;
           c1 = 4294967296;
           c2 = 4294967286;
           addr = 0;
           if (c2 > c1) { addr = addr - 10; }
           assert(addr >= 0);
           stream_write(o, addr);
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "no failure in software" true (I.ok r);
  check tbool "addr stays 0" true (r.I.drained = [ ("o", [ 0L ]) ])

let test_const_array () =
  let r =
    run
      {| stream int32 o depth 8;
         process hw m() {
           const int32 t[5] = { 3, 1, 4, 1, 5 };
           int32 i; int32 s;
           s = 0;
           for (i = 0; i < 5; i = i + 1) { s = s + t[i]; }
           stream_write(o, s);
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "sum of ROM" true (r.I.drained = [ ("o", [ 14L ]) ])

let test_short_circuit_guards_division () =
  (* C's && must not evaluate the division when the guard is false *)
  let r =
    run
      {| stream int32 o depth 8;
         process hw m() {
           int32 d; int32 x; bool ok;
           d = 0; x = 10;
           ok = d != 0 && x / d > 1;
           if (ok) { stream_write(o, 1); } else { stream_write(o, 0); }
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "no division trap" true (r.I.drained = [ ("o", [ 0L ]) ])

let test_nested_loops () =
  let r =
    run
      {| stream int32 o depth 8;
         process hw m() {
           int32 i; int32 j; int32 s;
           s = 0;
           for (i = 0; i < 5; i = i + 1) {
             for (j = 0; j < i; j = j + 1) { s = s + 1; }
           }
           stream_write(o, s);
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "triangular count" true (r.I.drained = [ ("o", [ 10L ]) ])

let test_shadowing_scopes () =
  let r =
    run
      {| stream int32 o depth 8;
         process hw m() {
           int32 x;
           x = 1;
           {
             int32 x;
             x = 99;
           }
           stream_write(o, x);
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  check tbool "outer x unchanged" true (r.I.drained = [ ("o", [ 1L ]) ])

(* --- Assertions --------------------------------------------------------- *)

let test_assert_failure_aborts () =
  let r =
    run
      {| stream int32 o depth 8;
         process hw m() {
           int32 x;
           x = 3;
           assert(x > 5);
           stream_write(o, x);
         } |}
      ~cfg:{ I.default_config with drains = [ "o" ] }
  in
  (match r.I.outcome with
  | I.Aborted f ->
      check tstr "failed text" "x > 5" f.I.ftext;
      check tstr "proc" "m" f.I.fproc
  | _ -> Alcotest.fail "expected abort");
  check tbool "no output after abort" true (r.I.drained = [ ("o", []) ]);
  match r.I.log with
  | [ msg ] ->
      check tbool "ANSI message format" true
        (msg = Printf.sprintf "test.c:%d: m: Assertion `x > 5' failed." 5)
  | _ -> Alcotest.fail "expected one log line"

let test_assert_nabort_continues () =
  let r =
    run
      {| stream int32 o depth 8;
         process hw m() {
           int32 i;
           for (i = 0; i < 4; i = i + 1) { assert(i % 2 == 0); }
           stream_write(o, 1);
         } |}
      ~cfg:{ I.default_config with nabort = true; drains = [ "o" ] }
  in
  check tbool "completed under NABORT" true (r.I.outcome = I.Completed);
  check tint "two failures recorded" 2 (List.length r.I.failures);
  check tbool "program ran to the end" true (r.I.drained = [ ("o", [ 1L ]) ])

let test_assert_ndebug_disables () =
  let r =
    run {| process hw m() { assert(false); } |}
      ~cfg:{ I.default_config with ndebug = true }
  in
  check tbool "NDEBUG disables assertions" true (I.ok r)

let test_assert_zero_trace () =
  (* Section 5.1: assert(0) as positive execution indicator under NABORT. *)
  let r =
    run
      {| stream int32 c depth 8;
         process hw a() { assert(0); stream_write(c, 1); assert(0); }
         process hw b() { int32 v; v = stream_read(c); assert(0); } |}
      ~cfg:{ I.default_config with nabort = true }
  in
  check tint "three trace points hit" 3 (List.length r.I.failures);
  let lines = List.map (fun f -> (f.I.fproc, f.I.floc.Loc.line)) r.I.failures in
  check tbool "trace identifies processes" true
    (List.mem ("a", 2) lines && List.mem ("b", 3) lines)

(* --- Deadlock / hang detection ------------------------------------------ *)

let test_deadlock_detected () =
  let r =
    run
      {| stream int32 c depth 2;
         process hw m() { int32 v; v = stream_read(c); } |}
  in
  match r.I.outcome with
  | I.Deadlocked [ ("m", loc) ] -> check tint "blocked at read line" 2 loc.Loc.line
  | _ -> Alcotest.fail "expected deadlock"

let test_bounded_fifo_can_hang_where_unbounded_completes () =
  (* The software-sim vs hardware discrepancy in miniature: a producer
     writing 8 values into a depth-2 FIFO with no consumer completes when
     FIFOs are unbounded (software simulation) but hangs when bounded. *)
  let src =
    {| stream int32 c depth 2;
       process hw producer() {
         int32 i;
         for (i = 0; i < 8; i = i + 1) { stream_write(c, i); }
       } |}
  in
  let soft = run src in
  check tbool "unbounded completes" true (soft.I.outcome = I.Completed);
  let hard = run src ~cfg:{ I.default_config with unbounded_fifos = false } in
  match hard.I.outcome with
  | I.Deadlocked [ ("producer", _) ] -> ()
  | _ -> Alcotest.fail "expected bounded-FIFO hang"

let test_fuel_exhaustion () =
  let r =
    run {| process hw m() { int32 x; x = 0; while (x == 0) { x = 0; } } |}
      ~cfg:{ I.default_config with max_steps = 1000 }
  in
  check tbool "fuel exhausted" true (r.I.outcome = I.Fuel_exhausted)

(* --- Runtime errors ------------------------------------------------------ *)

let test_out_of_bounds_reported () =
  let r = run {| process hw m() { int32 a[4]; int32 i; i = 9; a[i] = 1; } |} in
  match r.I.outcome with
  | I.Runtime_error msg -> check tbool "mentions bounds" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected runtime error"

(* An index is checked as the whole 64-bit word, unsigned, against the
   length: bit 63 must not fall away before the check. *)
let test_high_bit_index_bounds () =
  let error_of src =
    match (run src).I.outcome with
    | I.Runtime_error msg -> msg
    | I.Completed -> "completed"
    | _ -> "other outcome"
  in
  let ends_with suffix msg =
    let n = String.length suffix and m = String.length msg in
    check tstr "bounds message" suffix (String.sub msg (max 0 (m - n)) (min n m))
  in
  ends_with "array index 9223372036854775809 out of bounds for a[4]"
    (error_of
       {| process hw m() {
            uint32 a[4]; uint64 i; uint32 x;
            a[1] = 11; i = 9223372036854775809; x = a[i]; } |});
  ends_with "array index -9223372036854775807 out of bounds for a[4]"
    (error_of
       {| process hw m() {
            uint32 a[4]; int64 i; uint32 x;
            a[1] = 11; i = -9223372036854775807; x = a[i]; } |});
  check tstr "store" "m: array index 9223372036854775810 out of bounds for a[4]"
    (error_of
       {| process hw m() { uint32 a[4]; uint64 i; i = 9223372036854775810; a[i] = 5; } |});
  ends_with "array index 5 out of bounds for a[4]"
    (error_of {| process hw m() { uint32 a[4]; uint64 i; uint32 x; i = 5; x = a[i]; } |})

let test_division_by_zero_reported () =
  let r = run {| process hw m() { int32 x; int32 y; y = 0; x = 5 / y; } |} in
  match r.I.outcome with
  | I.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected division error"

(* --- External functions -------------------------------------------------- *)

let test_extern_model () =
  let cfg =
    {
      I.default_config with
      extern_models = [ ("triple", fun vs -> Int64.mul 3L (List.hd vs)) ];
      drains = [ "o" ];
    }
  in
  let r =
    run ~cfg
      {| stream int32 o depth 8;
         extern int32 triple(int32) latency 2;
         process hw m() { int32 y; y = triple(14); stream_write(o, y); } |}
  in
  check tbool "extern model used" true (r.I.drained = [ ("o", [ 42L ]) ])

let test_extern_missing_model () =
  let r =
    run
      {| extern int32 f(int32) latency 1;
         process hw m() { int32 y; y = f(1); } |}
  in
  match r.I.outcome with
  | I.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected missing-model error"

(* Interpreter agrees with a native OCaml oracle on random arithmetic. *)
let interp_matches_oracle =
  QCheck.Test.make ~count:200 ~name:"interp arithmetic matches OCaml int32 oracle"
    QCheck.(triple int32 int32 (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ]))
    (fun (a, b, op) ->
      let src =
        Printf.sprintf
          {| stream int64 o depth 4;
             process hw m() {
               int32 x; int32 y; int32 z;
               x = (%ld); y = (%ld); z = x %s y;
               stream_write(o, (int64)z);
             } |}
          a b op
      in
      let r = run src ~cfg:{ I.default_config with drains = [ "o" ] } in
      let expected =
        let f =
          match op with
          | "+" -> Int32.add
          | "-" -> Int32.sub
          | "*" -> Int32.mul
          | "&" -> Int32.logand
          | "|" -> Int32.logor
          | _ -> Int32.logxor
        in
        Int64.of_int32 (f a b)
      in
      r.I.drained = [ ("o", [ expected ]) ])

(* --- Word ops agree with Value ------------------------------------------------ *)

(* Every binop, unop and cast at every scalar type, on edge operands,
   run through [I.run] and checked against {!Value}.  The programs are
   built as ASTs so that operations elaboration never produces (bool
   arithmetic, say) are covered too.  Each operation runs on variables,
   on casts of them (operands with code of their own) and, for
   comparisons and logical operators, as an [if] condition. *)

let scalar_types =
  Ast.
    [
      Tint (Signed, W8); Tint (Signed, W16); int32_t; int64_t; Tint (Unsigned, W8);
      Tint (Unsigned, W16); uint32_t; Tint (Unsigned, W64); Tbool;
    ]

let edge_operands ty =
  let n = Ast.bits_of_width (V.width_of ty) in
  let pow k = Int64.shift_left 1L k in
  [ 0L; 1L; -1L; 2L; 3L; -2L; -7L; Int64.min_int; Int64.max_int ]
  @ List.map (fun k -> Int64.pred (pow k)) [ 7; 8; 15; 16; 31; 32; 63 ]
  @ List.map pow [ 7; 15; 31 ]
  @ List.map Int64.of_int [ n - 1; n; n + 1; 63; 64; 65 ]
  |> List.map (V.wrap_ty ty)
  |> List.sort_uniq compare

let arith_ops = Ast.[ Add; Sub; Mul; Div; Mod; Shl; Shr; Band; Bor; Bxor ]
let cond_ops = Ast.[ Lt; Le; Gt; Ge; Eq; Ne; Land; Lor ]

(* One program per type: [x] and [y] read from streams [a] and [b],
   results written to [o] (int64 keeps every bit), in the order
   [expected] lists them. *)
let ops_program ty npairs nsingles =
  let open Ast in
  let var n = mk_var ~ty n in
  let st s = mk_stmt s in
  let write e = st (Stream_write ("o", e)) in
  let bin op a b =
    mk_expr (if is_comparison op || is_logical op then Tbool else ty) (Binop (op, a, b))
  in
  let recast e = mk_expr ty (Cast (ty, e)) in
  let cond_write e = st (If (e, [ write (mk_int 1L) ], [ write (mk_int 0L) ])) in
  let nonzero_y = mk_expr Tbool (Binop (Ne, var "y", mk_int ~ty 0L)) in
  let counted n body =
    let k = mk_var "k" in
    st
      (For
         ( {
             init = Some (st (Assign (Lvar "k", mk_int 0L)));
             cond = mk_expr Tbool (Binop (Lt, k, mk_int (Int64.of_int n)));
             step = Some (st (Assign (Lvar "k", mk_expr int32_t (Binop (Add, k, mk_int 1L)))));
             pipelined = false;
           },
           body ))
  in
  let pair_body =
    [ st (Stream_read (Lvar "x", "a")); st (Stream_read (Lvar "y", "b")) ]
    @ List.concat_map
        (fun op ->
          let both =
            [
              write (bin op (var "x") (var "y"));
              write (bin op (recast (var "x")) (recast (var "y")));
            ]
          in
          match op with Div | Mod -> [ st (If (nonzero_y, both, [])) ] | _ -> both)
        (arith_ops @ cond_ops)
    @ List.map (fun op -> cond_write (bin op (var "x") (var "y"))) cond_ops
  in
  let single_body =
    [ st (Stream_read (Lvar "x", "a")) ]
    @ List.map (fun op -> write (mk_expr ty (Unop (op, var "x")))) [ Neg; Bnot; Lnot ]
    @ [ cond_write (mk_expr Tbool (Unop (Lnot, var "x"))) ]
    @ List.map (fun to_ty -> write (mk_expr to_ty (Cast (to_ty, var "x")))) scalar_types
  in
  {
    streams =
      [ { sname = "a"; elem = ty; depth = 4 }; { sname = "b"; elem = ty; depth = 4 };
        { sname = "o"; elem = int64_t; depth = 4 } ];
    externs = [];
    procs =
      [
        {
          pname = "m";
          kind = Hardware;
          params = [];
          body =
            [ st (Decl (ty, "x", None)); st (Decl (ty, "y", None)); st (Decl (int32_t, "k", None));
              counted npairs pair_body; counted nsingles single_body ];
          ploc = Loc.none;
        };
      ];
  }

(* What [ops_program] must write, from {!Value}.  [&&] and [||] yield
   their right operand's value when it decides, which is Value's 0/1
   for the bool operands elaboration gives them: they are compared as
   values at bool and as conditions everywhere. *)
let expected ty pairs singles =
  let open Ast in
  let value op x y = V.binop op ty x y in
  let truth op x y =
    match op with
    | Land -> V.to_bool x && V.to_bool y
    | Lor -> V.to_bool x || V.to_bool y
    | _ -> V.to_bool (value op x y)
  in
  let written op x y =
    match op with
    | Land when ty <> Tbool -> if V.to_bool x then y else 0L
    | Lor when ty <> Tbool -> if V.to_bool x then 1L else y
    | _ -> value op x y
  in
  List.concat_map
    (fun (x, y) ->
      List.concat_map
        (fun op ->
          match op with
          | (Div | Mod) when y = 0L -> []
          | _ -> [ written op x y; written op x y ])
        (arith_ops @ cond_ops)
      @ List.map (fun op -> V.of_bool (truth op x y)) cond_ops)
    pairs
  @ List.concat_map
      (fun x ->
        List.map (fun op -> V.unop op ty x) [ Neg; Bnot; Lnot ]
        @ [ V.of_bool (not (V.to_bool x)) ]
        @ List.map (fun to_ty -> V.cast ~from_ty:ty ~to_ty x) scalar_types)
      singles

let test_ops_agree_with_value () =
  List.iter
    (fun ty ->
      let edges = edge_operands ty in
      let pairs = List.concat_map (fun x -> List.map (fun y -> (x, y)) edges) edges in
      let cfg =
        {
          I.default_config with
          feeds = [ ("a", List.map fst pairs @ edges); ("b", List.map snd pairs) ];
          drains = [ "o" ];
        }
      in
      let r = I.run ~cfg (ops_program ty (List.length pairs) (List.length edges)) in
      let name = Ast.show_ty ty in
      check tbool (name ^ " completes") true (r.I.outcome = I.Completed);
      let want = expected ty pairs edges and got = List.assoc "o" r.I.drained in
      check tint (name ^ " results") (List.length want) (List.length got);
      List.iteri
        (fun i (w, g) ->
          if w <> g then Alcotest.failf "%s: result %d is %Ld, expected %Ld" name i g w)
        (List.combine want got))
    scalar_types

(* A step of straight-line scalar code allocates nothing: the spin loop
   a shrink candidate never leaves, run for a million steps. *)
let test_spin_loop_allocation () =
  let prog =
    elab
      {| process hw m() {
           for (int32 i0 = 0; 0 < 4; i0 = 0) { int32 w2 = 4; while (0 > 0) { assert(0 != 0); } }
         } |}
  in
  let steps = 1_000_000 in
  let before = Gc.minor_words () in
  let r = I.run ~cfg:{ I.default_config with max_steps = steps } prog in
  let per_step = (Gc.minor_words () -. before) /. float steps in
  check tbool "fuel exhausted" true (r.I.outcome = I.Fuel_exhausted);
  if per_step >= 0.05 then
    Alcotest.failf "%.3f minor words per step, expected fewer than 0.05" per_step

(* --- Pins ------------------------------------------------------------------ *)

(* The interpreter's observable results, recorded from the original
   tree-walking interpreter: outcome, failures, log and drained streams
   (plus the observer's event stream where noted), one MD5 per run.  Any
   change to how Interp executes a program must leave these untouched. *)

let render_result (r : I.result) =
  let outcome =
    match r.I.outcome with
    | I.Completed -> "completed"
    | I.Aborted f -> "aborted " ^ I.failure_message f
    | I.Deadlocked l ->
        "deadlocked "
        ^ String.concat ";" (List.map (fun (p, loc) -> p ^ "@" ^ Loc.to_string loc) l)
    | I.Fuel_exhausted -> "fuel exhausted"
    | I.Runtime_error m -> "error " ^ m
  in
  String.concat "\n"
    ([ outcome ]
    @ List.map I.failure_message r.I.failures
    @ r.I.log
    @ List.map
        (fun (s, vs) -> s ^ ":" ^ String.concat "," (List.map Int64.to_string vs))
        r.I.drained)

let render_event = function
  | I.Obs_scalar { oproc; oloc; ovar; value } ->
      Printf.sprintf "s %s %s %s %Ld" oproc (Loc.to_string oloc) ovar value
  | I.Obs_loop { oproc; oloc; iters } ->
      Printf.sprintf "l %s %s %d" oproc (Loc.to_string oloc) iters
  | I.Obs_stream { oproc; stream; written } ->
      Printf.sprintf "w %s %s %Ld" oproc stream written

let md5 s = Digest.to_hex (Digest.string s)

(* [run] with the observer installed: the rendered result followed by
   every observed event. *)
let observed (cfg : I.config) prog =
  let b = Buffer.create 1024 in
  let observer ev = Buffer.add_string b (render_event ev); Buffer.add_char b '\n' in
  let r = I.run ~cfg:{ cfg with I.observer = Some observer } prog in
  render_result r ^ "\n--\n" ^ Buffer.contents b

(* [Driver.software_sim]'s configuration for [options]. *)
let sw_config ?(nabort = false) (o : Core.Driver.sim_options) =
  {
    I.default_config with
    I.params = o.Core.Driver.params;
    feeds = o.Core.Driver.feeds;
    drains = o.Core.Driver.drains;
    nabort;
    extern_models = o.Core.Driver.hw_models;
  }

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* dune runtest runs from _build/default/test; dune exec from the root *)
let example path =
  List.find Sys.file_exists [ Filename.concat ".." path; path; Filename.concat "../.." path ]

let example_prog path =
  Typecheck.parse_and_check ~file:(Filename.basename path) (read_file (example path))

let app_pin (w : Campaign.workload) =
  let c = Core.Driver.compile w.Campaign.program in
  md5 (render_result (Core.Driver.software_sim ~options:w.Campaign.options c))

let corpus_pin name =
  let path = example (Filename.concat Torture.Corpus.default_dir (name ^ ".inca")) in
  let prog =
    Typecheck.parse_and_check ~file:(name ^ ".inca") (Torture.Corpus.load path).Torture.Corpus.source
  in
  let c = Core.Driver.compile prog in
  md5 (render_result (Core.Driver.software_sim ~options:(Mine.Trace.auto_options prog) c))

(* Generated program [i] of run seed 15 at fuel 8, aborting and under
   NABORT, with its observer stream. *)
let gen_pin i =
  let prog =
    Torture.Gen.generate ~seed:(Torture.Gen.program_seed ~run_seed:15L ~index:i) ~fuel:8
  in
  let o = Mine.Trace.auto_options prog in
  md5 (observed (sw_config o) prog ^ "\n==\n" ^ observed (sw_config ~nabort:true o) prog)

let observer_pin path =
  let prog = example_prog path in
  md5 (observed (sw_config (Mine.Trace.auto_options prog)) prog)

let app_pins =
  [
    ("fir", "d47f65a98dc783915af658a89c98146a");
    ("dct", "aa467598966da4e2e9c796b545b2c6f1");
    ("des3", "a2f422eaec66843705710a5b3a11759c");
    ("edge", "80a704e1d3dd7cce6e663b81d9fbb3f4");
    ("pulse", "52e4c8008b5234316c1dda95818f49d5");
  ]

let corpus_pins =
  [
    ("if-else-assert-numbering", "c01ca33bc0cf60a85cc8837e47674fe8");
    ("stream-read-narrowing", "1d97393087cf9a855d334afdafab4599");
    ("tap-reads-unwrapped-pop", "549e5a142a927a02db3147d282e0f5e2");
  ]

let observer_pins =
  [
    ("examples/mine_demo.c", "4734f77b027a86c2838ef636c872fc18");
    ("examples/fir.c", "110145b69740aefcfa1fcefe4409323a");
  ]

let gen_pins =
  [|
    "4b5788328e5d19da14758587a69bfc85";
    "e9f4da33b1a4eb6d44248bea729cc5dc";
    "377514c61aec85c4ac824be7f17f8be5";
    "d34b980cf5a2c4917730eb8bd6701a59";
    "1e83e0c9ac50ff2fd56b997ed5638ccc";
    "679e80e1d50e930e43064a2ad8812612";
    "0234c3e7582d5616ff5e9e929877371f";
    "11f270a4777669f412a4d15f450309e9";
    "2c03df18d910f3d38ce25b3280a2f773";
    "e3cb88e70e96b11149345da3477d52f4";
    "224f95b023bf3561ae65cdebe40e9d25";
    "d849ad0d498ca632892ca0390d880793";
    "a94c8ee50d41d18654afb68afd0b1680";
    "1a56a6ea82fec7f705cbd3971a8557d6";
    "61d3916e1ea9879519c76754190ee55a";
    "1d0856a90d13366dac0849e5753fe903";
    "4831183578f0585512707234697eb66d";
    "03ace3ac19c2a61d4448dd5da9ffb2e8";
    "0927d21ce4d64e113f121ab1b7c34717";
    "90ce0df4c04d79d69ec9d07ef3f59792";
    "c89b0ea3a756746110359fe5878e897e";
    "39517937bd17560149b6ded056e2ebda";
    "731b47674b9790a13cec6740e511c627";
    "9e1cc04328d6795be5e5989ccd60e324";
    "3aaf2d3334a618e5e0dc304cfca860b6";
    "d24b2746016fb810bcc35a83c8fff14f";
    "caeebccd0b6bd8c0dd2adb0c6144a296";
    "fb9ff6d22c6ee546d3ede4974ea5bfea";
    "66a602e6b1a0deeef06be5c6da6d9cd8";
    "bdcb502bfbdbde4b2735a769eb6b9bab";
    "caf3d28a974353ee11ebd38d0825c3ef";
    "02bbded3aaf19d804d9c23c1135c7d2b";
    "0e2d6b1e0b4cd71597cea0fb8518b551";
    "aa91b5c2ebed81b81385ec387fcc8415";
    "5610104b170e6d053308e4e3f93587ac";
    "68a85c65b19df9e76fc1370165dda262";
    "1ed41104d2652b7ac5a56ca900ab97ab";
    "98a4357f241d37bb10d051f879bcb9e3";
    "29baff767aa8ab8832e78a7c77d5e1c4";
    "8fc6b9e6fb2b5e2937d96a14a2e95fb2";
    "556692d4822a6116838b6c2224f95079";
    "2e9fd621875a10ca25bb4f559b38a8dc";
    "475145b390a90568ffdd57b5e2908b4f";
    "d22e77854d11b4771b8276bf1b4cf7cd";
    "2c81c359df125d814aa50f3674a50aa5";
    "d334969000744fe7ff707bc16ddeaa54";
    "830929ee960dc6d9d21c9aa5098743b0";
    "5e7ed271896de5e86c9190e33d0245cd";
    "b1308717c64fcb3de1064a0448e8096f";
    "97f8fb03c5ac3dae33c37e23eddc2e9a";
  |]

(* Step accounting at the fuel boundary: non-terminating loops that
   write a drained stream (and, under NABORT, fail an assertion) every
   few steps, cut off at small [max_steps].  Each pin is
   "max_steps: outcome / drained length / failures". *)
let fuel_programs =
  [
    ( "while",
      false,
      {| stream int32 o depth 4;
         process hw m() {
           int32 i;
           i = 0;
           while (true) { i = i + 1; stream_write(o, i); }
         } |} );
    ( "for",
      false,
      {| stream int32 o depth 4;
         process hw m() {
           int32 k;
           for (int32 i = 0; i >= 0; i = i + 1) {
             if (i % 2 == 0) { k = i; } else { assert(i % 3 != 1); }
             stream_write(o, i);
           }
         } |} );
    ( "bounded pair",
      true,
      {| stream int32 c depth 2;
         stream int32 o depth 4;
         process hw p() {
           int32 i;
           for (i = 0; true; i = i + 1) { stream_write(c, i); }
         }
         process hw q() {
           int32 v;
           while (true) { v = stream_read(c); { int32 w = v * 2; stream_write(o, w); } }
         } |} );
  ]

let fuel_steps = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 25; 50; 101 ]

let fuel_pin bounded src max_steps =
  let cfg =
    { I.default_config with drains = [ "o" ]; nabort = true; max_steps;
      unbounded_fifos = not bounded }
  in
  let r = run ~cfg src in
  let outcome =
    match r.I.outcome with
    | I.Completed -> "completed"
    | I.Fuel_exhausted -> "fuel"
    | I.Aborted _ -> "aborted"
    | I.Deadlocked _ -> "deadlocked"
    | I.Runtime_error m -> "error " ^ m
  in
  Printf.sprintf "%d: %s / %d / %d" max_steps outcome
    (List.length (List.assoc "o" r.I.drained))
    (List.length r.I.failures)

let fuel_pins =
  [
    ( "while",
      [
        "0: fuel / 0 / 0";
        "1: fuel / 0 / 0";
        "2: fuel / 0 / 0";
        "3: fuel / 0 / 0";
        "4: fuel / 0 / 0";
        "5: fuel / 0 / 0";
        "6: fuel / 1 / 0";
        "7: fuel / 1 / 0";
        "8: fuel / 1 / 0";
        "9: fuel / 2 / 0";
        "10: fuel / 2 / 0";
        "11: fuel / 2 / 0";
        "12: fuel / 3 / 0";
        "13: fuel / 3 / 0";
        "25: fuel / 7 / 0";
        "50: fuel / 15 / 0";
        "101: fuel / 32 / 0";
      ] );
    ( "for",
      [
        "0: fuel / 0 / 0";
        "1: fuel / 0 / 0";
        "2: fuel / 0 / 0";
        "3: fuel / 0 / 0";
        "4: fuel / 0 / 0";
        "5: fuel / 0 / 0";
        "6: fuel / 0 / 0";
        "7: fuel / 1 / 0";
        "8: fuel / 1 / 0";
        "9: fuel / 1 / 0";
        "10: fuel / 1 / 0";
        "11: fuel / 1 / 1";
        "12: fuel / 2 / 1";
        "13: fuel / 2 / 1";
        "25: fuel / 4 / 1";
        "50: fuel / 9 / 2";
        "101: fuel / 19 / 4";
      ] );
    ( "bounded pair",
      [
        "0: fuel / 0 / 0";
        "1: fuel / 0 / 0";
        "2: fuel / 0 / 0";
        "3: fuel / 0 / 0";
        "4: fuel / 0 / 0";
        "5: fuel / 0 / 0";
        "6: fuel / 0 / 0";
        "7: fuel / 0 / 0";
        "8: fuel / 0 / 0";
        "9: fuel / 0 / 0";
        "10: fuel / 0 / 0";
        "11: fuel / 0 / 0";
        "12: fuel / 0 / 0";
        "13: fuel / 0 / 0";
        "25: fuel / 2 / 0";
        "50: fuel / 4 / 0";
        "101: deadlocked / 4 / 0";
      ] );
  ]

(* Runtime errors keep their exact messages. *)
let message_pins =
  [
    ( {| process hw m() { int32 a[4]; int32 i; int32 x; i = 9; x = a[i]; } |},
      "error m: test.c:1:60: array index 9 out of bounds for a[4]" );
    ( {| process hw m() { int32 a[4]; int32 i; i = -1; a[i] = 1; } |},
      "error m: array index -1 out of bounds for a[4]" );
    ( {| process hw m() { int32 x; int32 y; y = 0; x = 5 / y; } |},
      "error m: test.c:1:50: division by zero" );
    ( {| process hw m() { uint8 x; uint8 y; y = 0; x = 5 % y; } |},
      "error m: test.c:1:50: division by zero" );
    ( {| extern int32 f(int32) latency 1;
         process hw m() { int32 y; y = f(1); } |},
      "error m: no C model registered for extern f" );
    ( {| stream int32 o depth 4;
         process hw m() {
           int32 a[2]; int32 x; x = 7; a[x - 7] = 3;
           stream_write(o, a[0] / (x - 7)); } |},
      "error m: test.c:4:33: division by zero" );
  ]

(* Static scoping agrees with the old dynamic scopes: shadowing in
   nested blocks, loop-body redeclarations, header declarations, and a
   use before a same-scope redeclaration. *)
let scoping_src =
  {| stream int32 o depth 64;
     process hw m(int32 n) {
       int32 x = 1;
       int32 n = n + 1;
       {
         int32 y = x;
         int32 x = 10;
         stream_write(o, y + x);
       }
       for (int32 x = 100; x < 103; x = x + 1) {
         stream_write(o, x);
         int32 x = 7;
         stream_write(o, x);
       }
       int32 i = 0;
       while (i < 3) {
         stream_write(o, x);
         int32 x = i * 5;
         x = x + 1;
         stream_write(o, x);
         i = i + 1;
       }
       int32 a[3];
       for (i = 0; i < 3; i = i + 1) {
         int32 a[3];
         a[i] = i + 1;
         stream_write(o, a[0] + a[1] + a[2]);
       }
       a[1] = 4;
       stream_write(o, a[0] + a[1] + a[2] + n + x);
     } |}

let scoping_pin =
  [
    "completed";
    "o:11,100,7,101,7,102,7,1,1,1,6,1,11,1,2,3,9";
    "--";
    "s m test.c:3:8 x 1";
    "s m test.c:4:8 n 4";
    "s m test.c:6:10 y 1";
    "s m test.c:7:10 x 10";
    "w m o 11";
    "s m test.c:10:8 x 100";
    "w m o 100";
    "s m test.c:12:10 x 7";
    "w m o 7";
    "s m test.c:10:8 x 101";
    "w m o 101";
    "s m test.c:12:10 x 7";
    "w m o 7";
    "s m test.c:10:8 x 102";
    "w m o 102";
    "s m test.c:12:10 x 7";
    "w m o 7";
    "l m test.c:10:8 3";
    "s m test.c:15:8 i 0";
    "w m o 1";
    "s m test.c:18:10 x 0";
    "s m test.c:19:10 x 1";
    "w m o 1";
    "s m test.c:21:10 i 1";
    "w m o 1";
    "s m test.c:18:10 x 5";
    "s m test.c:19:10 x 6";
    "w m o 6";
    "s m test.c:21:10 i 2";
    "w m o 1";
    "s m test.c:18:10 x 10";
    "s m test.c:19:10 x 11";
    "w m o 11";
    "s m test.c:21:10 i 3";
    "l m test.c:16:8 3";
    "s m test.c:24:8 i 0";
    "w m o 1";
    "s m test.c:24:8 i 1";
    "w m o 2";
    "s m test.c:24:8 i 2";
    "w m o 3";
    "l m test.c:24:8 3";
    "w m o 9";
  ]

(* Hand-built programs the type checker would reject: resolution
   failures surface when the offending code runs, with their messages,
   and never when it is merely present. *)
let untyped_pins =
  let open Ast in
  let v name = mk_var name in
  let st s = mk_stmt s in
  let prog body =
    {
      streams = [ { sname = "o"; elem = int32_t; depth = 4 } ];
      externs = [];
      procs = [ { pname = "m"; kind = Hardware; params = []; body; ploc = Loc.none } ];
    }
  in
  let decl name = st (Decl (int32_t, name, None)) in
  let arr name = st (Decl (Tarray (int32_t, 2), name, None)) in
  [
    ( "read unbound",
      prog [ decl "x"; st (Assign (Lvar "x", v "nope")) ],
      "error m: unbound variable nope\no:" );
    ( "assign unbound",
      prog [ st (Assign (Lvar "nope", mk_int 1L)) ],
      "error m: unbound variable nope\no:" );
    ( "index unbound",
      prog [ decl "x"; st (Assign (Lvar "x", mk_expr int32_t (Index ("nope", mk_int 0L)))) ],
      "error m: unbound variable nope\no:" );
    ( "array as scalar",
      prog [ arr "a"; decl "x"; st (Assign (Lvar "x", v "a")) ],
      "error m: array a used as scalar\no:" );
    ( "scalar indexed",
      prog [ decl "s"; decl "x"; st (Assign (Lvar "x", mk_expr int32_t (Index ("s", mk_int 0L)))) ],
      "error m: s is not an array\no:" );
    ( "assign to array",
      prog [ arr "a"; st (Assign (Lvar "a", mk_int 1L)) ],
      "error m: cannot assign to array a\no:" );
    ( "scalar index-assigned",
      prog [ decl "s"; st (Assign (Lindex ("s", mk_int 0L), mk_int 1L)) ],
      "error m: s is not an array\no:" );
    ( "dead unbound",
      prog
        [
          st (If (mk_bool false, [ st (Assign (Lvar "nope", v "nope")) ], []));
          st (Stream_write ("o", mk_int 5L));
        ],
      "completed\no:5" );
    ( "branch-local escapes",
      prog
        [
          st (If (mk_bool true, [ decl "q" ], []));
          decl "x";
          st (Stream_write ("o", mk_int 1L));
          st (Assign (Lvar "x", v "q"));
        ],
      "error m: unbound variable q\no:1" );
    ( "unknown stream write",
      prog [ st (Stream_write ("nope", mk_int 1L)); st (Stream_write ("o", mk_int 2L)) ],
      "error unknown stream nope\no:" );
    ( "unknown stream read",
      prog [ decl "x"; st (Stream_read (Lvar "x", "nope")) ],
      "error unknown stream nope\no:" );
  ]

(* Operands, call arguments and the assigned value are evaluated in a
   fixed order, visible through a recording extern model. *)
let eval_order_src =
  {| stream int32 o depth 4;
     extern int32 f(int32) latency 1;
     process hw m() {
       int32 x; int32 a[16];
       x = f(1) + f(2) * f(3);
       a[f(4)] = f(5);
       stream_write(o, f(6) - f(7));
       if (f(8) < f(9) && f(10) > 0) { x = (int32)(f(11) == f(12)); }
       assert(f(13) != 0 || f(14) != 0);
     } |}

let eval_order_pin = "1 2 3 5 4 6 7 8 9 10 11 12 13"

let test_pins () =
  let workloads = Campaign.bundled () in
  List.iter
    (fun (app, want) ->
      let w = List.find (fun (w : Campaign.workload) -> w.Campaign.wname = app) workloads in
      check tstr ("app " ^ app) want (app_pin w))
    app_pins;
  List.iter (fun (name, want) -> check tstr ("corpus " ^ name) want (corpus_pin name)) corpus_pins;
  List.iter
    (fun (path, want) -> check tstr ("observer " ^ path) want (observer_pin path))
    observer_pins;
  check tint "fifty generated programs" 50 (Array.length gen_pins);
  Array.iteri
    (fun i want -> check tstr (Printf.sprintf "generated %d" i) want (gen_pin i))
    gen_pins;
  List.iter
    (fun (name, bounded, src) ->
      check (Alcotest.list tstr) ("fuel " ^ name) (List.assoc name fuel_pins)
        (List.map (fuel_pin bounded src) fuel_steps))
    fuel_programs;
  List.iter
    (fun (src, want) -> check tstr "runtime message" want (render_result (run src)))
    message_pins;
  check (Alcotest.list tstr) "static scoping" scoping_pin
    (String.split_on_char '\n'
       (observed
          { I.default_config with params = [ ("m", [ ("n", 3L) ]) ]; drains = [ "o" ] }
          (elab scoping_src))
    |> List.filter (( <> ) ""));
  List.iter
    (fun (name, prog, want) ->
      check tstr ("untyped " ^ name) want
        (render_result (I.run ~cfg:{ I.default_config with drains = [ "o" ] } prog)))
    untyped_pins;
  let calls = ref [] in
  let f = function [ v ] -> calls := v :: !calls; v | _ -> 0L in
  ignore (run ~cfg:{ I.default_config with extern_models = [ ("f", f) ] } eval_order_src);
  check tstr "evaluation order" eval_order_pin
    (String.concat " " (List.rev_map Int64.to_string !calls))

let () =
  Alcotest.run "interp"
    [
      ( "value",
        [
          Alcotest.test_case "wrap" `Quick test_wrap;
          Alcotest.test_case "unsigned div" `Quick test_value_div_unsigned;
          Alcotest.test_case "shift right" `Quick test_value_shr;
          Alcotest.test_case "figure 3 comparison" `Quick test_value_compare_signedness;
          QCheck_alcotest.to_alcotest wrap_prop;
          QCheck_alcotest.to_alcotest wrap_matches_mask_prop;
          QCheck_alcotest.to_alcotest add_assoc_prop;
          QCheck_alcotest.to_alcotest cast_roundtrip_prop;
        ] );
      ( "exec",
        [
          Alcotest.test_case "straight line" `Quick test_straightline;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "while + arrays" `Quick test_while_and_arrays;
          Alcotest.test_case "producer/consumer" `Quick test_producer_consumer;
          Alcotest.test_case "feeds" `Quick test_feeds;
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "C wrap semantics" `Quick test_c_semantics_wrap;
          Alcotest.test_case "figure 3 software run" `Quick test_figure3_compare_is_correct_in_software;
          Alcotest.test_case "const arrays" `Quick test_const_array;
          Alcotest.test_case "short-circuit guards" `Quick test_short_circuit_guards_division;
          Alcotest.test_case "nested loops" `Quick test_nested_loops;
          Alcotest.test_case "scope shadowing" `Quick test_shadowing_scopes;
          QCheck_alcotest.to_alcotest interp_matches_oracle;
        ] );
      ( "assertions",
        [
          Alcotest.test_case "failure aborts" `Quick test_assert_failure_aborts;
          Alcotest.test_case "NABORT continues" `Quick test_assert_nabort_continues;
          Alcotest.test_case "NDEBUG disables" `Quick test_assert_ndebug_disables;
          Alcotest.test_case "assert(0) tracing" `Quick test_assert_zero_trace;
        ] );
      ( "hangs",
        [
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "bounded vs unbounded FIFO" `Quick test_bounded_fifo_can_hang_where_unbounded_completes;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        ] );
      ( "errors",
        [
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds_reported;
          Alcotest.test_case "bit-63 index bounds" `Quick test_high_bit_index_bounds;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero_reported;
        ] );
      ( "externs",
        [
          Alcotest.test_case "model used" `Quick test_extern_model;
          Alcotest.test_case "missing model" `Quick test_extern_missing_model;
        ] );
      ( "words",
        [
          Alcotest.test_case "ops agree with Value" `Quick test_ops_agree_with_value;
          Alcotest.test_case "spin loop allocation" `Quick test_spin_loop_allocation;
        ] );
      ("pins", [ Alcotest.test_case "results recorded from the tree walker" `Quick test_pins ]);
    ]
