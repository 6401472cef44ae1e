(* Frontend tests: lexer, parser, type checker, pretty-printer. *)

open Front

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let parse src = Parser.parse ~file:"test.c" src
let elab src = Typecheck.parse_and_check ~file:"test.c" src

(* --- Lexer -------------------------------------------------------------- *)

let toks src = List.map (fun l -> l.Lexer.tok) (Array.to_list (Lexer.tokenize src))

let test_lex_basic () =
  check tbool "idents and ints" true
    (toks "x 42 0x2A"
    = [ Lexer.IDENT "x"; Lexer.INT 42L; Lexer.INT 42L; Lexer.EOF ]);
  check tbool "operators" true
    (toks "<< >> <= >= == != && ||"
    = Lexer.[ SHL; SHR; LE; GE; EQ; NE; AMPAMP; PIPEPIPE; EOF ])

let test_lex_keywords () =
  check tbool "keywords lex as KW" true
    (toks "process hw int32 assert"
    = Lexer.[ KW "process"; KW "hw"; KW "int32"; KW "assert"; EOF ])

let test_lex_comments () =
  check tbool "line comment skipped" true (toks "a // comment\n b" = Lexer.[ IDENT "a"; IDENT "b"; EOF ]);
  check tbool "block comment skipped" true (toks "a /* x\ny */ b" = Lexer.[ IDENT "a"; IDENT "b"; EOF ])

let test_lex_pragma () =
  check tbool "pragma token" true (toks "#pragma pipeline\nfor" = Lexer.[ PRAGMA "pipeline"; KW "for"; EOF ])

let test_lex_positions () =
  let lexed = Lexer.tokenize ~file:"f.c" "x\n  y" in
  match Array.to_list lexed with
  | [ a; b; _eof ] ->
      check tint "x line" 1 a.Lexer.loc.Loc.line;
      check tint "y line" 2 b.Lexer.loc.Loc.line;
      check tint "y col" 3 b.Lexer.loc.Loc.col
  | _ -> Alcotest.fail "expected 3 tokens"

let test_lex_big_literal () =
  (* Figure 3 of the paper uses 4294967296, which exceeds int32. *)
  check tbool "big literal" true (toks "4294967296" = Lexer.[ INT 4294967296L; EOF ])

let test_lex_error () =
  Alcotest.check_raises "bad char" (Lexer.Error ("unexpected character '@'", Loc.make ~file:"<string>" ~line:1 ~col:1))
    (fun () -> ignore (Lexer.tokenize "@"))

(* --- Parser ------------------------------------------------------------- *)

let simple_proc body = Printf.sprintf "process hw main() { %s }" body

let first_proc src =
  match (parse src).Ast.procs with p :: _ -> p | [] -> Alcotest.fail "no proc"

let test_parse_empty_proc () =
  let p = first_proc "process hw main() { }" in
  check tstr "name" "main" p.Ast.pname;
  check tbool "kind" true (p.Ast.kind = Ast.Hardware);
  check tint "body" 0 (List.length p.Ast.body)

let test_parse_streams () =
  let prog = parse "stream int32 a; stream uint16 b depth 4; process sw t() { }" in
  (match prog.Ast.streams with
  | [ a; b ] ->
      check tstr "a name" "a" a.Ast.sname;
      check tint "a default depth" 16 a.Ast.depth;
      check tint "b depth" 4 b.Ast.depth;
      check tbool "b elem" true (b.Ast.elem = Ast.Tint (Ast.Unsigned, Ast.W16))
  | _ -> Alcotest.fail "expected 2 streams");
  match prog.Ast.procs with
  | [ p ] -> check tbool "sw kind" true (p.Ast.kind = Ast.Software)
  | _ -> Alcotest.fail "expected 1 proc"

let test_parse_extern () =
  let prog = parse "extern int64 f(int32, int32 b) latency 3; process hw m() { }" in
  match prog.Ast.externs with
  | [ x ] ->
      check tstr "name" "f" x.Ast.xname;
      check tint "arity" 2 (List.length x.Ast.xargs);
      check tint "latency" 3 x.Ast.xlatency
  | _ -> Alcotest.fail "expected 1 extern"

let test_parse_precedence () =
  let p = first_proc (simple_proc "int32 x; x = 1 + 2 * 3;") in
  match List.rev p.Ast.body with
  | { Ast.s = Ast.Assign (_, { e = Ast.Binop (Ast.Add, _, { e = Ast.Binop (Ast.Mul, _, _); _ }); _ }); _ } :: _ ->
      ()
  | _ -> Alcotest.fail "wrong precedence tree"

let test_parse_cmp_vs_shift () =
  let p = first_proc (simple_proc "int32 x; x = 1 << 2 + 3;") in
  (* + binds tighter than << *)
  match List.rev p.Ast.body with
  | { Ast.s = Ast.Assign (_, { e = Ast.Binop (Ast.Shl, _, { e = Ast.Binop (Ast.Add, _, _); _ }); _ }); _ } :: _ ->
      ()
  | _ -> Alcotest.fail "wrong shift/add precedence"

let test_parse_assert_text () =
  let p = first_proc (simple_proc "int32 j; j = 1; assert(j >  0);") in
  let asserts = Ast.assertions_of p.Ast.body in
  match asserts with
  | [ (_, _, txt) ] -> check tstr "raw source text" "j >  0" txt
  | _ -> Alcotest.fail "expected one assertion"

let test_parse_pipeline_pragma () =
  let p = first_proc (simple_proc "int32 i; #pragma pipeline\nfor (i = 0; i < 8; i = i + 1) { }") in
  let found = ref false in
  Ast.iter_stmts
    (fun st -> match st.Ast.s with Ast.For (h, _) -> found := h.Ast.pipelined | _ -> ())
    p.Ast.body;
  check tbool "pipelined flag" true !found

let test_parse_if_else_chain () =
  let p = first_proc (simple_proc "int32 x; if (x > 0) { x = 1; } else if (x < 0) { x = 2; } else { x = 3; }") in
  match List.rev p.Ast.body with
  | { Ast.s = Ast.If (_, _, [ { Ast.s = Ast.If (_, _, [ _ ]); _ } ]); _ } :: _ -> ()
  | _ -> Alcotest.fail "wrong if/else chain shape"

let test_parse_stream_ops () =
  let p =
    first_proc (simple_proc "int32 v; v = stream_read(inp); stream_write(outp, v + 1);")
  in
  check tbool "streams used" true (Ast.streams_used p.Ast.body = [ "inp"; "outp" ])

let test_parse_decl_with_stream_read () =
  let p = first_proc (simple_proc "int32 v = stream_read(inp);") in
  let reads = ref 0 in
  Ast.iter_stmts (fun st -> match st.Ast.s with Ast.Stream_read _ -> incr reads | _ -> ()) p.Ast.body;
  check tint "desugared to decl + read" 1 !reads

let test_parse_error_reports_location () =
  (try
     ignore (parse "process hw main() { int32 }");
     Alcotest.fail "should not parse"
   with Parser.Error (_, loc) -> check tint "error line" 1 loc.Loc.line)

let test_parse_array_decl_and_index () =
  let p = first_proc (simple_proc "int32 a[8]; a[0] = 1; a[1] = a[0] + 1;") in
  check tbool "array recorded" true
    (Ast.arrays_declared p.Ast.body = [ ("a", Ast.int32_t, 8) ])

let test_parse_const_array () =
  let p = first_proc (simple_proc "const int32 t[3] = { 1, -2, 3 }; int32 v; v = t[1];") in
  let found = ref None in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s with
      | Ast.Const_array (elt, name, vals) -> found := Some (elt, name, vals)
      | _ -> ())
    p.Ast.body;
  match !found with
  | Some (elt, name, vals) ->
      check tbool "element type" true (elt = Ast.int32_t);
      check tstr "name" "t" name;
      check tbool "values" true (vals = [ 1L; -2L; 3L ])
  | None -> Alcotest.fail "const array not parsed"

let test_parse_const_array_size_mismatch () =
  try
    ignore (parse (simple_proc "const int32 t[2] = { 1, 2, 3 };"));
    Alcotest.fail "size mismatch should be rejected"
  with Parser.Error _ -> ()

let test_const_array_roundtrip () =
  let src = simple_proc "const int32 t[4] = { 9, 8, 7, 6 }; int32 v; v = t[0];" in
  let printed = Pretty.program_to_string (parse src) in
  let reparsed = parse printed in
  check tint "reparsed" 1 (List.length reparsed.Ast.procs)

let test_parse_cast () =
  let p = first_proc (simple_proc "int64 x; int32 y; y = (int32)x;") in
  match List.rev p.Ast.body with
  | { Ast.s = Ast.Assign (_, { e = Ast.Cast (Ast.Tint (Ast.Signed, Ast.W32), _); _ }); _ } :: _ -> ()
  | _ -> Alcotest.fail "expected cast node"

(* --- Typecheck ---------------------------------------------------------- *)

let test_type_promotion () =
  let prog = elab (simple_proc "int32 a; int64 b; int64 c; c = a + b;") in
  let p = List.hd prog.Ast.procs in
  let ok = ref false in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s with
      | Ast.Assign (Ast.Lvar "c", rhs) ->
          (* a is widened to int64 by an inserted cast *)
          (match rhs.Ast.e with
          | Ast.Binop (Ast.Add, l, r) ->
              ok :=
                Ast.equal_ty rhs.Ast.ety Ast.int64_t
                && Ast.equal_ty l.Ast.ety Ast.int64_t
                && Ast.equal_ty r.Ast.ety Ast.int64_t
          | _ -> ())
      | _ -> ())
    p.Ast.body;
  check tbool "promoted to int64" true !ok

let test_type_unsigned_wins_at_equal_width () =
  let prog = elab (simple_proc "int32 a; uint32 b; bool c; c = a < b;") in
  let p = List.hd prog.Ast.procs in
  let ok = ref false in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s with
      | Ast.Assign (Ast.Lvar "c", { e = Ast.Cast (_, { e = Ast.Binop (Ast.Lt, l, _); _ }); _ })
      | Ast.Assign (Ast.Lvar "c", { e = Ast.Binop (Ast.Lt, l, _); _ }) ->
          ok := Ast.equal_ty l.Ast.ety Ast.uint32_t
      | _ -> ())
    p.Ast.body;
  check tbool "unsigned comparison" true !ok

let test_type_condition_boolified () =
  let prog = elab (simple_proc "int32 x; if (x) { x = 1; }") in
  let p = List.hd prog.Ast.procs in
  let ok = ref false in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s with
      | Ast.If (c, _, _) -> ok := Ast.equal_ty c.Ast.ety Ast.Tbool
      | _ -> ())
    p.Ast.body;
  check tbool "int condition becomes bool" true !ok

let expect_type_error src =
  try
    ignore (elab src);
    Alcotest.fail "expected type error"
  with Typecheck.Error _ -> ()

let test_type_errors () =
  expect_type_error (simple_proc "x = 1;");
  expect_type_error (simple_proc "int32 a[4]; int32 x; x = a;");
  expect_type_error (simple_proc "int32 x; x = stream_read(nosuch);");
  expect_type_error (simple_proc "int32 x; x = f(1);");
  expect_type_error (simple_proc "return 3;");
  expect_type_error "process hw a() { } process hw a() { }"

let test_type_literal_width () =
  let prog = elab (simple_proc "int64 c; c = 4294967296;") in
  let p = List.hd prog.Ast.procs in
  let ok = ref false in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s with
      | Ast.Assign (_, rhs) -> ok := Ast.equal_ty rhs.Ast.ety Ast.int64_t
      | _ -> ())
    p.Ast.body;
  check tbool "big literal is int64" true !ok

let test_type_extern_call () =
  let prog =
    elab "extern int32 fir(int32, int32) latency 2; process hw m() { int32 y; y = fir(1, 2); }"
  in
  check tint "elaborated" 1 (List.length prog.Ast.procs)

(* --- Pretty-printer round trip ------------------------------------------ *)

(* Strip types and locations so parse (print p) can be compared to p. *)
let rec strip_expr (e : Ast.expr) : Ast.expr =
  let node =
    match e.Ast.e with
    | Ast.Int n -> Ast.Int n
    | Ast.Bool b -> Ast.Bool b
    | Ast.Var v -> Ast.Var v
    | Ast.Index (a, i) -> Ast.Index (a, strip_expr i)
    | Ast.Unop (Ast.Neg, { Ast.e = Ast.Int n; _ }) ->
        (* the parser folds negated literals; normalize for comparison *)
        Ast.Int (Int64.neg n)
    | Ast.Unop (op, a) -> (
        match (strip_expr a).Ast.e with
        | Ast.Int n when op = Ast.Neg -> Ast.Int (Int64.neg n)
        | node -> Ast.Unop (op, { Ast.e = node; ety = Ast.Tvoid; eloc = Loc.none }))
    | Ast.Binop (op, a, b) -> Ast.Binop (op, strip_expr a, strip_expr b)
    | Ast.Cast (t, a) -> Ast.Cast (t, strip_expr a)
    | Ast.Call (f, args) -> Ast.Call (f, List.map strip_expr args)
  in
  { Ast.e = node; ety = Ast.Tvoid; eloc = Loc.none }

let rec strip_lv = function
  | Ast.Lvar v -> Ast.Lvar v
  | Ast.Lindex (a, i) -> Ast.Lindex (a, strip_expr i)

and strip_stmt (st : Ast.stmt) : Ast.stmt =
  let s =
    match st.Ast.s with
    | Ast.Decl (t, n, i) -> Ast.Decl (t, n, Option.map strip_expr i)
    | Ast.Assign (lv, e) -> Ast.Assign (strip_lv lv, strip_expr e)
    | Ast.If (c, t, f) -> Ast.If (strip_expr c, List.map strip_stmt t, List.map strip_stmt f)
    | Ast.While (c, b) -> Ast.While (strip_expr c, List.map strip_stmt b)
    | Ast.For (h, b) ->
        Ast.For
          ( {
              Ast.init = Option.map strip_stmt h.Ast.init;
              cond = strip_expr h.Ast.cond;
              step = Option.map strip_stmt h.Ast.step;
              pipelined = h.Ast.pipelined;
            },
            List.map strip_stmt b )
    | Ast.Assert (c, _) -> Ast.Assert (strip_expr c, "")
    | Ast.Stream_read (lv, s) -> Ast.Stream_read (strip_lv lv, s)
    | Ast.Stream_write (s, e) -> Ast.Stream_write (s, strip_expr e)
    | Ast.Return e -> Ast.Return (Option.map strip_expr e)
    | Ast.Block b -> Ast.Block (List.map strip_stmt b)
    | Ast.Tapstmt (id, args) -> Ast.Tapstmt (id, List.map strip_expr args)
    | Ast.Const_array _ as c -> c
  in
  { Ast.s; sloc = Loc.none }

let strip_prog (p : Ast.program) : Ast.program =
  {
    p with
    Ast.procs =
      List.map
        (fun (pr : Ast.proc) ->
          { pr with Ast.body = List.map strip_stmt pr.Ast.body; ploc = Loc.none })
        p.Ast.procs;
  }

let roundtrip src =
  let p1 = parse src in
  let printed = Pretty.program_to_string p1 in
  let p2 =
    try parse printed
    with Parser.Error (msg, loc) ->
      Alcotest.fail
        (Printf.sprintf "reparse failed at %s: %s\n--- printed ---\n%s" (Loc.to_string loc) msg printed)
  in
  let a = Ast.show_program (strip_prog p1) and b = Ast.show_program (strip_prog p2) in
  check tstr "roundtrip AST" a b

let test_roundtrip_cases () =
  roundtrip "process hw main() { int32 x; x = (1 + 2) * 3; }";
  roundtrip "stream int32 s depth 4;\nprocess hw m() { int32 v; v = stream_read(s); stream_write(s, v); }";
  roundtrip (simple_proc "int32 a[16]; int32 i; #pragma pipeline\nfor (i = 0; i < 16; i = i + 1) { a[i] = i * i; }");
  roundtrip (simple_proc "int32 x; if (x > 0 && x < 10 || x == 42) { x = -x; } else { x = ~x; }");
  roundtrip (simple_proc "int64 c; c = (int64)4294967286 > (int64)4294967296;");
  roundtrip "extern int32 ext(int32) latency 2; process hw m() { int32 y; y = ext(7); assert(y != 0); }"

(* Round-trip property over the bundled applications: every real
   program ships through print/parse unchanged.  The assertion-mining
   subsystem depends on this — injection pretty-prints and re-parses
   the instrumented program, so the printer must be total over
   arbitrary app-sized ASTs, not just the toy cases above. *)
let bundled_app_sources () =
  [
    ("fir", Apps.Fir_src.source ());
    ("dct", Apps.Dct_src.source ());
    ("des3", Apps.Des_src.demo_source ());
    ("edge", Apps.Edge_src.demo_source ());
    ("pulse", Apps.Pulse_src.source ());
  ]

let test_roundtrip_bundled_apps () =
  List.iter (fun (_name, src) -> roundtrip src) (bundled_app_sources ())

(* And the instrumented forms: compile each app under every synthesis
   strategy and round-trip the instrumented AST's printed source. *)
let test_roundtrip_instrumented () =
  let strategies =
    Core.Driver.
      [
        ("baseline", baseline); ("unoptimized", unoptimized);
        ("parallelized", parallelized); ("optimized", optimized);
        ("carte", carte);
      ]
  in
  List.iter
    (fun (name, src) ->
      let prog = Typecheck.parse_and_check ~file:(name ^ ".c") src in
      List.iter
        (fun (_sname, strategy) ->
          let c = Core.Driver.compile ~strategy prog in
          roundtrip (Pretty.program_to_string c.Core.Driver.instrumented))
        strategies)
    (bundled_app_sources ())

(* QCheck: random expressions round-trip through print/parse. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Ast.mk_int (Int64.of_int n)) (int_range (-100) 1000);
        map (fun c -> Ast.mk_var (String.make 1 c)) (char_range 'a' 'e');
      ]
  in
  let op =
    oneofl
      Ast.[ Add; Sub; Mul; Div; Band; Bor; Bxor; Shl; Shr; Lt; Le; Gt; Ge; Eq; Ne ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              map3
                (fun op a b -> Ast.mk_expr Ast.Tvoid (Ast.Binop (op, a, b)))
                op (self (depth - 1)) (self (depth - 1)) );
            (1, map (fun a -> Ast.mk_expr Ast.Tvoid (Ast.Unop (Ast.Neg, a))) (self (depth - 1)));
          ])
    4

let expr_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"pretty/parse expression roundtrip"
    (QCheck.make gen_expr ~print:Pretty.expr_to_string)
    (fun e ->
      let src = Printf.sprintf "process hw m() { int32 r; r = %s; }" (Pretty.expr_to_string e) in
      let p = parse src in
      match List.rev (List.hd p.Ast.procs).Ast.body with
      | { Ast.s = Ast.Assign (_, e2); _ } :: _ ->
          Ast.show_expr (strip_expr e) = Ast.show_expr (strip_expr e2)
      | _ -> false)

(* Sizes are bounded before anything is allocated from them: a literal
   that does not fit an [int] is a parse error (INCA-P001), a depth or
   length above the stated maximum a type error (INCA-P002).  Only
   rejected sizes are exercised; nothing here simulates a large one. *)
let test_size_bounds () =
  let parse_fails src msg ~col =
    Alcotest.check_raises src (Parser.Error (msg, Loc.make ~file:"test.c" ~line:1 ~col))
      (fun () -> ignore (elab src))
  in
  let type_fails src msg loc =
    Alcotest.check_raises src (Typecheck.Error (msg, loc)) (fun () -> ignore (elab src))
  in
  parse_fails "stream int32 a depth 4611686018427387904;"
    "stream depth 4611686018427387904 is out of range" ~col:22;
  parse_fails "process hw m() { int32 x[4611686018427387904]; }"
    "array size 4611686018427387904 is out of range" ~col:26;
  parse_fails "process hw m() { const int32 t[9223372036854775807] = { 1 }; }"
    "array size 9223372036854775807 is out of range" ~col:32;
  parse_fails "extern int32 f(int32) latency 4611686018427387904;"
    "latency 4611686018427387904 is out of range" ~col:31;
  type_fails "stream int32 a depth 1099511627776; process hw m() { }"
    "stream a depth 1099511627776 exceeds the maximum 65536" Loc.none;
  type_fails "process hw m() { int32 x[1099511627776]; }"
    "array x size 1099511627776 exceeds the maximum 65536"
    (Loc.make ~file:"test.c" ~line:1 ~col:18);
  type_fails "process hw m() { int32 x[65537]; }" "array x size 65537 exceeds the maximum 65536"
    (Loc.make ~file:"test.c" ~line:1 ~col:18);
  let rom n = String.concat ", " (List.init n (fun _ -> "0")) in
  type_fails
    (Printf.sprintf "process hw m() { const int32 t[65537] = { %s }; }" (rom 65537))
    "const array t size 65537 exceeds the maximum 65536" (Loc.make ~file:"test.c" ~line:1 ~col:18);
  (* the maxima themselves are accepted, statically *)
  ignore (elab "stream int32 a depth 65536; process hw m() { int32 x[65536]; }");
  ignore (elab (Printf.sprintf "process hw m() { const int32 t[65536] = { %s }; }" (rom 65536)));
  check tint "stated maxima" 65536 (min Typecheck.max_stream_depth Typecheck.max_array_length)

(* --- Reference lexer ------------------------------------------------------ *)

(* The lexer as first written (a [char option] per character, a list of
   tokens), kept only here: the byte-mutation property below requires
   the library lexer to agree with it, token for token or error for
   error, on every mutant. *)
module Ref_lexer = struct
  open Lexer

  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'
  let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

  type state = {
    src : string;
    file : string;
    mutable pos : int;
    mutable line : int;
    mutable bol : int;  (* offset of beginning of current line *)
  }

  let loc_of st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
  let peek2 st = if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

  let advance st =
    (match peek st with
    | Some '\n' ->
        st.line <- st.line + 1;
        st.bol <- st.pos + 1
    | _ -> ());
    st.pos <- st.pos + 1

  let rec skip_ws_and_comments st =
    match peek st with
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance st;
        skip_ws_and_comments st
    | Some '/' when peek2 st = Some '/' ->
        while peek st <> None && peek st <> Some '\n' do advance st done;
        skip_ws_and_comments st
    | Some '/' when peek2 st = Some '*' ->
        let start = loc_of st in
        advance st; advance st;
        let rec close () =
          match (peek st, peek2 st) with
          | Some '*', Some '/' -> advance st; advance st
          | Some _, _ -> advance st; close ()
          | None, _ -> raise (Lexer.Error ("unterminated comment", start))
        in
        close ();
        skip_ws_and_comments st
    | _ -> ()

  let lex_number st =
    let start = st.pos in
    let loc = loc_of st in
    if peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') then begin
      advance st; advance st;
      while (match peek st with Some c -> is_hex_digit c | None -> false) do advance st done;
      let text = String.sub st.src start (st.pos - start) in
      match Int64.of_string_opt text with
      | Some n -> (INT n, loc, start)
      | None -> raise (Lexer.Error ("bad hex literal " ^ text, loc))
    end
    else begin
      while (match peek st with Some c -> is_digit c | None -> false) do advance st done;
      let text = String.sub st.src start (st.pos - start) in
      (* [Int64.of_string] handles values up to 2^63-1; literals such as
         4294967296 from the paper's Figure 3 must lex. *)
      match Int64.of_string_opt text with
      | Some n -> (INT n, loc, start)
      | None ->
          (* Values in [2^63, 2^64) wrap like C unsigned constants. *)
          (match Int64.of_string_opt ("0u" ^ text) with
          | Some n -> (INT n, loc, start)
          | None -> raise (Lexer.Error ("integer literal out of range: " ^ text, loc)))
    end

  let lex_ident st =
    let start = st.pos in
    let loc = loc_of st in
    while (match peek st with Some c -> is_ident_char c | None -> false) do advance st done;
    let text = String.sub st.src start (st.pos - start) in
    let tok = if List.mem text Lexer.keywords then KW text else IDENT text in
    (tok, loc, start)

  let lex_pragma st =
    let loc = loc_of st in
    let start = st.pos in
    advance st (* '#' *);
    while peek st <> None && peek st <> Some '\n' do advance st done;
    let text = String.sub st.src start (st.pos - start) in
    let text =
      if String.length text > 7 && String.sub text 0 7 = "#pragma" then
        String.trim (String.sub text 7 (String.length text - 7))
      else raise (Lexer.Error ("unknown directive " ^ text, loc))
    in
    (PRAGMA text, loc, start)

  let next_token st =
    skip_ws_and_comments st;
    let loc = loc_of st in
    let start = st.pos in
    let simple tok n =
      for _ = 1 to n do advance st done;
      (tok, loc, start)
    in
    match peek st with
    | None -> (EOF, loc, start)
    | Some c ->
        if is_ident_start c then lex_ident st
        else if is_digit c then lex_number st
        else if c = '#' then lex_pragma st
        else
          let two = peek2 st in
          (match (c, two) with
          | '<', Some '<' -> simple SHL 2
          | '>', Some '>' -> simple SHR 2
          | '<', Some '=' -> simple LE 2
          | '>', Some '=' -> simple GE 2
          | '=', Some '=' -> simple EQ 2
          | '!', Some '=' -> simple NE 2
          | '&', Some '&' -> simple AMPAMP 2
          | '|', Some '|' -> simple PIPEPIPE 2
          | '<', _ -> simple LT 1
          | '>', _ -> simple GT 1
          | '=', _ -> simple ASSIGN 1
          | '!', _ -> simple BANG 1
          | '&', _ -> simple AMP 1
          | '|', _ -> simple PIPE 1
          | '^', _ -> simple CARET 1
          | '~', _ -> simple TILDE 1
          | '+', _ -> simple PLUS 1
          | '-', _ -> simple MINUS 1
          | '*', _ -> simple STAR 1
          | '/', _ -> simple SLASH 1
          | '%', _ -> simple PERCENT 1
          | '(', _ -> simple LPAREN 1
          | ')', _ -> simple RPAREN 1
          | '{', _ -> simple LBRACE 1
          | '}', _ -> simple RBRACE 1
          | '[', _ -> simple LBRACK 1
          | ']', _ -> simple RBRACK 1
          | ';', _ -> simple SEMI 1
          | ',', _ -> simple COMMA 1
          | _ -> raise (Lexer.Error (Printf.sprintf "unexpected character %C" c, loc)))

  let tokenize ?(file = "<string>") src =
    let st = { src; file; pos = 0; line = 1; bol = 0 } in
    let rec go acc =
      let tok, loc, start = next_token st in
      let lexed = { Lexer.tok; loc; start_ofs = start; end_ofs = st.pos } in
      if tok = EOF then List.rev (lexed :: acc) else go (lexed :: acc)
    in
    go []
end

(* --- Front-end pins ------------------------------------------------------ *)

(* These digests pin the lexer's and the printer's exact output over
   every committed source and a full fuzz pass's worth of generated
   programs, so a rewrite that changes one token, location, byte span or
   printed byte fails here.  [Exec.Cache] keys, corpus reproducers and
   [Absint.implies] all read the printed text. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Source files live in examples/; dune runs tests from _build subdirs. *)
let example_dir sub =
  List.find Sys.file_exists [ Filename.concat ".." sub; sub; Filename.concat "../.." sub ]

let sources_in sub ext =
  let dir = example_dir sub in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let hex s = Digest.to_hex (Digest.string s)

let lexed_list ?file src = Array.to_list (Lexer.tokenize ?file src)

(* Every field of every token, one line each. *)
let token_dump ?file src =
  let b = Buffer.create 4096 in
  List.iter
    (fun (l : Lexer.lexed) ->
      Printf.bprintf b "%s %s %d-%d\n" (Lexer.show_token l.Lexer.tok)
        (Loc.to_string l.Lexer.loc) l.Lexer.start_ofs l.Lexer.end_ofs)
    (lexed_list ?file src);
  Buffer.contents b

(* Printed bytes of a source, untyped and elaborated. *)
let print_dump ~file src =
  Pretty.program_to_string (Parser.parse ~file src)
  ^ "\000"
  ^ Pretty.program_to_string (Typecheck.parse_and_check ~file src)

let check_pins what pins sources =
  let got =
    List.map
      (fun (f, src) -> (f, hex (token_dump ~file:f src), hex (print_dump ~file:f src)))
      sources
  in
  let show l =
    String.concat "\n" (List.map (fun (f, t, p) -> Printf.sprintf "(%S, %S, %S);" f t p) l)
  in
  check tstr what (show pins) (show got)

let example_pins =
  [
    ("campaign.c", "08e9f3a820ef2e14ba0f78791d285711", "ed9f945265cde5a642cadfb4953a0a8d");
    ("dct.c", "a3485c036c1e53b7e7151f7e994fca39", "fa1f49a3dd9c7c06d94174a49f63399c");
    ("deadlock.c", "1efbae44aab4e3304a7c7dec7e1d7005", "5bae5838d539c350ff33c8106d7ca9d4");
    ("fir.c", "31f0c76abba4ba6de9c911a9f0a340cc", "fae0c630af5d4c0e889b90384a8cc924");
    ("mine_demo.c", "a5715a451f26e30013ec797b860dc582", "7cd33e965b93cee96644ecda96198849");
    ("prove_demo.c", "d51cdf969c7e37c76cc772c13621c9f0", "0b22a4e0f1810f84d3eeb1faf8886c90");
  ]

let torture_pins =
  [
    ( "if-else-assert-numbering.inca",
      "d085b46d023381795b5dca0dc8221cf3",
      "84b22e02aca4e22095b379fc51874dd1" );
    ( "stream-read-narrowing.inca",
      "887093a002d18255e85a1fd896b2fc81",
      "96d9cd4db6d1e6c547eb74098f71b39a" );
    ( "tap-reads-unwrapped-pop.inca",
      "a91f55be3a10dcdc635b957f77f4ce77",
      "47be9d5ce5936f041a3d711d1d9d7422" );
  ]

let test_pin_examples () = check_pins "examples/*.c" example_pins (sources_in "examples" ".c")

let test_pin_torture () =
  check_pins "examples/torture/*.inca" torture_pins (sources_in "examples/torture" ".inca")

(* The instrumented source of every example under every strategy:
   taps, shared-channel streams and replicated arrays. *)
let instrumented_dump () =
  let strategies = Core.Driver.[ baseline; unoptimized; parallelized; optimized; carte ] in
  String.concat "\000"
    (List.concat_map
       (fun (f, src) ->
         let prog = Typecheck.parse_and_check ~file:f src in
         List.map
           (fun strategy ->
             Pretty.program_to_string (Core.Driver.front ~strategy prog).Core.Driver.f_instrumented)
           strategies)
       (sources_in "examples" ".c"))

let test_pin_instrumented () =
  check tstr "instrumented examples" "77daf1833edc15d0b6689ae87d82ee64" (hex (instrumented_dump ()))

(* The 1000 programs of a 5 x 200 fuzz pass at the default fuel: their
   printed source (what the oracle re-parses), its tokens, and the
   reprint of the elaborated re-parse. *)
let test_pin_generated () =
  let printed = Buffer.create (1 lsl 20) and toks = Buffer.create (1 lsl 20) in
  let bytes = ref 0 and ntoks = ref 0 in
  List.iter
    (fun run_seed ->
      for index = 0 to 199 do
        let seed = Torture.Gen.program_seed ~run_seed ~index in
        let src = Pretty.program_to_string (Torture.Gen.generate ~seed ~fuel:8) in
        bytes := !bytes + String.length src;
        ntoks := !ntoks + List.length (lexed_list src);
        Buffer.add_string printed (hex src);
        Buffer.add_string printed
          (hex (Pretty.program_to_string (Typecheck.parse_and_check src)));
        Buffer.add_string toks (hex (token_dump src))
      done)
    [ 2L; 3L; 4L; 6L; 42L ];
  check tint "source bytes" 839519 !bytes;
  check tint "tokens" 284781 !ntoks;
  check tstr "printed digest" "6508a4963c39c2ebf37ee8024d0dbd2c" (hex (Buffer.contents printed));
  check tstr "token digest" "3e1574893b3abb3a65317b3687e9851e" (hex (Buffer.contents toks))

let lex_fails src msg ~line ~col =
  Alcotest.check_raises src (Lexer.Error (msg, Loc.make ~file:"<string>" ~line ~col))
    (fun () -> ignore (Lexer.tokenize src))

let test_lex_edges () =
  lex_fails "0x" "bad hex literal 0x" ~line:1 ~col:1;
  lex_fails "a = 0xg;" "bad hex literal 0x" ~line:1 ~col:5;
  lex_fails "0x10000000000000000" "bad hex literal 0x10000000000000000" ~line:1 ~col:1;
  check tbool "hex wraps at 2^64" true (toks "0xFFFFFFFFFFFFFFFF" = Lexer.[ INT (-1L); EOF ]);
  check tbool "2^63 wraps" true (toks "9223372036854775808" = Lexer.[ INT Int64.min_int; EOF ]);
  check tbool "2^64 - 1 wraps" true (toks "18446744073709551615" = Lexer.[ INT (-1L); EOF ]);
  check tbool "leading zeros" true (toks "007 0" = Lexer.[ INT 7L; INT 0L; EOF ]);
  lex_fails "x\n 18446744073709551616" "integer literal out of range: 18446744073709551616"
    ~line:2 ~col:2;
  lex_fails "a /* never\n closed *" "unterminated comment" ~line:1 ~col:3;
  lex_fails "#define N 4\n" "unknown directive #define N 4" ~line:1 ~col:1;
  lex_fails "#pragma" "unknown directive #pragma" ~line:1 ~col:1;
  check tbool "pragma before CRLF" true
    (toks "#pragma pipeline\r\nfor" = Lexer.[ PRAGMA "pipeline"; KW "for"; EOF ]);
  check tstr "CRLF line counting" "(Lexer.IDENT \"a\") f.c:1:1 0-1\n(Lexer.IDENT \"b\") f.c:2:1 3-4\n\
     (Lexer.IDENT \"c\") f.c:4:3 10-11\nLexer.EOF f.c:4:4 11-11\n"
    (token_dump ~file:"f.c" "a\r\nb\r\n\r\n  c");
  lex_fails "\r\n\r\n  @" "unexpected character '@'" ~line:3 ~col:3;
  check tstr "EOF after trailing blank" "(Lexer.IDENT \"a\") <string>:1:1 0-1\nLexer.EOF <string>:2:3 5-5\n"
    (token_dump "a \n  ");
  check tstr "EOF of empty source" "Lexer.EOF <string>:1:1 0-0\n" (token_dump "")

(* Byte-mutated sources: whatever the damage, the front end answers
   with one of its three diagnostics (INCA-P001/P002 on [inca check]),
   never another exception.  The digest pins every rejected mutant's
   message and location. *)
let mutate rng src =
  let interesting = "0123456789xX/*#\n\r;,{}()[]=<>!&|^~+-%_ abz\t" in
  let byte () =
    if Torture.Rng.bool rng then Char.chr (Torture.Rng.int rng 256)
    else interesting.[Torture.Rng.int rng (String.length interesting)]
  in
  let n = String.length src in
  let at = Torture.Rng.int rng (n + 1) in
  let before = String.sub src 0 at in
  match Torture.Rng.int rng 3 with
  | 0 when at < n -> before ^ String.make 1 (byte ()) ^ String.sub src (at + 1) (n - at - 1)
  | 1 when at < n -> before ^ String.sub src (at + 1) (n - at - 1)
  | _ -> before ^ String.make 1 (byte ()) ^ String.sub src at (n - at)

let lexes_like_reference ~file src =
  let lexed tokenize =
    match tokenize src with
    | l -> Ok l
    | exception Lexer.Error (msg, loc) -> Error (msg, loc)
  in
  lexed (fun src -> Array.to_list (Lexer.tokenize ~file src)) = lexed (Ref_lexer.tokenize ~file)

(* Literals around every width boundary, hex and decimal. *)
let test_literals_like_reference () =
  let hex = List.init 20 (fun n -> "0x" ^ String.make n 'f') in
  let dec =
    List.concat_map
      (fun stem -> List.init 10 (fun d -> stem ^ string_of_int d))
      [ "922337203685477580"; "1844674407370955161"; "1844674407370955162"; "999999999999999999" ]
  in
  let padded = [ "0x" ^ String.make 30 '0' ^ "1F"; String.make 30 '0' ^ "42"; "0X1aB"; "00x1" ] in
  List.iter
    (fun lit ->
      let src = "v = " ^ lit ^ ";" in
      if not (lexes_like_reference ~file:"t.c" src) then
        Alcotest.failf "%s lexes unlike the reference lexer" lit)
    (hex @ dec @ padded)

let mutation_pins =
  [
    {|("campaign.c", 726, "665f79f4fd0559487b13375a90fc7e98");|};
    {|("dct.c", 915, "da79d0ca1707fdc186f83622d1f0c934");|};
    {|("deadlock.c", 484, "3f39295fc924317f89be8ac443f1cc32");|};
    {|("fir.c", 820, "ca84aac7f9224e3a0191995fe6f49820");|};
    {|("mine_demo.c", 303, "dfdf48e0123bc89d646a6c101c807686");|};
    {|("prove_demo.c", 316, "a39b3a1c9f1a4a4315efceed2c2c0336");|};
  ]

let test_byte_mutations () =
  let got =
    List.map
      (fun (f, src) ->
        let rng = Torture.Rng.make (Int64.of_int (Hashtbl.hash f)) in
        let b = Buffer.create 4096 and rejected = ref 0 in
        for _ = 1 to 1000 do
          let m = mutate rng (mutate rng src) in
          if not (lexes_like_reference ~file:f m) then
            Alcotest.failf "%s mutant lexes unlike the reference lexer:\n%s" f m;
          match Typecheck.parse_and_check ~file:f m with
          | _ -> Buffer.add_string b "ok\n"
          | exception (Lexer.Error (msg, loc) | Parser.Error (msg, loc) | Typecheck.Error (msg, loc)) ->
              incr rejected;
              Printf.bprintf b "%s %s\n" (Loc.to_string loc) msg
          | exception e ->
              Alcotest.failf "%s mutant raised %s:\n%s" f (Printexc.to_string e) m
        done;
        Printf.sprintf "(%S, %d, %S);" f !rejected (hex (Buffer.contents b)))
      (sources_in "examples" ".c")
  in
  check tstr "rejected mutants" (String.concat "\n" mutation_pins) (String.concat "\n" got)

let () =
  Alcotest.run "front"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lex_basic;
          Alcotest.test_case "keywords" `Quick test_lex_keywords;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "pragma" `Quick test_lex_pragma;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "big literal" `Quick test_lex_big_literal;
          Alcotest.test_case "lex error" `Quick test_lex_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "empty process" `Quick test_parse_empty_proc;
          Alcotest.test_case "streams" `Quick test_parse_streams;
          Alcotest.test_case "extern" `Quick test_parse_extern;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "shift precedence" `Quick test_parse_cmp_vs_shift;
          Alcotest.test_case "assert source text" `Quick test_parse_assert_text;
          Alcotest.test_case "pipeline pragma" `Quick test_parse_pipeline_pragma;
          Alcotest.test_case "if/else chain" `Quick test_parse_if_else_chain;
          Alcotest.test_case "stream ops" `Quick test_parse_stream_ops;
          Alcotest.test_case "decl = stream_read" `Quick test_parse_decl_with_stream_read;
          Alcotest.test_case "error location" `Quick test_parse_error_reports_location;
          Alcotest.test_case "arrays" `Quick test_parse_array_decl_and_index;
          Alcotest.test_case "const arrays" `Quick test_parse_const_array;
          Alcotest.test_case "const array size mismatch" `Quick test_parse_const_array_size_mismatch;
          Alcotest.test_case "const array roundtrip" `Quick test_const_array_roundtrip;
          Alcotest.test_case "cast" `Quick test_parse_cast;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "width promotion" `Quick test_type_promotion;
          Alcotest.test_case "unsigned at equal width" `Quick test_type_unsigned_wins_at_equal_width;
          Alcotest.test_case "condition boolified" `Quick test_type_condition_boolified;
          Alcotest.test_case "rejects bad programs" `Quick test_type_errors;
          Alcotest.test_case "literal widths" `Quick test_type_literal_width;
          Alcotest.test_case "extern call" `Quick test_type_extern_call;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "roundtrip programs" `Quick test_roundtrip_cases;
          Alcotest.test_case "roundtrip bundled apps" `Quick test_roundtrip_bundled_apps;
          Alcotest.test_case "roundtrip instrumented apps" `Quick
            test_roundtrip_instrumented;
          QCheck_alcotest.to_alcotest expr_roundtrip_prop;
        ] );
      ( "pins",
        [
          Alcotest.test_case "lexer edge cases" `Quick test_lex_edges;
          Alcotest.test_case "examples" `Quick test_pin_examples;
          Alcotest.test_case "torture corpus" `Quick test_pin_torture;
          Alcotest.test_case "instrumented examples" `Quick test_pin_instrumented;
          Alcotest.test_case "generated programs" `Quick test_pin_generated;
          Alcotest.test_case "literals like the reference" `Quick test_literals_like_reference;
          Alcotest.test_case "byte mutations" `Quick test_byte_mutations;
          Alcotest.test_case "size bounds" `Quick test_size_bounds;
        ] );
    ]
