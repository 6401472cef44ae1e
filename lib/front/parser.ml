(** Recursive-descent parser for the InCA C subset.

    Produces an untyped {!Ast.program} (every expression carries
    [Tvoid]); {!Typecheck.elaborate} fills in types and inserts casts. *)

open Ast

exception Error of string * Loc.t

type state = {
  toks : Lexer.tokens;
  src : string;
  mutable idx : int;
}

let cur st = Lexer.get st.toks st.idx
let cur_tok st = (cur st).Lexer.tok
let cur_loc st = (cur st).Lexer.loc
let bump st = if st.idx < Lexer.length st.toks - 1 then st.idx <- st.idx + 1

let err st msg = raise (Error (msg, cur_loc st))

let expect st tok what =
  if Lexer.equal_token (cur_tok st) tok then bump st
  else err st (Printf.sprintf "expected %s" what)

let expect_ident st what =
  match cur_tok st with
  | Lexer.IDENT name -> bump st; name
  | _ -> err st (Printf.sprintf "expected identifier (%s)" what)

let expect_int st what =
  match cur_tok st with
  | Lexer.INT n -> bump st; n
  | _ -> err st (Printf.sprintf "expected integer (%s)" what)

(* An integer literal that sizes something (array, stream depth,
   latency): it must fit an [int] before anything is built from it. *)
let expect_size st what =
  let loc = cur_loc st in
  let n = expect_int st what in
  if Int64.compare n (Int64.of_int max_int) > 0 || Int64.compare n (Int64.of_int min_int) < 0
  then raise (Error (Printf.sprintf "%s %Ld is out of range" what n, loc));
  Int64.to_int n

let kw st k = match cur_tok st with Lexer.KW k' when k = k' -> true | _ -> false

let eat_kw st k = if kw st k then (bump st; true) else false

let scalar_type_of_kw = function
  | "int8" -> Some (Tint (Signed, W8))
  | "int16" -> Some (Tint (Signed, W16))
  | "int32" -> Some (Tint (Signed, W32))
  | "int64" -> Some (Tint (Signed, W64))
  | "uint8" -> Some (Tint (Unsigned, W8))
  | "uint16" -> Some (Tint (Unsigned, W16))
  | "uint32" -> Some (Tint (Unsigned, W32))
  | "uint64" -> Some (Tint (Unsigned, W64))
  | "bool" -> Some Tbool
  | "void" -> Some Tvoid
  | _ -> None

let peek_scalar_type st =
  match cur_tok st with Lexer.KW k -> scalar_type_of_kw k | _ -> None

let parse_scalar_type st =
  match peek_scalar_type st with
  | Some ty -> bump st; ty
  | None -> err st "expected type"

(* Untyped expression constructor: types are assigned by Typecheck. *)
let mk loc e = { e; ety = Tvoid; eloc = loc }

(* --- Expressions: precedence climbing --------------------------------- *)

let binop_of_token = function
  | Lexer.PIPEPIPE -> Some (Lor, 1)
  | Lexer.AMPAMP -> Some (Land, 2)
  | Lexer.PIPE -> Some (Bor, 3)
  | Lexer.CARET -> Some (Bxor, 4)
  | Lexer.AMP -> Some (Band, 5)
  | Lexer.EQ -> Some (Eq, 6)
  | Lexer.NE -> Some (Ne, 6)
  | Lexer.LT -> Some (Lt, 7)
  | Lexer.LE -> Some (Le, 7)
  | Lexer.GT -> Some (Gt, 7)
  | Lexer.GE -> Some (Ge, 7)
  | Lexer.SHL -> Some (Shl, 8)
  | Lexer.SHR -> Some (Shr, 8)
  | Lexer.PLUS -> Some (Add, 9)
  | Lexer.MINUS -> Some (Sub, 9)
  | Lexer.STAR -> Some (Mul, 10)
  | Lexer.SLASH -> Some (Div, 10)
  | Lexer.PERCENT -> Some (Mod, 10)
  | _ -> None

let rec parse_expr st = parse_binary st 0

and parse_binary st min_prec =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_of_token (cur_tok st) with
    | Some (op, prec) when prec >= min_prec ->
        let loc = cur_loc st in
        bump st;
        let rhs = parse_binary st (prec + 1) in
        loop (mk loc (Binop (op, lhs, rhs)))
    | _ -> lhs
  in
  loop lhs

and parse_unary st =
  let loc = cur_loc st in
  match cur_tok st with
  | Lexer.MINUS -> (
      bump st;
      let operand = parse_unary st in
      (* fold negation of literals so that -7 is a negative literal *)
      match operand.e with
      | Int n -> mk loc (Int (Int64.neg n))
      | _ -> mk loc (Unop (Neg, operand)))
  | Lexer.BANG -> bump st; mk loc (Unop (Lnot, parse_unary st))
  | Lexer.TILDE -> bump st; mk loc (Unop (Bnot, parse_unary st))
  | _ -> parse_primary st

and parse_primary st =
  let loc = cur_loc st in
  match cur_tok st with
  | Lexer.INT n -> bump st; mk loc (Int n)
  | Lexer.KW "true" -> bump st; mk loc (Bool true)
  | Lexer.KW "false" -> bump st; mk loc (Bool false)
  | Lexer.LPAREN -> (
      bump st;
      match peek_scalar_type st with
      | Some ty ->
          bump st;
          expect st Lexer.RPAREN ")";
          let operand = parse_unary st in
          mk loc (Cast (ty, operand))
      | None ->
          let e = parse_expr st in
          expect st Lexer.RPAREN ")";
          e)
  | Lexer.IDENT name -> (
      bump st;
      match cur_tok st with
      | Lexer.LBRACK ->
          bump st;
          let idx = parse_expr st in
          expect st Lexer.RBRACK "]";
          mk loc (Index (name, idx))
      | Lexer.LPAREN ->
          bump st;
          let args =
            if Lexer.equal_token (cur_tok st) Lexer.RPAREN then []
            else
              let rec more acc =
                let a = parse_expr st in
                if Lexer.equal_token (cur_tok st) Lexer.COMMA then (bump st; more (a :: acc))
                else List.rev (a :: acc)
              in
              more []
          in
          expect st Lexer.RPAREN ")";
          mk loc (Call (name, args))
      | _ -> mk loc (Var name))
  | _ -> err st "expected expression"

(* --- Statements -------------------------------------------------------- *)

(* Source text between the current position after '(' and the matching ')'. *)
let source_slice st start_idx end_idx =
  let a = (Lexer.get st.toks start_idx).Lexer.start_ofs in
  let b = (Lexer.get st.toks end_idx).Lexer.start_ofs in
  String.trim (String.sub st.src a (b - a))

let rec parse_block st =
  expect st Lexer.LBRACE "{";
  let rec stmts acc =
    if Lexer.equal_token (cur_tok st) Lexer.RBRACE then (bump st; List.rev acc)
    else stmts (parse_stmt st :: acc)
  in
  stmts []

and parse_simple_assign st =
  (* used for for-loop init/step: IDENT = expr, IDENT[expr] = expr, or
     (init only) TYPE IDENT = expr — the declaration form the
     pretty-printer emits for programmatically built loops *)
  let loc = cur_loc st in
  match peek_scalar_type st with
  | Some ty ->
      bump st;
      let name = expect_ident st "declaration name" in
      expect st Lexer.ASSIGN "=";
      let rhs = parse_expr st in
      mk_stmt ~loc (Decl (ty, name, Some rhs))
  | None ->
  let name = expect_ident st "assignment target" in
  let lv =
    if Lexer.equal_token (cur_tok st) Lexer.LBRACK then begin
      bump st;
      let i = parse_expr st in
      expect st Lexer.RBRACK "]";
      Lindex (name, i)
    end
    else Lvar name
  in
  expect st Lexer.ASSIGN "=";
  let rhs = parse_expr st in
  mk_stmt ~loc (Assign (lv, rhs))

and parse_stmt st =
  let loc = cur_loc st in
  match cur_tok st with
  | Lexer.PRAGMA p ->
      bump st;
      if String.lowercase_ascii (String.trim p) = "pipeline" then (
        match cur_tok st with
        | Lexer.KW "for" -> parse_for st ~pipelined:true
        | _ -> err st "#pragma pipeline must precede a for loop")
      else err st (Printf.sprintf "unknown pragma %S" p)
  | Lexer.KW "for" -> parse_for st ~pipelined:false
  | Lexer.KW "if" ->
      bump st;
      expect st Lexer.LPAREN "(";
      let cond = parse_expr st in
      expect st Lexer.RPAREN ")";
      let then_ = parse_block st in
      let else_ =
        if kw st "else" then begin
          bump st;
          if kw st "if" then [ parse_stmt st ] else parse_block st
        end
        else []
      in
      mk_stmt ~loc (If (cond, then_, else_))
  | Lexer.KW "while" ->
      bump st;
      expect st Lexer.LPAREN "(";
      let cond = parse_expr st in
      expect st Lexer.RPAREN ")";
      let body = parse_block st in
      mk_stmt ~loc (While (cond, body))
  | Lexer.KW "assert" ->
      bump st;
      expect st Lexer.LPAREN "(";
      let start_idx = st.idx in
      let cond = parse_expr st in
      let end_idx = st.idx in
      expect st Lexer.RPAREN ")";
      expect st Lexer.SEMI ";";
      mk_stmt ~loc (Assert (cond, source_slice st start_idx end_idx))
  | Lexer.KW "stream_write" ->
      bump st;
      expect st Lexer.LPAREN "(";
      let s = expect_ident st "stream name" in
      expect st Lexer.COMMA ",";
      let v = parse_expr st in
      expect st Lexer.RPAREN ")";
      expect st Lexer.SEMI ";";
      mk_stmt ~loc (Stream_write (s, v))
  | Lexer.KW "return" ->
      bump st;
      if Lexer.equal_token (cur_tok st) Lexer.SEMI then (bump st; mk_stmt ~loc (Return None))
      else
        let e = parse_expr st in
        expect st Lexer.SEMI ";";
        mk_stmt ~loc (Return (Some e))
  | Lexer.LBRACE -> mk_stmt ~loc (Block (parse_block st))
  | Lexer.KW "const" ->
      bump st;
      let elem = parse_scalar_type st in
      let name = expect_ident st "const array name" in
      expect st Lexer.LBRACK "[";
      let n = expect_size st "array size" in
      expect st Lexer.RBRACK "]";
      expect st Lexer.ASSIGN "=";
      expect st Lexer.LBRACE "{";
      let values =
        let rec more acc =
          let v =
            match cur_tok st with
            | Lexer.MINUS -> (
                bump st;
                match cur_tok st with
                | Lexer.INT x -> bump st; Int64.neg x
                | _ -> err st "expected integer")
            | Lexer.INT x -> bump st; x
            | _ -> err st "expected integer in const array initializer"
          in
          if Lexer.equal_token (cur_tok st) Lexer.COMMA then (bump st; more (v :: acc))
          else List.rev (v :: acc)
        in
        more []
      in
      expect st Lexer.RBRACE "}";
      expect st Lexer.SEMI ";";
      if List.length values <> n then
        err st (Printf.sprintf "const array %s declares %d elements but initializes %d" name n
                  (List.length values));
      mk_stmt ~loc (Const_array (elem, name, values))
  | Lexer.KW k when scalar_type_of_kw k <> None ->
      let ty = parse_scalar_type st in
      let name = expect_ident st "declaration name" in
      let ty =
        if Lexer.equal_token (cur_tok st) Lexer.LBRACK then begin
          bump st;
          let n = expect_size st "array size" in
          expect st Lexer.RBRACK "]";
          Tarray (ty, n)
        end
        else ty
      in
      let init =
        if Lexer.equal_token (cur_tok st) Lexer.ASSIGN then begin
          bump st;
          Some (parse_rhs st)
        end
        else None
      in
      expect st Lexer.SEMI ";";
      (match init with
      | Some (`Stream_read s) ->
          mk_stmt ~loc
            (Block
               [ mk_stmt ~loc (Decl (ty, name, None));
                 mk_stmt ~loc (Stream_read (Lvar name, s)) ])
      | Some (`Expr e) -> mk_stmt ~loc (Decl (ty, name, Some e))
      | None -> mk_stmt ~loc (Decl (ty, name, None)))
  | Lexer.IDENT name -> (
      bump st;
      let lv =
        if Lexer.equal_token (cur_tok st) Lexer.LBRACK then begin
          bump st;
          let i = parse_expr st in
          expect st Lexer.RBRACK "]";
          Lindex (name, i)
        end
        else Lvar name
      in
      expect st Lexer.ASSIGN "=";
      let rhs = parse_rhs st in
      expect st Lexer.SEMI ";";
      match rhs with
      | `Stream_read s -> mk_stmt ~loc (Stream_read (lv, s))
      | `Expr e -> mk_stmt ~loc (Assign (lv, e)))
  | _ -> err st "expected statement"

and parse_rhs st =
  if kw st "stream_read" then begin
    bump st;
    expect st Lexer.LPAREN "(";
    let s = expect_ident st "stream name" in
    expect st Lexer.RPAREN ")";
    `Stream_read s
  end
  else `Expr (parse_expr st)

and parse_for st ~pipelined =
  let loc = cur_loc st in
  expect st (Lexer.KW "for") "for";
  expect st Lexer.LPAREN "(";
  let init =
    if Lexer.equal_token (cur_tok st) Lexer.SEMI then None
    else Some (parse_simple_assign st)
  in
  expect st Lexer.SEMI ";";
  let cond = parse_expr st in
  expect st Lexer.SEMI ";";
  let step =
    if Lexer.equal_token (cur_tok st) Lexer.RPAREN then None
    else Some (parse_simple_assign st)
  in
  expect st Lexer.RPAREN ")";
  let body = parse_block st in
  mk_stmt ~loc (For ({ init; cond; step; pipelined }, body))

(* --- Top level --------------------------------------------------------- *)

let parse_stream_decl st =
  expect st (Lexer.KW "stream") "stream";
  let elem = parse_scalar_type st in
  let sname = expect_ident st "stream name" in
  let depth =
    if eat_kw st "depth" then expect_size st "stream depth" else 16
  in
  expect st Lexer.SEMI ";";
  { sname; elem; depth }

let parse_extern_decl st =
  expect st (Lexer.KW "extern") "extern";
  let xret = parse_scalar_type st in
  let xname = expect_ident st "extern name" in
  expect st Lexer.LPAREN "(";
  let xargs =
    if Lexer.equal_token (cur_tok st) Lexer.RPAREN then []
    else
      let rec more acc =
        let t = parse_scalar_type st in
        (* parameter name optional in prototypes *)
        (match cur_tok st with Lexer.IDENT _ -> bump st | _ -> ());
        if Lexer.equal_token (cur_tok st) Lexer.COMMA then (bump st; more (t :: acc))
        else List.rev (t :: acc)
      in
      more []
  in
  expect st Lexer.RPAREN ")";
  let xlatency = if eat_kw st "latency" then expect_size st "latency" else 1 in
  expect st Lexer.SEMI ";";
  { xname; xargs; xret; xlatency }

let parse_proc st =
  let ploc = cur_loc st in
  expect st (Lexer.KW "process") "process";
  let kind =
    if eat_kw st "hw" then Hardware
    else if eat_kw st "sw" then Software
    else err st "expected hw or sw"
  in
  let pname = expect_ident st "process name" in
  expect st Lexer.LPAREN "(";
  let params =
    if Lexer.equal_token (cur_tok st) Lexer.RPAREN then []
    else
      let rec more acc =
        let t = parse_scalar_type st in
        let n = expect_ident st "parameter name" in
        if Lexer.equal_token (cur_tok st) Lexer.COMMA then (bump st; more ((n, t) :: acc))
        else List.rev ((n, t) :: acc)
      in
      more []
  in
  expect st Lexer.RPAREN ")";
  let body = parse_block st in
  { pname; kind; params; body; ploc }

(** Parse a whole program from [src].  Raises {!Error} on syntax errors
    and {!Lexer.Error} on lexical errors. *)
let parse ?(file = "<string>") src =
  let st = { toks = Lexer.scan ~file src; src; idx = 0 } in
  let rec go streams externs procs =
    match cur_tok st with
    | Lexer.EOF ->
        { streams = List.rev streams; externs = List.rev externs; procs = List.rev procs }
    | Lexer.KW "stream" -> go (parse_stream_decl st :: streams) externs procs
    | Lexer.KW "extern" -> go streams (parse_extern_decl st :: externs) procs
    | Lexer.KW "process" -> go streams externs (parse_proc st :: procs)
    | _ -> err st "expected stream, extern, or process declaration"
  in
  go [] [] []
