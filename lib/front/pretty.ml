(** Pretty-printer producing parseable InCA-C source.

    Used to emit the instrumented HLL code (paper, Figure 2) and in
    round-trip property tests: [parse (print p)] re-yields [p] up to
    types and locations. *)

open Ast

let rec string_of_ty = function
  | Tint (Signed, W8) -> "int8"
  | Tint (Signed, W16) -> "int16"
  | Tint (Signed, W32) -> "int32"
  | Tint (Signed, W64) -> "int64"
  | Tint (Unsigned, W8) -> "uint8"
  | Tint (Unsigned, W16) -> "uint16"
  | Tint (Unsigned, W32) -> "uint32"
  | Tint (Unsigned, W64) -> "uint64"
  | Tint (_, W1) | Tbool -> "bool"
  | Tvoid -> "void"
  | Tarray (t, _) ->
      (* arrays are printed at the declaration site *)
      (match t with Tarray _ -> "?" | _ -> string_of_ty_scalar t)

and string_of_ty_scalar t =
  match t with
  | Tarray _ -> invalid_arg "string_of_ty_scalar"
  | _ -> string_of_ty t

let string_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Land -> "&&" | Lor -> "||"

let string_of_unop = function Neg -> "-" | Lnot -> "!" | Bnot -> "~"

let prec_of_binop = function
  | Lor -> 1 | Land -> 2 | Bor -> 3 | Bxor -> 4 | Band -> 5
  | Eq | Ne -> 6
  | Lt | Le | Gt | Ge -> 7
  | Shl | Shr -> 8
  | Add | Sub -> 9
  | Mul | Div | Mod -> 10

(* The parser folds unary minus over a literal into a single negative
   literal.  Printing must apply the same normalization to negation
   chains, or [-(-3)] reparses as [3] and printing is not a fixpoint. *)
let rec fold_neg (x : expr) =
  match x.e with
  | Int n -> Some n
  | Unop (Neg, a) -> Option.map Int64.neg (fold_neg a)
  | _ -> None

(* A literal whose recorded type differs from the one elaboration
   assigns to its bare spelling (e.g. the [int64]-typed [0] synthesized
   by condition coercion) must print with an explicit cast, otherwise
   reparsing retypes it and inserts casts elsewhere in the expression. *)
let literal_needs_cast ~ty n =
  match ty with
  | Tint (_, (W8 | W16 | W32 | W64)) -> not (equal_ty ty (Typecheck.literal_type n))
  | Tint (_, W1) | Tbool | Tvoid | Tarray _ -> false

(* --- One Buffer walker --------------------------------------------------

   Every printer below appends to a [Buffer.t]; the [pp_*] formatters
   are thin wrappers over it.  The bytes are a contract: corpus
   reproducers, [Exec.Cache] keys, [Absint.implies] (which compares
   expressions textually) and [Parallelize] slot keys all read them. *)

let add = Buffer.add_string
let add_char = Buffer.add_char

let add_pad b indent =
  for _ = 1 to indent do add_char b ' ' done

let add_sep b sep f xs =
  List.iteri (fun i x -> if i > 0 then add b sep; f x) xs

let add_literal b ~ty n =
  if literal_needs_cast ~ty n then begin
    add_char b '(';
    add b (string_of_ty ty);
    add_char b ')'
  end;
  if Int64.compare n 0L < 0 then begin
    add_char b '(';
    add b (Int64.to_string n);
    add_char b ')'
  end
  else add b (Int64.to_string n)

let rec add_expr b prec (x : expr) =
  match x.e with
  | Int n -> add_literal b ~ty:x.ety n
  | Bool true -> add b "true"
  | Bool false -> add b "false"
  | Var v -> add b v
  | Index (a, i) ->
      add b a;
      add_char b '[';
      add_expr b 0 i;
      add_char b ']'
  | Unop (op, a) -> (
      match (op, fold_neg a) with
      | Neg, Some n -> add_literal b ~ty:x.ety (Int64.neg n)
      | _ ->
          add b (string_of_unop op);
          add_expr b 11 a)
  | Binop (op, l, r) ->
      let p = prec_of_binop op in
      if p < prec then add_char b '(';
      add_expr b p l;
      add_char b ' ';
      add b (string_of_binop op);
      add_char b ' ';
      add_expr b (p + 1) r;
      if p < prec then add_char b ')'
  | Cast (ty, a) ->
      add_char b '(';
      add b (string_of_ty ty);
      add_char b ')';
      add_expr b 11 a
  | Call (f, args) ->
      add b f;
      add_char b '(';
      add_sep b ", " (add_expr b 0) args;
      add_char b ')'

let add_lvalue b = function
  | Lvar v -> add b v
  | Lindex (a, i) ->
      add b a;
      add_char b '[';
      add_expr b 0 i;
      add_char b ']'

(* [ty name] *)
let add_typed b ty name =
  add b ty;
  add_char b ' ';
  add b name

let rec add_stmt b ~indent st =
  add_pad b indent;
  (* a braced block of statements, closed at this statement's indent *)
  let block stmts =
    add b "{\n";
    add_stmts b ~indent:(indent + 2) stmts;
    add_char b '\n';
    add_pad b indent;
    add_char b '}'
  in
  let cond kw c =
    add b kw;
    add b " (";
    add_expr b 0 c;
    add b ") "
  in
  match st.s with
  | Decl (Tarray (elt, n), name, _) ->
      add_typed b (string_of_ty_scalar elt) name;
      add_char b '[';
      add b (string_of_int n);
      add b "];"
  | Decl (ty, name, None) ->
      add_typed b (string_of_ty ty) name;
      add_char b ';'
  | Decl (ty, name, Some e) ->
      add_typed b (string_of_ty ty) name;
      add b " = ";
      add_expr b 0 e;
      add_char b ';'
  | Assign (lv, e) ->
      add_lvalue b lv;
      add b " = ";
      add_expr b 0 e;
      add_char b ';'
  | If (c, t, f) ->
      cond "if" c;
      block t;
      (match f with
      | [] -> ()
      | _ ->
          add b " else ";
          block f)
  | While (c, body) ->
      cond "while" c;
      block body
  | For (h, body) ->
      if h.pipelined then begin
        add b "#pragma pipeline\n";
        add_pad b indent
      end;
      let clause = function
        | Some { s = Assign (lv, e); _ } ->
            add_lvalue b lv;
            add b " = ";
            add_expr b 0 e
        | Some { s = Decl (ty, name, Some e); _ } ->
            add_typed b (string_of_ty ty) name;
            add b " = ";
            add_expr b 0 e
        | Some _ | None -> ()
      in
      add b "for (";
      clause h.init;
      add b "; ";
      add_expr b 0 h.cond;
      add b "; ";
      clause h.step;
      add b ") ";
      block body
  | Assert (c, _) ->
      add b "assert(";
      add_expr b 0 c;
      add b ");"
  | Stream_read (lv, s) ->
      add_lvalue b lv;
      add b " = stream_read(";
      add b s;
      add b ");"
  | Stream_write (s, e) ->
      add b "stream_write(";
      add b s;
      add b ", ";
      add_expr b 0 e;
      add b ");"
  | Return None -> add b "return;"
  | Return (Some e) ->
      add b "return ";
      add_expr b 0 e;
      add_char b ';'
  | Block body -> block body
  | Tapstmt (id, args) ->
      add b "/* tap#";
      add b (string_of_int id);
      add_char b '(';
      add_sep b ", " (add_expr b 0) args;
      add b ") */"
  | Const_array (elem, name, values) ->
      add b "const ";
      add_typed b (string_of_ty elem) name;
      add_char b '[';
      add b (string_of_int (List.length values));
      add b "] = { ";
      add_sep b ", " (fun v -> add b (Int64.to_string v)) values;
      add b " };"

and add_stmts b ~indent stmts = add_sep b "\n" (add_stmt b ~indent) stmts

let add_proc b (p : proc) =
  add b "process ";
  add b (match p.kind with Hardware -> "hw" | Software -> "sw");
  add_char b ' ';
  add b p.pname;
  add_char b '(';
  add_sep b ", " (fun (n, t) -> add_typed b (string_of_ty t) n) p.params;
  add b ") {\n";
  add_stmts b ~indent:2 p.body;
  add b "\n}"

let add_stream b (s : stream_decl) =
  add b "stream ";
  add_typed b (string_of_ty s.elem) s.sname;
  add b " depth ";
  add b (string_of_int s.depth);
  add_char b ';'

let add_extern b (x : extern_decl) =
  add b "extern ";
  add_typed b (string_of_ty x.xret) x.xname;
  add_char b '(';
  add_sep b ", " (fun t -> add b (string_of_ty t)) x.xargs;
  add b ") latency ";
  add b (string_of_int x.xlatency);
  add_char b ';'

(* Sections separated by one blank line. *)
let add_program b (prog : program) =
  let first = ref true in
  let section f x =
    if not !first then add b "\n\n";
    first := false;
    f b x
  in
  List.iter (section add_stream) prog.streams;
  List.iter (section add_extern) prog.externs;
  List.iter (section add_proc) prog.procs

let to_string ?(size = 64) f x =
  let b = Buffer.create size in
  f b x;
  Buffer.contents b

let expr_to_string e = to_string (fun b -> add_expr b 0) e

let program_to_string prog =
  to_string ~size:1024 (fun b p -> add_program b p; add_char b '\n') prog

(* --- Format wrappers ----------------------------------------------------- *)

(* Line breaks go through [pp_force_newline], as the [@\n] of a format
   string would, so a caller's enclosing box indents continuation lines. *)
let pp_lines f ppf x =
  List.iteri
    (fun i line ->
      if i > 0 then Format.pp_force_newline ppf ();
      Format.pp_print_string ppf line)
    (String.split_on_char '\n' (to_string f x))

let pp_expr ?(prec = 0) ppf e = Format.pp_print_string ppf (to_string (fun b -> add_expr b prec) e)
let pp_stmt ~indent = pp_lines (add_stmt ~indent)
let pp_stmts ~indent = pp_lines (add_stmts ~indent)
let pp_proc = pp_lines add_proc
let pp_stream ppf s = Format.pp_print_string ppf (to_string add_stream s)
let pp_extern ppf x = Format.pp_print_string ppf (to_string add_extern x)
let pp_program ppf prog = Format.pp_print_string ppf (to_string ~size:1024 add_program prog)
