(** Type checking and elaboration.

    Elaboration rewrites the untyped parse tree into a fully typed AST:
    every expression carries its type, and explicit {!Ast.Cast} nodes are
    inserted so that each binary operation has operands of identical
    type.  This single source of width truth is what both the software
    interpreter (C semantics) and the hardware datapath obey — the
    paper's Section 5.1 bug is an injected *divergence* from it. *)

open Ast

exception Error of string * Loc.t

let error loc fmt = Format.kasprintf (fun msg -> raise (Error (msg, loc))) fmt

type env = {
  vars : (string * ty) list;          (** in-scope scalars and arrays *)
  streams : stream_decl list;
  externs : extern_decl list;
}

let lookup_var env loc name =
  match List.assoc_opt name env.vars with
  | Some ty -> ty
  | None -> error loc "unbound variable %s" name

let lookup_stream env loc name =
  match List.find_opt (fun s -> s.sname = name) env.streams with
  | Some s -> s
  | None -> error loc "unbound stream %s" name

let lookup_extern env loc name =
  match List.find_opt (fun x -> x.xname = name) env.externs with
  | Some x -> x
  | None -> error loc "unknown external function %s" name

(* Usual arithmetic conversions, restricted to our width lattice: the
   wider width wins; at equal width, unsigned wins. *)
let common_type loc a b =
  match (a, b) with
  | Tint (sa, wa), Tint (sb, wb) ->
      let w = if compare_width wa wb >= 0 then wa else wb in
      let s =
        if wa = wb then (if sa = Unsigned || sb = Unsigned then Unsigned else Signed)
        else if compare_width wa wb > 0 then sa
        else sb
      in
      Tint (s, w)
  | Tbool, Tbool -> Tbool
  | Tbool, (Tint _ as t) | (Tint _ as t), Tbool -> t
  | _ -> error loc "cannot combine %s and %s" (show_ty a) (show_ty b)

(* Every FIFO and memory is allocated at its declared size by the
   interpreter, the simulator and the area model; LANGUAGE.md states
   these bounds. *)
let max_stream_depth = 65536
let max_array_length = 65536

let is_scalar = function Tint _ | Tbool -> true | Tarray _ | Tvoid -> false

(* Insert a cast only when needed. *)
let cast_to ty e =
  if equal_ty e.ety ty then e
  else
    match (e.ety, ty) with
    | (Tint _ | Tbool), (Tint _ | Tbool) -> { e = Cast (ty, e); ety = ty; eloc = e.eloc }
    | _ -> error e.eloc "cannot cast %s to %s" (show_ty e.ety) (show_ty ty)

(* Coerce an expression to bool, C-style: nonzero means true. *)
let boolify e =
  match e.ety with
  | Tbool -> e
  | Tint _ ->
      let zero = { e = Int 0L; ety = e.ety; eloc = e.eloc } in
      { e = Binop (Ne, e, zero); ety = Tbool; eloc = e.eloc }
  | _ -> error e.eloc "expected scalar condition, got %s" (show_ty e.ety)

let literal_type n =
  if Int64.compare n (Int64.of_int32 Int32.min_int) >= 0
     && Int64.compare n (Int64.of_int32 Int32.max_int) <= 0
  then int32_t
  else int64_t

let rec elab_expr env (x : expr) : expr =
  let loc = x.eloc in
  match x.e with
  | Int n -> { x with ety = literal_type n }
  | Bool _ -> { x with ety = Tbool }
  | Var name ->
      let ty = lookup_var env loc name in
      if not (is_scalar ty) then error loc "array %s used as a scalar" name;
      { x with ety = ty }
  | Index (name, idx) -> (
      match lookup_var env loc name with
      | Tarray (elt, _) ->
          let idx = elab_expr env idx in
          let idx =
            match idx.ety with
            | Tint _ -> idx
            | Tbool -> cast_to int32_t idx
            | _ -> error loc "array index must be an integer"
          in
          { x with e = Index (name, idx); ety = elt }
      | _ -> error loc "%s is not an array" name)
  | Unop (Neg, a) ->
      let a = elab_expr env a in
      let a = match a.ety with Tbool -> cast_to int32_t a | _ -> a in
      (match a.ety with
      | Tint _ -> { x with e = Unop (Neg, a); ety = a.ety }
      | _ -> error loc "cannot negate %s" (show_ty a.ety))
  | Unop (Bnot, a) ->
      let a = elab_expr env a in
      (match a.ety with
      | Tint _ -> { x with e = Unop (Bnot, a); ety = a.ety }
      | _ -> error loc "cannot complement %s" (show_ty a.ety))
  | Unop (Lnot, a) ->
      let a = boolify (elab_expr env a) in
      { x with e = Unop (Lnot, a); ety = Tbool }
  | Binop (op, a, b) when is_logical op ->
      let a = boolify (elab_expr env a) in
      let b = boolify (elab_expr env b) in
      { x with e = Binop (op, a, b); ety = Tbool }
  | Binop ((Shl | Shr) as op, a, b) ->
      let a = elab_expr env a in
      let a = match a.ety with Tbool -> cast_to int32_t a | _ -> a in
      let b = cast_to a.ety (elab_expr env b) in
      (match a.ety with
      | Tint _ -> { x with e = Binop (op, a, b); ety = a.ety }
      | _ -> error loc "cannot shift %s" (show_ty a.ety))
  | Binop (op, a, b) ->
      let a = elab_expr env a in
      let b = elab_expr env b in
      let t = common_type loc a.ety b.ety in
      let t = match t with Tbool -> Tint (Unsigned, W8) | _ -> t in
      let a = cast_to t a and b = cast_to t b in
      let ety = if is_comparison op then Tbool else t in
      { x with e = Binop (op, a, b); ety }
  | Cast (ty, a) ->
      if not (is_scalar ty) then error loc "cannot cast to %s" (show_ty ty);
      cast_to ty { (elab_expr env a) with eloc = loc }
  | Call (name, args) ->
      let x' = lookup_extern env loc name in
      if List.length args <> List.length x'.xargs then
        error loc "%s expects %d arguments, got %d" name (List.length x'.xargs)
          (List.length args);
      let args = List.map2 (fun t a -> cast_to t (elab_expr env a)) x'.xargs args in
      { x with e = Call (name, args); ety = x'.xret }

let elab_lvalue env loc lv =
  match lv with
  | Lvar name ->
      let ty = lookup_var env loc name in
      if not (is_scalar ty) then error loc "cannot assign to array %s as a whole" name;
      (lv, ty)
  | Lindex (name, idx) -> (
      match lookup_var env loc name with
      | Tarray (elt, _) ->
          let idx = elab_expr env idx in
          (Lindex (name, idx), elt)
      | _ -> error loc "%s is not an array" name)

let rec elab_stmts env stmts =
  match stmts with
  | [] -> (env, [])
  | st :: rest ->
      let env, st = elab_stmt env st in
      let env, rest = elab_stmts env rest in
      (env, st :: rest)

and elab_stmt env st =
  let loc = st.sloc in
  match st.s with
  | Decl (ty, name, init) ->
      (match ty with
      | Tvoid -> error loc "cannot declare void variable %s" name
      | Tarray ((Tarray _ | Tvoid | Tbool), _) -> error loc "unsupported array element type"
      | Tarray (_, n) when n <= 0 -> error loc "array %s must have positive size" name
      | Tarray (_, n) when n > max_array_length ->
          error loc "array %s size %d exceeds the maximum %d" name n max_array_length
      | _ -> ());
      let init =
        match init with
        | None -> None
        | Some e ->
            if not (is_scalar ty) then error loc "cannot initialize array %s inline" name;
            Some (cast_to ty (elab_expr env e))
      in
      let env = { env with vars = (name, ty) :: env.vars } in
      (env, { st with s = Decl (ty, name, init) })
  | Assign (lv, e) ->
      let lv, ty = elab_lvalue env loc lv in
      let e = cast_to ty (elab_expr env e) in
      (env, { st with s = Assign (lv, e) })
  | If (c, t, f) ->
      let c = boolify (elab_expr env c) in
      let _, t = elab_stmts env t in
      let _, f = elab_stmts env f in
      (env, { st with s = If (c, t, f) })
  | While (c, b) ->
      let c = boolify (elab_expr env c) in
      let _, b = elab_stmts env b in
      (env, { st with s = While (c, b) })
  | For (h, b) ->
      let env_for, init =
        match h.init with
        | None -> (env, None)
        | Some s ->
            let env', s' = elab_stmt env s in
            (env', Some s')
      in
      let cond = boolify (elab_expr env_for h.cond) in
      let step =
        match h.step with
        | None -> None
        | Some s ->
            let _, s' = elab_stmt env_for s in
            Some s'
      in
      let _, b = elab_stmts env_for b in
      (env, { st with s = For ({ h with init; cond; step }, b) })
  | Assert (c, txt) ->
      let c = boolify (elab_expr env c) in
      (env, { st with s = Assert (c, txt) })
  | Stream_read (lv, s) ->
      let sd = lookup_stream env loc s in
      let lv, ty = elab_lvalue env loc lv in
      if not (is_scalar ty) then error loc "stream_read target must be scalar";
      ignore sd;
      (env, { st with s = Stream_read (lv, s) })
  | Stream_write (s, e) ->
      let sd = lookup_stream env loc s in
      let e = cast_to sd.elem (elab_expr env e) in
      (env, { st with s = Stream_write (s, e) })
  | Return None -> (env, st)
  | Return (Some _) -> error loc "processes cannot return a value"
  | Block b ->
      let _, b = elab_stmts env b in
      (env, { st with s = Block b })
  | Tapstmt (id, args) ->
      let args = List.map (elab_expr env) args in
      List.iter
        (fun (a : expr) ->
          if not (is_scalar a.ety) then error loc "tap arguments must be scalar")
        args;
      (env, { st with s = Tapstmt (id, args) })
  | Const_array (elem, name, values) ->
      if not (is_scalar elem) || elem = Tvoid then
        error loc "const array %s must have scalar elements" name;
      if values = [] then error loc "const array %s must not be empty" name;
      if List.compare_length_with values max_array_length > 0 then
        error loc "const array %s size %d exceeds the maximum %d" name (List.length values)
          max_array_length;
      let env = { env with vars = (name, Tarray (elem, List.length values)) :: env.vars } in
      (env, st)

let elab_proc ~streams ~externs (p : proc) =
  List.iter
    (fun (name, ty) ->
      if not (is_scalar ty) then
        error p.ploc "parameter %s of %s must be scalar" name p.pname)
    p.params;
  let env = { vars = p.params; streams; externs } in
  let _, body = elab_stmts env p.body in
  { p with body }

(** Elaborate a whole program.  Checks stream and process name
    uniqueness, elaborates every process body, and returns the typed
    program. *)
let elaborate (prog : program) : program =
  let check_unique what names =
    let sorted = List.sort compare names in
    let rec dup = function
      | a :: b :: _ when a = b -> error Loc.none "duplicate %s %s" what a
      | _ :: rest -> dup rest
      | [] -> ()
    in
    dup sorted
  in
  check_unique "stream" (List.map (fun s -> s.sname) prog.streams);
  check_unique "process" (List.map (fun p -> p.pname) prog.procs);
  check_unique "extern" (List.map (fun x -> x.xname) prog.externs);
  List.iter
    (fun s ->
      if not (is_scalar s.elem) then
        error Loc.none "stream %s element type must be scalar" s.sname;
      if s.depth <= 0 then error Loc.none "stream %s depth must be positive" s.sname;
      if s.depth > max_stream_depth then
        error Loc.none "stream %s depth %d exceeds the maximum %d" s.sname s.depth
          max_stream_depth)
    prog.streams;
  let procs =
    List.map (elab_proc ~streams:prog.streams ~externs:prog.externs) prog.procs
  in
  { prog with procs }

(** Convenience: parse then elaborate. *)
let parse_and_check ?file src = elaborate (Parser.parse ?file src)
