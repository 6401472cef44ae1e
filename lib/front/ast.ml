(** Abstract syntax for the InCA C subset (an Impulse-C-like HLL).

    The subset contains exactly the constructs the paper's assertion
    techniques operate on: fixed-width integers, arrays mapped to block
    RAMs, streaming channels between processes, [assert], and loop
    pipelining pragmas.  A program is a task graph of hardware and
    software processes connected by streams (paper, Section 3). *)

type signedness = Signed | Unsigned [@@deriving show, eq, ord]

(** Bit widths supported by the datapath.  [W1] is the boolean width. *)
type width = W1 | W8 | W16 | W32 | W64 [@@deriving show, eq, ord]

type ty =
  | Tint of signedness * width  (** scalar integer *)
  | Tbool                       (** result of comparisons / logic *)
  | Tarray of ty * int          (** fixed-size array of scalars (block RAM) *)
  | Tvoid                       (** procedure result *)
[@@deriving show, eq]

let bits_of_width = function W1 -> 1 | W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

let width_of_bits = function
  | 1 -> W1
  | 8 -> W8
  | 16 -> W16
  | 32 -> W32
  | 64 -> W64
  | n -> invalid_arg (Printf.sprintf "width_of_bits: %d" n)

let int32_t = Tint (Signed, W32)
let uint32_t = Tint (Unsigned, W32)
let int64_t = Tint (Signed, W64)

type unop =
  | Neg   (** arithmetic negation *)
  | Lnot  (** logical not, yields bool *)
  | Bnot  (** bitwise complement *)
[@@deriving show, eq]

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Band | Bor | Bxor
  | Land | Lor
[@@deriving show, eq]

let is_comparison = function
  | Lt | Le | Gt | Ge | Eq | Ne -> true
  | Add | Sub | Mul | Div | Mod | Shl | Shr | Band | Bor | Bxor | Land | Lor -> false

let is_logical = function
  | Land | Lor -> true
  | Add | Sub | Mul | Div | Mod | Shl | Shr | Band | Bor | Bxor
  | Lt | Le | Gt | Ge | Eq | Ne -> false

type expr = { e : expr_node; ety : ty; eloc : Loc.t }

and expr_node =
  | Int of int64                 (** literal; its type is [ety] *)
  | Bool of bool
  | Var of string
  | Index of string * expr       (** array element read *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cast of ty * expr
  | Call of string * expr list   (** external HDL function (pure) *)
[@@deriving show, eq]

type lvalue =
  | Lvar of string
  | Lindex of string * expr      (** array element write *)
[@@deriving show, eq]

type stmt = { s : stmt_node; sloc : Loc.t }

and stmt_node =
  | Decl of ty * string * expr option
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of for_header * stmt list
  | Assert of expr * string      (** condition and its source text *)
  | Stream_read of lvalue * string   (** [v = stream_read(s)] — blocking *)
  | Stream_write of string * expr    (** [stream_write(s, e)] — blocking *)
  | Return of expr option
  | Block of stmt list
  | Tapstmt of int * expr list
      (** internal: assertion data-extraction point inserted by the
          parallelization transform (Section 3.1).  Exports the values
          plus a fire pulse to an out-of-process assertion checker.
          Never produced by the parser. *)
  | Const_array of ty * string * int64 list
      (** ROM: an array with compile-time contents, initialized in the
          block RAM bitstream ([const int32 t[4] = { 1, 2, 3, 4 };]) *)

and for_header = {
  init : stmt option;            (** restricted to [Assign] / [Decl] *)
  cond : expr;
  step : stmt option;            (** restricted to [Assign] *)
  pipelined : bool;              (** [#pragma pipeline] on this loop *)
}
[@@deriving show, eq]

(** Where a process is mapped in the hardware/software partition. *)
type proc_kind = Hardware | Software [@@deriving show, eq]

type proc = {
  pname : string;
  kind : proc_kind;
  params : (string * ty) list;   (** scalar configuration parameters *)
  body : stmt list;
  ploc : Loc.t;
}
[@@deriving show]

(** A streaming channel between processes.  Streams are global, as in
    Impulse-C where they are created once and passed to each process. *)
type stream_decl = {
  sname : string;
  elem : ty;                     (** element type (scalar) *)
  depth : int;                   (** FIFO depth in elements *)
}
[@@deriving show, eq]

(** External HDL function prototype: the body is supplied separately,
    once as a C model (software simulation) and once as a hardware
    behaviour (circuit), which may legitimately differ — Section 5.1. *)
type extern_decl = {
  xname : string;
  xargs : ty list;
  xret : ty;
  xlatency : int;                (** hardware latency in cycles *)
}
[@@deriving show, eq]

type program = {
  streams : stream_decl list;
  externs : extern_decl list;
  procs : proc list;
}
[@@deriving show]

let find_proc prog name = List.find_opt (fun p -> p.pname = name) prog.procs

let find_stream prog name = List.find_opt (fun s -> s.sname = name) prog.streams

let find_extern prog name = List.find_opt (fun x -> x.xname = name) prog.externs

(** Smart constructors used by tests and programmatic builders. *)

let mk_expr ?(loc = Loc.none) ety e = { e; ety; eloc = loc }

let mk_int ?(ty = int32_t) n = mk_expr ty (Int n)

let mk_var ?(ty = int32_t) name = mk_expr ty (Var name)

let mk_bool b = mk_expr Tbool (Bool b)

let mk_stmt ?(loc = Loc.none) s = { s; sloc = loc }

(** [iter_stmts f body] applies [f] to every statement in [body],
    recursing into control structure bodies. *)
let rec iter_stmts f body =
  List.iter
    (fun st ->
      f st;
      match st.s with
      | If (_, t, e) -> iter_stmts f t; iter_stmts f e
      | While (_, b) | For (_, b) | Block b -> iter_stmts f b
      | Decl _ | Assign _ | Assert _ | Stream_read _ | Stream_write _ | Return _
      | Tapstmt _ | Const_array _ -> ())
    body

(** [map_stmts f body] rebuilds [body] bottom-up: children are rewritten
    first, then [f] is applied to each statement.  [f] returns a list to
    allow one-to-many rewrites (e.g. assertion instrumentation). *)
let rec map_stmts (f : stmt -> stmt list) body =
  List.concat_map
    (fun st ->
      let st =
        match st.s with
        | If (c, t, e) ->
            (* bind in source order: constructor arguments evaluate right
               to left, and stateful [f]s (assertion numbering) must see
               the then branch first *)
            let t = map_stmts f t in
            let e = map_stmts f e in
            { st with s = If (c, t, e) }
        | While (c, b) -> { st with s = While (c, map_stmts f b) }
        | For (h, b) -> { st with s = For (h, map_stmts f b) }
        | Block b -> { st with s = Block (map_stmts f b) }
        | Decl _ | Assign _ | Assert _ | Stream_read _ | Stream_write _ | Return _
        | Tapstmt _ | Const_array _ -> st
      in
      f st)
    body

(** All assertions of a statement list, in source order. *)
let assertions_of body =
  let acc = ref [] in
  iter_stmts
    (fun st -> match st.s with Assert (c, txt) -> acc := (st.sloc, c, txt) :: !acc | _ -> ())
    body;
  List.rev !acc

(** Streams read or written anywhere in [body]. *)
let streams_used body =
  let acc = ref [] in
  let add s = if not (List.mem s !acc) then acc := s :: !acc in
  iter_stmts
    (fun st ->
      match st.s with
      | Stream_read (_, s) | Stream_write (s, _) -> add s
      | _ -> ())
    body;
  List.rev !acc

(** Scalar variables read by an expression, in first-occurrence order
    (array names indexed into are excluded — see {!arrays_read}). *)
let free_vars expr =
  let acc = ref [] in
  let add x = if not (List.mem x !acc) then acc := x :: !acc in
  let rec go x =
    match x.e with
    | Int _ | Bool _ -> ()
    | Var v -> add v
    | Index (_, i) -> go i
    | Unop (_, a) | Cast (_, a) -> go a
    | Binop (_, a, b) -> go a; go b
    | Call (_, args) -> List.iter go args
  in
  go expr;
  List.rev !acc

(** Array names indexed into by an expression, in first-occurrence order. *)
let arrays_read expr =
  let acc = ref [] in
  let add x = if not (List.mem x !acc) then acc := x :: !acc in
  let rec go x =
    match x.e with
    | Int _ | Bool _ | Var _ -> ()
    | Index (a, i) -> add a; go i
    | Unop (_, a) | Cast (_, a) -> go a
    | Binop (_, a, b) -> go a; go b
    | Call (_, args) -> List.iter go args
  in
  go expr;
  List.rev !acc

(** Arrays declared in [body] with their element type and length. *)
let arrays_declared body =
  let acc = ref [] in
  iter_stmts
    (fun st ->
      match st.s with
      | Decl (Tarray (elt, n), name, _) -> acc := (name, elt, n) :: !acc
      | _ -> ())
    body;
  List.rev !acc
