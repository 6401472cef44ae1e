(** Type checking and elaboration.

    Elaboration rewrites the untyped parse tree into a fully typed AST:
    every expression carries its type, and explicit {!Ast.Cast} nodes
    are inserted so that each binary operation has operands of identical
    type.  This single source of width truth is what both the software
    interpreter (C semantics) and the hardware datapath obey — the
    paper's Section 5.1 bug is an injected *divergence* from it. *)

exception Error of string * Loc.t

(** Usual arithmetic conversions restricted to the width lattice: wider
    width wins; at equal width, unsigned wins.
    @raise Error for non-combinable types. *)
val common_type : Loc.t -> Ast.ty -> Ast.ty -> Ast.ty

val is_scalar : Ast.ty -> bool

(** The largest stream depth and array length a program may declare
    (65536 each); larger ones are type errors. *)
val max_stream_depth : int
val max_array_length : int

(** The type elaboration assigns a bare integer literal: [int32] when
    the value fits, [int64] otherwise.  Exposed for the pretty-printer,
    which must annotate literals carrying any other type so that
    reparsing reconstructs it. *)
val literal_type : int64 -> Ast.ty

(** Elaborate a whole program (idempotent).
    @raise Error on type errors, duplicate names, bad stream/array
    declarations. *)
val elaborate : Ast.program -> Ast.program

(** [parse_and_check ?file src]: parse then elaborate. *)
val parse_and_check : ?file:string -> string -> Ast.program
