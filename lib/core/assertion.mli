(** Assertion extraction and condition evaluation.

    Every ANSI-C [assert] in a hardware process receives a unique
    identifier (the paper's error code, derived from file name and line
    number) recorded in a code table used by the notification function
    to print the standard failure message. *)

type info = {
  id : int;                 (** error code *)
  aproc : string;           (** enclosing process *)
  aloc : Front.Loc.t;
  text : string;            (** source text of the condition *)
  cond : Front.Ast.expr;    (** elaborated condition *)
}

(** ANSI-C assert(3) failure message:
    [file:line: process: Assertion `text' failed.] *)
val message : info -> string

(** All assertions of the hardware processes, in process order then
    source order, numbered from 0. *)
val extract : Front.Ast.program -> info list

(** Name of the k-th data slot of a parallelized assertion checker. *)
val slot_name : int -> string

(** Inverse of {!slot_name}; [None] for other identifiers. *)
val slot_index : string -> int option

(** Pure evaluation of an elaborated expression whose only free
    variables are checker slots ([__slotN]).  The behavioural model of
    a hardware assertion checker.
    @raise Invalid_argument on non-slot free variables. *)
val eval_slots : int64 array -> Front.Ast.expr -> int64

(** True when the assertion holds for the given slot values. *)
val holds : Front.Ast.expr -> int64 array -> bool

(** [compile cond] is [holds cond] with the condition walked once: slot
    indices are resolved up front, so evaluating the closure does no
    name parsing.  A variable that is not a slot of the evaluated array
    still raises [Invalid_argument] at evaluation, not here. *)
val compile : Front.Ast.expr -> int64 array -> bool
