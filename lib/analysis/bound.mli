(** Static loop iteration bounds.

    [of_for] classifies a [for] loop's trip count as [Exact n] (closed
    constant induction under an optional parameter environment),
    [At_most n] (the bound expression is data-dependent but its interval
    upper end is finite), or [Unknown].  A bound is only claimed when
    the induction variable is not assigned, re-declared, or stream-read
    into inside the loop body, so an [Exact n] is a true execution
    count, usable by {!Chan} to expand loops into exact channel-op
    traces and by {!Live} to derive cycle budgets. *)

type t = Exact of int | At_most of int | Unknown

val to_string : t -> string

(** Constant value of an expression closed under [env] (variable name ->
    value), so testbench parameters count as constants.  With the
    default empty [env] it folds variable-free expressions, which is how
    {!Absint} uses it. *)
val closed_const : ?env:(string * int64) list -> Front.Ast.expr -> int64 option

(** Interval of an expression with [env]-bound variables as singletons
    and everything else at the canonical range of its type. *)
val interval : ?env:(string * int64) list -> Front.Ast.expr -> Domain.t

(** [of_for ?env header body] — the loop's trip-count class. *)
val of_for :
  ?env:(string * int64) list ->
  Front.Ast.for_header ->
  Front.Ast.stmt list ->
  t

(** Trip count of the loop when the bound operand of its compare is
    shifted by [delta] — the rewrite the loop-off-by-one fault applies
    to the lowered compare.  [Some] only when the shifted count is as
    provable as the baseline's [Exact]. *)
val shifted_trips :
  ?env:(string * int64) list ->
  delta:int64 ->
  Front.Ast.for_header ->
  Front.Ast.stmt list ->
  int option
