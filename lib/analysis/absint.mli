(** Forward abstract interpretation of elaborated InCA-C over
    {!Domain} (interval x constant x parity), with widening/narrowing
    at loop heads.

    The concrete semantics being over-approximated is {!Interp}:
    declarations zero-initialize, arrays are element-summarized, stream
    reads are unconstrained (testbench feeds bypass canonicalization),
    process parameters are unconstrained.  The environment is *not*
    refined after an assertion: under NABORT execution continues past a
    failed assert, so a [Proved] classification may never lean on an
    earlier (possibly failing) assertion — pruned assertions stay
    sound under every strategy. *)

type klass =
  | Proved                               (** can never fire *)
  | Violated of (string * int64) list
      (** fires on every reaching execution; the witness gives one
          falsifying valuation of the condition's free variables *)
  | Unknown

type verdict = {
  vproc : string;
  vloc : Front.Loc.t;
  vtext : string;         (** source text of the condition *)
  vclass : klass;
}

type result = {
  verdicts : verdict list;
      (** hardware-process assertions, process order then source order
          (the {!Core.Assertion.extract} order) *)
  uninit_reads : (string * string * Front.Loc.t) list;
      (** (process, variable, first read location) read before any
          assignment *)
  dead : (string * Front.Loc.t * string * string) list;
      (** (process, location, text, subsuming earlier text) assertions
          implied by an earlier active assertion on every path *)
}

val analyze : Front.Ast.program -> result

val class_name : klass -> string

(** Scalar variables read by an expression (array names excluded). *)
val free_vars : Front.Ast.expr -> string list
