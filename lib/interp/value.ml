(** Fixed-width two's-complement arithmetic.

    A value of type [Tint (s, w)] is represented as an [int64] in
    canonical form: truncated to [w] bits, then sign-extended when [s] is
    [Signed] and zero-extended when [s] is [Unsigned].  All operations
    re-canonicalize, so C's wrapping semantics hold at every width.
    This module is the single definition of scalar semantics shared by
    the software interpreter and the hardware simulator — except where a
    fault is injected (paper, Section 5.1). *)

open Front.Ast

exception Division_by_zero

(* Mask of the low [n] bits, n in [1,64]. *)
let[@inline] low_mask n =
  if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L

(** Canonicalize [v] as a value of signedness [s] and width [w]: keep
    the low bits, then shift them back down sign- or zero-extending. *)
let[@inline] wrap s w v =
  let n = bits_of_width w in
  if n = 64 then v
  else
    let up = Int64.shift_left v (64 - n) in
    match s with
    | Unsigned -> Int64.shift_right_logical up (64 - n)
    | Signed -> Int64.shift_right up (64 - n)

let wrap_ty ty v =
  match ty with
  | Tint (s, w) -> wrap s w v
  | Tbool -> if v = 0L then 0L else 1L
  | Tarray _ | Tvoid -> invalid_arg "Value.wrap_ty: not a scalar type"

let of_bool b = if b then 1L else 0L
let to_bool v = v <> 0L

let signedness_of = function
  | Tint (s, _) -> s
  | Tbool -> Unsigned
  | Tarray _ | Tvoid -> invalid_arg "Value.signedness_of"

let width_of = function
  | Tint (_, w) -> w
  | Tbool -> W1
  | Tarray _ | Tvoid -> invalid_arg "Value.width_of"

(* Comparison viewing canonical values per signedness.  Canonical
   unsigned sub-64-bit values are non-negative, so plain compare works;
   only unsigned 64-bit needs [unsigned_compare]. *)
let compare_v s a b =
  match s with
  | Signed -> Int64.compare a b
  | Unsigned -> Int64.unsigned_compare a b

(** Evaluate a binary operation at type [ty] (the common operand type
    produced by elaboration).  Comparison results are booleans (0/1).
    Allocates nothing beyond the boxed result. *)
let binop op ty a b =
  let s = signedness_of ty and w = width_of ty in
  match op with
  | Add -> wrap s w (Int64.add a b)
  | Sub -> wrap s w (Int64.sub a b)
  | Mul -> wrap s w (Int64.mul a b)
  | Div ->
      if b = 0L then raise Division_by_zero
      else (
        match s with
        | Signed -> wrap s w (Int64.div a b)
        | Unsigned -> wrap s w (Int64.unsigned_div a b))
  | Mod ->
      if b = 0L then raise Division_by_zero
      else (
        match s with
        | Signed -> wrap s w (Int64.rem a b)
        | Unsigned -> wrap s w (Int64.unsigned_rem a b))
  | Band -> wrap s w (Int64.logand a b)
  | Bor -> wrap s w (Int64.logor a b)
  | Bxor -> wrap s w (Int64.logxor a b)
  | Shl -> wrap s w (Int64.shift_left a (Int64.to_int (Int64.logand b 63L)))
  | Shr ->
      let amount = Int64.to_int (Int64.logand b 63L) in
      let shifted =
        match s with
        | Signed -> Int64.shift_right a amount
        | Unsigned ->
            (* canonical unsigned values are zero-extended already *)
            Int64.shift_right_logical
              (Int64.logand a (low_mask (bits_of_width w)))
              amount
      in
      wrap s w shifted
  | Lt -> of_bool (compare_v s a b < 0)
  | Le -> of_bool (compare_v s a b <= 0)
  | Gt -> of_bool (compare_v s a b > 0)
  | Ge -> of_bool (compare_v s a b >= 0)
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | Land -> of_bool (to_bool a && to_bool b)
  | Lor -> of_bool (to_bool a || to_bool b)

let unop op ty a =
  match op with
  | Neg -> wrap_ty ty (Int64.neg a)
  | Bnot -> wrap_ty ty (Int64.lognot a)
  | Lnot -> of_bool (not (to_bool a))

(** Reinterpret canonical value [v] of type [from_ty] as type [to_ty]
    (C cast: truncate or extend the bit pattern). *)
let cast ~from_ty ~to_ty v =
  match (from_ty, to_ty) with
  | _, Tbool -> if v = 0L then 0L else 1L
  | Tbool, Tint (s, w) -> wrap s w v
  | Tint (s_from, w_from), Tint (s, w) ->
      (* First view the source bits zero- or sign-extended per the source
         type (canonical form already does this), then truncate/extend to
         the destination. *)
      ignore s_from;
      ignore w_from;
      wrap s w v
  | _ -> invalid_arg "Value.cast: not a scalar cast"
