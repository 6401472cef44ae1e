(** Loop iteration bounds — see {!Bound} interface. *)

open Front.Ast

type t = Exact of int | At_most of int | Unknown

let to_string = function
  | Exact n -> Printf.sprintf "exactly %d" n
  | At_most n -> Printf.sprintf "at most %d" n
  | Unknown -> "unknown"

(* Constant value of an expression that is closed under [env]: literals,
   casts, arithmetic, and variables bound in [env].  The parameter
   environment lets testbench parameters ([fir:n=32]) make
   data-dependent trip counts concrete; {!Absint} folds closed
   (variable-free) expressions with the empty one. *)
let rec closed_const ?(env = []) (e : expr) : int64 option =
  match e.e with
  | Int n -> Some (Interp.Value.wrap_ty e.ety n)
  | Bool b -> Some (Interp.Value.of_bool b)
  | Var x ->
      Option.map (fun v -> Interp.Value.wrap_ty e.ety v) (List.assoc_opt x env)
  | Unop (op, a) ->
      Option.map (fun v -> Interp.Value.unop op a.ety v) (closed_const ~env a)
  | Binop (op, a, b) -> (
      match (closed_const ~env a, closed_const ~env b) with
      | Some va, Some vb -> (
          try Some (Interp.Value.binop op a.ety va vb)
          with Interp.Value.Division_by_zero -> None)
      | _ -> None)
  | Cast (ty, a) ->
      Option.map
        (fun v -> Interp.Value.cast ~from_ty:a.ety ~to_ty:ty v)
        (closed_const ~env a)
  | Index _ | Call _ -> None

(* Interval of an expression under [env]: env-bound variables are
   singletons, every other variable (and array read, and extern call)
   is the full canonical range of its type. *)
let rec interval ?(env = []) (e : expr) : Domain.t =
  match e.e with
  | Int n -> Domain.const_of e.ety n
  | Bool b -> Domain.const (Interp.Value.of_bool b)
  | Var x -> (
      match List.assoc_opt x env with
      | Some v -> Domain.const (Interp.Value.wrap_ty e.ety v)
      | None -> Domain.top_of_ty e.ety)
  | Index _ | Call _ -> Domain.top_of_ty e.ety
  | Unop (op, a) -> Domain.unop op a.ety (interval ~env a)
  | Binop (op, a, b) -> Domain.binop op a.ety (interval ~env a) (interval ~env b)
  | Cast (ty, a) -> Domain.cast ~to_ty:ty (interval ~env a)

(* [v] is written inside [body] (assigned, re-declared, or stream-read
   into): the closed-form trip count no longer describes the loop. *)
let tampers_with v body =
  let hit = ref false in
  iter_stmts
    (fun st ->
      match st.s with
      | Assign (Lvar x, _) | Decl (_, x, _) | Stream_read (Lvar x, _) ->
          if x = v then hit := true
      | _ -> ())
    body;
  !hit

let trips_of ~upper ~c0 ~k =
  let span = Int64.sub upper c0 in
  if Int64.compare span 0L <= 0 then Some 0
  else
    let trips = Int64.div (Int64.add span (Int64.sub k 1L)) k in
    if Int64.compare trips (Int64.of_int max_int) > 0 then None
    else Some (Int64.to_int trips)

(* The (init, cond, step) pattern shared by [of_for] and
   [shifted_trips]: a closed init [v = c0], a [v < bound] / [v <= bound]
   condition, a closed positive step, and an untampered induction
   variable. *)
let counted_for ?(env = []) (h : for_header) (body : stmt list) :
    (int64 * binop * expr * int64) option =
  let init_of = function
    | Some { s = Decl (_, v, Some e); _ } | Some { s = Assign (Lvar v, e); _ } ->
        Option.map (fun c -> (v, c)) (closed_const ~env e)
    | _ -> None
  in
  let step_of = function
    | Some { s = Assign (Lvar v, { e = Binop (Add, { e = Var v'; _ }, k); _ }); _ }
      when v = v' ->
        Option.map (fun c -> (v, c)) (closed_const ~env k)
    | Some { s = Assign (Lvar v, { e = Binop (Add, k, { e = Var v'; _ }); _ }); _ }
      when v = v' ->
        Option.map (fun c -> (v, c)) (closed_const ~env k)
    | _ -> None
  in
  match (init_of h.init, h.cond.e, step_of h.step) with
  | Some (v, c0), Binop ((Lt | Le) as op, { e = Var v'; _ }, bound), Some (v'', k)
    when v = v' && v = v'' && Int64.compare k 0L > 0 ->
      if tampers_with v body then None else Some (c0, op, bound, k)
  | _ -> None

let of_for ?(env = []) (h : for_header) (body : stmt list) : t =
  match counted_for ~env h body with
  | None -> Unknown
  | Some (c0, op, bound, k) -> (
      match closed_const ~env bound with
      | Some b ->
          let upper = if op = Le then Int64.add b 1L else b in
          (match trips_of ~upper ~c0 ~k with
          | Some n -> Exact n
          | None -> Unknown)
      | None -> (
          (* data-dependent bound: fall back to its interval upper end *)
          match interval ~env bound with
          | Domain.Itv { hi; _ } ->
              let upper = if op = Le then Int64.add hi 1L else hi in
              (match trips_of ~upper ~c0 ~k with
              | Some n -> At_most n
              | None -> Unknown)
          | Domain.Bot -> Unknown))

(* Trip count of the same loop when the bound operand of its compare is
   shifted by [delta] — the exact rewrite the loop-off-by-one fault
   applies to the lowered compare.  [Some] only in the fully closed
   case; the shifted bound must also stay inside the compare operand's
   type (the fault's adder wraps on the wire, and a wrapped bound is
   beyond this model). *)
let shifted_trips ?(env = []) ~(delta : int64) (h : for_header)
    (body : stmt list) : int option =
  match counted_for ~env h body with
  | None -> None
  | Some (c0, op, bound, k) -> (
      match closed_const ~env bound with
      | None -> None
      | Some b ->
          let b' = Int64.add b delta in
          if not (Int64.equal (Interp.Value.wrap_ty bound.ety b') b') then None
          else
            let upper = if op = Le then Int64.add b' 1L else b' in
            trips_of ~upper ~c0 ~k)
