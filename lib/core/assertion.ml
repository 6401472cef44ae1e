(** Assertion extraction and condition evaluation.

    Every ANSI-C [assert] in a hardware process receives a unique
    identifier (the paper's error code, derived from file name and line
    number) recorded in a code table used by the notification function
    to print the standard [file:line: function: Assertion `expr'
    failed.] message. *)

open Front.Ast
module Loc = Front.Loc
module Value = Interp.Value

type info = {
  id : int;
  aproc : string;       (** enclosing process *)
  aloc : Loc.t;
  text : string;        (** source text of the condition *)
  cond : expr;          (** elaborated condition *)
}

(** ANSI-C assert(3) failure message for a failed assertion. *)
let message (i : info) =
  Printf.sprintf "%s:%d: %s: Assertion `%s' failed." i.aloc.Loc.file i.aloc.Loc.line
    i.aproc i.text

(** Extract all assertions from the hardware processes of [prog], in
    process order then source order, numbering them from 0. *)
let extract (prog : program) : info list =
  let next = ref 0 in
  List.concat_map
    (fun (p : proc) ->
      if p.kind <> Hardware then []
      else
        List.map
          (fun (aloc, cond, text) ->
            let id = !next in
            incr next;
            { id; aproc = p.pname; aloc; text; cond })
          (assertions_of p.body))
    prog.procs

(** Name of the k-th data slot of a parallelized assertion checker. *)
let slot_name k = Printf.sprintf "__slot%d" k

let slot_index name =
  if String.length name > 6 && String.sub name 0 6 = "__slot" then
    int_of_string_opt (String.sub name 6 (String.length name - 6))
  else None

(** Pure evaluation of an elaborated expression whose only free
    variables are checker slots ([__slotN]).  Used as the behavioural
    model of a hardware assertion checker. *)
let rec eval_slots (slots : int64 array) (x : expr) : int64 =
  match x.e with
  | Int n -> Value.wrap_ty x.ety n
  | Bool b -> Value.of_bool b
  | Var name -> (
      match slot_index name with
      | Some k when k < Array.length slots -> slots.(k)
      | _ -> invalid_arg (Printf.sprintf "eval_slots: free variable %s" name))
  | Index _ -> invalid_arg "eval_slots: array access must be a slot"
  | Unop (op, a) -> Value.unop op a.ety (eval_slots slots a)
  | Binop (Land, a, b) ->
      if Value.to_bool (eval_slots slots a) then eval_slots slots b else 0L
  | Binop (Lor, a, b) ->
      if Value.to_bool (eval_slots slots a) then 1L else eval_slots slots b
  | Binop (op, a, b) -> (
      match Value.binop op a.ety (eval_slots slots a) (eval_slots slots b) with
      | v -> v
      | exception Value.Division_by_zero -> 0L)
  | Cast (ty, a) -> Value.cast ~from_ty:a.ety ~to_ty:ty (eval_slots slots a)
  | Call _ -> invalid_arg "eval_slots: external calls must be slots"

(** True when the assertion holds for the given slot values. *)
let holds (cond : expr) (slots : int64 array) = Value.to_bool (eval_slots slots cond)

(* [eval_slots] with the tree walked once: slot names are resolved and
   literals canonicalized here, and every failure [eval_slots] would
   raise is deferred to evaluation. *)
let rec compile_expr (x : expr) : int64 array -> int64 =
  let fail e = fun _ -> raise e in
  match x.e with
  | Int n -> (
      match Value.wrap_ty x.ety n with v -> fun _ -> v | exception e -> fail e)
  | Bool b ->
      let v = Value.of_bool b in
      fun _ -> v
  | Var name -> (
      let free = Invalid_argument (Printf.sprintf "eval_slots: free variable %s" name) in
      match slot_index name with
      | Some k -> fun slots -> if k < Array.length slots then slots.(k) else raise free
      | None -> fail free)
  | Index _ -> fail (Invalid_argument "eval_slots: array access must be a slot")
  | Unop (op, a) ->
      let ty = a.ety and a = compile_expr a in
      fun s -> Value.unop op ty (a s)
  | Binop (Land, a, b) ->
      let a = compile_expr a and b = compile_expr b in
      fun s -> if Value.to_bool (a s) then b s else 0L
  | Binop (Lor, a, b) ->
      let a = compile_expr a and b = compile_expr b in
      fun s -> if Value.to_bool (a s) then 1L else b s
  | Binop (op, a, b) -> (
      let ty = a.ety and a = compile_expr a and b = compile_expr b in
      fun s ->
        (* operands in [eval_slots]'s order: right first *)
        let vb = b s in
        match Value.binop op ty (a s) vb with
        | v -> v
        | exception Value.Division_by_zero -> 0L)
  | Cast (ty, a) ->
      let from_ty = a.ety and a = compile_expr a in
      fun s -> Value.cast ~from_ty ~to_ty:ty (a s)
  | Call _ -> fail (Invalid_argument "eval_slots: external calls must be slots")

let compile (cond : expr) : int64 array -> bool =
  let c = compile_expr cond in
  fun slots -> Value.to_bool (c slots)
