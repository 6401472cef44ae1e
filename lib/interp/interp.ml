(** Software simulation of an InCA program (the "CPU simulation" path).

    This is the analogue of Impulse-C's thread-based software simulation
    (paper, Section 1): every process — hardware-mapped or not — is
    interpreted with plain C semantics, *untimed*, with cooperatively
    scheduled fibers built on OCaml 5 effect handlers.  Differences
    between this path and the cycle-accurate circuit ({!Sim}) are exactly
    the discrepancies the paper's in-circuit assertions exist to catch.

    By default stream FIFOs are unbounded here (software simulation does
    not model backpressure), which is one documented source of
    "passes in simulation, hangs in hardware" behaviour. *)

open Front.Ast
module Loc = Front.Loc
module Value = Value

type failure = {
  floc : Loc.t;
  fproc : string;
  ftext : string;  (** source text of the failed condition *)
}

(** ANSI-C assert(3) message format. *)
let failure_message f =
  Printf.sprintf "%s:%d: %s: Assertion `%s' failed." f.floc.Loc.file f.floc.Loc.line
    f.fproc f.ftext

type outcome =
  | Completed                       (** every process ran to completion *)
  | Aborted of failure              (** first assertion failure halted the app *)
  | Deadlocked of (string * Loc.t) list  (** blocked processes and where *)
  | Fuel_exhausted                  (** step budget exceeded (runaway loop) *)
  | Runtime_error of string

type result = {
  outcome : outcome;
  failures : failure list;          (** all failures, in order (NABORT keeps going) *)
  drained : (string * int64 list) list;  (** collected stream outputs *)
  log : string list;                (** notification messages, ANSI format *)
}

(** One observation emitted during execution when an [observer] is
    installed — the raw material of trace-based invariant mining. *)
type obs_event =
  | Obs_scalar of { oproc : string; oloc : Loc.t; ovar : string; value : int64 }
  | Obs_loop of { oproc : string; oloc : Loc.t; iters : int }
  | Obs_stream of { oproc : string; stream : string; written : int64 }

type config = {
  params : (string * (string * int64) list) list;
      (** per-process scalar parameter bindings *)
  feeds : (string * int64 list) list;
      (** testbench values pre-loaded into streams *)
  drains : string list;             (** streams whose contents to collect *)
  nabort : bool;                    (** paper's NABORT: don't halt on failure *)
  ndebug : bool;                    (** paper's NDEBUG: disable all assertions *)
  unbounded_fifos : bool;
  extern_models : (string * (int64 list -> int64)) list;
      (** C models of external HDL functions *)
  max_steps : int;
  observer : (obs_event -> unit) option;
      (** trace hook: called synchronously for every observation *)
}

let default_config =
  {
    params = [];
    feeds = [];
    drains = [];
    nabort = false;
    ndebug = false;
    unbounded_fifos = true;
    extern_models = [];
    max_steps = 10_000_000;
    observer = None;
  }

exception Abort_all of failure
exception Runtime of string
exception Proc_return

(* Raised by the step counter once [max_steps] is exceeded. *)
exception Out_of_fuel

(* Raised by a stream statement naming a stream the program does not
   declare (only hand-built ASTs can). *)
exception Unknown_stream of string

(* --- Words ------------------------------------------------------------------ *)

(* Frames, arrays and FIFOs are word stores: one 64-bit word per value
   in a [Bytes], read and written with the primitives below, so a step
   computes on unboxed words and allocates nothing.  The helpers are
   [@inline] and live in this module on purpose: dune's dev profile
   compiles with [-opaque], so a call into another module ({!Value}
   included) is out of line and boxes every [int64] that crosses it. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] word b k = get64 b (k lsl 3)
let[@inline] set_word b k v = set64 b (k lsl 3) v
let[@inline] truth (v : int64) = v <> 0L
let[@inline] of_bool b = if b then 1L else 0L

(* Keep the low [64 - sh] bits, sign- or zero-extended ([sh] = 0 keeps
   all 64): {!Value.wrap} with its shift fixed at compile time. *)
let[@inline] sext sh v = Int64.shift_right (Int64.shift_left v sh) sh
let[@inline] zext sh v = Int64.shift_right_logical (Int64.shift_left v sh) sh

let[@inline] ult (x : int64) y = Int64.sub x Int64.min_int < Int64.sub y Int64.min_int

(* [Int64.unsigned_div], restated so no word leaves the closure that
   computes it. *)
let[@inline] udiv (n : int64) d =
  if d < 0L then if ult n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    if ult (Int64.sub n (Int64.mul q d)) d then q else Int64.succ q

(* Wrap codes: how a word is canonicalized at a type ({!Value.wrap_ty}).
   [c] in 0..63 sign-extends the low [64 - c] bits (0 keeps all 64);
   [c] in 65..127 zero-extends the low [128 - c] bits; [wrap_bool] maps
   nonzero to 1; [wrap_invalid] marks a non-scalar type and raises as
   {!Value.wrap_ty} does. *)
let wrap_bool = 128
let wrap_invalid = 129

let wrap_code = function
  | Tint (s, w) -> (
      let n = bits_of_width w in
      if n = 64 then 0 else match s with Signed -> 64 - n | Unsigned -> 128 - n)
  | Tbool -> wrap_bool
  | Tarray _ | Tvoid -> wrap_invalid

let[@inline] wrap_word c v =
  if c < 64 then sext c v
  else if c < 128 then zext (c - 64) v
  else if c = wrap_bool then of_bool (truth v)
  else raise (Invalid_argument "Value.wrap_ty: not a scalar type")

(* --- Streams and their blocking effects ---------------------------------- *)

(* A FIFO is a growable ring of words, a power of two words long:
   [len] words from [head] on, wrapping around.  [capacity] bounds
   [len] (max_int when FIFOs are unbounded). *)
type fifo = {
  mutable ring : Bytes.t;
  mutable head : int;
  mutable len : int;
  capacity : int;
  wrap : int;  (** wrap code of the element type: writes canonicalize to it *)
}

let fifo_create capacity elem =
  { ring = Bytes.create (8 * 8); head = 0; len = 0; capacity; wrap = wrap_code elem }

let[@inline] fifo_pop f =
  let v = word f.ring f.head in
  f.head <- (f.head + 1) land ((Bytes.length f.ring lsr 3) - 1);
  f.len <- f.len - 1;
  v

(* Double a full ring, its words moved to the front in FIFO order. *)
let fifo_grow f =
  let n = Bytes.length f.ring lsr 3 in
  let ring = Bytes.create (16 * n) in
  Bytes.blit f.ring (8 * f.head) ring 0 (8 * (n - f.head));
  Bytes.blit f.ring 0 ring (8 * (n - f.head)) (8 * f.head);
  f.ring <- ring;
  f.head <- 0

(* Append [v], already wrapped to the element type. *)
let[@inline] fifo_push f v =
  if f.len lsl 3 = Bytes.length f.ring then fifo_grow f;
  set_word f.ring ((f.head + f.len) land ((Bytes.length f.ring lsr 3) - 1)) v;
  f.len <- f.len + 1

(* The contents, oldest first.  A run of equal words shares one boxed
   value: a drained stream can hold millions of them. *)
let fifo_to_list f =
  let mask = (Bytes.length f.ring lsr 3) - 1 in
  let rec go i acc =
    if i < 0 then acc
    else
      let v = word f.ring ((f.head + i) land mask) in
      match acc with
      | prev :: _ when prev = v -> go (i - 1) (prev :: acc)
      | _ -> go (i - 1) (v :: acc)
  in
  go (f.len - 1) []

(* A stream statement that can proceed does so in place; it performs one
   of these only when it must block, and the handler parks the fiber. *)
type _ Effect.t +=
  | Sread : fifo * string * Loc.t -> int64 Effect.t
  | Swrite : fifo * int64 * string * Loc.t -> unit Effect.t

(* --- Compilation ----------------------------------------------------------- *)

(* Each process body is compiled once per [run] into closures over a
   frame of words.  Every declaration gets a word (or an array) of its
   own, and a name is resolved at compile time against the declarations
   textually before it, innermost first — exactly the binding the
   per-block scopes of a tree walker would find at run time, because a
   block's statements run in order from its start each time it is
   entered.  Resolution failures compile to closures that raise when
   they run.

   An expression compiles to [(code, k)]: running [code] leaves its
   value in word [k].  A variable or a constant has no code ([nop]) and
   is read where it lives; every other node writes a temporary word of
   its own.  Constants get words too, filled once when the frame is
   made.  Conditions compile straight to [unit -> bool].

   Each cell keeps its declared scalar/element type: stores
   canonicalize to it, exactly as a hardware register of that width
   would.  Ordinary assignments are already canonical (elaboration
   inserts casts), but a [stream_read] into a narrower or differently
   signed lvalue converts here — same as the circuit datapath. *)
type slot = Scalar of ty * int | Arr of ty * int

type env = (string * slot) list

(* [w] holds the scalars, temporaries and constants; each array is a
   word store of its own, made when its declaration runs. *)
type frame = { mutable w : Bytes.t; mutable arrays : Bytes.t array }

let[@inline] rd fr k = word fr.w k
let[@inline] put fr k v = set_word fr.w k v

type rt = {
  cfg : config;
  max_steps : int;
  mutable steps : int;
  mutable failures : failure list;
  mutable log : string list;
}

(* One step per executed statement and one per loop iteration. *)
let[@inline] tick rt =
  rt.steps <- rt.steps + 1;
  if rt.steps > rt.max_steps then raise Out_of_fuel

type ctx = {
  rt : rt;
  pname : string;
  fr : frame;
  fifos : (string, fifo) Hashtbl.t;
  mutable consts : (int64 * int) list;  (** constant values and their words *)
  mutable nwords : int;
  mutable narrays : int;
}

let new_word c =
  c.nwords <- c.nwords + 1;
  c.nwords - 1

let new_array c =
  c.narrays <- c.narrays + 1;
  c.narrays - 1

let const c v =
  match List.find_opt (fun (u, _) -> Int64.equal u v) c.consts with
  | Some (_, k) -> k
  | None ->
      let k = new_word c in
      c.consts <- (v, k) :: c.consts;
      k

let raising msg () = raise (Runtime msg)
let unbound name = Printf.sprintf "unbound variable %s" name
let not_array name = Printf.sprintf "%s is not an array" name
let nop () = ()

(* [k] preceded by the operand codes [ca] then [cb], skipping absent ones. *)
let after ca cb (k : unit -> 'a) : unit -> 'a =
  match (ca == nop, cb == nop) with
  | true, true -> k
  | false, true -> fun () -> ca (); k ()
  | true, false -> fun () -> cb (); k ()
  | false, false -> fun () -> ca (); cb (); k ()

(* The closure writing word [a], wrapped by code [c], to word [d]. *)
let move fr c d a : unit -> unit =
  if c = 0 then fun () -> put fr d (rd fr a)
  else if c < 64 then fun () -> put fr d (sext c (rd fr a))
  else if c < 128 then
    let c = c - 64 in
    fun () -> put fr d (zext c (rd fr a))
  else fun () -> put fr d (wrap_word c (rd fr a))

(* The array index check: the whole word, unsigned, against the length. *)
let index_error where i (idx : expr) name a =
  let i =
    match idx.ety with
    | Tint (Unsigned, _) -> Printf.sprintf "%Lu" i
    | _ -> Int64.to_string i
  in
  Runtime
    (Printf.sprintf "%sarray index %s out of bounds for %s[%d]" where i name
       (Bytes.length a lsr 3))

let[@inline] in_bounds i a = ult i (Int64.of_int (Bytes.length a lsr 3))

let division_by_zero loc = Runtime (Printf.sprintf "%s: division by zero" (Loc.to_string loc))

(* [a op b] at signedness [s] into word [d]; [sh] wraps arithmetic
   results (see [sext]/[zext]).  [loc] places a division by zero. *)
let arith fr op s sh d a b loc : unit -> unit =
  match (op, s) with
  | Add, Signed -> fun () -> put fr d (sext sh (Int64.add (rd fr a) (rd fr b)))
  | Add, Unsigned -> fun () -> put fr d (zext sh (Int64.add (rd fr a) (rd fr b)))
  | Sub, Signed -> fun () -> put fr d (sext sh (Int64.sub (rd fr a) (rd fr b)))
  | Sub, Unsigned -> fun () -> put fr d (zext sh (Int64.sub (rd fr a) (rd fr b)))
  | Mul, Signed -> fun () -> put fr d (sext sh (Int64.mul (rd fr a) (rd fr b)))
  | Mul, Unsigned -> fun () -> put fr d (zext sh (Int64.mul (rd fr a) (rd fr b)))
  | Band, Signed -> fun () -> put fr d (sext sh (Int64.logand (rd fr a) (rd fr b)))
  | Band, Unsigned -> fun () -> put fr d (zext sh (Int64.logand (rd fr a) (rd fr b)))
  | Bor, Signed -> fun () -> put fr d (sext sh (Int64.logor (rd fr a) (rd fr b)))
  | Bor, Unsigned -> fun () -> put fr d (zext sh (Int64.logor (rd fr a) (rd fr b)))
  | Bxor, Signed -> fun () -> put fr d (sext sh (Int64.logxor (rd fr a) (rd fr b)))
  | Bxor, Unsigned -> fun () -> put fr d (zext sh (Int64.logxor (rd fr a) (rd fr b)))
  | Shl, Signed ->
      fun () ->
        put fr d (sext sh (Int64.shift_left (rd fr a) (Int64.to_int (rd fr b) land 63)))
  | Shl, Unsigned ->
      fun () ->
        put fr d (zext sh (Int64.shift_left (rd fr a) (Int64.to_int (rd fr b) land 63)))
  | Shr, Signed ->
      fun () ->
        put fr d (sext sh (Int64.shift_right (rd fr a) (Int64.to_int (rd fr b) land 63)))
  | Shr, Unsigned ->
      (* zero-extend from the operation width first, as {!Value.binop} *)
      fun () ->
        put fr d
          (zext sh
             (Int64.shift_right_logical (zext sh (rd fr a)) (Int64.to_int (rd fr b) land 63)))
  | Div, Signed ->
      fun () ->
        let y = rd fr b in
        if y = 0L then raise (division_by_zero loc) else put fr d (sext sh (Int64.div (rd fr a) y))
  | Div, Unsigned ->
      fun () ->
        let y = rd fr b in
        if y = 0L then raise (division_by_zero loc) else put fr d (zext sh (udiv (rd fr a) y))
  | Mod, Signed ->
      fun () ->
        let y = rd fr b in
        if y = 0L then raise (division_by_zero loc) else put fr d (sext sh (Int64.rem (rd fr a) y))
  | Mod, Unsigned ->
      fun () ->
        let y = rd fr b in
        if y = 0L then raise (division_by_zero loc)
        else
          let x = rd fr a in
          put fr d (zext sh (Int64.sub x (Int64.mul (udiv x y) y)))
  | (Lt | Le | Gt | Ge | Eq | Ne | Land | Lor), _ ->
      invalid_arg "Interp.arith: not an arithmetic operator"

(* The comparison [a op b] at signedness [s], as a condition. *)
let comparison fr op s a b : unit -> bool =
  match (op, s) with
  | Lt, Signed -> fun () -> rd fr a < rd fr b
  | Le, Signed -> fun () -> rd fr a <= rd fr b
  | Gt, Signed -> fun () -> rd fr a > rd fr b
  | Ge, Signed -> fun () -> rd fr a >= rd fr b
  | Lt, Unsigned -> fun () -> ult (rd fr a) (rd fr b)
  | Le, Unsigned -> fun () -> not (ult (rd fr b) (rd fr a))
  | Gt, Unsigned -> fun () -> ult (rd fr b) (rd fr a)
  | Ge, Unsigned -> fun () -> not (ult (rd fr a) (rd fr b))
  | Eq, _ -> fun () -> rd fr a = rd fr b
  | Ne, _ -> fun () -> rd fr a <> rd fr b
  | (Add | Sub | Mul | Div | Mod | Shl | Shr | Band | Bor | Bxor | Land | Lor), _ ->
      invalid_arg "Interp.comparison: not a comparison"

let rec expr c env (x : expr) : (unit -> unit) * int =
  let fr = c.fr in
  let node k =
    let d = new_word c in
    (k d, d)
  in
  match x.e with
  | Int n -> (
      match Value.wrap_ty x.ety n with
      | v -> (nop, const c v)
      | exception e -> ((fun () -> raise e), new_word c))
  | Bool b -> (nop, const c (Value.of_bool b))
  | Var name -> (
      match List.assoc_opt name env with
      | Some (Scalar (_, k)) -> (nop, k)
      | Some (Arr _) -> (raising (Printf.sprintf "array %s used as scalar" name), new_word c)
      | None -> (raising (unbound name), new_word c))
  | Index (name, idx) -> (
      match List.assoc_opt name env with
      | Some (Arr (_, k)) ->
          let ci, si = expr c env idx and where = Loc.to_string x.eloc ^ ": " in
          node (fun d ->
              after ci nop (fun () ->
                  let a = fr.arrays.(k) and i = rd fr si in
                  if in_bounds i a then put fr d (word a (Int64.to_int i))
                  else raise (index_error where i idx name a)))
      | Some (Scalar _) -> (raising (not_array name), new_word c)
      | None -> (raising (unbound name), new_word c))
  | Unop (op, a) -> (
      let ty = a.ety in
      let ca, sa = expr c env a in
      let code = wrap_code ty in
      match op with
      | Lnot -> node (fun d -> after ca nop (fun () -> put fr d (of_bool (rd fr sa = 0L))))
      | Neg when code < 64 ->
          node (fun d -> after ca nop (fun () -> put fr d (sext code (Int64.neg (rd fr sa)))))
      | Neg when code < 128 ->
          let sh = code - 64 in
          node (fun d -> after ca nop (fun () -> put fr d (zext sh (Int64.neg (rd fr sa)))))
      | Bnot when code < 64 ->
          node (fun d -> after ca nop (fun () -> put fr d (sext code (Int64.lognot (rd fr sa)))))
      | Bnot when code < 128 ->
          let sh = code - 64 in
          node (fun d -> after ca nop (fun () -> put fr d (zext sh (Int64.lognot (rd fr sa)))))
      | Neg | Bnot ->
          (* bool or not a scalar type: rare, so {!Value.unop} does it *)
          node (fun d -> after ca nop (fun () -> put fr d (Value.unop op ty (rd fr sa)))))
  | Binop (Land, a, b) ->
      (* short-circuit, as in C *)
      let ta = cond c env a and cb, sb = expr c env b in
      node (fun d () -> if ta () then (cb (); put fr d (rd fr sb)) else put fr d 0L)
  | Binop (Lor, a, b) ->
      let ta = cond c env a and cb, sb = expr c env b in
      node (fun d () -> if ta () then put fr d 1L else (cb (); put fr d (rd fr sb)))
  | Binop (op, a, _) when Front.Typecheck.is_scalar a.ety && is_comparison op ->
      let t = cond c env x in
      node (fun d () -> put fr d (of_bool (t ())))
  | Binop (op, a, b) when Front.Typecheck.is_scalar a.ety ->
      let ty = a.ety in
      let s = Value.signedness_of ty and n = bits_of_width (Value.width_of ty) in
      let ca, sa = expr c env a in
      let cb, sb = expr c env b in
      node (fun d -> after ca cb (arith fr op s (64 - n) d sa sb x.eloc))
  | Binop (op, a, b) ->
      (* not a scalar operation: {!Value.binop} raises when it runs *)
      let ty = a.ety in
      let ca, sa = expr c env a in
      let cb, sb = expr c env b in
      node (fun d ->
          after ca cb (fun () -> put fr d (Value.binop op ty (rd fr sa) (rd fr sb))))
  | Cast (Tint (_, W64), a) when Front.Typecheck.is_scalar a.ety ->
      (* a cast to 64 bits keeps every bit of a scalar *)
      expr c env a
  | Cast (to_ty, a) -> (
      let from_ty = a.ety in
      let ca, sa = expr c env a in
      match (from_ty, to_ty) with
      | _, Tbool | (Tint _ | Tbool), Tint _ ->
          node (fun d -> after ca nop (move fr (wrap_code to_ty) d sa))
      | _ ->
          (* not a scalar cast: {!Value.cast} raises when it runs *)
          node (fun d ->
              after ca nop (fun () -> put fr d (Value.cast ~from_ty ~to_ty (rd fr sa)))))
  | Call (f, args) -> (
      match List.assoc_opt f c.rt.cfg.extern_models with
      | Some model ->
          let ty = x.ety and args = List.map (expr c env) args in
          node (fun d () ->
              let vs = List.map (fun (code, k) -> code (); rd fr k) args in
              put fr d (Value.wrap_ty ty (model vs)))
      | None -> (raising (Printf.sprintf "no C model registered for extern %s" f), new_word c))

(* A condition: the truth of [x], with comparisons and logical operators
   fused into it instead of materialized as 0/1 words. *)
and cond c env (x : expr) : unit -> bool =
  match x.e with
  | Bool b -> fun () -> b
  | Binop (op, a, b) when Front.Typecheck.is_scalar a.ety && is_comparison op ->
      let s = Value.signedness_of a.ety in
      let ca, sa = expr c env a in
      let cb, sb = expr c env b in
      after ca cb (comparison c.fr op s sa sb)
  | Binop (Land, a, b) ->
      let a = cond c env a and b = cond c env b in
      fun () -> a () && b ()
  | Binop (Lor, a, b) ->
      let a = cond c env a and b = cond c env b in
      fun () -> a () || b ()
  | Unop (Lnot, a) ->
      let a = cond c env a in
      fun () -> not (a ())
  | _ ->
      let fr = c.fr and code, k = expr c env x in
      after code nop (fun () -> truth (rd fr k))

(* The store of an assignment: takes the value in word [src], then
   resolves the target and evaluates its index. *)
let store c env lv src : unit -> unit =
  let fr = c.fr in
  match lv with
  | Lvar name -> (
      match List.assoc_opt name env with
      | Some (Scalar (ty, k)) -> move fr (wrap_code ty) k src
      | Some (Arr _) -> raising (Printf.sprintf "cannot assign to array %s" name)
      | None -> raising (unbound name))
  | Lindex (name, idx) -> (
      match List.assoc_opt name env with
      | Some (Arr (ty, k)) ->
          let ci, si = expr c env idx and code = wrap_code ty in
          after ci nop (fun () ->
              let a = fr.arrays.(k) and i = rd fr si in
              if in_bounds i a then set_word a (Int64.to_int i) (wrap_word code (rd fr src))
              else raise (index_error "" i idx name a))
      | Some (Scalar _) -> raising (not_array name)
      | None -> raising (unbound name))

(* Induction variable of a for-header, when it has the canonical shape. *)
let header_var (h : for_header) =
  match (h.init, h.step) with
  | Some { s = Assign (Lvar v, _); _ }, _
  | Some { s = Decl (_, v, _); _ }, _
  | None, Some { s = Assign (Lvar v, _); _ } -> Some v
  | _ -> None

let seq ks =
  match List.filter (fun k -> k != nop) ks with
  | [] -> nop
  | [ k ] -> k
  | [ k1; k2 ] -> fun () -> k1 (); k2 ()
  | ks ->
      let ks = Array.of_list ks in
      fun () ->
        for i = 0 to Array.length ks - 1 do
          ks.(i) ()
        done

(* [stmt c obs env st] compiles [st] under observer [obs] (a compile-time
   choice: with [None] no event is ever built, and no value is boxed)
   and returns [env] extended by whatever [st] declares. *)
let rec stmt c obs env st : env * (unit -> unit) =
  let rt = c.rt and fr = c.fr and pname = c.pname and loc = st.sloc in
  (* [run] followed by the observation of scalar [name], whose value it
     left in word [k] *)
  let observed_scalar name k run =
    match obs with
    | None -> run
    | Some f ->
        fun () ->
          run ();
          f (Obs_scalar { oproc = pname; oloc = loc; ovar = name; value = rd fr k })
  in
  let loop_done iters =
    match obs with Some f -> f (Obs_loop { oproc = pname; oloc = loc; iters }) | None -> ()
  in
  match st.s with
  | Decl (Tarray (elem, n), name, _) ->
      let k = new_array c in
      ((name, Arr (elem, k)) :: env, fun () -> tick rt; fr.arrays.(k) <- Bytes.make (8 * n) '\000')
  | Decl (ty, name, init) ->
      let k = new_word c in
      let run =
        match init with
        | None -> fun () -> tick rt; put fr k 0L
        | Some e ->
            let ce, se = expr c env e in
            observed_scalar name k (fun () -> tick rt; ce (); put fr k (rd fr se))
      in
      ((name, Scalar (ty, k)) :: env, run)
  | Assign (lv, e) -> (
      let ce, se = expr c env e in
      let set = store c env lv se in
      match (lv, obs) with
      | Lvar name, Some f ->
          (* the value observed is the one assigned, read before the
             store canonicalizes it in place *)
          ( env,
            fun () ->
              tick rt;
              ce ();
              let value = rd fr se in
              set ();
              f (Obs_scalar { oproc = pname; oloc = loc; ovar = name; value }) )
      | _ when ce == nop -> (env, fun () -> tick rt; set ())
      | _ -> (env, fun () -> tick rt; ce (); set ()))
  | If (e, t, f) ->
      let test = cond c env e and t = block c obs env t and f = block c obs env f in
      (env, fun () -> tick rt; if test () then t () else f ())
  | While (e, body) ->
      let t = cond c env e and body = block c obs env body in
      ( env,
        fun () ->
          tick rt;
          let iters = ref 0 in
          while t () do
            tick rt;
            incr iters;
            body ()
          done;
          loop_done !iters )
  | For (h, body) ->
      (* header init/step run unobserved: the induction variable is
         reported once per iteration, anchored at the loop itself, so
         mined invariants can be injected at the top of the body *)
      let env_h, init = match h.init with Some s -> stmt c None env s | None -> (env, nop) in
      let t = cond c env_h h.cond in
      let body = block c obs env_h body in
      let step = match h.step with Some s -> snd (stmt c None env_h s) | None -> nop in
      let body =
        match (obs, header_var h) with
        | Some f, Some v -> (
            match List.assoc_opt v env_h with
            | Some (Scalar (_, k)) ->
                seq
                  [
                    (fun () ->
                      f (Obs_scalar { oproc = pname; oloc = loc; ovar = v; value = rd fr k }));
                    body;
                    step;
                  ]
            | Some (Arr _) | None -> seq [ body; step ])
        | _ -> seq [ body; step ]
      in
      ( env,
        fun () ->
          tick rt;
          init ();
          let iters = ref 0 in
          while t () do
            tick rt;
            incr iters;
            body ()
          done;
          loop_done !iters )
  | Assert (e, txt) ->
      if rt.cfg.ndebug then (env, fun () -> tick rt)
      else
        let t = cond c env e and f = { floc = loc; fproc = pname; ftext = txt } in
        let msg = failure_message f and nabort = rt.cfg.nabort in
        ( env,
          fun () ->
            tick rt;
            if not (t ()) then begin
              rt.failures <- f :: rt.failures;
              rt.log <- msg :: rt.log;
              if not nabort then raise (Abort_all f)
            end )
  | Stream_read (lv, s) -> (
      (* the value lands in a word of its own, then is stored *)
      let v = new_word c in
      let set = store c env lv v in
      let set = match lv with Lvar name -> observed_scalar name v set | Lindex _ -> set in
      match Hashtbl.find_opt c.fifos s with
      | Some q ->
          ( env,
            fun () ->
              tick rt;
              if q.len = 0 then put fr v (Effect.perform (Sread (q, pname, loc)))
              else put fr v (fifo_pop q);
              set () )
      | None -> (env, fun () -> tick rt; raise (Unknown_stream s)))
  | Stream_write (s, e) ->
      let ce, se = expr c env e in
      let note =
        match obs with
        | Some f -> fun () -> f (Obs_stream { oproc = pname; stream = s; written = rd fr se })
        | None -> nop
      in
      let write =
        match Hashtbl.find_opt c.fifos s with
        | Some q ->
            let wc = q.wrap in
            fun () ->
              if q.len < q.capacity then fifo_push q (wrap_word wc (rd fr se))
              else Effect.perform (Swrite (q, rd fr se, pname, loc))
        | None -> fun () -> raise (Unknown_stream s)
      in
      ( env,
        match seq [ ce; note ] with
        | pre when pre == nop -> fun () -> tick rt; write ()
        | pre -> fun () -> tick rt; pre (); write () )
  | Return _ -> (env, fun () -> tick rt; raise Proc_return)
  | Block b ->
      let b = block c obs env b in
      (env, fun () -> tick rt; b ())
  | Tapstmt (_, args) ->
      (* data extraction is a hardware artifact; evaluate (for effects on
         fuel accounting only) and discard *)
      let args = seq (List.map (fun a -> fst (expr c env a)) args) in
      (env, fun () -> tick rt; args ())
  | Const_array (elem, name, values) ->
      let k = new_array c in
      let run =
        match List.map (Value.wrap_ty elem) values with
        | vs ->
            let rom = Bytes.create (8 * List.length vs) in
            List.iteri (set_word rom) vs;
            fun () -> tick rt; fr.arrays.(k) <- Bytes.copy rom
        | exception e -> fun () -> tick rt; raise e
      in
      ((name, Arr (elem, k)) :: env, run)

(* A statement list in a scope of its own: its declarations end with it. *)
and block c obs env stmts =
  let rec go env = function
    | [] -> []
    | st :: rest ->
        let env, k = stmt c obs env st in
        k :: go env rest
  in
  seq (go env stmts)

(* Compile process [p] over a fresh frame; the returned body first binds
   the process parameters, then runs the statements. *)
let compile_proc rt fifos (p : proc) : unit -> unit =
  let fr = { w = Bytes.empty; arrays = [||] } in
  let c =
    { rt; pname = p.pname; fr; fifos; consts = []; nwords = 0; narrays = 0 }
  in
  let bindings = Option.value ~default:[] (List.assoc_opt p.pname rt.cfg.params) in
  let env, params =
    List.fold_left
      (fun (env, params) (name, ty) ->
        let k = new_word c in
        let v = Option.value ~default:0L (List.assoc_opt name bindings) in
        ((name, Scalar (ty, k)) :: env, (k, ty, v) :: params))
      ([], []) p.params
  in
  let params = List.rev params in
  let body = block c rt.cfg.observer env p.body in
  fr.w <- Bytes.make (8 * c.nwords) '\000';
  List.iter (fun (v, k) -> put fr k v) c.consts;
  fr.arrays <- Array.make c.narrays Bytes.empty;
  fun () ->
    List.iter (fun (k, ty, v) -> put fr k (Value.wrap_ty ty v)) params;
    body ()

(* --- Cooperative scheduler over effect handlers ------------------------- *)

type blocked =
  | Bread of fifo * string * Loc.t * (int64, unit) Effect.Deep.continuation
  | Bwrite of fifo * int64 * string * Loc.t * (unit, unit) Effect.Deep.continuation

(* Why the scheduler stopped before every fiber finished or blocked. *)
type halt = Halt_abort of failure | Halt_error of string | Halt_fuel

(** Run [prog] under [cfg].  Deterministic: processes are scheduled
    round-robin in declaration order. *)
let run ?(cfg = default_config) (prog : program) : result =
  let fifos = Hashtbl.create 8 in
  List.iter
    (fun (s : stream_decl) ->
      let capacity = if cfg.unbounded_fifos then max_int else s.depth in
      (* a name declared twice keeps its first element type *)
      let elem = (Option.get (find_stream prog s.sname)).elem in
      Hashtbl.replace fifos s.sname (fifo_create capacity elem))
    prog.streams;
  List.iter
    (fun (sname, vs) ->
      match Hashtbl.find_opt fifos sname with
      | Some f -> List.iter (fun v -> fifo_push f (wrap_word f.wrap v)) vs
      | None -> invalid_arg (Printf.sprintf "feed: unknown stream %s" sname))
    cfg.feeds;
  let rt = { cfg; max_steps = cfg.max_steps; steps = 0; failures = []; log = [] } in
  let runnable : (unit -> unit) Queue.t = Queue.create () in
  let blocked : blocked list ref = ref [] in
  let halt : halt option ref = ref None in
  let handler pname body =
    let open Effect.Deep in
    match_with body ()
      {
        retc = (fun () -> ());
        exnc =
          (function
          | Proc_return -> ()
          | Abort_all f -> halt := Some (Halt_abort f)
          | Runtime msg -> halt := Some (Halt_error (Printf.sprintf "%s: %s" pname msg))
          | Out_of_fuel -> halt := Some Halt_fuel
          | Unknown_stream s -> halt := Some (Halt_error ("unknown stream " ^ s))
          | e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sread (f, p, loc) ->
                Some (fun (k : (a, unit) continuation) -> blocked := Bread (f, p, loc, k) :: !blocked)
            | Swrite (f, v, p, loc) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    blocked := Bwrite (f, v, p, loc, k) :: !blocked)
            | _ -> None);
      }
  in
  (* Compile every process, then launch a fiber per process. *)
  List.map (fun (p : proc) -> (p.pname, compile_proc rt fifos p)) prog.procs
  |> List.iter (fun (pname, body) -> Queue.add (fun () -> handler pname body) runnable);
  (* Scheduler: run fibers; once none is runnable, resume the oldest
     blocked fiber whose stream can now proceed. *)
  let progress = ref true in
  let give_up = ref false in
  while (not (Queue.is_empty runnable && not !progress)) && Option.is_none !halt && not !give_up do
    if Queue.is_empty runnable then begin
      let still = ref [] in
      let resumed = ref false in
      List.iter
        (fun b ->
          if !resumed then still := b :: !still
          else
            match b with
            | Bread (f, _, _, k) when f.len > 0 ->
                resumed := true;
                let v = fifo_pop f in
                Queue.add (fun () -> Effect.Deep.continue k v) runnable
            | Bwrite (f, v, _, _, k) when f.len < f.capacity ->
                resumed := true;
                fifo_push f (wrap_word f.wrap v);
                Queue.add (fun () -> Effect.Deep.continue k ()) runnable
            | Bread _ | Bwrite _ -> still := b :: !still)
        (List.rev !blocked);
      blocked := !still;
      if not !resumed then begin
        progress := false;
        if !blocked <> [] then give_up := true
      end
    end
    else begin
      (Queue.pop runnable) ();
      progress := true
    end
  done;
  let drained =
    List.map
      (fun s ->
        match Hashtbl.find_opt fifos s with
        | Some f -> (s, fifo_to_list f)
        | None -> (s, []))
      cfg.drains
  in
  let outcome =
    match !halt with
    | Some (Halt_abort f) -> Aborted f
    | Some (Halt_error msg) -> Runtime_error msg
    | Some Halt_fuel -> Fuel_exhausted
    | None ->
        if !blocked <> [] then
          Deadlocked
            (List.map
               (function Bread (_, p, loc, _) | Bwrite (_, _, p, loc, _) -> (p, loc))
               !blocked)
        else Completed
  in
  { outcome; failures = List.rev rt.failures; drained; log = List.rev rt.log }

(** True when the run finished with no assertion failure and no error. *)
let ok r = r.outcome = Completed && r.failures = []
