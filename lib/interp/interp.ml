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

(* --- Streams and their blocking effects ---------------------------------- *)

type fifo = {
  q : int64 Queue.t;
  capacity : int;
  elem : ty;  (** writes canonicalize to the element type *)
}

(* A stream statement that can proceed does so in place; it performs one
   of these only when it must block, and the handler parks the fiber. *)
type _ Effect.t +=
  | Sread : fifo * string * Loc.t -> int64 Effect.t
  | Swrite : fifo * int64 * string * Loc.t -> unit Effect.t

(* --- Compilation ----------------------------------------------------------- *)

(* Each process body is compiled once per [run] into closures over a
   frame of slots.  Every declaration gets a slot of its own, and a name
   is resolved at compile time against the declarations textually
   before it, innermost first — exactly the binding the per-block
   scopes of a tree walker would find at run time, because a block's
   statements run in order from its start each time it is entered.
   Resolution failures compile to closures that raise when they run.

   Each cell keeps its declared scalar/element type: stores
   canonicalize to it, exactly as a hardware register of that width
   would.  Ordinary assignments are already canonical (elaboration
   inserts casts), but a [stream_read] into a narrower or differently
   signed lvalue converts here — same as the circuit datapath. *)
type slot = Scalar of ty * int | Arr of ty * int

type env = (string * slot) list

type frame = { mutable scalars : int64 array; mutable arrays : int64 array array }

type rt = {
  cfg : config;
  mutable steps : int;
  mutable failures : failure list;
  mutable log : string list;
}

(* One step per executed statement and one per loop iteration. *)
let tick rt =
  rt.steps <- rt.steps + 1;
  if rt.steps > rt.cfg.max_steps then raise Out_of_fuel

type ctx = {
  rt : rt;
  pname : string;
  fr : frame;
  fifos : (string, fifo) Hashtbl.t;
  mutable nscalars : int;
  mutable narrays : int;
}

let new_scalar c =
  c.nscalars <- c.nscalars + 1;
  c.nscalars - 1

let new_array c =
  c.narrays <- c.narrays + 1;
  c.narrays - 1

let raising msg () = raise (Runtime msg)
let unbound name = Printf.sprintf "unbound variable %s" name
let not_array name = Printf.sprintf "%s is not an array" name
let nop () = ()

let rec expr c env (x : expr) : unit -> int64 =
  let fr = c.fr in
  match x.e with
  | Int n -> (
      match Value.wrap_ty x.ety n with v -> fun () -> v | exception e -> fun () -> raise e)
  | Bool b ->
      let v = Value.of_bool b in
      fun () -> v
  | Var name -> (
      match List.assoc_opt name env with
      | Some (Scalar (_, k)) -> fun () -> fr.scalars.(k)
      | Some (Arr _) -> raising (Printf.sprintf "array %s used as scalar" name)
      | None -> raising (unbound name))
  | Index (name, idx) -> (
      match List.assoc_opt name env with
      | Some (Arr (_, k)) ->
          let idx = expr c env idx and where = Loc.to_string x.eloc in
          fun () ->
            let a = fr.arrays.(k) in
            let i = Int64.to_int (idx ()) in
            if i < 0 || i >= Array.length a then
              raise
                (Runtime
                   (Printf.sprintf "%s: array index %d out of bounds for %s[%d]" where i name
                      (Array.length a)))
            else a.(i)
      | Some (Scalar _) -> raising (not_array name)
      | None -> raising (unbound name))
  | Unop (op, a) ->
      let ty = a.ety in
      let a = expr c env a in
      fun () -> Value.unop op ty (a ())
  | Binop (Land, a, b) ->
      (* short-circuit, as in C *)
      let a = expr c env a and b = expr c env b in
      fun () -> if Value.to_bool (a ()) then b () else 0L
  | Binop (Lor, a, b) ->
      let a = expr c env a and b = expr c env b in
      fun () -> if Value.to_bool (a ()) then 1L else b ()
  | Binop (((Div | Mod) as op), a, b) ->
      let ty = a.ety and msg = Printf.sprintf "%s: division by zero" (Loc.to_string x.eloc) in
      let a = expr c env a and b = expr c env b in
      fun () ->
        let va = a () in
        let vb = b () in
        (try Value.binop op ty va vb with Value.Division_by_zero -> raise (Runtime msg))
  | Binop (op, a, b) ->
      let ty = a.ety in
      let a = expr c env a and b = expr c env b in
      fun () ->
        let va = a () in
        Value.binop op ty va (b ())
  | Cast (to_ty, a) ->
      let from_ty = a.ety in
      let a = expr c env a in
      fun () -> Value.cast ~from_ty ~to_ty (a ())
  | Call (f, args) -> (
      match List.assoc_opt f c.rt.cfg.extern_models with
      | Some model ->
          let ty = x.ety and args = List.map (expr c env) args in
          fun () -> Value.wrap_ty ty (model (List.map (fun a -> a ()) args))
      | None -> raising (Printf.sprintf "no C model registered for extern %s" f))

(* The store of an assignment: takes the already evaluated value, then
   resolves the target and evaluates its index. *)
let lvalue c env lv : int64 -> unit =
  let fr = c.fr in
  let fail msg _ = raise (Runtime msg) in
  match lv with
  | Lvar name -> (
      match List.assoc_opt name env with
      | Some (Scalar (ty, k)) -> fun v -> fr.scalars.(k) <- Value.wrap_ty ty v
      | Some (Arr _) -> fail (Printf.sprintf "cannot assign to array %s" name)
      | None -> fail (unbound name))
  | Lindex (name, idx) -> (
      match List.assoc_opt name env with
      | Some (Arr (ty, k)) ->
          let idx = expr c env idx in
          fun v ->
            let a = fr.arrays.(k) in
            let i = Int64.to_int (idx ()) in
            if i < 0 || i >= Array.length a then
              raise
                (Runtime
                   (Printf.sprintf "array index %d out of bounds for %s[%d]" i name
                      (Array.length a)))
            else a.(i) <- Value.wrap_ty ty v
      | Some (Scalar _) -> fail (not_array name)
      | None -> fail (unbound name))

(* Induction variable of a for-header, when it has the canonical shape. *)
let header_var (h : for_header) =
  match (h.init, h.step) with
  | Some { s = Assign (Lvar v, _); _ }, _
  | Some { s = Decl (_, v, _); _ }, _
  | None, Some { s = Assign (Lvar v, _); _ } -> Some v
  | _ -> None

let notify note v = match note with Some f -> f v | None -> ()

let seq = function
  | [] -> nop
  | [ k ] -> k
  | ks ->
      let ks = Array.of_list ks in
      fun () ->
        for i = 0 to Array.length ks - 1 do
          ks.(i) ()
        done

(* [stmt c obs env st] compiles [st] under observer [obs] (a compile-time
   choice: with [None] no event is ever built) and returns [env]
   extended by whatever [st] declares. *)
let rec stmt c obs env st : env * (unit -> unit) =
  let rt = c.rt and fr = c.fr and pname = c.pname and loc = st.sloc in
  let scalar_note name =
    Option.map
      (fun f v -> f (Obs_scalar { oproc = pname; oloc = loc; ovar = name; value = v }))
      obs
  in
  let loop_done iters =
    match obs with Some f -> f (Obs_loop { oproc = pname; oloc = loc; iters }) | None -> ()
  in
  match st.s with
  | Decl (Tarray (elem, n), name, _) ->
      let k = new_array c in
      ((name, Arr (elem, k)) :: env, fun () -> tick rt; fr.arrays.(k) <- Array.make n 0L)
  | Decl (ty, name, init) ->
      let k = new_scalar c in
      let run =
        match init with
        | None -> fun () -> tick rt; fr.scalars.(k) <- 0L
        | Some e ->
            let e = expr c env e and note = scalar_note name in
            fun () ->
              tick rt;
              let v = e () in
              fr.scalars.(k) <- v;
              notify note v
      in
      ((name, Scalar (ty, k)) :: env, run)
  | Assign (lv, e) ->
      let e = expr c env e and set = lvalue c env lv in
      let note = match lv with Lvar name -> scalar_note name | Lindex _ -> None in
      ( env,
        fun () ->
          tick rt;
          let v = e () in
          set v;
          notify note v )
  | If (cond, t, f) ->
      let cond = expr c env cond and t = block c obs env t and f = block c obs env f in
      (env, fun () -> tick rt; if Value.to_bool (cond ()) then t () else f ())
  | While (cond, body) ->
      let cond = expr c env cond and body = block c obs env body in
      ( env,
        fun () ->
          tick rt;
          let iters = ref 0 in
          while Value.to_bool (cond ()) do
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
      let cond = expr c env_h h.cond in
      let body = block c obs env_h body in
      let step = match h.step with Some s -> snd (stmt c None env_h s) | None -> nop in
      let top =
        match (obs, header_var h) with
        | Some f, Some v -> (
            match List.assoc_opt v env_h with
            | Some (Scalar (_, k)) ->
                fun () ->
                  f (Obs_scalar { oproc = pname; oloc = loc; ovar = v; value = fr.scalars.(k) })
            | Some (Arr _) | None -> nop)
        | _ -> nop
      in
      ( env,
        fun () ->
          tick rt;
          init ();
          let iters = ref 0 in
          while Value.to_bool (cond ()) do
            tick rt;
            incr iters;
            top ();
            body ();
            step ()
          done;
          loop_done !iters )
  | Assert (cond, txt) ->
      if rt.cfg.ndebug then (env, fun () -> tick rt)
      else
        let cond = expr c env cond and f = { floc = loc; fproc = pname; ftext = txt } in
        let msg = failure_message f and nabort = rt.cfg.nabort in
        ( env,
          fun () ->
            tick rt;
            if not (Value.to_bool (cond ())) then begin
              rt.failures <- f :: rt.failures;
              rt.log <- msg :: rt.log;
              if not nabort then raise (Abort_all f)
            end )
  | Stream_read (lv, s) -> (
      let set = lvalue c env lv in
      let note = match lv with Lvar name -> scalar_note name | Lindex _ -> None in
      match Hashtbl.find_opt c.fifos s with
      | Some q ->
          ( env,
            fun () ->
              tick rt;
              let v =
                if Queue.is_empty q.q then Effect.perform (Sread (q, pname, loc))
                else Queue.pop q.q
              in
              set v;
              notify note v )
      | None -> (env, fun () -> tick rt; raise (Unknown_stream s)))
  | Stream_write (s, e) ->
      let e = expr c env e in
      let note =
        Option.map (fun f v -> f (Obs_stream { oproc = pname; stream = s; written = v })) obs
      in
      let write =
        match Hashtbl.find_opt c.fifos s with
        | Some q ->
            fun v ->
              if Queue.length q.q < q.capacity then Queue.add (Value.wrap_ty q.elem v) q.q
              else Effect.perform (Swrite (q, v, pname, loc))
        | None -> fun _ -> raise (Unknown_stream s)
      in
      ( env,
        fun () ->
          tick rt;
          let v = e () in
          notify note v;
          write v )
  | Return _ -> (env, fun () -> tick rt; raise Proc_return)
  | Block b ->
      let b = block c obs env b in
      (env, fun () -> tick rt; b ())
  | Tapstmt (_, args) ->
      (* data extraction is a hardware artifact; evaluate (for effects on
         fuel accounting only) and discard *)
      let args = List.map (expr c env) args in
      (env, fun () -> tick rt; List.iter (fun a -> ignore (a ())) args)
  | Const_array (elem, name, values) ->
      let k = new_array c in
      let run =
        match Array.of_list (List.map (Value.wrap_ty elem) values) with
        | rom -> fun () -> tick rt; fr.arrays.(k) <- Array.copy rom
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
  let fr = { scalars = [||]; arrays = [||] } in
  let c = { rt; pname = p.pname; fr; fifos; nscalars = 0; narrays = 0 } in
  let bindings = Option.value ~default:[] (List.assoc_opt p.pname rt.cfg.params) in
  let env, params =
    List.fold_left
      (fun (env, params) (name, ty) ->
        let k = new_scalar c in
        let v = Option.value ~default:0L (List.assoc_opt name bindings) in
        ((name, Scalar (ty, k)) :: env, (k, ty, v) :: params))
      ([], []) p.params
  in
  let params = List.rev params in
  let body = block c rt.cfg.observer env p.body in
  fr.scalars <- Array.make c.nscalars 0L;
  fr.arrays <- Array.make c.narrays [||];
  fun () ->
    List.iter (fun (k, ty, v) -> fr.scalars.(k) <- Value.wrap_ty ty v) params;
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
      Hashtbl.replace fifos s.sname { q = Queue.create (); capacity; elem })
    prog.streams;
  List.iter
    (fun (sname, vs) ->
      match Hashtbl.find_opt fifos sname with
      | Some f -> List.iter (fun v -> Queue.add (Value.wrap_ty f.elem v) f.q) vs
      | None -> invalid_arg (Printf.sprintf "feed: unknown stream %s" sname))
    cfg.feeds;
  let rt = { cfg; steps = 0; failures = []; log = [] } in
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
            | Bread (f, _, _, k) when not (Queue.is_empty f.q) ->
                resumed := true;
                let v = Queue.pop f.q in
                Queue.add (fun () -> Effect.Deep.continue k v) runnable
            | Bwrite (f, v, _, _, k) when Queue.length f.q < f.capacity ->
                resumed := true;
                Queue.add (Value.wrap_ty f.elem v) f.q;
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
        | Some f -> (s, List.of_seq (Queue.to_seq f.q))
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
