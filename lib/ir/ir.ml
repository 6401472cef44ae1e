(** Structured three-address intermediate representation.

    A process body is lowered to a tree of straight-line instruction
    segments, conditionals, and loops.  Variables and temporaries live in
    virtual registers (hardware registers in the generated FSMD — the IR
    is deliberately not SSA: a register is a stateful datapath element).
    Arrays become named memories with a bounded number of ports; streams
    stay symbolic and are resolved against the program's stream table. *)

open Front.Ast

type reg = int [@@deriving show, eq, ord]

type operand =
  | Reg of reg
  | Imm of int64
[@@deriving show, eq, ord]

(** One three-address instruction.  [ty] fields give the operand type at
    which the operation is performed (elaboration guarantees both
    operands of a {!Bin} share it). *)
type inst =
  | Bin of { dst : reg; op : binop; a : operand; b : operand; ty : ty }
  | Un of { dst : reg; op : unop; a : operand; ty : ty }
  | Copy of { dst : reg; src : operand; ty : ty }
  | Castop of { dst : reg; src : operand; from_ty : ty; to_ty : ty }
  | Load of { dst : reg; mem : string; addr : operand }
  | Store of { mem : string; addr : operand; v : operand }
  | Sread of { dst : reg; stream : string }
  | Swrite of { stream : string; v : operand }
  | Extcall of { dst : reg; func : string; args : operand list; latency : int }
  | Tap of { id : int; args : operand list }
      (** assertion data extraction point: exports [args] plus a fire
          pulse to an out-of-process assertion checker (Section 3.1) *)
[@@deriving show, eq]

(** Tap ids at or above this base are fault-site activity markers (id =
    base + site index), not assertions: the simulator reports them to its
    site observer and hides them from checkers and statistics.  Kept far
    above any real assertion id; {!validate} enforces program-wide
    uniqueness either way. *)
let marker_base = 1_000_000

(** Guarded instruction: [guard = Some (r, v)] means the instruction
    takes effect only when register [r] holds boolean value [v].
    Produced by if-conversion inside pipelined loops. *)
type ginst = { i : inst; guard : (reg * bool) option } [@@deriving show, eq]

let unguarded i = { i; guard = None }

type body = item list

and item =
  | Straight of ginst list
  | If_else of { cond_insts : ginst list; cond : reg; then_ : body; else_ : body }
      (** [cond_insts] evaluate the condition in dedicated states — an
          [if] always costs at least one state, which is where the
          paper's one-cycle overhead for unoptimized assertions
          (Table 3, scalar row) comes from *)
  | Loop of {
      cond_insts : ginst list;  (** re-evaluated every iteration *)
      cond : reg;
      body : body;
      step_insts : ginst list;
      pipelined : bool;
    }
[@@deriving show]

(** A memory (block RAM).  [mirror_of = Some m] marks a replica created
    by the resource-replication optimization (Section 3.2): every store
    to [m] is mirrored into this memory at lowering time, and only
    assertion logic reads it. *)
type mem = {
  mname : string;
  elem : ty;
  length : int;
  ports : int;
  mirror_of : string option;
  rom_init : int64 list option;
      (** compile-time contents (a ROM initialized in the bitstream) *)
}
[@@deriving show, eq]

type reg_info = {
  rty : ty;
  origin : string option;  (** source variable name, if any *)
}
[@@deriving show, eq]

type proc_ir = {
  name : string;
  kind : proc_kind;
  regs : (reg * reg_info) list;     (** allocation order *)
  mems : mem list;
  body : body;
}
[@@deriving show]

type program_ir = {
  streams : stream_decl list;
  externs : extern_decl list;
  procs : proc_ir list;
}

let reg_type p r =
  match List.assoc_opt r p.regs with
  | Some info -> info.rty
  | None -> invalid_arg (Printf.sprintf "Ir.reg_type: unknown register %d in %s" r p.name)

let find_mem p name = List.find_opt (fun m -> m.mname = name) p.mems

(** Destination register of an instruction, if any. *)
let dst_of = function
  | Bin { dst; _ } | Un { dst; _ } | Copy { dst; _ } | Castop { dst; _ }
  | Load { dst; _ } | Sread { dst; _ } | Extcall { dst; _ } ->
      Some dst
  | Store _ | Swrite _ | Tap _ -> None

let use_of f = function Reg r -> f r | Imm _ -> ()

(** [f r] for every register read by an instruction, in operand order
    (guard excluded). *)
let iter_uses f = function
  | Bin { a; b; _ } -> use_of f a; use_of f b
  | Un { a; _ } -> use_of f a
  | Copy { src; _ } | Castop { src; _ } -> use_of f src
  | Load { addr; _ } -> use_of f addr
  | Store { addr; v; _ } -> use_of f addr; use_of f v
  | Sread _ -> ()
  | Swrite { v; _ } -> use_of f v
  | Extcall { args; _ } | Tap { args; _ } -> List.iter (use_of f) args

(** Registers read by an instruction (guard excluded). *)
let uses_of inst =
  let acc = ref [] in
  iter_uses (fun r -> acc := r :: !acc) inst;
  List.rev !acc

let uses_of_g g =
  let guard_uses = match g.guard with Some (r, _) -> [ r ] | None -> [] in
  guard_uses @ uses_of g.i

(** Does the instruction touch memory [m]? *)
let mem_access = function
  | Load { mem; _ } | Store { mem; _ } -> Some mem
  | Bin _ | Un _ | Copy _ | Castop _ | Sread _ | Swrite _ | Extcall _ | Tap _ -> None

let is_stream_op = function
  | Sread _ | Swrite _ -> true
  | Bin _ | Un _ | Copy _ | Castop _ | Load _ | Store _ | Extcall _ | Tap _ -> false

(** Iterate over all instruction segments of a body, in program order. *)
let rec iter_segments f (body : body) =
  List.iter
    (function
      | Straight insts -> f insts
      | If_else { cond_insts; then_; else_; _ } ->
          f cond_insts;
          iter_segments f then_;
          iter_segments f else_
      | Loop { cond_insts; body; step_insts; _ } ->
          f cond_insts;
          iter_segments f body;
          f step_insts)
    body

let all_insts body =
  let acc = ref [] in
  iter_segments (fun insts -> acc := List.rev_append insts !acc) body;
  List.rev !acc

(** Streams referenced by a process body with direction. *)
let streams_of_body body =
  let reads = ref [] and writes = ref [] in
  let add l s = if not (List.mem s !l) then l := s :: !l in
  List.iter
    (fun g ->
      match g.i with
      | Sread { stream; _ } -> add reads stream
      | Swrite { stream; _ } -> add writes stream
      | _ -> ())
    (all_insts body);
  (List.rev !reads, List.rev !writes)

(* --- Compact printer ----------------------------------------------------- *)

let pp_operand ppf = function
  | Reg r -> Fmt.pf ppf "r%d" r
  | Imm n -> Fmt.pf ppf "%Ld" n

let pp_inst ppf inst =
  match inst with
  | Bin { dst; op; a; b; _ } ->
      Fmt.pf ppf "r%d = %a %s %a" dst pp_operand a (Front.Pretty.string_of_binop op) pp_operand b
  | Un { dst; op; a; _ } ->
      Fmt.pf ppf "r%d = %s%a" dst (Front.Pretty.string_of_unop op) pp_operand a
  | Copy { dst; src; _ } -> Fmt.pf ppf "r%d = %a" dst pp_operand src
  | Castop { dst; src; to_ty; _ } ->
      Fmt.pf ppf "r%d = (%s)%a" dst (Front.Pretty.string_of_ty to_ty) pp_operand src
  | Load { dst; mem; addr } -> Fmt.pf ppf "r%d = %s[%a]" dst mem pp_operand addr
  | Store { mem; addr; v } -> Fmt.pf ppf "%s[%a] = %a" mem pp_operand addr pp_operand v
  | Sread { dst; stream } -> Fmt.pf ppf "r%d = sread(%s)" dst stream
  | Swrite { stream; v } -> Fmt.pf ppf "swrite(%s, %a)" stream pp_operand v
  | Extcall { dst; func; args; latency } ->
      Fmt.pf ppf "r%d = %s(%a) @%d" dst func (Fmt.list ~sep:Fmt.comma pp_operand) args latency
  | Tap { id; args } ->
      Fmt.pf ppf "tap#%d(%a)" id (Fmt.list ~sep:Fmt.comma pp_operand) args

let pp_ginst ppf g =
  match g.guard with
  | None -> pp_inst ppf g.i
  | Some (r, v) -> Fmt.pf ppf "[r%d=%b] %a" r v pp_inst g.i

let rec pp_body ?(indent = 0) ppf (body : body) =
  let pad = String.make indent ' ' in
  List.iter
    (function
      | Straight insts ->
          List.iter (fun g -> Fmt.pf ppf "%s%a@\n" pad pp_ginst g) insts
      | If_else { cond_insts; cond; then_; else_ } ->
          List.iter (fun g -> Fmt.pf ppf "%scond: %a@\n" pad pp_ginst g) cond_insts;
          Fmt.pf ppf "%sif r%d {@\n%a%s}" pad cond (pp_body ~indent:(indent + 2)) then_ pad;
          if else_ <> [] then
            Fmt.pf ppf " else {@\n%a%s}" (pp_body ~indent:(indent + 2)) else_ pad;
          Fmt.pf ppf "@\n"
      | Loop { cond_insts; cond; body; step_insts; pipelined } ->
          Fmt.pf ppf "%sloop%s {@\n" pad (if pipelined then " (pipelined)" else "");
          List.iter (fun g -> Fmt.pf ppf "%s  cond: %a@\n" pad pp_ginst g) cond_insts;
          Fmt.pf ppf "%s  while r%d:@\n" pad cond;
          pp_body ~indent:(indent + 2) ppf body;
          List.iter (fun g -> Fmt.pf ppf "%s  step: %a@\n" pad pp_ginst g) step_insts;
          Fmt.pf ppf "%s}@\n" pad)
    body

let pp_proc ppf p =
  Fmt.pf ppf "proc %s@\n" p.name;
  List.iter
    (fun m ->
      Fmt.pf ppf "  mem %s : %s[%d] ports=%d%s@\n" m.mname
        (Front.Pretty.string_of_ty m.elem)
        m.length m.ports
        (match m.mirror_of with Some o -> " mirror of " ^ o | None -> ""))
    p.mems;
  pp_body ~indent:2 ppf p.body

let proc_to_string p = Fmt.str "%a" pp_proc p

(* --- Well-formedness ------------------------------------------------------ *)

(** Structural invariants every lowered program must satisfy.  Returns
    human-readable complaints (empty = well-formed): registers resolve,
    memory accesses name declared memories with in-range immediate
    addresses, stream operations name declared streams, tap identifiers
    are unique program-wide, replica memories resolve their originals,
    and ROM images fit their memory. *)
let validate (prog : program_ir) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let tap_ids = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let have_reg r = List.mem_assoc r p.regs in
      let check_inst g =
        (match g.guard with
        | Some (r, _) when not (have_reg r) ->
            err "%s: guard reads undeclared register %d" p.name r
        | _ -> ());
        (match dst_of g.i with
        | Some d when not (have_reg d) ->
            err "%s: instruction defines undeclared register %d" p.name d
        | _ -> ());
        List.iter
          (fun r -> if not (have_reg r) then err "%s: instruction reads undeclared register %d" p.name r)
          (uses_of g.i);
        (match mem_access g.i with
        | Some m -> (
            match find_mem p m with
            | None -> err "%s: access to undeclared memory %s" p.name m
            | Some mem -> (
                let addr =
                  match g.i with
                  | Load { addr; _ } -> Some addr
                  | Store { addr; _ } -> Some addr
                  | _ -> None
                in
                match addr with
                | Some (Imm a) when Int64.compare a 0L < 0 || Int64.compare a (Int64.of_int mem.length) >= 0 ->
                    err "%s: constant address %Ld outside memory %s[0..%d]" p.name a m (mem.length - 1)
                | _ -> ()))
        | None -> ());
        (match g.i with
        | Sread { stream; _ } | Swrite { stream; _ } ->
            if not (List.exists (fun (s : stream_decl) -> s.sname = stream) prog.streams) then
              err "%s: stream operation on undeclared stream %s" p.name stream
        | Tap { id; _ } ->
            (match Hashtbl.find_opt tap_ids id with
            | Some owner -> err "%s: tap id %d already used in %s" p.name id owner
            | None -> Hashtbl.replace tap_ids id p.name)
        | _ -> ())
      in
      let rec check_body body =
        List.iter
          (function
            | Straight insts -> List.iter check_inst insts
            | If_else { cond_insts; cond; then_; else_ } ->
                List.iter check_inst cond_insts;
                if not (have_reg cond) then err "%s: if condition reads undeclared register %d" p.name cond;
                check_body then_;
                check_body else_
            | Loop { cond_insts; cond; body; step_insts; _ } ->
                List.iter check_inst cond_insts;
                if not (have_reg cond) then err "%s: loop condition reads undeclared register %d" p.name cond;
                check_body body;
                List.iter check_inst step_insts)
          body
      in
      List.iter
        (fun m ->
          (match m.mirror_of with
          | Some o when find_mem p o = None ->
              err "%s: memory %s mirrors undeclared memory %s" p.name m.mname o
          | _ -> ());
          match m.rom_init with
          | Some image when List.length image > m.length ->
              err "%s: ROM image of %s has %d elements for %d slots" p.name m.mname
                (List.length image) m.length
          | _ -> ())
        p.mems;
      check_body p.body)
    prog.procs;
  List.rev !errs
