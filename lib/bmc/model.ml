(** Symbolic transition system over synthesized FSMDs.

    Unrolls the whole design — every hardware process, stream FIFO and
    block RAM — cycle by cycle into an AIG, mirroring {!Sim.Engine}'s
    phase order exactly: testbench feeds (staged), processes in list
    order, FIFO/BRAM commit, then testbench drains.  Every architectural
    value is a canonical 64-literal vector ({!Blast}); from the concrete
    reset state constant folding collapses everything that does not
    depend on a free input (feed values, process parameters, or — for
    k-induction — the whole start state).

    The observable outputs per unrolled cycle are, for each assertion
    tap: a *fire* literal (tap executed with a false condition — the
    event the in-circuit checker turns into a failure word) and a
    *reach* literal (tap executed at all, for cover-style reachability);
    plus one *crash* literal (a datapath division by zero, which aborts
    the simulation, so traces are only meaningful while crash-free).

    The environment model: each feed stream offers a fresh unconstrained
    value every cycle and pushes it whenever the FIFO accepts — this
    covers every finite feed list the testbench could supply, because a
    shorter list only freezes the consumer earlier (a stalled process
    fires no further data taps, and entry-marker taps fire identically
    on the first stalled cycle).  Parameter registers are free at reset.
    Pipelined loops and extern calls are outside the fragment and raise
    {!Unsupported}. *)

module Ir = Mir.Ir
module Fsmd = Hls.Fsmd
module Value = Interp.Value
module A = Aig
open Front.Ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type config = {
  fsmds : Fsmd.t list;
  streams : stream_decl list;
  feeds : string list;   (** streams driven by free testbench values *)
  drains : string list;  (** streams emptied by the testbench each cycle *)
  free_regs : (string * (Ir.reg * string) list) list;
      (** per process: parameter registers (reg, origin name) left free
          at reset instead of the engine's zero/param init *)
  checkers : (int * expr) list;  (** tap id -> elaborated condition *)
}

(* --- Symbolic FIFO ---------------------------------------------------------

   Circular buffer of [depth] cells with head index [hd] (< depth), a
   committed count [ccnt] and a staged count [scnt].  Mirrors Sim.Fifo:
   pops take committed values immediately, pushes land at position
   hd + ccnt + scnt and become committed (poppable) only after the
   end-of-cycle commit. *)

type fifo_m = {
  fm_decl : stream_decl;
  mutable cells : Blast.vec array;
  mutable hd : Blast.vec;
  mutable ccnt : Blast.vec;
  mutable scnt : Blast.vec;
}

type bram_m = {
  bm_mem : Ir.mem;
  bm_phys : int;
  mutable bcells : Blast.vec array;  (* raw 64-bit contents, like Sim.Bram *)
  mutable bstaged : (Aig.lit * Blast.vec * Blast.vec) list;  (* en, addr, v; program order *)
}

type proc_m = {
  pm_fsmd : Fsmd.t;
  pm_rty : ty array;
  pm_brams : (string, bram_m) Hashtbl.t;
  mutable pm_regs : Blast.vec array;
  mutable pm_pc : Blast.vec;  (* state index; num_states = halted sentinel *)
  mutable pm_etf : Aig.lit;   (* entry-marker taps of the current state already fired *)
}

(** Observables of one unrolled cycle. *)
type cycle_io = {
  io_feeds : (string * Aig.lit * Blast.vec) list;
      (** per feed stream: the push-enable literal and the value vector *)
  io_fires : (int * Aig.lit) list;  (** tap id -> fired with false condition *)
  io_reach : (int * Aig.lit) list;  (** tap id -> tap executed *)
  io_crash : Aig.lit;
}

type t = {
  g : Aig.t;
  cfg : config;
  fifos : (string, fifo_m) Hashtbl.t;
  procs : proc_m list;
  params : (string * string * Blast.vec) list;  (** proc, origin, free vec *)
  init_constraints : Aig.lit list;
      (** must hold in the start state (free-start mode only) *)
  mutable cycles : cycle_io array;  (* by cycle; the first [n_cycles] are unrolled *)
  mutable n_cycles : int;
}

(* --- helpers --------------------------------------------------------------- *)

let free_of_ty g = function
  | Tint (s, w) -> Blast.inputs g s (bits_of_width w)
  | Tbool -> Blast.inputs g Unsigned 1
  | ty -> unsupported "free value of non-scalar type %s" (Front.Pretty.string_of_ty ty)

let iconst n = Blast.const (Int64.of_int n)

(* x mod d for 0 <= x < 2d, by conditional subtraction. *)
let wrap_mod g x d =
  let dv = iconst d in
  let ge = A.neg (Blast.ult g x dv) in
  Blast.ite g ge (Blast.sub64 g x dv) x

let fifo_can_push g f =
  Blast.ult g (Blast.add64 g f.ccnt f.scnt) (iconst f.fm_decl.depth)

let fifo_can_pop g f = A.neg (Blast.is_zero g f.ccnt)

(* Value at the committed head (garbage when ccnt = 0, but pops are
   always guarded by can_pop). *)
let fifo_front g f =
  let acc = ref f.cells.(0) in
  for i = 1 to Array.length f.cells - 1 do
    acc := Blast.ite g (Blast.eq_const g f.hd (Int64.of_int i)) f.cells.(i) !acc
  done;
  !acc

let fifo_push g f ~en v =
  if Array.length f.cells > 0 then begin
    let pos = wrap_mod g (Blast.add64 g f.hd (Blast.add64 g f.ccnt f.scnt)) f.fm_decl.depth in
    f.cells <-
      Array.mapi
        (fun i c ->
          Blast.ite g (A.mk_and g en (Blast.eq_const g pos (Int64.of_int i))) v c)
        f.cells;
    f.scnt <- Blast.ite g en (Blast.add64 g f.scnt (iconst 1)) f.scnt
  end

let fifo_pop g f ~en =
  f.hd <- Blast.ite g en (wrap_mod g (Blast.add64 g f.hd (iconst 1)) f.fm_decl.depth) f.hd;
  f.ccnt <- Blast.ite g en (Blast.sub64 g f.ccnt (iconst 1)) f.ccnt

let fifo_commit g f =
  f.ccnt <- Blast.add64 g f.ccnt f.scnt;
  f.scnt <- Blast.const 0L

let fifo_drain g f =
  f.hd <- wrap_mod g (Blast.add64 g f.hd f.ccnt) f.fm_decl.depth;
  f.ccnt <- Blast.const 0L

(* Address decode on the low address bits (the physical array is a power
   of two and the address bus wraps, as in Sim.Bram). *)
let bram_sel g (b : bram_m) (addr : Blast.vec) i =
  let nb =
    let rec bits n = if b.bm_phys <= 1 lsl n then n else bits (n + 1) in
    bits 0
  in
  let acc = ref A.tru in
  for j = 0 to nb - 1 do
    let want = (i lsr j) land 1 = 1 in
    acc := A.mk_and g !acc (if want then addr.(j) else A.neg addr.(j))
  done;
  !acc

let bram_read g b addr =
  let acc = ref (Blast.const 0L) in
  for i = 0 to b.bm_phys - 1 do
    acc := Blast.ite g (bram_sel g b addr i) b.bcells.(i) !acc
  done;
  !acc

let bram_write b ~en addr v = b.bstaged <- b.bstaged @ [ (en, addr, v) ]

let bram_commit g b =
  List.iter
    (fun (en, addr, v) ->
      b.bcells <-
        Array.mapi
          (fun i c -> Blast.ite g (A.mk_and g en (bram_sel g b addr i)) v c)
          b.bcells)
    b.bstaged;
  b.bstaged <- []

(* --- symbolic checker condition -------------------------------------------

   Mirrors Core.Assertion.eval_slots: operations at the operand's type,
   short-circuit Land/Lor keeping the raw right operand, division by
   zero caught to 0.  The [__slotN] naming scheme lives in
   Core.Assertion, which sits above this library; it is tiny and
   stable, so it is mirrored here (test_bmc pins the two together). *)

let slot_index name =
  if String.length name > 6 && String.sub name 0 6 = "__slot" then
    int_of_string_opt (String.sub name 6 (String.length name - 6))
  else None

let rec sym_slots g (slots : Blast.vec array) (x : expr) : Blast.vec =
  match x.e with
  | Int n -> Blast.const (Value.wrap_ty x.ety n)
  | Bool b -> Blast.const (Value.of_bool b)
  | Var name -> (
      match slot_index name with
      | Some k when k < Array.length slots -> slots.(k)
      | _ -> unsupported "checker condition has free variable %s" name)
  | Unop (op, a) -> Blast.unop g op a.ety (sym_slots g slots a)
  | Binop (Land, a, b) ->
      let av = sym_slots g slots a in
      Blast.ite g (Blast.to_bool g av) (sym_slots g slots b) (Blast.const 0L)
  | Binop (Lor, a, b) ->
      let av = sym_slots g slots a in
      Blast.ite g (Blast.to_bool g av) (Blast.const 1L) (sym_slots g slots b)
  | Binop (op, a, b) ->
      Blast.binop g op a.ety (sym_slots g slots a) (sym_slots g slots b)
  | Cast (ty, a) -> Blast.cast g ~from_ty:a.ety ~to_ty:ty (sym_slots g slots a)
  | Index _ -> unsupported "checker condition indexes an array"
  | Call _ -> unsupported "checker condition calls a function"

(** True when the assertion holds for the given slot vectors. *)
let cond_holds g cond slots = Blast.to_bool g (sym_slots g slots cond)

(* --- construction ----------------------------------------------------------- *)

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let mem_written (f : Fsmd.t) (m : Ir.mem) =
  List.exists
    (fun (gi : Ir.ginst) ->
      match gi.Ir.i with Ir.Store { mem; _ } -> mem = m.Ir.mname | _ -> false)
    (Fsmd.all_ops f)

(** Build the model at its start state.  [free_start] replaces the
    concrete reset state with a fresh unconstrained state (for the
    k-induction step); the well-formedness side conditions are returned
    in [init_constraints] and must be asserted by the caller. *)
let create ?(free_start = false) (cfg : config) : t =
  let g = Aig.create () in
  let constraints = ref [] in
  let constrain l = constraints := l :: !constraints in
  let fifos = Hashtbl.create 16 in
  List.iter
    (fun (s : stream_decl) ->
      let depth = s.depth in
      let cells, hd, ccnt =
        if not free_start then
          (Array.make (max depth 1) (Blast.const 0L), Blast.const 0L, Blast.const 0L)
        else begin
          let cells = Array.init (max depth 1) (fun _ -> free_of_ty g s.elem) in
          let hd = Blast.inputs g Unsigned 64 in
          (* small free indices: constrain instead of building narrow vecs *)
          let ccnt = Blast.inputs g Unsigned 64 in
          constrain (Blast.ult g hd (iconst (max depth 1)));
          constrain (A.neg (Blast.ult g (iconst depth) ccnt));  (* ccnt <= depth *)
          (cells, hd, ccnt)
        end
      in
      Hashtbl.replace fifos s.sname
        { fm_decl = s; cells; hd; ccnt; scnt = Blast.const 0L })
    cfg.streams;
  let params = ref [] in
  let procs =
    List.map
      (fun (f : Fsmd.t) ->
        let proc = f.Fsmd.proc in
        if Array.length f.Fsmd.pipes > 0 then
          unsupported "%s: pipelined loops are outside the BMC fragment" proc.Ir.name;
        let nregs =
          List.fold_left (fun acc (r, _) -> Stdlib.max acc (r + 1)) 0 proc.Ir.regs
        in
        let rty = Array.make (Stdlib.max nregs 1) int32_t in
        List.iter (fun (r, info) -> rty.(r) <- info.Ir.rty) proc.Ir.regs;
        let regs = Array.make (Stdlib.max nregs 1) (Blast.const 0L) in
        if free_start then
          List.iter
            (fun (r, (info : Ir.reg_info)) ->
              match info.Ir.rty with
              | Tarray _ | Tvoid -> ()
              | ty -> regs.(r) <- free_of_ty g ty)
            proc.Ir.regs
        else begin
          (* reset: zeros, with parameter registers free *)
          match List.assoc_opt proc.Ir.name cfg.free_regs with
          | None -> ()
          | Some frs ->
              (* one free 64-bit value per parameter *name*: the engine
                 wraps a single testbench binding into every register
                 that shares the origin, so the model must too — else
                 the witness could demand two values for one parameter *)
              let by_origin = Hashtbl.create 4 in
              List.iter
                (fun (r, origin) ->
                  let p =
                    match Hashtbl.find_opt by_origin origin with
                    | Some p -> p
                    | None ->
                        let p = Blast.inputs g Signed 64 in
                        Hashtbl.add by_origin origin p;
                        params := (proc.Ir.name, origin, p) :: !params;
                        p
                  in
                  regs.(r) <- Blast.wrap_ty g rty.(r) p)
                frs
        end;
        let nstates = Fsmd.num_states f in
        let pc =
          if not free_start then iconst f.Fsmd.entry
          else begin
            let pc = Blast.inputs g Unsigned 64 in
            constrain (A.neg (Blast.ult g (iconst nstates) pc));  (* pc <= nstates *)
            pc
          end
        in
        let etf = if free_start then A.new_input g else A.fls in
        let brams = Hashtbl.create 4 in
        List.iter
          (fun (m : Ir.mem) ->
            let phys = next_pow2 (Stdlib.max m.Ir.length 1) in
            let init = match m.Ir.rom_init with Some l -> l | None -> [] in
            let concrete =
              Array.init phys (fun i ->
                  match List.nth_opt init i with
                  | Some v -> Blast.const v
                  | None -> Blast.const 0L)
            in
            let cells =
              if free_start && mem_written f m then
                (* raw 64-bit contents: any stored value is canonical at
                   *some* type, and 64 free bits over-approximate them all *)
                Array.init phys (fun _ -> Blast.inputs g Signed 64)
              else concrete
              (* pure ROMs keep their image even in the induction step *)
            in
            Hashtbl.replace brams m.Ir.mname
              { bm_mem = m; bm_phys = phys; bcells = cells; bstaged = [] })
          proc.Ir.mems;
        { pm_fsmd = f; pm_rty = rty; pm_brams = brams; pm_regs = regs; pm_pc = pc;
          pm_etf = etf })
      cfg.fsmds
  in
  { g; cfg; fifos; procs; params = List.rev !params;
    init_constraints = List.rev !constraints; cycles = [||]; n_cycles = 0 }

(* --- one cycle --------------------------------------------------------------- *)

type acc = {
  mutable fires : (int * Aig.lit) list;
  mutable reach : (int * Aig.lit) list;
  mutable crash : Aig.lit;
}

let fifo_of t name =
  match Hashtbl.find_opt t.fifos name with
  | Some f -> f
  | None -> unsupported "unknown stream %s" name

let elem_of t name =
  match Hashtbl.find_opt t.fifos name with
  | Some f -> f.fm_decl.elem
  | None -> unsupported "unknown stream %s" name

(* Fire/reach bookkeeping: literals OR-accumulate across states and
   processes within a cycle (a tap id appears in exactly one process,
   but may be replicated across states). *)
let add_event g events id l =
  match List.assoc_opt id !events with
  | Some prev -> events := (id, A.mk_or g prev l) :: List.remove_assoc id !events
  | None -> events := (id, l) :: !events

let step_proc t (p : proc_m) ~(fires : (int * Aig.lit) list ref)
    ~(reach : (int * Aig.lit) list ref) ~(crash : Aig.lit ref) =
  let g = t.g in
  let f = p.pm_fsmd in
  let regs0 = p.pm_regs and pc0 = p.pm_pc and etf0 = p.pm_etf in
  (* accumulators, updated conditionally per state (at most one active) *)
  let acc_regs = Array.copy regs0 in
  let acc_pc = ref pc0 in
  let acc_etf = ref etf0 in
  let bram m =
    match Hashtbl.find_opt p.pm_brams m with
    | Some b -> b
    | None -> unsupported "unknown memory %s" m
  in
  let checker id = List.assoc_opt id t.cfg.checkers in
  Array.iteri
    (fun si (st : Fsmd.state) ->
      let active = Blast.eq_const g pc0 (Int64.of_int si) in
      if active <> A.fls then begin
        let env = Array.copy regs0 in
        let ev = function Ir.Imm n -> Blast.const n | Ir.Reg r -> env.(r) in
        let guard_lit view (gi : Ir.ginst) =
          match gi.Ir.guard with
          | None -> A.tru
          | Some (r, want) ->
              let b = Blast.to_bool g view.(r) in
              if want then b else A.neg b
        in
        let next_pc () =
          match st.Fsmd.next with
          | Fsmd.Goto n -> iconst n
          | Fsmd.Done -> iconst (Fsmd.num_states f)
          | Fsmd.Branch (c, a, b) ->
              Blast.ite g (Blast.to_bool g env.(c)) (iconst a) (iconst b)
          | Fsmd.Enter_pipe _ ->
              unsupported "%s: pipelined loops are outside the BMC fragment"
                f.Fsmd.proc.Ir.name
        in
        let written = ref [] in
        let write dst ~en v =
          env.(dst) <- Blast.ite g en v env.(dst);
          if not (List.mem dst !written) then written := dst :: !written
        in
        (* a tap event: [en] = tap executes; fire = condition false *)
        let tap_event ~en (id : int) (args : Ir.operand list) =
          if en <> A.fls then begin
            add_event g reach id en;
            match checker id with
            | None -> ()
            | Some cond ->
                let slots = Array.of_list (List.map ev args) in
                let fire = A.mk_and g en (A.neg (cond_holds g cond slots)) in
                add_event g fires id fire
          end
        in
        let exec_plain ~en (gi : Ir.ginst) =
          let gl = A.mk_and g en (guard_lit env gi) in
          match gi.Ir.i with
          | Ir.Bin { dst; op; a; b; ty } ->
              let div_zero z = crash := A.mk_or g !crash (A.mk_and g gl z) in
              write dst ~en:gl (Blast.binop g ~div_zero op ty (ev a) (ev b))
          | Ir.Un { dst; op; a; ty } -> write dst ~en:gl (Blast.unop g op ty (ev a))
          | Ir.Copy { dst; src; ty } -> write dst ~en:gl (Blast.wrap_ty g ty (ev src))
          | Ir.Castop { dst; src; from_ty; to_ty } ->
              write dst ~en:gl (Blast.cast g ~from_ty ~to_ty (ev src))
          | Ir.Load { dst; mem; addr } ->
              write dst ~en:gl (bram_read g (bram mem) (ev addr))
          | Ir.Store { mem; addr; v } -> bram_write (bram mem) ~en:gl (ev addr) (ev v)
          | Ir.Tap { id; args } -> tap_event ~en:gl id args
          | Ir.Extcall { func; _ } ->
              unsupported "%s: extern call %s is outside the BMC fragment"
                f.Fsmd.proc.Ir.name func
          | Ir.Sread _ | Ir.Swrite _ -> assert false
        in
        let commit_written ~en =
          List.iter
            (fun r ->
              acc_regs.(r) <-
                Blast.ite g en (Blast.wrap_ty g p.pm_rty.(r) env.(r)) acc_regs.(r))
            !written
        in
        let stream_op =
          List.find_opt (fun (gi : Ir.ginst) -> Ir.is_stream_op gi.Ir.i) st.Fsmd.ops
        in
        match stream_op with
        | None ->
            (* plain state: ops in program order, overlay reads *)
            List.iter (exec_plain ~en:active) st.Fsmd.ops;
            commit_written ~en:active;
            acc_pc := Blast.ite g active (next_pc ()) !acc_pc
        | Some sg ->
            let stream_pos =
              let rec go i = function
                | [] -> max_int
                | (gi : Ir.ginst) :: rest ->
                    if Ir.is_stream_op gi.Ir.i then i else go (i + 1) rest
              in
              go 0 st.Fsmd.ops
            in
            let ok, succ =
              match sg.Ir.i with
              | Ir.Sread { dst; stream } ->
                  let fm = fifo_of t stream in
                  let ok = fifo_can_pop g fm in
                  let succ = A.mk_and g active ok in
                  let v = Blast.wrap_ty g p.pm_rty.(dst) (fifo_front g fm) in
                  fifo_pop g fm ~en:succ;
                  (* wrapped at the register type on write, like the
                     engine: same-state taps read the popped value *)
                  write dst ~en:succ v;
                  (ok, succ)
              | Ir.Swrite { stream; v } ->
                  let fm = fifo_of t stream in
                  let ok = fifo_can_push g fm in
                  let succ = A.mk_and g active ok in
                  (* the handshake waits for space regardless of the
                     guard; the guard controls only the push itself *)
                  let push = A.mk_and g succ (guard_lit env sg) in
                  fifo_push g fm ~en:push
                    (Blast.wrap_ty g (elem_of t stream) (ev v));
                  (ok, succ)
              | _ -> assert false
            in
            (* taps sharing the handshake state *)
            List.iteri
              (fun pos (gi : Ir.ginst) ->
                match gi.Ir.i with
                | Ir.Tap { id; args } ->
                    let entry_marker = args = [] && pos < stream_pos in
                    if entry_marker then begin
                      (* fires once per state visit: on the first stalled
                         cycle, or on success if it never stalled *)
                      let gl_succ = A.mk_and g succ (guard_lit env gi) in
                      let gl_stall =
                        A.mk_and g
                          (A.mk_and g active (A.neg ok))
                          (guard_lit regs0 gi)
                      in
                      let en =
                        A.mk_and g (A.neg etf0) (A.mk_or g gl_succ gl_stall)
                      in
                      tap_event ~en id args
                    end
                    else
                      (* data taps (and post-handshake markers) fire only
                         when the handshake succeeds *)
                      tap_event ~en:(A.mk_and g succ (guard_lit env gi)) id args
                | _ -> ())
              st.Fsmd.ops;
            commit_written ~en:active;
            acc_pc := Blast.ite g succ (next_pc ()) !acc_pc;
            (* stalled: remember the markers fired; success: reset *)
            acc_etf :=
              A.mk_or g
                (A.mk_and g active (A.neg ok))
                (A.mk_and g (A.neg active) !acc_etf)
      end)
    f.Fsmd.states;
  p.pm_regs <- acc_regs;
  p.pm_pc <- !acc_pc;
  p.pm_etf <- !acc_etf

(** Unroll one cycle; returns the cycle's observables. *)
let step (t : t) : cycle_io =
  let g = t.g in
  (* 1. testbench feeds: a fresh free value offered to each feed stream *)
  let io_feeds =
    List.map
      (fun s ->
        let fm = fifo_of t s in
        let v = free_of_ty g fm.fm_decl.elem in
        let en = fifo_can_push g fm in
        fifo_push g fm ~en v;
        (s, en, v))
      t.cfg.feeds
  in
  (* 2. hardware processes, in list order *)
  let fires = ref [] and reach = ref [] and crash = ref A.fls in
  List.iter (fun p -> step_proc t p ~fires ~reach ~crash) t.procs;
  (* 3. end of cycle: commit FIFOs and BRAMs *)
  Hashtbl.iter (fun _ fm -> fifo_commit g fm) t.fifos;
  List.iter
    (fun p -> Hashtbl.iter (fun _ b -> bram_commit g b) p.pm_brams)
    t.procs;
  (* 4. testbench drains empty their streams *)
  List.iter (fun s -> fifo_drain g (fifo_of t s)) t.cfg.drains;
  let io =
    { io_feeds; io_fires = List.rev !fires; io_reach = List.rev !reach;
      io_crash = !crash }
  in
  if t.n_cycles = Array.length t.cycles then begin
    let cycles = Array.make (max 8 (2 * t.n_cycles)) io in
    Array.blit t.cycles 0 cycles 0 t.n_cycles;
    t.cycles <- cycles
  end;
  t.cycles.(t.n_cycles) <- io;
  t.n_cycles <- t.n_cycles + 1;
  io

(** Observables of cycle [c] (must already be unrolled). *)
let cycle t c =
  if c < 0 || c >= t.n_cycles then invalid_arg "Model.cycle";
  t.cycles.(c)

let fire_at t c id =
  match List.assoc_opt id (cycle t c).io_fires with Some l -> l | None -> A.fls

let reach_at t c id =
  match List.assoc_opt id (cycle t c).io_reach with Some l -> l | None -> A.fls

let crash_at t c = (cycle t c).io_crash

(** All tap ids that ever appear in the design (instrumented taps). *)
let tap_ids (cfg : config) : int list =
  List.concat_map
    (fun (f : Fsmd.t) ->
      List.filter_map
        (fun (gi : Ir.ginst) ->
          match gi.Ir.i with Ir.Tap { id; _ } -> Some id | _ -> None)
        (Fsmd.all_ops f))
    cfg.fsmds
  |> List.sort_uniq compare
