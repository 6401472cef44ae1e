(** Cycle-accurate simulation of a synthesized design.

    Executes the FSMDs of all hardware processes cycle by cycle against
    registered stream FIFOs and port-limited block RAMs, runs
    modulo-scheduled pipelined loops with overlapped iterations and
    rigid stalling, delivers assertion tap events to checker processes,
    and models the CPU side (testbench feeds/drains and the software
    assertion notification function) as end-of-cycle host handlers.

    This is the "in-circuit" execution of the paper: the behaviours that
    distinguish it from {!Interp} (software simulation) — bounded FIFOs,
    port contention, pipeline rates, injected translation faults, wild
    BRAM addresses — are exactly what in-circuit assertions catch. *)

module Ir = Mir.Ir
module Fsmd = Hls.Fsmd
module Value = Interp.Value
open Front.Ast

(* --- Configuration -------------------------------------------------------- *)

(** An assertion checker: a small pipelined process fed by a tap.  The
    condition is evaluated [latency] cycles after the tap fires; on
    failure the [code] word is sent on [channel] (a failure stream). *)
type checker = {
  cid : int;          (** assertion id (also the tap id it listens to) *)
  latency : int;
  eval : int64 array -> bool;  (** true = assertion holds *)
  channel : string;
  code : int64;       (** word pushed on failure (id, or bit mask when shared) *)
}

type host_action = [ `Ok | `Abort of string ]

(** Timing assertion (the paper's future work, Section 6): whenever tap
    [from_tap] fires, tap [to_tap] must fire within [budget] cycles.
    Checked in circuit like any other assertion; violations are reported
    through the result (and halt the run unless [soft]). *)
type timing_check = {
  tc_name : string;
  from_tap : int;
  to_tap : int;
  budget : int;
  soft : bool;  (** record but do not halt (NABORT-style) *)
}

type config = {
  max_cycles : int;
  feeds : (string * int64 list) list;  (** testbench input, one value/cycle *)
  drains : string list;                (** streams collected by the testbench *)
  handlers : (string * (int64 -> host_action)) list;
      (** CPU-side stream consumers (e.g. the assertion notification
          function); run at end of cycle, drain everything available *)
  hw_models : (string * (int64 list -> int64)) list;
      (** hardware behaviour of external HDL functions *)
  params : (string * (string * int64) list) list;
      (** per-process initial values of named registers *)
  timing_checks : timing_check list;
  trace : bool;
      (** capture a waveform of every FSM state and source-named
          register (the SignalTap/ChipScope view; see {!Trace}) *)
  host_poll_interval : int;
      (** cycles between host handler runs: 1 models an Impulse-C
          streaming bridge, larger values model a Carte-C style DMA
          mailbox the CPU polls (paper Section 4.3) *)
  watchdog : int option;
      (** live-lock watchdog: when [Some n], the run is stopped with
          {!Livelock} after [n] consecutive cycles without forward
          progress — no stream push/pop, no tap event, no register or
          memory value actually changing, no process halting.  A
          spinning loop (the Triple-DES hang of Section 5.1) keeps the
          FSM busy, so it never trips the no-activity {!Hang} detector
          and would otherwise burn the whole cycle budget. *)
  on_tap : (int -> int -> int64 array -> unit) option;
      (** external tap observer, called as [f cycle id values] on every
          tap execution before the checkers evaluate — lets a model
          checker compare its predicted fire schedule against the
          engine cycle for cycle *)
  on_site : (int -> int -> unit) option;
      (** fault-site activity observer, called as [f cycle site] when a
          marker tap (id >= {!marker_base}) executes.  Markers are pure
          probes: they bypass the checkers, the timing machinery and the
          watchdog's tap accounting entirely *)
}

let default_config =
  { max_cycles = 1_000_000; feeds = []; drains = []; handlers = []; hw_models = [];
    params = []; timing_checks = []; trace = false; host_poll_interval = 1;
    watchdog = None; on_tap = None; on_site = None }

(* Tap ids at or above this base are fault-site activity markers, not
   assertions.  Kept far above any real assertion id; Ir.validate
   enforces program-wide uniqueness either way. *)
let marker_base = 1_000_000

(* --- Results ---------------------------------------------------------------- *)

type pipe_stats = {
  ps_proc : string;
  ii_static : int;
  depth_static : int;
  issues : int;
  ii_measured : float;
  latency_measured : int;
}

type outcome =
  | Finished
  | Hang of (string * int) list  (** blocked processes and their state ids *)
  | Livelock of (string * int) list
      (** watchdog verdict: the named processes kept cycling through
          these states with no forward progress for the configured
          window — a spin that {!Out_of_cycles} would only surface
          after the whole budget *)
  | Aborted of string
  | Out_of_cycles
  | Sim_error of string

type result = {
  outcome : outcome;
  cycles : int;
  drained : (string * int64 list) list;
  host_log : string list;
  pipes : pipe_stats list;
  port_violations : (string * int) list;
  wild_accesses : (string * int) list;
  fifo_stats : (string * int * int * int) list;  (** name, pushes, pops, max occupancy *)
  tap_events : int;
  timing_violations : (string * int) list;
      (** timing-assertion name and the cycle at which it expired *)
  vcd : string option;  (** waveform dump when [trace] was enabled *)
}

(* --- Runtime state ----------------------------------------------------------- *)

(* Everything below [create] resolves once: each FSMD state, pipe cycle
   offset and issue block is compiled to closures over the process's
   register file, its overlay, the resolved FIFOs and BRAMs, and the
   engine's observers.  The per-cycle loop then does no name lookups
   and allocates no per-step tables.  Mutable simulation state stays in
   plain data (registers, FIFOs, BRAMs, iteration records), so
   snapshots never capture a closure.

   Register files, overlays and iteration views are word stores: one
   64-bit word per register in a [Bytes].  Immediates live in a
   per-process constant pool of words, filled as the ops compile (no
   pass over the design first, so [create] stays cheap), and an
   operand is a slot: a register index, or the complement of a pool
   index.  The ALU instructions compile to one closure each that
   reads, computes, wraps and writes words without boxing them.  The word helpers below are [@inline] and live
   in this module on purpose: dune's dev profile compiles with
   [-opaque], so a call into another module is out of line and boxes
   every [int64] that crosses it. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] word b r = get64 b (r lsl 3)
let[@inline] set_word b r v = set64 b (r lsl 3) v
let[@inline] flag b r = Bytes.get b r <> '\000'
let[@inline] raise_flag b r = Bytes.unsafe_set b r '\001'
let[@inline] clear_flag b r = Bytes.unsafe_set b r '\000'
let[@inline] truth (v : int64) = v <> 0L
let[@inline] of_bool b = if b then 1L else 0L

(* Wrap codes: how a word is canonicalized at a type (the semantics of
   {!Value.wrap_ty}), precomputed so the hot path wraps with shifts.
   [c] in 0..63 sign-extends the low [64 - c] bits (0 keeps all 64);
   [c] in 65..127 zero-extends the low [128 - c] bits; [wrap_bool] maps
   nonzero to 1; [wrap_invalid] marks a non-scalar type and raises as
   {!Value.wrap_ty} does.  Every branch computes a fresh word, so the
   compiler keeps the result unboxed even when [v] arrives boxed. *)
let wrap_bool = 128
let wrap_invalid = 129

let wrap_of s w =
  let n = bits_of_width w in
  if n = 64 then 0 else match s with Signed -> 64 - n | Unsigned -> 128 - n

let wrap_code = function
  | Tint (s, w) -> wrap_of s w
  | Tbool -> wrap_bool
  | Tarray _ | Tvoid -> wrap_invalid

let[@inline] wrap_word c v =
  if c < 64 then Int64.shift_right (Int64.shift_left v c) c
  else if c < 128 then Int64.shift_right_logical (Int64.shift_left v (c - 64)) (c - 64)
  else if c = wrap_bool then of_bool (truth v)
  else raise (Invalid_argument "Value.wrap_ty: not a scalar type")

(* One in-flight pipelined iteration.  [vals] is its whole register
   view: the issue-time copy of the register file with the iteration's
   own writes applied in place; [written] flags those writes (one byte
   per register), and [wlist] lists them (possibly repeated) for the
   flush on retire. *)
type iter = {
  vals : Bytes.t;
  written : Bytes.t;
  mutable wlist : Ir.reg list;
  mutable cyc : int;
  issued_at : int;
  mutable pending : (Ir.reg * int64 * int) list;  (** extcall results: due iteration cycle *)
}

let no_iter =
  { vals = Bytes.empty; written = Bytes.empty; wlist = []; cyc = 0; issued_at = 0; pending = [] }

(* A per-process register overlay: writes of one sequential step (or one
   issue-time block) are staged here and committed at its end.  Reads
   prefer a staged value, so same-state consumers (taps, guards, the
   branch condition) see it.  Empty between steps. *)
type overlay = {
  ov_vals : Bytes.t;
  ov_set : Bytes.t;  (** one flag byte per register *)
  ov_dirty : int array;  (** the set registers, [ov_n] of them *)
  mutable ov_n : int;
}

(* A stream op of a pipe cycle offset: checked before the cycle runs. *)
type need = {
  nd_guard : unit -> bool;
  nd_fifo : Fifo.t option;
  nd_stream : string;
  nd_read : bool;
}

type cpipe = {
  cp_pipe : Fsmd.pipe;
  cp_ops : (unit -> unit) array array;  (** body ops by cycle offset, guards folded in *)
  cp_needs : need array array;          (** stream ops by cycle offset *)
  cp_cond : (unit -> unit) array;       (** issue-time condition block *)
  cp_step : (unit -> unit) array;       (** issue-time step block *)
  cp_stats_idx : int;                   (** position in the engine's pipe-stats table *)
}

type pipe_rt = {
  cp : cpipe;
  pidx : int;  (** index into the process's [Fsmd.pipes] *)
  mutable countdown : int;
  mutable done_issuing : bool;
  mutable inflight : iter list;  (** oldest first *)
  mutable issue_times : int list;  (** reverse order *)
  mutable latencies : int list;
  final_writes : (Ir.reg, int64) Hashtbl.t;
      (** last-retired value per register, applied when the pipe drains:
          late (non-loop-carried) writes must not clobber the issue-time
          architectural state while younger iterations are in flight *)
}

type mode = Seq | Pipe of pipe_rt | Halted

(* A tap sharing a stream handshake state.  Operand-less markers that
   precede the stream op in program order mark a point reached on state
   *entry* — they fire even while the handshake stalls; markers after
   it, and data taps, fire only once the handshake succeeds. *)
type ctap = { entry_marker : bool; fire : unit -> unit }

type cbody =
  | Plain of { ops : (unit -> unit) array; stores : unit -> bool }
      (** [stores]: some store took effect (memory writes bypass the
          overlay, so they count as progress directly) *)
  | Read of { fifo : Fifo.t option; stream : string; dst : Ir.reg; wrap : int }
  | Write of {
      fifo : Fifo.t option;
      stream : string;
      guard : unit -> bool;
      src : int;  (** operand slot *)
      elem : int;  (** wrap code of the stream's element type *)
    }

type cstate = { body : cbody; taps : ctap array; next : Fsmd.next }

type pr = {
  fsmd : Fsmd.t;
  regs : Bytes.t;  (** register words *)
  nregs : int;
  reg_wrap : int array;  (** wrap code of each register's type *)
  mutable consts : Bytes.t;  (** the immediates' words, read-only once compiled *)
  mutable nconsts : int;
  mutable state : int;
  mutable mode : mode;
  brams : (string, Bram.t) Hashtbl.t;
  mutable ext_pending : (Ir.reg * int64 * int) list;  (** due absolute cycle *)
  mutable entry_taps_fired : bool;
      (** operand-less marker taps of the current state already fired
          (they fire on state entry, even while a handshake stalls) *)
  ov : overlay;
  mutable cur : iter;  (** the iteration whose body ops are executing *)
  mutable cstates : cstate array;
  mutable cpipes : cpipe array;
}

exception Abort_sim of string
exception Sim_failure of string

(* --- The engine ------------------------------------------------------------- *)

type feed = {
  fd_fifo : Fifo.t option;
  fd_stream : string;
  fd_elem : int;  (** wrap code *)
  fd_left : int64 list ref;
}

type drain = { dr_fifo : Fifo.t option; dr_stream : string; dr_acc : int64 list ref }

type t = {
  cfg : config;
  fifos : (string, Fifo.t) Hashtbl.t;
  stream_elems : (string, ty) Hashtbl.t;
  procs : pr array;
  fifo_arr : Fifo.t array;
  bram_arr : Bram.t array;
  handler_arr : (Fifo.t option * string * (int64 -> host_action)) array;
  mutable feed_arr : feed array;    (** re-derived whenever [feeds_left] is rebuilt *)
  mutable drain_arr : drain array;  (** re-derived whenever [drained] changes shape *)
  npipes : int;
  checkers : checker list;
  mutable cycle : int;
  mutable activity : bool;
  mutable progressed : bool;
      (** forward progress this cycle: some architectural value actually
          changed (register, FIFO contents, tap event, process halting).
          Distinct from [activity], which a spinning FSM also produces;
          the watchdog consumes the difference. *)
  mutable last_progress : int;  (** cycle of the last forward progress *)
  mutable tap_count : int;
  (* failure words awaiting their channel (after checker latency) *)
  mutable pending_failures : (int * string * int64) list;  (** due cycle, channel, word *)
  mutable host_log : string list;
  drained : (string, int64 list ref) Hashtbl.t;
  feeds_left : (string, int64 list ref) Hashtbl.t;
  mutable pipe_stats : pipe_stats array;
  (* timing assertions: outstanding deadlines per check, oldest first *)
  mutable deadlines : (timing_check * int) list;  (** check, expiry cycle *)
  mutable timing_violations : (string * int) list;
  tracer : (Trace.t * (pr * Trace.signal * (Ir.reg * Trace.signal) list) list) option;
      (** per process: FSM-state signal and one signal per named register *)
}

let unknown_stream name = Sim_failure (Printf.sprintf "unknown stream %s" name)

let resolved name = function Some f -> f | None -> raise (unknown_stream name)

(* Wrap code of a stream's element type; unknown streams pass words
   through unwrapped. *)
let elem_wrap t s =
  match Hashtbl.find_opt t.stream_elems s with Some ty -> wrap_code ty | None -> 0

(* Hashtbl iteration order, so the resolved arrays visit feeds and
   drains exactly as iterating the tables would. *)
let in_table_order tbl f =
  let acc = ref [] in
  Hashtbl.iter (fun k v -> acc := f k v :: !acc) tbl;
  Array.of_list (List.rev !acc)

let derive_feeds t =
  t.feed_arr <-
    in_table_order t.feeds_left (fun s vs ->
        {
          fd_fifo = Hashtbl.find_opt t.fifos s;
          fd_stream = s;
          fd_elem = elem_wrap t s;
          fd_left = vs;
        })

let derive_drains t =
  t.drain_arr <-
    in_table_order t.drained (fun s acc ->
        { dr_fifo = Hashtbl.find_opt t.fifos s; dr_stream = s; dr_acc = acc })

(* --- Overlay ------------------------------------------------------------------ *)

let[@inline] ov_get ov regs r = if flag ov.ov_set r then word ov.ov_vals r else word regs r

(* Operand slot reads: a register through the overlay or the executing
   iteration's view, a constant from the pool. *)
let[@inline] ov_slot (p : pr) s = if s >= 0 then ov_get p.ov p.regs s else word p.consts (lnot s)
let[@inline] view_slot (p : pr) s = if s >= 0 then word p.cur.vals s else word p.consts (lnot s)

let[@inline] ov_put ov r v =
  if not (flag ov.ov_set r) then begin
    raise_flag ov.ov_set r;
    ov.ov_dirty.(ov.ov_n) <- r;
    ov.ov_n <- ov.ov_n + 1
  end;
  set_word ov.ov_vals r v

(* Write the staged values back, wrapped to the registers' widths.
   Returns true when some register actually changed value — the forward
   progress signal the live-lock watchdog relies on.  The staged values
   stay readable until {!ov_clear}. *)
let ov_commit (p : pr) =
  let ov = p.ov and regs = p.regs and changed = ref false in
  for i = 0 to ov.ov_n - 1 do
    let r = ov.ov_dirty.(i) in
    let v = wrap_word p.reg_wrap.(r) (word ov.ov_vals r) in
    if word regs r <> v then begin
      set_word regs r v;
      changed := true
    end
  done;
  !changed

let ov_clear ov =
  for i = 0 to ov.ov_n - 1 do
    clear_flag ov.ov_set ov.ov_dirty.(i)
  done;
  ov.ov_n <- 0

(* --- Fused ALU ------------------------------------------------------------------ *)

(* {!Value.binop}'s operators with the operation type's signedness
   folded in. *)
type alu =
  | Oadd | Osub | Omul | Osdiv | Oudiv | Osmod | Oumod
  | Oand | Oor | Oxor | Oshl | Osshr | Oushr
  | Oslt | Osle | Osgt | Osge | Oult | Oule | Ougt | Ouge
  | Oeq | Oneq | Oland | Olor

let alu_of op s =
  match (op, s) with
  | Add, _ -> Oadd
  | Sub, _ -> Osub
  | Mul, _ -> Omul
  | Div, Signed -> Osdiv
  | Div, Unsigned -> Oudiv
  | Mod, Signed -> Osmod
  | Mod, Unsigned -> Oumod
  | Band, _ -> Oand
  | Bor, _ -> Oor
  | Bxor, _ -> Oxor
  | Shl, _ -> Oshl
  | Shr, Signed -> Osshr
  | Shr, Unsigned -> Oushr
  | Lt, Signed -> Oslt
  | Le, Signed -> Osle
  | Gt, Signed -> Osgt
  | Ge, Signed -> Osge
  | Lt, Unsigned -> Oult
  | Le, Unsigned -> Oule
  | Gt, Unsigned -> Ougt
  | Ge, Unsigned -> Ouge
  | Eq, _ -> Oeq
  | Ne, _ -> Oneq
  | Land, _ -> Oland
  | Lor, _ -> Olor

(* {!Value.unop}, {!Value.wrap_ty} (copies) and {!Value.cast}, each a
   word transform followed by a wrap. *)
type una = Uid | Uneg | Unot | Ulnot

(* The unsigned helpers are the stdlib's algorithms, restated so that
   no word leaves the closure that computes it.  Every failure below is
   a direct [raise]: a call would stop the compiler from unboxing the
   result. *)
let[@inline] ult (x : int64) y = Int64.sub x Int64.min_int < Int64.sub y Int64.min_int

let[@inline] udiv (n : int64) d =
  if d < 0L then if ult n d then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    if ult (Int64.sub n (Int64.mul q d)) d then q else Int64.succ q

(* [c] wraps the result: the operation type's code for arithmetic, 0
   (keep all bits) for comparisons and logical operators, whose 0/1
   needs no wrap.  [dst] names the register in the division-by-zero
   failure. *)
let[@inline] alu_bin op c dst (x : int64) (y : int64) =
  wrap_word c
    (match op with
    | Oadd -> Int64.add x y
    | Osub -> Int64.sub x y
    | Omul -> Int64.mul x y
    | Osdiv | Oudiv | Osmod | Oumod when y = 0L ->
        raise (Sim_failure (Printf.sprintf "division by zero (r%d)" dst))
    | Osdiv -> Int64.div x y
    | Oudiv -> udiv x y
    | Osmod -> Int64.rem x y
    | Oumod -> Int64.sub x (Int64.mul (udiv x y) y)
    | Oand -> Int64.logand x y
    | Oor -> Int64.logor x y
    | Oxor -> Int64.logxor x y
    | Oshl -> Int64.shift_left x (Int64.to_int y land 63)
    | Osshr -> Int64.shift_right x (Int64.to_int y land 63)
    | Oushr ->
        (* zero-extend from the operation width first: a staged operand
           need not be canonical *)
        let low = if c = 0 then -1L else Int64.shift_right_logical (-1L) (c - 64) in
        Int64.shift_right_logical (Int64.logand x low) (Int64.to_int y land 63)
    | Oslt -> of_bool (x < y)
    | Osle -> of_bool (x <= y)
    | Osgt -> of_bool (x > y)
    | Osge -> of_bool (x >= y)
    | Oult -> of_bool (ult x y)
    | Oule -> of_bool (not (ult y x))
    | Ougt -> of_bool (ult y x)
    | Ouge -> of_bool (not (ult x y))
    | Oeq -> of_bool (x = y)
    | Oneq -> of_bool (x <> y)
    | Oland -> of_bool (truth x && truth y)
    | Olor -> of_bool (truth x || truth y))

(* [c] wraps the result (0 for [Ulnot]). *)
let[@inline] alu_un op c (x : int64) =
  wrap_word c
    (match op with
    | Uid -> x
    | Uneg -> Int64.neg x
    | Unot -> Int64.lognot x
    | Ulnot -> of_bool (x = 0L))

(* --- Compilation ---------------------------------------------------------------- *)

(* Tap event: run the checkers listening on this tap id, and arm /
   discharge timing assertions anchored at it. *)
let compile_tap t (id : int) : int64 array -> unit =
  if id >= marker_base then
    (* site-activity marker: observe and return.  Must not count as a
       tap event (a marker inside a spin loop would otherwise defeat the
       live-lock watchdog) and must not touch checkers or deadlines. *)
    match t.cfg.on_site with
    | Some f -> fun _ -> f t.cycle (id - marker_base)
    | None -> fun _ -> ()
  else
    let listening = Array.of_list (List.filter (fun c -> c.cid = id) t.checkers) in
    let discharging = List.exists (fun tc -> tc.to_tap = id) t.cfg.timing_checks in
    let arming = Array.of_list (List.filter (fun tc -> tc.from_tap = id) t.cfg.timing_checks) in
    fun values ->
      t.tap_count <- t.tap_count + 1;
      (match t.cfg.on_tap with Some f -> f t.cycle id values | None -> ());
      for i = 0 to Array.length listening - 1 do
        let c = listening.(i) in
        if not (c.eval values) then
          t.pending_failures <- (t.cycle + c.latency, c.channel, c.code) :: t.pending_failures
      done;
      (* a to-tap firing discharges the oldest outstanding deadline of
         each matching check; discharge before arming so a
         self-referential check (from = to) measures the interval
         between consecutive firings *)
      if discharging then begin
        let discharged = ref [] in
        t.deadlines <-
          List.filter
            (fun ((tc : timing_check), _) ->
              if tc.to_tap = id && not (List.memq tc !discharged) then begin
                discharged := tc :: !discharged;
                false
              end
              else true)
            t.deadlines
      end;
      for i = 0 to Array.length arming - 1 do
        let tc = arming.(i) in
        t.deadlines <- t.deadlines @ [ (tc, t.cycle + tc.budget) ]
      done

(* Where a compiled op runs: an FSMD state (through the overlay), an
   issue-time block of a pipelined loop (through the overlay, pure ALU
   plus site markers), or a pipe body cycle offset (through the
   executing iteration's view, at initiation interval [ii]). *)
type flavour = State | Issue | Body of int

(* The slot an operand reads: its register, or a fresh constant-pool
   word holding the immediate. *)
let slot (p : pr) = function
  | Ir.Reg r -> r
  | Ir.Imm n ->
      let k = p.nconsts in
      if 8 * (k + 1) > Bytes.length p.consts then begin
        let grown = Bytes.create (16 * (k + 1)) in
        Bytes.blit p.consts 0 grown 0 (8 * k);
        p.consts <- grown
      end;
      set_word p.consts k n;
      p.nconsts <- k + 1;
      lnot k

(* A boxed operand read, for the instructions that hand their words to
   another module anyway (memories, FIFOs, hardware models, checkers). *)
let operand (p : pr) flavour o : unit -> int64 =
  match (o, flavour) with
  | Ir.Imm n, _ -> fun () -> n
  | Ir.Reg r, (State | Issue) ->
      let ov = p.ov and regs = p.regs in
      fun () -> ov_get ov regs r
  | Ir.Reg r, Body _ -> fun () -> word p.cur.vals r

let guard_of (p : pr) flavour (g : Ir.ginst) : unit -> bool =
  match (g.Ir.guard, flavour) with
  | None, _ -> fun () -> true
  | Some (r, want), (State | Issue) ->
      let ov = p.ov and regs = p.regs in
      fun () -> truth (ov_get ov regs r) = want
  | Some (r, want), Body _ -> fun () -> truth (word p.cur.vals r) = want

let[@inline] iter_set it r v =
  set_word it.vals r v;
  if not (flag it.written r) then begin
    raise_flag it.written r;
    it.wlist <- r :: it.wlist
  end

(* A body write lands in the iteration's view at once; the first [ii]
   offsets also update the architectural registers, which the next issue
   reads.  [c] is the destination register's wrap code. *)
let[@inline] body_put t (p : pr) ii r c v =
  let it = p.cur and v = wrap_word c v in
  if word it.vals r <> v then t.progressed <- true;
  iter_set it r v;
  if it.cyc <= ii - 1 then set_word p.regs r v

(* The fused ALU instructions: one closure reads the operand slots,
   computes, wraps and writes the destination. *)
let fused_bin t (p : pr) flavour op c dst a b : unit -> unit =
  match flavour with
  | State | Issue ->
      let ov = p.ov in
      fun () -> ov_put ov dst (alu_bin op c dst (ov_slot p a) (ov_slot p b))
  | Body ii ->
      let rc = p.reg_wrap.(dst) in
      fun () -> body_put t p ii dst rc (alu_bin op c dst (view_slot p a) (view_slot p b))

let fused_un t (p : pr) flavour op c dst a : unit -> unit =
  match flavour with
  | State | Issue ->
      let ov = p.ov in
      fun () -> ov_put ov dst (alu_un op c (ov_slot p a))
  | Body ii ->
      let rc = p.reg_wrap.(dst) in
      fun () -> body_put t p ii dst rc (alu_un op c (view_slot p a))

let compile_op t (p : pr) flavour (g : Ir.ginst) : unit -> unit =
  let opnd = operand p flavour in
  let write r : int64 -> unit =
    match flavour with
    | State | Issue ->
        let ov = p.ov in
        fun v -> ov_put ov r v
    | Body ii ->
        let c = p.reg_wrap.(r) in
        fun v -> body_put t p ii r c v
  in
  let with_mem m k =
    match (flavour, Hashtbl.find_opt p.brams m) with
    | Issue, _ -> fun () -> raise (Sim_failure ("memory op at issue: " ^ m))
    | _, Some b -> k b
    | _, None -> fun () -> raise (Sim_failure (Printf.sprintf "unknown memory %s" m))
  in
  let op : unit -> unit =
    match g.Ir.i with
    | Ir.Bin { dst; op; a; b; ty = (Tint _ | Tbool) as ty } ->
        let s = Value.signedness_of ty in
        let c = if is_comparison op || is_logical op then 0 else wrap_of s (Value.width_of ty) in
        fused_bin t p flavour (alu_of op s) c dst (slot p a) (slot p b)
    | Ir.Bin { dst; op; a; b; ty } ->
        (* not a scalar operation: {!Value.binop} raises when it runs *)
        let a = opnd a and b = opnd b and w = write dst in
        fun () -> w (Value.binop op ty (a ()) (b ()))
    | Ir.Un { dst; op; a; ty } ->
        let op, c =
          match op with
          | Neg -> (Uneg, wrap_code ty)
          | Bnot -> (Unot, wrap_code ty)
          | Lnot -> (Ulnot, 0)
        in
        fused_un t p flavour op c dst (slot p a)
    | Ir.Copy { dst; src; ty } -> fused_un t p flavour Uid (wrap_code ty) dst (slot p src)
    | Ir.Castop { dst; src; to_ty = Tbool; _ } ->
        fused_un t p flavour Uid wrap_bool dst (slot p src)
    | Ir.Castop { dst; src; from_ty = Tint _ | Tbool; to_ty = Tint _ as to_ty } ->
        fused_un t p flavour Uid (wrap_code to_ty) dst (slot p src)
    | Ir.Castop { dst; src; from_ty; to_ty } ->
        (* not a scalar cast: {!Value.cast} raises when it runs *)
        let src = opnd src and w = write dst in
        fun () -> w (Value.cast ~from_ty ~to_ty (src ()))
    | Ir.Load { dst; mem; addr } ->
        let addr = opnd addr and w = write dst in
        with_mem mem (fun b () -> w (Bram.read b (addr ())))
    | Ir.Store { mem; addr; v } ->
        let addr = opnd addr and v = opnd v in
        with_mem mem (fun b () -> Bram.write b (addr ()) (v ()))
    | Ir.Extcall { dst; func; args; latency } -> (
        let model =
          match flavour with
          | Issue -> None
          | State | Body _ -> List.assoc_opt func t.cfg.hw_models
        in
        match model with
        | None ->
            fun () -> raise (Sim_failure (Printf.sprintf "no hardware model for extern %s" func))
        | Some f -> (
            let args = List.map opnd args in
            let call () = f (List.map (fun a -> a ()) args) in
            match flavour with
            | Body _ ->
                fun () ->
                  let it = p.cur in
                  let v = call () in
                  it.pending <- (dst, v, it.cyc + latency) :: it.pending
            | State | Issue ->
                fun () ->
                  let v = call () in
                  p.ext_pending <- (dst, v, t.cycle + latency - 1) :: p.ext_pending))
    | Ir.Tap { id; args } -> (
        match flavour with
        (* real taps are pure latches and never scheduled at issue time,
           but loop-site activity markers do live in the condition block *)
        | Issue when id < marker_base -> fun () -> ()
        | _ ->
            let args = Array.of_list (List.map opnd args) and deliver = compile_tap t id in
            fun () -> deliver (Array.map (fun a -> a ()) args))
    | Ir.Sread { dst; stream } -> (
        match flavour with
        | Body ii ->
            let fifo = Hashtbl.find_opt t.fifos stream and c = p.reg_wrap.(dst) in
            fun () ->
              body_put t p ii dst c (Fifo.pop (resolved stream fifo));
              t.progressed <- true
        | State | Issue -> fun () -> invalid_arg "Engine: stream op outside a handshake")
    | Ir.Swrite { stream; v } -> (
        match flavour with
        | Body _ ->
            let fifo = Hashtbl.find_opt t.fifos stream
            and elem = elem_wrap t stream
            and v = opnd v in
            fun () ->
              let f = resolved stream fifo in
              Fifo.push f (wrap_word elem (v ()));
              t.progressed <- true
        | State | Issue -> fun () -> invalid_arg "Engine: stream op outside a handshake")
  in
  match g.Ir.guard with
  | None -> op
  | Some _ ->
      let pass = guard_of p flavour g in
      fun () -> if pass () then op ()

let compile_state t (p : pr) (st : Fsmd.state) : cstate =
  let rec stream_op pos = function
    | [] -> None
    | (g : Ir.ginst) :: rest ->
        if Ir.is_stream_op g.Ir.i then Some (pos, g) else stream_op (pos + 1) rest
  in
  match stream_op 0 st.Fsmd.ops with
  | None ->
      let store_guards =
        List.filter_map
          (fun (g : Ir.ginst) ->
            match g.Ir.i with Ir.Store _ -> Some (guard_of p State g) | _ -> None)
          st.Fsmd.ops
      in
      let stores =
        match store_guards with
        | [] -> fun () -> false
        | gs -> fun () -> List.exists (fun pass -> pass ()) gs
      in
      {
        body = Plain { ops = Array.of_list (List.map (compile_op t p State) st.Fsmd.ops); stores };
        taps = [||];
        next = st.Fsmd.next;
      }
  | Some (stream_pos, g) ->
      let taps =
        List.concat
          (List.mapi
             (fun pos (op : Ir.ginst) ->
               match op.Ir.i with
               | Ir.Tap { args; _ } ->
                   [ { entry_marker = args = [] && pos < stream_pos; fire = compile_op t p State op } ]
               | _ -> [])
             st.Fsmd.ops)
      in
      let body =
        match g.Ir.i with
        | Ir.Sread { dst; stream } ->
            Read { fifo = Hashtbl.find_opt t.fifos stream; stream; dst; wrap = p.reg_wrap.(dst) }
        | Ir.Swrite { stream; v } ->
            Write
              {
                fifo = Hashtbl.find_opt t.fifos stream;
                stream;
                guard = guard_of p State g;
                src = slot p v;
                elem = elem_wrap t stream;
              }
        | _ -> assert false
      in
      { body; taps = Array.of_list taps; next = st.Fsmd.next }

let compile_pipe t (p : pr) ~stats_idx (pipe : Fsmd.pipe) : cpipe =
  let body = Body pipe.Fsmd.ii in
  let block insts = Array.of_list (List.map (compile_op t p Issue) insts) in
  {
    cp_pipe = pipe;
    cp_ops = Array.map (fun ops -> Array.of_list (List.map (compile_op t p body) ops)) pipe.Fsmd.cycle_ops;
    cp_needs =
      Array.map
        (fun ops ->
          Array.of_list
            (List.filter_map
               (fun (g : Ir.ginst) ->
                 let need stream nd_read =
                   Some
                     {
                       nd_guard = guard_of p body g;
                       nd_fifo = Hashtbl.find_opt t.fifos stream;
                       nd_stream = stream;
                       nd_read;
                     }
                 in
                 match g.Ir.i with
                 | Ir.Sread { stream; _ } -> need stream true
                 | Ir.Swrite { stream; _ } -> need stream false
                 | _ -> None)
               ops))
        pipe.Fsmd.cycle_ops;
    cp_cond = block pipe.Fsmd.cond_insts;
    cp_step = block pipe.Fsmd.step_insts;
    cp_stats_idx = stats_idx;
  }

let make_proc cfg (fsmd : Fsmd.t) : pr =
  let proc = fsmd.Fsmd.proc in
  let nregs =
    List.fold_left (fun acc (r, _) -> Stdlib.max acc (r + 1)) 0 proc.Ir.regs
  in
  let size = Stdlib.max nregs 1 in
  let regs = Bytes.make (8 * size) '\000' in
  let reg_wrap = Array.make size (wrap_code int32_t) in
  List.iter (fun (r, info) -> reg_wrap.(r) <- wrap_code info.Ir.rty) proc.Ir.regs;
  (* parameter initialization by origin name *)
  (match List.assoc_opt proc.Ir.name cfg.params with
  | Some bindings ->
      List.iter
        (fun (r, info) ->
          match info.Ir.origin with
          | Some name -> (
              match List.assoc_opt name bindings with
              | Some v -> set_word regs r (Value.wrap_ty info.Ir.rty v)
              | None -> ())
          | None -> ())
        proc.Ir.regs
  | None -> ());
  let brams = Hashtbl.create 4 in
  List.iter
    (fun (m : Ir.mem) ->
      Hashtbl.replace brams m.Ir.mname
        (Bram.create ?init:m.Ir.rom_init
           ~name:(proc.Ir.name ^ "." ^ m.Ir.mname) ~length:m.Ir.length
           ~ports:m.Ir.ports ()))
    proc.Ir.mems;
  {
    fsmd;
    regs;
    nregs = size;
    reg_wrap;
    consts = Bytes.create 64;
    nconsts = 0;
    state = fsmd.Fsmd.entry;
    mode = Seq;
    brams;
    ext_pending = [];
    entry_taps_fired = false;
    ov =
      {
        ov_vals = Bytes.make (8 * size) '\000';
        ov_set = Bytes.make size '\000';
        ov_dirty = Array.make size 0;
        ov_n = 0;
      };
    cur = no_iter;
    cstates = [||];
    cpipes = [||];
  }

let create ?(cfg = default_config) ~(streams : stream_decl list)
    ~(fsmds : Fsmd.t list) ~(checkers : checker list) () : t =
  let fifos = Hashtbl.create 16 and stream_elems = Hashtbl.create 16 in
  List.iter
    (fun (s : stream_decl) ->
      Hashtbl.replace fifos s.sname (Fifo.create ~name:s.sname ~depth:s.depth);
      Hashtbl.replace stream_elems s.sname s.elem)
    streams;
  let drained = Hashtbl.create 4 in
  List.iter (fun s -> Hashtbl.replace drained s (ref [])) cfg.drains;
  let feeds_left = Hashtbl.create 4 in
  List.iter (fun (s, vs) -> Hashtbl.replace feeds_left s (ref vs)) cfg.feeds;
  let procs = List.map (make_proc cfg) fsmds in
  let tracer =
    if not cfg.trace then None
    else begin
      let tr = Trace.create () in
      let per_proc =
        List.map
          (fun (p : pr) ->
            let pname = p.fsmd.Fsmd.proc.Ir.name in
            let state_sig = Trace.declare tr ~name:(pname ^ ".state") ~width:16 in
            let reg_sigs =
              List.filter_map
                (fun (r, (info : Ir.reg_info)) ->
                  match info.Ir.origin with
                  | Some v ->
                      let width =
                        match info.Ir.rty with
                        | Tint (_, w) -> bits_of_width w
                        | Tbool -> 1
                        | _ -> 32
                      in
                      Some (r, Trace.declare tr ~name:(pname ^ "." ^ v) ~width)
                  | None -> None)
                p.fsmd.Fsmd.proc.Ir.regs
            in
            (p, state_sig, reg_sigs))
          procs
      in
      Some (tr, per_proc)
    end
  in
  let t =
    {
      cfg;
      fifos;
      stream_elems;
      procs = Array.of_list procs;
      fifo_arr = in_table_order fifos (fun _ f -> f);
      bram_arr =
        Array.concat (List.map (fun (p : pr) -> in_table_order p.brams (fun _ b -> b)) procs);
      handler_arr =
        Array.of_list
          (List.map (fun (s, h) -> (Hashtbl.find_opt fifos s, s, h)) cfg.handlers);
      feed_arr = [||];
      drain_arr = [||];
      npipes = List.fold_left (fun acc (p : pr) -> acc + Array.length p.fsmd.Fsmd.pipes) 0 procs;
      checkers;
      cycle = 0;
      activity = false;
      progressed = false;
      last_progress = 0;
      tap_count = 0;
      pending_failures = [];
      host_log = [];
      drained;
      feeds_left;
      pipe_stats = [||];
      deadlines = [];
      timing_violations = [];
      tracer;
    }
  in
  derive_feeds t;
  derive_drains t;
  ignore
    (List.fold_left
       (fun base (p : pr) ->
         p.cstates <- Array.map (compile_state t p) p.fsmd.Fsmd.states;
         p.cpipes <-
           Array.mapi (fun pid pipe -> compile_pipe t p ~stats_idx:(base + pid) pipe)
             p.fsmd.Fsmd.pipes;
         base + Array.length p.fsmd.Fsmd.pipes)
       0 procs);
  t

(* --- Sequential state execution ---------------------------------------------- *)

let run_ops (ops : (unit -> unit) array) =
  for i = 0 to Array.length ops - 1 do
    ops.(i) ()
  done

let enter_pipe (p : pr) pidx =
  p.mode <-
    Pipe
      {
        cp = p.cpipes.(pidx);
        pidx;
        countdown = 0;
        done_issuing = false;
        inflight = [];
        issue_times = [];
        latencies = [];
        final_writes = Hashtbl.create 16;
      }

(* End of a step that advanced: commit the overlay, take the state's
   transition (a branch reads its condition through the overlay), and
   empty the overlay. *)
let finish_step t (p : pr) (cs : cstate) =
  if ov_commit p then t.progressed <- true;
  (match cs.next with
  | Fsmd.Goto n -> p.state <- n
  | Fsmd.Branch (c, a, b) -> p.state <- (if truth (ov_get p.ov p.regs c) then a else b)
  | Fsmd.Enter_pipe pid -> enter_pipe p pid
  | Fsmd.Done ->
      p.mode <- Halted;
      t.progressed <- true);
  ov_clear p.ov

let run_taps_success (p : pr) taps =
  for i = 0 to Array.length taps - 1 do
    let tp = taps.(i) in
    if (not tp.entry_marker) || not p.entry_taps_fired then tp.fire ()
  done

(* stalled: marker taps still fire once on entry *)
let run_taps_stall (p : pr) taps =
  for i = 0 to Array.length taps - 1 do
    let tp = taps.(i) in
    if tp.entry_marker && not p.entry_taps_fired then tp.fire ()
  done;
  p.entry_taps_fired <- true

(* Returns true if the process advanced (activity). *)
let step_seq t (p : pr) =
  let cs = p.cstates.(p.state) in
  match cs.body with
  | Plain { ops; stores } ->
      run_ops ops;
      if stores () then t.progressed <- true;
      finish_step t p cs;
      true
  | Read { fifo; stream; dst; wrap } ->
      let f = resolved stream fifo in
      if Fifo.can_pop f then begin
        (* wrap to the destination register's width here, not just at
           overlay commit: same-state consumers (taps) read the overlay
           value *)
        ov_put p.ov dst (wrap_word wrap (Fifo.pop f));
        t.progressed <- true;
        run_taps_success p cs.taps;
        finish_step t p cs;
        p.entry_taps_fired <- false;
        true
      end
      else begin
        run_taps_stall p cs.taps;
        false
      end
  | Write { fifo; stream; guard; src; elem } ->
      let f = resolved stream fifo in
      if Fifo.can_push f then begin
        if guard () then begin
          Fifo.push f (wrap_word elem (ov_slot p src));
          t.progressed <- true
        end;
        run_taps_success p cs.taps;
        finish_step t p cs;
        p.entry_taps_fired <- false;
        true
      end
      else begin
        run_taps_stall p cs.taps;
        false
      end

(* --- Pipelined loop execution -------------------------------------------------- *)

(* Run an issue-time block (cond or step) on the architectural registers
   through the overlay; leaves the committed overlay readable for the
   condition test — the caller clears it. *)
let run_issue_block t (p : pr) block =
  run_ops block;
  if ov_commit p then t.progressed <- true

(* Every stream op due this cycle (guard-aware) is ready. *)
let rec needs_met (needs : need array) i =
  i >= Array.length needs
  ||
  let nd = needs.(i) in
  ((not (nd.nd_guard ()))
  ||
  let f = resolved nd.nd_stream nd.nd_fifo in
  if nd.nd_read then Fifo.can_pop f else Fifo.can_push f)
  && needs_met needs (i + 1)

let rec needs_ready (p : pr) (cp : cpipe) = function
  | [] -> true
  | it :: rest ->
      (it.cyc >= cp.cp_pipe.Fsmd.depth
      || begin
           p.cur <- it;
           needs_met cp.cp_needs.(it.cyc) 0
         end)
      && needs_ready p cp rest

(* Deliver the extcall results due at the iteration's cycle: the view
   takes the model's word as returned, the architectural register its
   wrapped value. *)
let deliver_pending (p : pr) ii it =
  it.pending <-
    List.filter
      (fun (r, v, due) ->
        if due <= it.cyc then begin
          iter_set it r v;
          if it.cyc <= ii - 1 then set_word p.regs r (wrap_word p.reg_wrap.(r) v);
          false
        end
        else true)
      it.pending

(* Advance the in-flight iterations by one cycle, oldest first. *)
let rec advance (p : pr) (cp : cpipe) ii = function
  | [] -> ()
  | it :: rest ->
      (match it.pending with [] -> () | _ -> deliver_pending p ii it);
      p.cur <- it;
      run_ops cp.cp_ops.(it.cyc);
      it.cyc <- it.cyc + 1;
      advance p cp ii rest

let rec any_done depth = function
  | [] -> false
  | it :: rest -> it.cyc >= depth || any_done depth rest

let step_pipe t (p : pr) (rt : pipe_rt) =
  let cp = rt.cp in
  let pipe = cp.cp_pipe in
  (* 1. stall check: every stream op due this cycle must be ready *)
  if not (needs_ready p cp rt.inflight) then false
  else begin
    let ii = pipe.Fsmd.ii in
    (* 2. advance in-flight iterations, oldest first *)
    advance p cp ii rt.inflight;
    (* 3. retire completed iterations (oldest first), flushing contexts *)
    if any_done pipe.Fsmd.depth rt.inflight then begin
      let retired, live = List.partition (fun it -> it.cyc >= pipe.Fsmd.depth) rt.inflight in
      List.iter
        (fun it ->
          List.iter
            (fun r -> if flag it.written r then Hashtbl.replace rt.final_writes r (word it.vals r))
            it.wlist;
          rt.latencies <- (t.cycle - it.issued_at) :: rt.latencies)
        retired;
      rt.inflight <- live
    end;
    (* 4. issue a new iteration when the slot opens *)
    if rt.countdown > 0 then rt.countdown <- rt.countdown - 1;
    if (not rt.done_issuing) && rt.countdown = 0 then begin
      run_issue_block t p cp.cp_cond;
      let go = truth (ov_get p.ov p.regs pipe.Fsmd.cond) in
      ov_clear p.ov;
      if go then begin
        let it =
          {
            vals = Bytes.copy p.regs;
            written = Bytes.make p.nregs '\000';
            wlist = [];
            cyc = 0;
            issued_at = t.cycle;
            pending = [];
          }
        in
        rt.inflight <- rt.inflight @ [ it ];
        rt.issue_times <- t.cycle :: rt.issue_times;
        run_issue_block t p cp.cp_step;
        ov_clear p.ov;
        rt.countdown <- ii
      end
      else rt.done_issuing <- true
    end;
    (* 5. drained? *)
    if rt.done_issuing && rt.inflight = [] then begin
      Hashtbl.iter (fun r v -> set_word p.regs r (wrap_word p.reg_wrap.(r) v)) rt.final_writes;
      (* record stats *)
      let issues = List.length rt.issue_times in
      let times = List.rev rt.issue_times in
      let ii_measured =
        match times with
        | [] | [ _ ] -> float_of_int ii
        | first :: _ ->
            let last = List.nth times (issues - 1) in
            float_of_int (last - first) /. float_of_int (issues - 1)
      in
      let latency_measured =
        List.fold_left Stdlib.max 0 rt.latencies
      in
      if cp.cp_stats_idx < Array.length t.pipe_stats then
        t.pipe_stats.(cp.cp_stats_idx) <-
          {
            ps_proc = p.fsmd.Fsmd.proc.Ir.name;
            ii_static = ii;
            depth_static = pipe.Fsmd.depth;
            issues;
            ii_measured;
            latency_measured;
          };
      p.mode <- Seq;
      p.state <- pipe.Fsmd.exit_to;
      t.progressed <- true
    end;
    true
  end

(* --- Main loop ------------------------------------------------------------------ *)

let blocked_info t =
  List.filter_map
    (fun p -> match p.mode with Halted -> None | _ -> Some (p.fsmd.Fsmd.proc.Ir.name, p.state))
    (Array.to_list t.procs)

(* --- blocked-channel attribution ------------------------------------------- *)

(* Which channel op a stalled FSMD state is waiting on.  A state can
   only block on a stream read (empty FIFO) or a stream write (full
   FIFO); scan its ops for the first one.  Lets hang reports name the
   channel, not just a state id. *)
let blocked_channel (f : Fsmd.t) (state : int) : (string * [ `Read | `Write ]) option =
  if state < 0 || state >= Array.length f.Fsmd.states then None
  else
    List.find_map
      (fun (g : Ir.ginst) ->
        match g.Ir.i with
        | Ir.Sread { stream; _ } -> Some (stream, `Read)
        | Ir.Swrite { stream; _ } -> Some (stream, `Write)
        | _ -> None)
      f.Fsmd.states.(state).Fsmd.ops

let describe_blocked (fsmds : Fsmd.t list) (blocked : (string * int) list) : string list =
  List.map
    (fun (proc, state) ->
      let fallback = Printf.sprintf "%s blocked in state %d" proc state in
      match List.find_opt (fun (f : Fsmd.t) -> f.Fsmd.proc.Ir.name = proc) fsmds with
      | None -> fallback
      | Some f -> (
          match blocked_channel f state with
          | Some (s, `Read) ->
              Printf.sprintf "%s blocked reading stream \"%s\" (state %d)" proc s state
          | Some (s, `Write) ->
              Printf.sprintf "%s blocked writing stream \"%s\" (state %d)" proc s state
          | None -> fallback))
    blocked

(* Allocate the pipe-stats table once; [run] after a {!restore} (or a
   second [run_until] leg) must keep the restored contents. *)
let ensure_pipe_stats t =
  if Array.length t.pipe_stats <> t.npipes then
    t.pipe_stats <-
      Array.make t.npipes
        { ps_proc = ""; ii_static = 0; depth_static = 0; issues = 0; ii_measured = 0.0;
          latency_measured = 0 }

let undecided (outcome : outcome option ref) = match !outcome with None -> true | Some _ -> false

(* A loop, not [Array.for_all]: the stdlib's allocates a closure per
   call, and this runs every cycle. *)
let rec all_halted (procs : pr array) i =
  i >= Array.length procs
  || (match procs.(i).mode with Halted -> true | Seq | Pipe _ -> false)
     && all_halted procs (i + 1)

(* Execute one full clock cycle; sets [outcome] when the cycle decides
   the run.  The cycle counter advances unconditionally at the end, so
   [result.cycles] counts executed cycles exactly. *)
let exec_cycle (t : t) (outcome : outcome option ref) =
  t.activity <- false;
  t.progressed <- false;
  let taps_before = t.tap_count in
  (* 1. testbench feeds: at most one value per stream per cycle *)
  for i = 0 to Array.length t.feed_arr - 1 do
    let fd = t.feed_arr.(i) in
    match !(fd.fd_left) with
    | [] -> ()
    | v :: rest ->
        let f = resolved fd.fd_stream fd.fd_fifo in
        if Fifo.can_push f then begin
          Fifo.push f (wrap_word fd.fd_elem v);
          fd.fd_left := rest;
          t.activity <- true;
          t.progressed <- true
        end
  done;
  (* 2. hardware processes *)
  for i = 0 to Array.length t.procs - 1 do
    let p = t.procs.(i) in
    (* deliver due extcall results *)
    (match p.ext_pending with
    | [] -> ()
    | pending ->
        p.ext_pending <-
          List.filter
            (fun (r, v, due) ->
              if due <= t.cycle then begin
                let v' = wrap_word p.reg_wrap.(r) v in
                if word p.regs r <> v' then t.progressed <- true;
                set_word p.regs r v';
                false
              end
              else true)
            pending);
    match p.mode with
    | Halted -> ()
    | Seq -> if step_seq t p then t.activity <- true
    | Pipe rt -> if step_pipe t p rt then t.activity <- true
  done;
  (* 3. checker failure words whose latency elapsed *)
  (match t.pending_failures with
  | [] -> ()
  | pending ->
      let due, later = List.partition (fun (d, _, _) -> d <= t.cycle) pending in
      t.pending_failures <- later;
      List.iter
        (fun (_, channel, word) ->
          let f = resolved channel (Hashtbl.find_opt t.fifos channel) in
          if Fifo.can_push f then begin
            Fifo.push f word;
            t.activity <- true;
            t.progressed <- true
          end
          else (* channel busy: retry next cycle (round-robin backpressure) *)
            t.pending_failures <- (t.cycle + 1, channel, word) :: t.pending_failures)
        due);
  (* 3b. expired timing assertions *)
  (match t.deadlines with
  | [] -> ()
  | deadlines ->
      let expired, live = List.partition (fun (_, expiry) -> expiry <= t.cycle) deadlines in
      t.deadlines <- live;
      List.iter
        (fun ((tc : timing_check), _) ->
          t.timing_violations <- (tc.tc_name, t.cycle) :: t.timing_violations;
          if (not tc.soft) && undecided outcome then
            outcome :=
              Some
                (Aborted
                   (Printf.sprintf
                      "timing assertion `%s' failed: tap %d not reached within %d cycles"
                      tc.tc_name tc.to_tap tc.budget)))
        expired);
  (* 4. end of cycle: commit fifos and brams *)
  for i = 0 to Array.length t.fifo_arr - 1 do
    Fifo.commit t.fifo_arr.(i)
  done;
  for i = 0 to Array.length t.bram_arr - 1 do
    Bram.commit t.bram_arr.(i)
  done;
  (* 4b. waveform sampling *)
  (match t.tracer with
  | Some (tr, per_proc) ->
      List.iter
        (fun ((p : pr), state_sig, reg_sigs) ->
          Trace.sample tr state_sig ~cycle:t.cycle (Int64.of_int p.state);
          List.iter (fun (r, s) -> Trace.sample tr s ~cycle:t.cycle (word p.regs r)) reg_sigs)
        per_proc
  | None -> ());
  (* 5. CPU side: notification handlers (every poll interval, modelling
     streaming vs DMA-mailbox transports), then testbench drains *)
  let poll = t.cfg.host_poll_interval in
  if poll <= 1 || t.cycle mod poll = 0 then
    for i = 0 to Array.length t.handler_arr - 1 do
      let fifo, s, handler = t.handler_arr.(i) in
      let f = resolved s fifo in
      while Fifo.can_pop f && undecided outcome do
        t.activity <- true;
        t.progressed <- true;
        match handler (Fifo.pop f) with
        | `Ok -> ()
        | `Abort msg ->
            t.host_log <- msg :: t.host_log;
            outcome := Some (Aborted msg)
      done
    done;
  for i = 0 to Array.length t.drain_arr - 1 do
    let dr = t.drain_arr.(i) in
    let f = resolved dr.dr_stream dr.dr_fifo in
    while Fifo.can_pop f do
      t.activity <- true;
      t.progressed <- true;
      dr.dr_acc := Fifo.pop f :: !(dr.dr_acc)
    done
  done;
  (* 6. termination / hang detection *)
  if undecided outcome then begin
    let all_halted = all_halted t.procs 0 in
    let handler_data_pending =
      t.cfg.host_poll_interval > 1
      && Array.exists (fun (fifo, s, _) -> Fifo.can_pop (resolved s fifo)) t.handler_arr
    in
    let no_failures = match t.pending_failures with [] -> true | _ -> false in
    let no_deadlines = match t.deadlines with [] -> true | _ -> false in
    if all_halted && no_failures && not handler_data_pending then outcome := Some Finished
    else if (not t.activity) && no_failures && no_deadlines && not handler_data_pending then
      (* outstanding timing assertions keep the clock running so a hang
         is reported as the timing failure it is *)
      outcome := Some (Hang (blocked_info t))
    else begin
      (* live-lock watchdog: the FSMs are busy (activity) but no
         architectural value has changed for a whole window — a spin
         that would otherwise only surface as Out_of_cycles after the
         full budget.  Outstanding deadlines keep it at bay so timing
         assertions report first. *)
      if t.progressed || t.tap_count > taps_before then t.last_progress <- t.cycle;
      match t.cfg.watchdog with
      | Some n when no_deadlines && t.cycle - t.last_progress >= n ->
          outcome := Some (Livelock (blocked_info t))
      | _ -> ()
    end
  end;
  t.cycle <- t.cycle + 1

(* Cycles executed by every engine of the process, added once per
   [run] / [run_until] call so the cycle loop itself stays atomic-free. *)
let executed = Atomic.make 0

let executed_cycles () = Atomic.get executed

let run_loop t ~stop (outcome : outcome option ref) =
  let from = t.cycle in
  (try
     while undecided outcome && not (stop ()) do
       if t.cycle >= t.cfg.max_cycles then outcome := Some Out_of_cycles
       else exec_cycle t outcome
     done
   with
  | Sim_failure msg -> outcome := Some (Sim_error msg)
  | Abort_sim msg -> outcome := Some (Aborted msg));
  (* a step cut short by an exception leaves its overlay staged *)
  Array.iter (fun (p : pr) -> ov_clear p.ov) t.procs;
  ignore (Atomic.fetch_and_add executed (t.cycle - from))

(** Run forward until the start of [cycle] (exclusive: cycles
    [0..cycle-1] have executed and committed).  Returns [Some outcome]
    if the design terminated first, [None] when paused at the target —
    the state is then exactly the start-of-cycle state a later {!run}
    continues from. *)
let run_until (t : t) ~cycle : outcome option =
  ensure_pipe_stats t;
  let outcome = ref None in
  run_loop t ~stop:(fun () -> t.cycle >= cycle) outcome;
  !outcome

let collect (t : t) (outcome : outcome) : result =
  let drained =
    Hashtbl.fold (fun s acc l -> (s, List.rev !acc) :: l) t.drained []
    |> List.sort compare
  in
  let port_violations =
    List.concat_map
      (fun p ->
        Hashtbl.fold
          (fun _ (b : Bram.t) acc ->
            if b.Bram.port_violations > 0 then (b.Bram.name, b.Bram.port_violations) :: acc
            else acc)
          p.brams [])
      (Array.to_list t.procs)
  in
  let wild =
    List.concat_map
      (fun p ->
        Hashtbl.fold
          (fun _ (b : Bram.t) acc ->
            if b.Bram.wild_accesses > 0 then (b.Bram.name, b.Bram.wild_accesses) :: acc
            else acc)
          p.brams [])
      (Array.to_list t.procs)
  in
  let fifo_stats =
    Hashtbl.fold
      (fun _ (f : Fifo.t) acc ->
        (f.Fifo.name, f.Fifo.pushes, f.Fifo.pops, f.Fifo.max_occupancy) :: acc)
      t.fifos []
    |> List.sort compare
  in
  {
    outcome;
    cycles = t.cycle;
    drained;
    host_log = List.rev t.host_log;
    pipes = Array.to_list t.pipe_stats;
    port_violations;
    wild_accesses = wild;
    fifo_stats;
    tap_events = t.tap_count;
    timing_violations = List.rev t.timing_violations;
    vcd = (match t.tracer with Some (tr, _) -> Some (Trace.to_vcd tr) | None -> None);
  }

let run (t : t) : result =
  ensure_pipe_stats t;
  let outcome = ref None in
  run_loop t ~stop:(fun () -> false) outcome;
  collect t (match !outcome with Some o -> o | None -> Finished)

let current_cycle t = t.cycle

(* --- Snapshots ----------------------------------------------------------------- *)

(* A deep, closure-free copy of all mutable engine state, suitable for
   Marshal (the campaign persists baseline snapshots in the artifact
   store).  Word stores are copied as [Bytes]; hash tables are
   flattened to sorted assoc lists so equal states produce structurally
   equal snapshots; the live [pipe_rt] is referenced by its index in
   the owning process's pipe table.  No compiled code is captured:
   [restore] re-attaches it. *)
type iter_snap = {
  isn_vals : Bytes.t;  (** the iteration's register view *)
  isn_written : Bytes.t;  (** its write flags *)
  isn_wlist : Ir.reg list;  (** the registers it wrote, sorted *)
  isn_cyc : int;
  isn_issued_at : int;
  isn_pending : (Ir.reg * int64 * int) list;
}

type pipe_snap = {
  psn_pipe : int;  (** index into the process's [Fsmd.pipes] *)
  psn_countdown : int;
  psn_done_issuing : bool;
  psn_inflight : iter_snap list;
  psn_issue_times : int list;
  psn_latencies : int list;
  psn_final_writes : (Ir.reg * int64) list;
}

type mode_snap = Snap_seq | Snap_pipe of pipe_snap | Snap_halted

type proc_snap = {
  sp_regs : Bytes.t;  (** register words *)
  sp_state : int;
  sp_mode : mode_snap;
  sp_brams : (string * Bram.t) list;  (** deep copies *)
  sp_ext_pending : (Ir.reg * int64 * int) list;
  sp_entry_taps_fired : bool;
}

type snapshot = {
  sn_cycle : int;
  sn_activity : bool;
  sn_progressed : bool;
  sn_last_progress : int;
  sn_tap_count : int;
  sn_pending_failures : (int * string * int64) list;
  sn_host_log : string list;
  sn_fifos : (string * Fifo.t) list;  (** deep copies *)
  sn_drained : (string * int64 list) list;  (** newest first, as stored *)
  sn_feeds_left : (string * int64 list) list;
  sn_procs : proc_snap list;  (** in [t.procs] order *)
  sn_pipe_stats : pipe_stats array;
  sn_deadlines : (timing_check * int) list;
  sn_timing_violations : (string * int) list;
}

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let snapshot (t : t) : snapshot =
  let snap_iter (it : iter) =
    {
      isn_vals = Bytes.copy it.vals;
      isn_written = Bytes.copy it.written;
      isn_wlist = List.sort_uniq compare (List.filter (flag it.written) it.wlist);
      isn_cyc = it.cyc;
      isn_issued_at = it.issued_at;
      isn_pending = it.pending;
    }
  in
  let snap_proc (p : pr) =
    let sp_mode =
      match p.mode with
      | Seq -> Snap_seq
      | Halted -> Snap_halted
      | Pipe rt ->
          Snap_pipe
            {
              psn_pipe = rt.pidx;
              psn_countdown = rt.countdown;
              psn_done_issuing = rt.done_issuing;
              psn_inflight = List.map snap_iter rt.inflight;
              psn_issue_times = rt.issue_times;
              psn_latencies = rt.latencies;
              psn_final_writes = sorted_bindings rt.final_writes;
            }
    in
    {
      sp_regs = Bytes.copy p.regs;
      sp_state = p.state;
      sp_mode;
      sp_brams =
        Hashtbl.fold (fun n b acc -> (n, Bram.copy b) :: acc) p.brams []
        |> List.sort compare;
      sp_ext_pending = p.ext_pending;
      sp_entry_taps_fired = p.entry_taps_fired;
    }
  in
  {
    sn_cycle = t.cycle;
    sn_activity = t.activity;
    sn_progressed = t.progressed;
    sn_last_progress = t.last_progress;
    sn_tap_count = t.tap_count;
    sn_pending_failures = t.pending_failures;
    sn_host_log = t.host_log;
    sn_fifos =
      Hashtbl.fold (fun n f acc -> (n, Fifo.copy f) :: acc) t.fifos []
      |> List.sort compare;
    sn_drained =
      Hashtbl.fold (fun s acc l -> (s, !acc) :: l) t.drained [] |> List.sort compare;
    sn_feeds_left =
      Hashtbl.fold (fun s vs l -> (s, !vs) :: l) t.feeds_left [] |> List.sort compare;
    sn_procs = Array.to_list (Array.map snap_proc t.procs);
    sn_pipe_stats = Array.copy t.pipe_stats;
    sn_deadlines = t.deadlines;
    sn_timing_violations = t.timing_violations;
  }

let mismatch what = raise (Sim_failure (Printf.sprintf "snapshot restore: %s mismatch" what))

(* A snapshot fits an engine built from the same design: the same
   streams at the same depths, and per process the same register file,
   memories and pipe table.  Checked before any state is touched. *)
let check_shape (t : t) (s : snapshot) =
  if List.length s.sn_fifos <> Hashtbl.length t.fifos then mismatch "stream count";
  List.iter
    (fun (n, (saved : Fifo.t)) ->
      match Hashtbl.find_opt t.fifos n with
      | Some f when f.Fifo.depth = saved.Fifo.depth -> ()
      | _ -> mismatch (Printf.sprintf "stream %s" n))
    s.sn_fifos;
  if Array.length t.procs <> List.length s.sn_procs then mismatch "process count";
  List.iteri
    (fun i (sp : proc_snap) ->
      let p = t.procs.(i) in
      let regs_fit vals = Bytes.length vals = Bytes.length p.regs in
      if not (regs_fit sp.sp_regs) then mismatch "register file";
      (match sp.sp_mode with
      | Snap_seq | Snap_halted -> ()
      | Snap_pipe ps ->
          if ps.psn_pipe < 0 || ps.psn_pipe >= Array.length p.cpipes then mismatch "pipe index";
          List.iter
            (fun isn ->
              if not (regs_fit isn.isn_vals && Bytes.length isn.isn_written = p.nregs) then
                mismatch "register file")
            ps.psn_inflight);
      if List.length sp.sp_brams <> Hashtbl.length p.brams then mismatch "memory count";
      List.iter
        (fun (n, (saved : Bram.t)) ->
          match Hashtbl.find_opt p.brams n with
          | Some b when Bytes.length b.Bram.data = Bytes.length saved.Bram.data -> ()
          | _ -> mismatch (Printf.sprintf "memory %s" n))
        sp.sp_brams)
    s.sn_procs

(* Restoring never aliases snapshot-owned words or tables, so one
   snapshot can seed any number of runs.  FIFOs and BRAMs are restored
   in place, so the compiled code's references to them stay valid; the
   feed and drain tables may get new refs, so their resolved arrays are
   derived again. *)
let restore (t : t) (s : snapshot) =
  check_shape t s;
  t.cycle <- s.sn_cycle;
  t.activity <- s.sn_activity;
  t.progressed <- s.sn_progressed;
  t.last_progress <- s.sn_last_progress;
  t.tap_count <- s.sn_tap_count;
  t.pending_failures <- s.sn_pending_failures;
  t.host_log <- s.sn_host_log;
  List.iter (fun (n, saved) -> Fifo.restore (Hashtbl.find t.fifos n) ~saved) s.sn_fifos;
  List.iter
    (fun (n, l) ->
      match Hashtbl.find_opt t.drained n with
      | Some r -> r := l
      | None -> Hashtbl.replace t.drained n (ref l))
    s.sn_drained;
  derive_drains t;
  Hashtbl.reset t.feeds_left;
  List.iter (fun (n, l) -> Hashtbl.replace t.feeds_left n (ref l)) s.sn_feeds_left;
  derive_feeds t;
  List.iteri
    (fun i (sp : proc_snap) ->
      let p = t.procs.(i) in
      Bytes.blit sp.sp_regs 0 p.regs 0 (Bytes.length p.regs);
      p.state <- sp.sp_state;
      ov_clear p.ov;
      (match sp.sp_mode with
      | Snap_seq -> p.mode <- Seq
      | Snap_halted -> p.mode <- Halted
      | Snap_pipe ps ->
          enter_pipe p ps.psn_pipe;
          (match p.mode with
          | Pipe rt ->
              List.iter (fun (r, v) -> Hashtbl.replace rt.final_writes r v) ps.psn_final_writes;
              rt.countdown <- ps.psn_countdown;
              rt.done_issuing <- ps.psn_done_issuing;
              rt.issue_times <- ps.psn_issue_times;
              rt.latencies <- ps.psn_latencies;
              rt.inflight <-
                List.map
                  (fun isn ->
                    {
                      vals = Bytes.copy isn.isn_vals;
                      written = Bytes.copy isn.isn_written;
                      wlist = isn.isn_wlist;
                      cyc = isn.isn_cyc;
                      issued_at = isn.isn_issued_at;
                      pending = isn.isn_pending;
                    })
                  ps.psn_inflight
          | Seq | Halted -> assert false));
      List.iter (fun (n, saved) -> Bram.restore (Hashtbl.find p.brams n) ~saved) sp.sp_brams;
      p.ext_pending <- sp.sp_ext_pending;
      p.entry_taps_fired <- sp.sp_entry_taps_fired)
    s.sn_procs;
  t.pipe_stats <- Array.copy s.sn_pipe_stats;
  t.deadlines <- s.sn_deadlines;
  t.timing_violations <- s.sn_timing_violations

(* Patch named registers in place (same binding shape as [cfg.params]).
   Used to arm padded fault sites after a restore: the fault registers
   are never written by the program, but pipelined iterations in flight
   hold frozen register copies — patch those too. *)
let arm (t : t) (params : (string * (string * int64) list) list) =
  Array.iter
    (fun (p : pr) ->
      match List.assoc_opt p.fsmd.Fsmd.proc.Ir.name params with
      | None -> ()
      | Some bindings ->
          List.iter
            (fun (r, (info : Ir.reg_info)) ->
              match info.Ir.origin with
              | Some name -> (
                  match List.assoc_opt name bindings with
                  | Some v ->
                      let v' = Value.wrap_ty info.Ir.rty v in
                      set_word p.regs r v';
                      (match p.mode with
                      | Pipe rt ->
                          List.iter
                            (fun it ->
                              set_word it.vals r v';
                              clear_flag it.written r)
                            rt.inflight
                      | _ -> ())
                  | None -> ())
              | None -> ())
            p.fsmd.Fsmd.proc.Ir.regs)
    t.procs

(** Convenience: build and run in one call. *)
let simulate ?cfg ~streams ~fsmds ?(checkers = []) () =
  run (create ?cfg ~streams ~fsmds ~checkers ())
