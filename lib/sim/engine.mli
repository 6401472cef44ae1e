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

type host_action = [ `Abort of string | `Ok ]

(** Timing assertion (the paper's future work, Section 6): whenever tap
    [from_tap] fires, tap [to_tap] must fire within [budget] cycles.
    With [from_tap = to_tap] it bounds the interval between consecutive
    firings.  Violations halt the run unless [soft]. *)
type timing_check = {
  tc_name : string;
  from_tap : int;
  to_tap : int;
  budget : int;
  soft : bool;
}

type config = {
  max_cycles : int;
  feeds : (string * int64 list) list;  (** testbench input, one value/cycle *)
  drains : string list;                (** streams collected by the testbench *)
  handlers : (string * (int64 -> host_action)) list;
      (** CPU-side stream consumers, run at end of cycle *)
  hw_models : (string * (int64 list -> int64)) list;
      (** hardware behaviour of external HDL functions *)
  params : (string * (string * int64) list) list;
      (** per-process initial values of named registers *)
  timing_checks : timing_check list;
  trace : bool;  (** capture a VCD waveform (the SignalTap view) *)
  host_poll_interval : int;
      (** cycles between host handler runs: 1 models an Impulse-C
          streaming bridge; larger values model a Carte-C style DMA
          mailbox the CPU polls (paper Section 4.3) *)
  watchdog : int option;
      (** live-lock watchdog: when [Some n], stop with {!Livelock} after
          [n] consecutive cycles of no forward progress — no stream
          push/pop, no tap event, no register/memory value change, no
          process halting.  Catches spinning loops (the Triple-DES hang)
          in thousands rather than millions of cycles. *)
  on_tap : (int -> int -> int64 array -> unit) option;
      (** external tap observer, called as [f cycle id values] on every
          tap execution before the checkers evaluate — lets a model
          checker compare its predicted fire schedule against the
          engine cycle for cycle *)
  on_site : (int -> int -> unit) option;
      (** fault-site activity observer, called as [f cycle site] when a
          marker tap with id [Mir.Ir.marker_base + site] executes.  Markers
          bypass checkers, deadlines and the watchdog's tap count. *)
}

val default_config : config

type pipe_stats = {
  ps_proc : string;
  ii_static : int;
  depth_static : int;
  issues : int;
  ii_measured : float;        (** mean issue distance, measured *)
  latency_measured : int;     (** worst iteration latency, measured *)
}

type outcome =
  | Finished
  | Hang of (string * int) list  (** blocked processes and their state ids *)
  | Livelock of (string * int) list
      (** watchdog verdict: these processes kept cycling with no forward
          progress for the configured window (spinning process, state) *)
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
  fifo_stats : (string * int * int * int) list;
      (** name, pushes, pops, max occupancy *)
  tap_events : int;
  timing_violations : (string * int) list;
      (** timing-assertion name and expiry cycle *)
  vcd : string option;  (** waveform dump when [trace] was enabled *)
}

type t

exception Abort_sim of string
exception Sim_failure of string

val create :
  ?cfg:config ->
  streams:Front.Ast.stream_decl list ->
  fsmds:Hls.Fsmd.t list ->
  checkers:checker list ->
  unit ->
  t

(** Run to completion (or hang / abort / cycle budget). *)
val run : t -> result

(** Which channel op FSMD state [state] waits on: the first stream
    read/write among the state's ops, or [None] for a state that cannot
    block on a channel.  Hang reports use it to name the blocking
    channel instead of a bare state id. *)
val blocked_channel : Hls.Fsmd.t -> int -> (string * [ `Read | `Write ]) option

(** One "proc blocked reading stream \"s\" (state N)" line per blocked
    (process, state) pair of a {!Hang} outcome, falling back to the bare
    state id when the state holds no channel op. *)
val describe_blocked : Hls.Fsmd.t list -> (string * int) list -> string list

(** Run forward until the start of [cycle] (cycles [0..cycle-1] have
    executed and committed).  Returns [Some outcome] if the design
    terminated first, [None] when paused at the target; a later {!run}
    (or {!run_until}) continues from exactly that state. *)
val run_until : t -> cycle:int -> outcome option

(** Cycles executed so far. *)
val current_cycle : t -> int

(** Cycles executed by every engine of this process so far, summed once
    per {!run} / {!run_until} call: a deterministic measure of
    simulation work, independent of host speed. *)
val executed_cycles : unit -> int

(** A deep, closure-free copy of all mutable engine state — safe to
    [Marshal] and to restore any number of times.  Snapshots only make
    sense against an engine built from the same streams/FSMDs/config
    shape (tracing engines are not supported). *)
type snapshot

val snapshot : t -> snapshot

(** Overwrite the engine's state with the snapshot's.  The snapshot is
    never aliased: one snapshot can seed many runs.  The snapshot's
    shape is checked before any state is touched: stream names and
    depths, process count, register files, BRAM names and sizes, and
    the pipe index.
    @raise Sim_failure ["snapshot restore: ... mismatch"] when the
    snapshot comes from another design. *)
val restore : t -> snapshot -> unit

(** [arm t params] patches named registers in place, using the same
    [(process, (origin_name, value) list)] binding shape as
    [cfg.params].  Pipelined iterations in flight have their frozen
    register copies patched too — intended for fault-pad registers,
    which the program itself never writes. *)
val arm : t -> (string * (string * int64) list) list -> unit

(** [simulate] = {!create} + {!run}. *)
val simulate :
  ?cfg:config ->
  streams:Front.Ast.stream_decl list ->
  fsmds:Hls.Fsmd.t list ->
  ?checkers:checker list ->
  unit ->
  result
