(** Dependence bookkeeping shared by the list scheduler ({!Schedule})
    and the modulo scheduler ({!Pipeline}).

    A slot is a state of a straight segment or a cycle of one pipelined
    iteration.  The schedulers walk instructions in program order, ask
    the tracker for each one's earliest legal slot, apply their own
    placement policy (exclusive states, ports, modulo reservations) and
    record the choice with {!place}.  The tracker knows operand
    availability, per-register last read and last write (the WAR floor),
    per-memory load/store order, the worst chain per slot, and the tap
    commit rule; it never knows which scheduler calls it. *)

type t

val create : unit -> t

(** First slot from the given one satisfying the predicate. *)
val first : (int -> bool) -> int -> int

(** Slot and chain end of a combinational instruction: it chains onto
    its operands within the budget, else starts afresh one slot later;
    [free] rejects slots the caller's policy rules out. *)
val alu_slot : t -> Mir.Ir.ginst -> free:(int -> bool) -> int * float

(** Earliest slot of a load or store: the address may chain into the
    access's slot; a load follows the memory's last store, and a store
    follows its last store and is not before its last load. *)
val mem_floor : t -> Mir.Ir.ginst -> int

(** Earliest slot of a stream handshake or external call: every operand
    registered, and a write not before the destination's last read nor
    at or before its last write (the WAR floor every placement obeys). *)
val issue_floor : t -> Mir.Ir.ginst -> int

(** The tap commit rule: a tap fires on the edge where its last operand
    commits — the operand's slot when it is chained in, the slot before
    when it is registered; an operand-less tap anchors to the last slot
    in use. *)
val tap_slot : t -> Mir.Ir.ginst -> int

(** Record an instruction at a slot: its op, its chain end [ns], its
    reads and write, and its memory order. *)
val place : t -> Mir.Ir.ginst -> int -> ns:float -> unit

(** [define d r s ns]: register [r]'s new value is available from slot
    [s] after [ns] of combinational delay (0 = registered). *)
val define : t -> Mir.Ir.reg -> int -> float -> unit

(** Count slots up to the given one as in use without placing an op
    (an external call's wait states). *)
val extend : t -> int -> unit

(** Last slot in use; -1 when none. *)
val horizon : t -> int

(** Ops placed at a slot, in program order. *)
val ops : t -> int -> Mir.Ir.ginst list

(** Worst chain end at a slot. *)
val chain : t -> int -> float

(** Does a slot hold an op other than a tap? *)
val busy : t -> int -> bool
