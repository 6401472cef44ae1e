(** Cycle-accurate block RAM.

    The physical array is padded to the next power of two and addresses
    wrap (the address bus has a fixed width): an out-of-range C index
    silently reads or clobbers padding — the hardware behaviour behind
    the paper's Figure 3 bug.  Reads return pre-cycle contents; stores
    are staged and applied by {!commit} (mixed-port read-during-write on
    a Stratix-II returns old data).  Per-cycle port usage is tracked so
    the engine can verify the scheduler's port guarantees at runtime.
    Cells and staged values are 64-bit words (native byte order). *)

type t = {
  name : string;
  logical_length : int;          (** the C array's declared length *)
  data : Bytes.t;                (** words, padded to a power of two *)
  mask : int;
  ports : int;
  mutable staged_addr : int array;  (** staged write addresses, program order *)
  mutable staged_word : Bytes.t;    (** their words *)
  mutable nstaged : int;            (** staged writes this cycle *)
  mutable accesses_this_cycle : int;
  mutable port_violations : int;
  mutable reads : int;
  mutable writes : int;
  mutable wild_accesses : int;   (** accesses beyond [logical_length] *)
}

(** [create ?init ~name ~length ~ports ()] builds a RAM; [init] gives
    ROM contents (bitstream initialization). *)
val create : ?init:int64 list -> name:string -> length:int -> ports:int -> unit -> t

(** Synchronous read: pre-cycle value at the wrapped address; counts
    one port access. *)
val read : t -> int64 -> int64

(** Stage a write (applied at {!commit}); counts one port access. *)
val write : t -> int64 -> int64 -> unit

(** Replica mirror write (resource replication, Section 3.2): uses the
    replica's dedicated write port, so no port accounting. *)
val mirror_write : t -> int64 -> int64 -> unit

(** End of cycle: apply staged writes in program order (the last write
    to an address wins), reset the per-cycle port counter. *)
val commit : t -> unit

(** Testbench access without port accounting. *)
val peek : t -> int -> int64

val poke : t -> int -> int64 -> unit

(** Deep copy (engine snapshots). *)
val copy : t -> t

(** Overwrite a live RAM's state, staged writes included, from a saved
    copy; the copy is left untouched, so one snapshot can seed many
    restores.
    @raise Invalid_argument when the physical sizes differ. *)
val restore : t -> saved:t -> unit
