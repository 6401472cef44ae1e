(** Cycle-accurate stream FIFO.

    Writes performed during a cycle become visible to readers one cycle
    later (the FIFO is registered, as an M4K-based scfifo is): {!push}
    stages the value and {!commit} — called once at the end of every
    simulation cycle — makes staged values visible.  Occupancy
    statistics feed the paper-style overhead reports.

    The values live in a ring of [depth] 64-bit words (native byte
    order): [count] committed values from [head], then [staged] values
    pushed this cycle. *)

type t = {
  name : string;
  depth : int;                   (** capacity in elements *)
  ring : Bytes.t;                (** [depth] words *)
  mutable head : int;            (** ring index of the oldest committed value *)
  mutable count : int;           (** committed (visible) values *)
  mutable staged : int;          (** values pushed this cycle *)
  mutable pushes : int;
  mutable pops : int;
  mutable max_occupancy : int;
}

val create : name:string -> depth:int -> t

(** Committed plus staged element count. *)
val occupancy : t -> int

(** True when a push would not overflow [depth] (staged included). *)
val can_push : t -> bool

(** True when a committed value is available to pop. *)
val can_pop : t -> bool

(** Stage a value for the end of this cycle.
    @raise Invalid_argument when full. *)
val push : t -> int64 -> unit

(** Pop the oldest committed value.
    @raise Invalid_argument when empty. *)
val pop : t -> int64

val peek : t -> int64 option

(** End of cycle: staged values become visible; occupancy statistics
    update.  Returns at once when nothing is staged. *)
val commit : t -> unit

(** Values still enqueued, oldest first (committed before staged). *)
val contents : t -> int64 list

(** Deep copy (engine snapshots). *)
val copy : t -> t

(** Overwrite a live FIFO's state from a saved copy; the copy is left
    untouched, so one snapshot can seed many restores.
    @raise Invalid_argument when the depths differ. *)
val restore : t -> saved:t -> unit
