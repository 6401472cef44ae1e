(** Cycle-accurate stream FIFO.

    Writes performed during a cycle become visible to readers one cycle
    later (the FIFO is registered, as an M4K-based scfifo is): [push]
    stages the value and [commit] — called once at the end of every
    simulation cycle — makes staged values visible.  Occupancy
    statistics feed the paper-style overhead reports.

    The storage is a ring of [depth] 64-bit words, laid out like
    [Bmc.Model]'s symbolic FIFO: the committed values start at [head],
    and the staged ones follow them at [head + count]. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

type t = {
  name : string;
  depth : int;
  ring : Bytes.t;
  mutable head : int;
  mutable count : int;
  mutable staged : int;
  mutable pushes : int;
  mutable pops : int;
  mutable max_occupancy : int;
}

let create ~name ~depth =
  {
    name;
    depth;
    ring = Bytes.make (8 * Stdlib.max depth 0) '\000';
    head = 0;
    count = 0;
    staged = 0;
    pushes = 0;
    pops = 0;
    max_occupancy = 0;
  }

let occupancy f = f.count + f.staged

let can_push f = f.count + f.staged < f.depth

let can_pop f = f.count > 0

(* Ring index of the [k]-th value from the head, k < depth. *)
let slot f k =
  let i = f.head + k in
  8 * (if i >= f.depth then i - f.depth else i)

let push f v =
  if not (can_push f) then invalid_arg (Printf.sprintf "Fifo.push: %s full" f.name);
  set64 f.ring (slot f (f.count + f.staged)) v;
  f.staged <- f.staged + 1;
  f.pushes <- f.pushes + 1

let pop f =
  if f.count = 0 then invalid_arg (Printf.sprintf "Fifo.pop: %s empty" f.name);
  let v = get64 f.ring (8 * f.head) in
  f.head <- (if f.head + 1 = f.depth then 0 else f.head + 1);
  f.count <- f.count - 1;
  f.pops <- f.pops + 1;
  v

let peek f = if f.count = 0 then None else Some (get64 f.ring (8 * f.head))

(** End-of-cycle: staged values become visible.  With nothing staged the
    committed count cannot exceed its value at the last commit, so the
    occupancy high-water mark stands. *)
let commit f =
  if f.staged > 0 then begin
    f.count <- f.count + f.staged;
    f.staged <- 0;
    if f.count > f.max_occupancy then f.max_occupancy <- f.count
  end

(** Values still enqueued (visible ones first). *)
let contents f = List.init (f.count + f.staged) (fun k -> get64 f.ring (slot f k))

(** Deep copy (for engine snapshots). *)
let copy f = { f with ring = Bytes.copy f.ring }

(** Overwrite [f]'s state with [saved]'s; [saved] is left untouched. *)
let restore f ~saved =
  if saved.depth <> f.depth then
    invalid_arg (Printf.sprintf "Fifo.restore: %s depth %d, saved %d" f.name f.depth saved.depth);
  Bytes.blit saved.ring 0 f.ring 0 (Bytes.length f.ring);
  f.head <- saved.head;
  f.count <- saved.count;
  f.staged <- saved.staged;
  f.pushes <- saved.pushes;
  f.pops <- saved.pops;
  f.max_occupancy <- saved.max_occupancy
