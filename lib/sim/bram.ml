(** Cycle-accurate block RAM.

    The physical array is padded to the next power of two and addresses
    wrap (the address bus has a fixed width): an out-of-range C index
    silently reads or clobbers padding — the hardware behaviour behind
    the paper's Figure 3 bug, where a negative index that the software
    simulator clamps becomes a wild in-circuit access.

    Reads return pre-cycle contents; stores are staged and applied by
    [commit] at the end of the cycle (mixed-port read-during-write on a
    Stratix-II returns old data).  Per-cycle port usage is tracked so
    the engine can verify the scheduler's port guarantees at runtime.

    Contents and staged values are 64-bit words in [Bytes]; the staged
    writes are a growable (address, word) array in program order. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

type t = {
  name : string;
  logical_length : int;
  data : Bytes.t;  (* padded to a power of two, one word per cell *)
  mask : int;
  ports : int;
  mutable staged_addr : int array;
  mutable staged_word : Bytes.t;
  mutable nstaged : int;
  mutable accesses_this_cycle : int;
  mutable port_violations : int;
  mutable reads : int;
  mutable writes : int;
  mutable wild_accesses : int;  (* accesses outside the logical length *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(init = []) ~name ~length ~ports () =
  let phys = next_pow2 (max length 1) in
  let data = Bytes.make (8 * phys) '\000' in
  List.iteri (fun i v -> if i < phys then set64 data (8 * i) v) init;
  {
    name;
    logical_length = length;
    data;
    mask = phys - 1;
    ports;
    staged_addr = [||];
    staged_word = Bytes.empty;
    nstaged = 0;
    accesses_this_cycle = 0;
    port_violations = 0;
    reads = 0;
    writes = 0;
    wild_accesses = 0;
  }

let wrap_addr t (addr : int64) = Int64.to_int addr land t.mask

let note_access t addr =
  t.accesses_this_cycle <- t.accesses_this_cycle + 1;
  if t.accesses_this_cycle > t.ports then t.port_violations <- t.port_violations + 1;
  if addr >= t.logical_length then t.wild_accesses <- t.wild_accesses + 1

(** Synchronous read: returns the pre-cycle value at the wrapped address. *)
let read t addr =
  let a = wrap_addr t addr in
  note_access t a;
  t.reads <- t.reads + 1;
  get64 t.data (8 * a)

let reserve t n =
  let cap = Array.length t.staged_addr in
  if n > cap then begin
    let cap' = Stdlib.max (Stdlib.max n 4) (2 * cap) in
    let addr' = Array.make cap' 0 and word' = Bytes.create (8 * cap') in
    Array.blit t.staged_addr 0 addr' 0 t.nstaged;
    Bytes.blit t.staged_word 0 word' 0 (8 * t.nstaged);
    t.staged_addr <- addr';
    t.staged_word <- word'
  end

let stage t a v =
  reserve t (t.nstaged + 1);
  t.staged_addr.(t.nstaged) <- a;
  set64 t.staged_word (8 * t.nstaged) v;
  t.nstaged <- t.nstaged + 1;
  t.writes <- t.writes + 1

(** Stage a write; applied at [commit]. *)
let write t addr v =
  let a = wrap_addr t addr in
  note_access t a;
  stage t a v

(** Mirror write (resource replication, Section 3.2): uses the replica's
    dedicated write port, so it does not count against [ports]. *)
let mirror_write t addr v = stage t (wrap_addr t addr) v

(* Staged writes apply in program order, so the last write to an
   address wins. *)
let commit t =
  for i = 0 to t.nstaged - 1 do
    set64 t.data (8 * t.staged_addr.(i)) (get64 t.staged_word (8 * i))
  done;
  t.nstaged <- 0;
  t.accesses_this_cycle <- 0

(** Direct (testbench) access, no port accounting. *)
let peek t i = get64 t.data (8 * wrap_addr t (Int64.of_int i))
let poke t i v = set64 t.data (8 * wrap_addr t (Int64.of_int i)) v

(** Deep copy (for engine snapshots); the staging keeps only the
    pending writes. *)
let copy t =
  {
    t with
    data = Bytes.copy t.data;
    staged_addr = Array.sub t.staged_addr 0 t.nstaged;
    staged_word = Bytes.sub t.staged_word 0 (8 * t.nstaged);
  }

(** Overwrite [t]'s state with [saved]'s; [saved] is left untouched. *)
let restore t ~saved =
  if Bytes.length saved.data <> Bytes.length t.data then
    invalid_arg (Printf.sprintf "Bram.restore: %s size mismatch" t.name);
  Bytes.blit saved.data 0 t.data 0 (Bytes.length t.data);
  t.nstaged <- 0;
  reserve t saved.nstaged;
  Array.blit saved.staged_addr 0 t.staged_addr 0 saved.nstaged;
  Bytes.blit saved.staged_word 0 t.staged_word 0 (8 * saved.nstaged);
  t.nstaged <- saved.nstaged;
  t.accesses_this_cycle <- saved.accesses_this_cycle;
  t.port_violations <- saved.port_violations;
  t.reads <- saved.reads;
  t.writes <- saved.writes;
  t.wild_accesses <- saved.wild_accesses
