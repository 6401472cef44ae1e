(** Fault injection: the hardware-translation bugs of the paper's
    Section 5.1 as IR-to-IR rewrites applied between lowering and
    scheduling.  The software-simulation path interprets the *source*,
    so it never sees these faults — recreating the paper's headline
    scenario: assertions pass in software simulation and fail (or expose
    a hang) only in circuit.

    What a fault site is, and how the sites of a kind are numbered, is
    decided in one place, {!walk}; every consumer of sites goes through
    it. *)

(** Which matching site to corrupt (0-based occurrence index). *)
type selector = All | Nth of int

type t =
  | Narrow_compare of { fproc : string; select : selector; mask_bits : int }
      (** Figure 3: a 64-bit comparison compiled as a [mask_bits]-bit
          comparison, so 4294967286 > 4294967296 becomes 22 > 0 *)
  | Read_for_write of { fproc : string; select : selector }
      (** the Triple-DES hang: a block-RAM store translated as a read *)
  | Stuck_stream_bit of {
      fproc : string;
      stream : string;
      select : selector;
      bit : int;
      stuck_to : bool;
    }
      (** a stream-write datapath bit wired to a constant: the value
          written to [stream] has [bit] forced to [stuck_to] *)
  | Drop_stream_write of { fproc : string; stream : string; select : selector }
      (** the FIFO write-enable never asserts: the selected write to
          [stream] is silently dropped while the FSM still advances *)
  | Loop_bound_off_by_one of { fproc : string; select : selector; delta : int64 }
      (** a mistranslated trip count: the selected loop's bound
          comparison sees the bound shifted by [delta] *)

(** Short kind name ("narrow-compare", "read-for-write", …) for campaign
    report rows. *)
val kind_name : t -> string

(** One-line human-readable description of a concrete fault. *)
val describe : t -> string

(** {2 Fault sites}

    {!walk} is the one definition of a fault site.  {!sites},
    {!apply}, {!instrument_all} and {!Prefilter}'s observation table
    all number sites with it, so [Nth k] names the same instruction in
    each.  A process is walked once per {!pass}, in {!passes} order:
    64-bit ordering compares, application stores (stores into an
    optimizer-made replica memory are no site), the writes to each
    stream in turn (streams in declaration order, each numbered from 0),
    then loops.  A segment pass numbers sites in body order, except
    that an [if] is visited else branch, then branch, condition block,
    and a loop step block, body, condition block.  The loop pass numbers
    every loop pre-order (else branch before then branch); a loop's
    site is the first ordering compare defining its condition register,
    and a loop without one keeps its number but has no site.  Walk the
    baseline-strategy IR: the rules keep each ordinal naming the same
    source construct under the instrumented strategies. *)

type pass =
  | Compares  (** 64-bit ordering compares: narrow-compare sites *)
  | Stores  (** application stores: read-for-write sites *)
  | Writes of string  (** writes to one stream: stuck-bit and drop-write sites *)
  | Loops  (** loop bound compares: off-by-one sites *)

(** The passes over a process, in site-list order. *)
val passes : Mir.Ir.program_ir -> pass list

(** [walk pass p f] calls [f k g] on each site instruction [g] of the
    pass in [p]'s body, [k] its ordinal, and returns the body with each
    site replaced by the instructions [f] returns. *)
val walk :
  pass -> Mir.Ir.proc_ir -> (int -> Mir.Ir.ginst -> Mir.Ir.ginst list) -> Mir.Ir.body

(** The process, pass and selector a fault targets. *)
val target : t -> string * pass * selector

(** Every candidate fault of a lowered program, as [Nth]-selected
    single-site faults, over every pass of every hardware process.  Each
    site carries: a 5-bit narrow compare; a read-for-write; for a stream
    write, bit [max 1 (width/2) - 1] stuck at 1, bit 0 stuck at 0 and a
    dropped write; for a loop, its bound [+1] and [-1]. *)
val sites : Mir.Ir.program_ir -> t list

(** Apply one fault to a program IR (processes other than the target are
    untouched): the legacy rewrite of each selected site. *)
val apply : t -> Mir.Ir.program_ir -> Mir.Ir.program_ir

val apply_all : t list -> Mir.Ir.program_ir -> Mir.Ir.program_ir

(** {2 Padded instrumentation (split-stream evaluation)}

    For fork-point mutant evaluation the campaign compiles one design
    per (workload, strategy) with {e every} fault site padded
    simultaneously, instead of one design per mutant.  Each pad is
    parameterized by fresh origin-named registers the program never
    writes: with all parameters at their reset value 0 every pad is an
    arithmetic identity (the padded design behaves exactly like the
    original), and arming a single site — patching its registers via
    {!Sim.Engine.arm} — reproduces the corresponding legacy rewrite's
    semantics.  A marker tap ([Mir.Ir.marker_base] + site index) placed
    ahead of each site reports first-activation cycles through the
    engine's [on_site] hook. *)

type site = {
  s_index : int;  (** global site index; marker id = base + index *)
  s_fault : t;    (** the equivalent legacy single-site fault *)
  s_proc : string;
  s_arm : (string * int64) list;
      (** origin-name register bindings (within [s_proc]) arming this
          mutant in the padded design *)
  s_padded : bool;
      (** false when the site could not be padded (e.g. an already-
          guarded instruction): evaluate it via the legacy path *)
}

type instrumented = {
  ip_prog : Mir.Ir.program_ir;  (** the padded program, all pads neutral *)
  ip_sites : site list;         (** in {!sites} enumeration order *)
}

(** Pad every fault site of the program at once.  [ip_sites] lists the
    sites in the exact order (and count) of {!sites} on the same IR.  A
    guarded store, stream write or loop compare stays unpadded
    ([s_padded = false]); a compare is padded guarded or not. *)
val instrument_all : Mir.Ir.program_ir -> instrumented
