(** Modulo scheduling of pipelined loops ([#pragma pipeline]).

    The loop body is if-converted into a single predicated instruction
    stream, then scheduled at the smallest feasible initiation interval
    (II, the paper's "rate") subject to: block-RAM ports and stream
    handshakes per cycle class; loop-carried registers committing before
    the next issue; FIFO order across overlapped iterations; one-window
    memory access spans for written memories; and one extra handshake
    slot for every *guarded* (conditional) stream operation — the
    Impulse-C behaviour behind the paper's unoptimized in-loop assertion
    rate loss (Section 5.4, Table 4). *)

(** Attempt to pipeline a loop whose exit continues at state [exit_to];
    [None] (caller falls back to a sequential schedule) when the body
    cannot be if-converted, the condition or step needs memory or stream
    access, or no feasible II exists within a generous bound. *)
val make :
  Mir.Ir.proc_ir ->
  cond_insts:Mir.Ir.ginst list ->
  cond:Mir.Ir.reg ->
  body:Mir.Ir.body ->
  step_insts:Mir.Ir.ginst list ->
  exit_to:int ->
  Fsmd.pipe option
