(** List scheduling of straight-line segments and FSMD assembly.

    Models the Impulse-C code generator's observable behaviour:
    independent ALU operations chain within a state up to the target
    clock period; synchronous block-RAM reads deliver data one state
    later and compete for a bounded number of ports; stream handshakes
    occupy exclusive states in program order; an [if] evaluates its
    condition in dedicated state(s) — at least one extra cycle on every
    path, the unoptimized assertion overhead of Table 3; external HDL
    calls have fixed latency with wait states. *)

(** Compile one process to an FSMD (sequential states plus
    modulo-scheduled pipes for [#pragma pipeline] loops; loops that
    cannot be pipelined fall back to sequential schedules with a
    warning). *)
val compile_proc : Mir.Ir.proc_ir -> Fsmd.t
