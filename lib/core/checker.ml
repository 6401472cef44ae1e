(** Hardware assertion checkers for parallelized assertions.

    A checker is its own small process (paper Figure 1): it latches the
    tapped data, evaluates the condition as a pipeline that can accept a
    new assertion every cycle, and on failure sends its code on the
    failure channel.  We synthesize the checker like any other process
    to obtain its area and its notification latency — latency only
    delays failure reporting, never the application (Section 3.3). *)

open Front.Ast

type t = {
  spec : Parallelize.checker_spec;
  proc_ast : proc;          (** the checker as generated HLS source *)
  fsmd : Hls.Fsmd.t;        (** synthesized checker (for area/latency) *)
  engine : Sim.Engine.checker;  (** behavioural model for the simulator *)
}

let checker_name id = Printf.sprintf "__chk%d" id

(** Build the checker process AST for [spec], writing [word] to
    [channel] on failure. *)
let build_ast (spec : Parallelize.checker_spec) ~(channel : string) ~(word : int64)
    ~(elem : ty) : proc =
  let id = spec.Parallelize.info.Assertion.id in
  let params =
    List.mapi (fun k (s : expr) -> (Assertion.slot_name k, s.ety)) spec.Parallelize.slots
  in
  let loc = spec.Parallelize.info.Assertion.aloc in
  let cond = spec.Parallelize.cond in
  let not_cond = { e = Unop (Lnot, cond); ety = Tbool; eloc = cond.eloc } in
  let code = { e = Int word; ety = elem; eloc = loc } in
  {
    pname = checker_name id;
    kind = Hardware;
    params;
    body =
      [
        {
          s = If (not_cond, [ { s = Stream_write (channel, code); sloc = loc } ], []);
          sloc = loc;
        };
      ];
    ploc = loc;
  }

(** Synthesize one checker. *)
let build ~(prog : program) ~(plan : Share.plan) ?(latency_override : int option)
    (spec : Parallelize.checker_spec) : t =
  let id = spec.Parallelize.info.Assertion.id in
  let channel, word = Share.route_of plan id in
  let elem =
    match List.find_opt (fun (s : stream_decl) -> s.sname = channel) plan.Share.streams with
    | Some s -> s.elem
    | None -> Tint (Unsigned, W32)
  in
  let proc_ast = build_ast spec ~channel ~word ~elem in
  let mini_prog = { streams = plan.Share.streams; externs = prog.externs; procs = [] } in
  let ir = Mir.Opt.optimize (Mir.Lower.lower_proc mini_prog proc_ast) in
  let fsmd = Hls.Schedule.compile_proc ir in
  let latency =
    match latency_override with
    | Some l -> l
    | None -> Stdlib.max 1 (Hls.Fsmd.num_states fsmd - 1)
  in
  let engine =
    {
      Sim.Engine.cid = id;
      latency;
      eval = Assertion.compile spec.Parallelize.cond;
      channel;
      code = word;
    }
  in
  { spec; proc_ast; fsmd; engine }
