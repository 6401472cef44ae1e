(** Unoptimized assertion instrumentation (paper Section 4.1, Figure 2).

    Each [assert(c)] becomes the equivalent HLS-compliant code:

    {v if (!(c)) { stream_write(err_stream, code); } v}

    — a direct if-conversion inside the application process.  The
    condition is evaluated in the process's own state machine, which is
    what gives this scheme its latency and rate overhead (Tables 3-4)
    and its per-process channel cost (Figures 4-5). *)

open Front.Ast

(** Remove every assertion (the paper's NDEBUG build, and the baseline
    "Original" configurations of Tables 1-2). *)
let strip_asserts (p : proc) : proc =
  {
    p with
    body =
      map_stmts
        (fun st -> match st.s with Assert _ -> [] | _ -> [ st ])
        p.body;
  }

let mk_not (c : expr) : expr = { e = Unop (Lnot, c); ety = Tbool; eloc = c.eloc }

(** Rewrite the assertions of one hardware process into failure-stream
    writes, using [plan] for channel routing.  [next_id] must enumerate
    assertions in the same order as {!Assertion.extract}. *)
let transform_proc (plan : Share.plan) (next_id : int ref) (p : proc) : proc =
  if p.kind <> Hardware then p
  else
    {
      p with
      body =
        map_stmts
          (fun st ->
            match st.s with
            | Assert (c, _) ->
                let id = !next_id in
                incr next_id;
                let stream, word = Share.route_of plan id in
                let code =
                  { e = Int word; ety = Tint (Unsigned, W32); eloc = st.sloc }
                in
                [
                  {
                    st with
                    s =
                      If
                        ( mk_not c,
                          [ { st with s = Stream_write (stream, code) } ],
                          [] );
                  };
                ]
            | _ -> [ st ])
          p.body;
    }

(** Apply the unoptimized transformation to a whole program: hardware
    processes are instrumented and the failure streams are added. *)
let transform (plan : Share.plan) (prog : program) : program =
  let next_id = ref 0 in
  {
    prog with
    streams = prog.streams @ plan.Share.streams;
    procs = List.map (transform_proc plan next_id) prog.procs;
  }
