open Front.Ast
module Loc = Front.Loc

(* L101: with a non-replicating strategy, an assertion reading a
   process-local array shares the BRAM's read port with the datapath
   (paper section 3.2). *)
let bram_contention ~replicate (prog : program) =
  if replicate then []
  else
    List.concat_map
      (fun (p : proc) ->
        if p.kind <> Hardware then []
        else
          let local = List.map (fun (n, _, _) -> n) (arrays_declared p.body) in
          List.concat_map
            (fun (loc, cond, text) ->
              List.filter_map
                (fun a ->
                  if List.mem a local then
                    Some
                      (Diag.warning ~code:"INCA-L101" ~proc:p.pname loc
                         (Printf.sprintf
                            "assertion \"%s\" reads array \"%s\" through the datapath's \
                             BRAM port; the strategy does not replicate tapped arrays, so \
                             the checker update contends with the computation"
                            text a))
                  else None)
                (arrays_read cond))
            (assertions_of p.body))
      prog.procs

(* L102: more hardware assertions than the shared status channel has
   flag bits (paper section 3.3). *)
let channel_overflow ~share_bits (prog : program) =
  match share_bits with
  | None -> []
  | Some bits ->
      let asserts =
        List.concat_map
          (fun (p : proc) ->
            if p.kind <> Hardware then []
            else List.map (fun (loc, _, text) -> (p.pname, loc, text)) (assertions_of p.body))
          prog.procs
      in
      let n = List.length asserts in
      if n <= bits then []
      else
        let pname, loc, text = List.nth asserts bits in
        [
          Diag.error ~code:"INCA-L102" ~proc:pname loc
            (Printf.sprintf
               "%d hardware assertions share a %d-bit status channel; assertion \"%s\" \
                (number %d) has no flag bit of its own, so a firing assertion cannot be \
                attributed — raise the channel width, split processes, or use per-process \
                channels"
               n bits text (bits + 1));
        ]

(* L103: scalar read before any assignment (from the abstract run). *)
let uninit_reads (r : Absint.result) =
  List.map
    (fun (pname, var, loc) ->
      Diag.warning ~code:"INCA-L103" ~proc:pname loc
        (Printf.sprintf
           "\"%s\" may be read before it is assigned; simulation zero-fills it but \
            synthesized hardware need not"
           var))
    r.Absint.uninit_reads

(* Guaranteed (every-execution) number of writes each stream receives
   from [body]: counted loops multiply by their static trip count,
   branches take the branch minimum, unbounded loops contribute their
   minimum of zero trips. *)
let write_lower_bounds (body : stmt list) : (string * int) list =
  let add s n counts =
    (s, n + Option.value ~default:0 (List.assoc_opt s counts)) :: List.remove_assoc s counts
  in
  let rec go mult counts st =
    match st.s with
    | Stream_write (s, _) -> add s mult counts
    | Block b -> List.fold_left (go mult) counts b
    | If (_, t, f) ->
        let ct = List.fold_left (go mult) [] t and cf = List.fold_left (go mult) [] f in
        List.fold_left
          (fun acc (s, n) ->
            let m = min n (Option.value ~default:0 (List.assoc_opt s cf)) in
            if m > 0 then add s m acc else acc)
          counts ct
    | While (_, b) -> List.fold_left (go 0) counts b
    | For (h, b) ->
        let trips = match Bound.of_for h b with Bound.Exact n -> n | _ -> 0 in
        let counts = match h.init with Some s -> go mult counts s | None -> counts in
        List.fold_left (go (mult * trips)) counts b
    | Decl _ | Const_array _ | Assign _ | Assert _ | Stream_read _ | Return _ | Tapstmt _ ->
        counts
  in
  List.fold_left (go 1) [] body

(* L104: streams with no consuming process.  A stream whose guaranteed
   write count exceeds the FIFO depth blocks its producer unless an
   external testbench drains it; one that is merely written-not-read is
   reported informationally (it may be a design output). *)
let undrained_streams (prog : program) =
  let reads = ref [] and writes = ref [] in
  List.iter
    (fun (p : proc) ->
      iter_stmts
        (fun st ->
          match st.s with
          | Stream_read (_, s) -> reads := s :: !reads
          | Stream_write (s, _) -> writes := s :: !writes
          | _ -> ())
        p.body)
    prog.procs;
  let lower =
    List.concat_map (fun (p : proc) -> write_lower_bounds p.body) prog.procs
  in
  List.filter_map
    (fun (sd : stream_decl) ->
      let written = List.mem sd.sname !writes and read = List.mem sd.sname !reads in
      if read then None
      else if not written then
        Some
          (Diag.info ~code:"INCA-L104" Loc.none
             (Printf.sprintf "stream \"%s\" is declared but never written or read" sd.sname))
      else
        let guaranteed =
          List.fold_left
            (fun acc (s, n) -> if s = sd.sname then acc + n else acc)
            0 lower
        in
        if guaranteed > sd.depth then
          Some
            (Diag.warning ~code:"INCA-L104" Loc.none
               (Printf.sprintf
                  "stream \"%s\" receives at least %d writes but no process reads it and \
                   its FIFO holds %d elements; without an external drain the producer \
                   blocks"
                  sd.sname guaranteed sd.depth))
        else
          Some
            (Diag.info ~code:"INCA-L104" Loc.none
               (Printf.sprintf
                  "stream \"%s\" is written but read by no process; it relies on an \
                   external (testbench) drain"
                  sd.sname)))
    prog.streams

(* L105: assertion subsumed by an earlier still-active one. *)
let dead_assertions (r : Absint.result) =
  List.map
    (fun (pname, loc, text, by) ->
      Diag.warning ~code:"INCA-L105" ~proc:pname loc
        (Printf.sprintf
           "assertion \"%s\" is implied by the earlier assertion \"%s\" on every path; it \
            can never be the first to fire"
           text by))
    r.Absint.dead

(* L106/L107: the liveness verdict found a deadlock witness — a rate
   mismatch or starved reader (L106) or a circular wait (L107). *)
let deadlock_verdict (verdict : Live.verdict) =
  match verdict with
  | Live.Deadlock_free _ | Live.Unknown _ -> []
  | Live.Deadlock w ->
      let code, what =
        match w.Live.w_reason with
        | Live.Circular_wait -> ("INCA-L107", "circular wait")
        | Live.Rate_mismatch -> ("INCA-L106", "token-rate mismatch")
        | Live.Read_past_last_write -> ("INCA-L106", "read past the last write")
      in
      [
        Diag.error ~code Loc.none
          (Printf.sprintf
             "the design deadlocks on every execution (%s): %s" what
             (String.concat ", "
                (List.map
                   (fun (b : Live.blocked) ->
                     Printf.sprintf "%s blocks %s stream \"%s\"" b.Live.b_proc
                       (match b.Live.b_dir with
                       | `Read -> "reading"
                       | `Write -> "writing")
                       b.Live.b_stream)
                   w.Live.w_blocked)));
      ]

(* L108: a producer whose write rate is unbounded (an uncounted loop)
   feeds a stream whose every consumer has a bounded read rate: the
   bounded-depth FIFO must eventually fill and block the producer. *)
let unbounded_producers (summaries : Chan.summary list) =
  List.concat_map
    (fun (s : Chan.summary) ->
      if
        s.Chan.readers <> []
        && List.for_all (fun (_, r) -> r.Chan.rmax <> None) s.Chan.readers
      then
        List.filter_map
          (fun (w, r) ->
            if r.Chan.rmax = None then
              Some
                (Diag.warning ~code:"INCA-L108" ~proc:w Loc.none
                   (Printf.sprintf
                      "process \"%s\" writes stream \"%s\" from an unbounded loop \
                       (%s writes per activation) but its consumers read at most %s; \
                       the %d-deep FIFO will fill and block the producer"
                      w s.Chan.cstream
                      (Chan.rate_to_string r)
                      (String.concat "+"
                         (List.map (fun (_, r) -> Chan.rate_to_string r) s.Chan.readers))
                      s.Chan.cdepth))
            else None)
          s.Chan.writers
      else [])
    summaries

(* L109/L110: a configured watchdog window measured against the proved
   completion bound.  A window shorter than the bound can expire while
   the design is still legitimately making (slow) progress; a window at
   least the bound can never fire on this design at all. *)
let watchdog_budget ~watchdog (verdict : Live.verdict) =
  match (watchdog, verdict) with
  | Some w, Live.Deadlock_free k when w < k ->
      [
        Diag.warning ~code:"INCA-L109" Loc.none
          (Printf.sprintf
             "watchdog window %d is provably insufficient: the design is \
              deadlock-free but only proved to finish within %d cycles, so the \
              watchdog may report a live-lock on a healthy run"
             w k);
      ]
  | Some w, Live.Deadlock_free k ->
      [
        Diag.info ~code:"INCA-L110" Loc.none
          (Printf.sprintf
             "watchdog window %d is provably redundant: the design finishes \
              within %d cycles on every execution, so the watchdog can never fire"
             w k);
      ]
  | _ -> []

let liveness ?watchdog (verdict : Live.verdict) (summaries : Chan.summary list) =
  Diag.order
    (deadlock_verdict verdict
    @ unbounded_producers summaries
    @ watchdog_budget ~watchdog verdict)

let run ?share_bits ?(replicate = true) (prog : program) (r : Absint.result) =
  Diag.order
    (bram_contention ~replicate prog
    @ channel_overflow ~share_bits prog
    @ uninit_reads r
    @ undrained_streams prog
    @ dead_assertions r)
