(** Modulo scheduling of pipelined loops ([#pragma pipeline]).

    The loop body is if-converted into a single predicated instruction
    stream, then scheduled at the smallest feasible initiation interval
    (II, the paper's "rate").  Constraints:

    - block-RAM ports and stream handshakes are rationed per cycle class
      (cycle mod II);
    - loop-carried registers must be written by cycle II-1 so the next
      iteration's issue sees them;
    - consecutive operations on the same stream must fall within one II
      window so FIFO order is preserved across overlapped iterations;
    - a *guarded* (conditional) stream operation adds one to the II —
      the Impulse-C blocking-handshake-under-control-divergence effect
      that the paper identifies as the source of its pipelined assertion
      rate overhead (Section 5.4, Table 4). *)

module Ir = Mir.Ir

(* --- If-conversion -------------------------------------------------------- *)

(* Flatten a loop body into one guarded instruction list.  Returns None
   when the body contains nested loops or nested conditionals (we only
   predicate one level, which covers assertion failure branches). *)
let rec if_convert (body : Ir.body) ~(guard : (Ir.reg * bool) option) :
    Ir.ginst list option =
  let convert_insts insts =
    match guard with
    | None -> Some insts
    | Some _ ->
        if List.exists (fun g -> g.Ir.guard <> None) insts then None
        else Some (List.map (fun g -> { g with Ir.guard }) insts)
  in
  List.fold_left
    (fun acc item ->
      match acc with
      | None -> None
      | Some sofar -> (
          match item with
          | Ir.Straight insts -> (
              match convert_insts insts with
              | Some gs -> Some (sofar @ gs)
              | None -> None)
          | Ir.If_else { cond_insts; cond; then_; else_ } ->
              if guard <> None then None  (* one predication level only *)
              else
                let ci = cond_insts in
                (match
                   ( if_convert then_ ~guard:(Some (cond, true)),
                     if_convert else_ ~guard:(Some (cond, false)) )
                 with
                | Some t, Some e -> Some (sofar @ ci @ t @ e)
                | _ -> None)
          | Ir.Loop _ -> None))
    (Some []) body

let is_pure_alu (g : Ir.ginst) =
  match g.Ir.i with
  | Ir.Bin _ | Ir.Un _ | Ir.Copy _ | Ir.Castop _ -> true
  | Ir.Load _ | Ir.Store _ | Ir.Sread _ | Ir.Swrite _ | Ir.Extcall _ | Ir.Tap _ -> false

(* --- Modulo scheduling ------------------------------------------------------ *)

exception Infeasible

(* Attempt to schedule [insts] at initiation interval [ii].  The
   dependence rules live in {!Deps}; this keeps the modulo policy: memory
   ports, stream handshakes and external units are reserved per cycle
   class (cycle mod ii), consecutive operations on one stream stay within
   one II window, and a written memory's accesses fit in one II window.
   [proc] supplies memory port counts.  Raises [Infeasible] if the
   constraints cannot be met at this ii; returns the ops of each cycle of
   one iteration (its length is the iteration depth) and the worst
   chain. *)
let try_schedule (proc : Ir.proc_ir) (insts : Ir.ginst list) ~ii =
  let d = Deps.create () in
  let mem_slots : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  let stream_slots : (string * int, bool) Hashtbl.t = Hashtbl.create 16 in
  let ext_slots : (string * int, bool) Hashtbl.t = Hashtbl.create 16 in
  let last_stream_cycle : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let ports_of m =
    match Ir.find_mem proc m with Some mem -> mem.Ir.ports | None -> 1
  in
  let limit = 4096 in
  let rec find free c =
    if c > limit then raise Infeasible else if free c then c else find free (c + 1)
  in
  List.iter
    (fun (g : Ir.ginst) ->
      match g.Ir.i with
      | Ir.Bin { dst; _ } | Ir.Un { dst; _ } | Ir.Copy { dst; _ } | Ir.Castop { dst; _ } ->
          let c, t_end = Deps.alu_slot d g ~free:(fun _ -> true) in
          Deps.place d g c ~ns:t_end;
          Deps.define d dst c t_end
      | Ir.Load { mem; _ } | Ir.Store { mem; _ } ->
          let used c = try Hashtbl.find mem_slots (mem, c mod ii) with Not_found -> 0 in
          let c = find (fun c -> used c < ports_of mem) (Deps.mem_floor d g) in
          Hashtbl.replace mem_slots (mem, c mod ii) (1 + used c);
          Deps.place d g c ~ns:1.0;
          (match g.Ir.i with Ir.Load { dst; _ } -> Deps.define d dst (c + 1) 0.0 | _ -> ())
      | Ir.Sread { stream; _ } | Ir.Swrite { stream; _ } ->
          let prev = Hashtbl.find_opt last_stream_cycle stream in
          let c0 = Stdlib.max (Deps.issue_floor d g) (match prev with Some p -> p + 1 | None -> 0) in
          let c = find (fun c -> not (Hashtbl.mem stream_slots (stream, c mod ii))) c0 in
          (* FIFO order across overlapped iterations: consecutive ops on
             one stream must fit within one II window *)
          (match prev with Some p when c - p >= ii + 1 -> raise Infeasible | _ -> ());
          Hashtbl.replace stream_slots (stream, c mod ii) true;
          Hashtbl.replace last_stream_cycle stream c;
          Deps.place d g c ~ns:1.0;
          (match g.Ir.i with
          | Ir.Sread { dst; _ } ->
              (* show-ahead FIFO: the head of the queue is combinationally
                 valid during the handshake cycle (after the output mux
                 delay), so cheap consumers — e.g. a FIR delay-line load —
                 can chain in the same cycle and keep II = 1 *)
              Deps.define d dst c 2.5
          | _ -> ())
      | Ir.Extcall { dst; func; latency; _ } ->
          let c = find (fun c -> not (Hashtbl.mem ext_slots (func, c mod ii))) (Deps.issue_floor d g) in
          Hashtbl.replace ext_slots (func, c mod ii) true;
          Deps.place d g c ~ns:1.0;
          Deps.define d dst (c + latency) 0.0
      | Ir.Tap _ -> Deps.place d g (Deps.tap_slot d g) ~ns:0.0)
    insts;
  (* Cross-iteration memory ordering: when a memory is written, all of
     one iteration's accesses must fit inside a single II window,
     otherwise a trailing store of iteration k lands after iteration
     k+1's leading access and program order breaks.  Read-only memories
     (ROMs) are exempt.  The iteration lasts until its last result
     commits. *)
  let placed = Array.init (Deps.horizon d + 1) (Deps.ops d) in
  let mem_spans : (string, int * int * bool) Hashtbl.t = Hashtbl.create 4 in
  let depth = ref 1 in
  Array.iteri
    (fun c ops ->
      List.iter
        (fun (g : Ir.ginst) ->
          (match g.Ir.i with
          | Ir.Load { mem; _ } | Ir.Store { mem; _ } ->
              let lo, hi, written =
                try Hashtbl.find mem_spans mem with Not_found -> (max_int, min_int, false)
              in
              let is_store = match g.Ir.i with Ir.Store _ -> true | _ -> false in
              Hashtbl.replace mem_spans mem
                (Stdlib.min lo c, Stdlib.max hi c, written || is_store)
          | _ -> ());
          let fin = match g.Ir.i with Ir.Extcall { latency; _ } -> c + latency | _ -> c + 1 in
          depth := Stdlib.max !depth fin)
        ops)
    placed;
  Hashtbl.iter
    (fun _ (lo, hi, written) -> if written && hi - lo >= ii then raise Infeasible)
    mem_spans;
  let cycle_ops = Array.init !depth (fun c -> if c < Array.length placed then placed.(c) else []) in
  (cycle_ops, Array.fold_left Stdlib.max 0.0 (Array.init (Array.length placed) (Deps.chain d)))

(** Registers that carry values across iterations: written somewhere in
    [body_insts] and read either by [issue_insts] (cond/step) or by a
    body instruction at or before the writing instruction's position. *)
let loop_carried ~(body_insts : Ir.ginst list) ~(issue_insts : Ir.ginst list) =
  let issue_reads =
    List.concat_map (fun g -> Ir.uses_of_g g) issue_insts
  in
  let carried = ref [] in
  List.iteri
    (fun wi (w : Ir.ginst) ->
      match Ir.dst_of w.Ir.i with
      | None -> ()
      | Some d ->
          let read_early =
            List.exists (fun r -> r = d) issue_reads
            || List.exists
                 (fun (ri, (rg : Ir.ginst)) -> ri <= wi && List.mem d (Ir.uses_of_g rg))
                 (List.mapi (fun i g -> (i, g)) body_insts)
          in
          if read_early && not (List.mem d !carried) then carried := d :: !carried)
    body_insts;
  !carried

(** Attempt to pipeline a loop exiting to state [exit_to].  Returns
    [None] (caller falls back to a sequential schedule) when the body
    cannot be if-converted, when the condition or step needs memory or
    stream access, or when no feasible II up to a generous bound exists. *)
let make (proc : Ir.proc_ir) ~(cond_insts : Ir.ginst list) ~(cond : Ir.reg)
    ~(body : Ir.body) ~(step_insts : Ir.ginst list) ~exit_to : Fsmd.pipe option =
  match if_convert body ~guard:None with
  | None -> None
  | Some insts ->
      if not (List.for_all is_pure_alu cond_insts && List.for_all is_pure_alu step_insts)
      then None
      else begin
        (* resource-derived minimum II *)
        let count tbl k n = Hashtbl.replace tbl k (n + (try Hashtbl.find tbl k with Not_found -> 0)) in
        let mem_uses = Hashtbl.create 4 and stream_uses = Hashtbl.create 4 in
        List.iter
          (fun (g : Ir.ginst) ->
            (match Ir.mem_access g.Ir.i with Some m -> count mem_uses m 1 | None -> ());
            match g.Ir.i with
            | Ir.Sread { stream; _ } | Ir.Swrite { stream; _ } ->
                (* a *guarded* (conditional) stream operation costs a
                   second handshake slot: the blocking protocol must
                   resolve under control divergence before the next
                   iteration can issue — the paper's observed rate loss
                   for unoptimized in-loop assertions (Table 4) *)
                count stream_uses stream (if g.Ir.guard <> None then 2 else 1)
            | _ -> ())
          insts;
        let res_mii = ref 1 in
        Hashtbl.iter
          (fun m c ->
            let ports = match Ir.find_mem proc m with Some mm -> mm.Ir.ports | None -> 1 in
            res_mii := Stdlib.max !res_mii ((c + ports - 1) / ports))
          mem_uses;
        Hashtbl.iter (fun _ c -> res_mii := Stdlib.max !res_mii c) stream_uses;
        let ii_start = !res_mii in
        let carried = loop_carried ~body_insts:insts ~issue_insts:(cond_insts @ step_insts) in
        let rec search ii =
          if ii > ii_start + 32 then None
          else
            match try_schedule proc insts ~ii with
            | exception Infeasible -> search (ii + 1)
            | cycle_ops, chain_ns ->
                (* loop-carried writes must commit before the next issue *)
                let commits_in_time c (g : Ir.ginst) =
                  match Ir.dst_of g.Ir.i with
                  | Some r when List.mem r carried ->
                      let fin =
                        match g.Ir.i with
                        | Ir.Extcall { latency; _ } -> c + latency
                        | Ir.Load _ -> c + 1
                        | _ -> c
                      in
                      fin <= ii - 1
                  | _ -> true
                in
                if
                  Seq.for_all
                    (fun (c, ops) -> List.for_all (commits_in_time c) ops)
                    (Array.to_seqi cycle_ops)
                then
                  Some
                    {
                      Fsmd.ii;
                      depth = Array.length cycle_ops;
                      cond_insts;
                      cond;
                      step_insts;
                      cycle_ops;
                      exit_to;
                      pipe_chain_ns = chain_ns;
                    }
                else search (ii + 1)
        in
        search (Stdlib.max 1 ii_start)
      end
