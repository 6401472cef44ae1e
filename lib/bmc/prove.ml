(** Bounded model checking, k-induction and cover reachability, one
    assertion at a time.

    Each assertion gets two AIG + solver pairs, each unrolled one cycle
    at a time and solved incrementally under assumptions.  The first
    starts from reset: each depth's fire literal is solved (earliest
    violation first), and the division-crash literal of a depth is
    permanently forbidden once the search moves past it — a
    counterexample therefore has a crash-free prefix, which is exactly
    the prefix {!Sim.Engine} will replay deterministically.

    A [Sat] answer yields a cycle-accurate witness: the feed values the
    solver chose (read back through {!Cnf.concrete_evaluator}, so the
    whole graph is evaluated consistently with the model) plus concrete
    process parameters.  The caller replays it through the engine; only
    a confirmed replay is reported as Violated.

    When the bounded search exhausts its depth without a violation, the
    k-induction step asks: from *any* well-formed state (free registers,
    pc, FIFO and BRAM contents), can [k] consecutive fire-free cycles be
    followed by a fire?  The second pair starts from that free state and
    grows a cycle per k = 1, 2, ...  An UNSAT answer, combined with the
    bounded base case, proves the assertion can never fire — the same
    dividend as an Absint proof, usable by [--prune-proved]. *)

module A = Aig

type witness = {
  w_cycle : int;  (** cycle at which the tap fires with a false condition *)
  w_feeds : (string * int64 list) list;
      (** per feed stream: the values pushed, in push order — exactly a
          testbench feed list that reproduces the trace *)
  w_params : (string * (string * int64) list) list;
      (** per process: concrete parameter values *)
}

type verdict =
  | Violated of witness
  | Proved_induction of int  (** inductive at this k *)
  | Bounded of int           (** no violation within this many cycles *)
  | Unknown of string

type reach_info =
  | Reachable of int         (** first cycle at which the tap can execute *)
  | Unreachable_to of int
  | Reach_unknown of string

type result = {
  r_id : int;
  r_verdict : verdict;
  r_reach : reach_info;
  r_conflicts : int;
  r_decisions : int;
  r_propagations : int;
}

let eval_witness (model : Model.t) (cnf : Cnf.t) ~(cycle : int) : witness =
  let ev = Cnf.concrete_evaluator cnf in
  let feeds =
    List.map
      (fun s ->
        let vs = ref [] in
        for c = 0 to cycle do
          let io = Model.cycle model c in
          match List.find_opt (fun (s', _, _) -> s' = s) io.Model.io_feeds with
          | Some (_, en, v) -> if ev en then vs := Blast.eval_vec ev v :: !vs
          | None -> ()
        done;
        (s, List.rev !vs))
      model.Model.cfg.Model.feeds
  in
  let params =
    List.fold_left
      (fun acc (proc, origin, vec) ->
        let v = Blast.eval_vec ev vec in
        match List.assoc_opt proc acc with
        | Some bs -> (proc, bs @ [ (origin, v) ]) :: List.remove_assoc proc acc
        | None -> acc @ [ (proc, [ (origin, v) ]) ])
      [] model.Model.params
  in
  { w_cycle = cycle; w_feeds = feeds; w_params = params }

(* The induction step for k = 1..[max_k]: cycle k-1's fire and crash are
   forbidden for good, then cycle k's fire is solved.  UNSAT = inductive. *)
let k_induction (cfg : Model.config) ~(id : int) ~max_k ~conflict_limit :
    int option * (int * int * int) =
  let model = Model.create ~free_start:true cfg in
  let solver = Sat.create () in
  let cnf = Cnf.create model.Model.g solver in
  List.iter (Cnf.assert_lit cnf) model.Model.init_constraints;
  ignore (Model.step model);
  let rec go k =
    if k > max_k then None
    else begin
      ignore (Model.step model);
      let goal = Model.fire_at model k id in
      if goal = A.fls then Some k
      else begin
        Cnf.assert_lit cnf (A.neg (Model.fire_at model (k - 1) id));
        Cnf.assert_lit cnf (A.neg (Model.crash_at model (k - 1)));
        match Sat.solve ~assumptions:[ Cnf.lit cnf goal ] ~conflict_limit solver with
        | Sat.Unsat -> Some k
        | Sat.Sat -> go (k + 1)
        | Sat.Undecided -> None
      end
    end
  in
  let proved = go 1 in
  (proved, (Sat.conflicts solver, Sat.decisions solver, Sat.propagations solver))

(** Classify one assertion.  [depth] is the number of cycles unrolled
    (fire checked at cycles 0..depth-1); [induction] is the maximum k
    tried for the unbounded proof, 0 to disable. *)
let check_assertion ?(depth = 12) ?(induction = 0) ?(conflict_limit = 200_000)
    (cfg : Model.config) (id : int) : result =
  try
    let model = Model.create cfg in
    let solver = Sat.create () in
    let cnf = Cnf.create model.Model.g solver in
    let violated = ref None in
    let reach_found = ref None in
    let first_undecided = ref None in
    let reach_undecided = ref false in
    let c = ref 0 in
    while !violated = None && !c < depth do
      let cyc = !c in
      ignore (Model.step model);
      let fire = Model.fire_at model cyc id in
      (if fire <> A.fls then
         match Sat.solve ~assumptions:[ Cnf.lit cnf fire ] ~conflict_limit solver with
         | Sat.Sat -> violated := Some (eval_witness model cnf ~cycle:cyc)
         | Sat.Unsat -> ()
         | Sat.Undecided ->
             if !first_undecided = None then first_undecided := Some cyc);
      (if !violated <> None && !reach_found = None then reach_found := Some cyc);
      (if !violated = None && !reach_found = None then
         let reach = Model.reach_at model cyc id in
         if reach <> A.fls then
           match Sat.solve ~assumptions:[ Cnf.lit cnf reach ] ~conflict_limit solver with
           | Sat.Sat -> reach_found := Some cyc
           | Sat.Unsat -> ()
           | Sat.Undecided -> reach_undecided := true);
      (* the search moves past this cycle: its traces must be crash-free *)
      Cnf.assert_lit cnf (A.neg (Model.crash_at model cyc));
      incr c
    done;
    let stats = ref (Sat.conflicts solver, Sat.decisions solver, Sat.propagations solver) in
    let add (a, b, c) (a', b', c') = (a + a', b + b', c + c') in
    let verdict =
      match !violated with
      | Some w -> Violated w
      | None -> (
          match !first_undecided with
          | Some cyc ->
              Unknown
                (Printf.sprintf "solver conflict budget exhausted at depth %d" cyc)
          | None when min induction depth < 1 -> Bounded depth
          | None -> (
              (* bounded proof holds; try to make it unbounded *)
              let proved, s =
                k_induction cfg ~id ~max_k:(min induction depth) ~conflict_limit
              in
              stats := add !stats s;
              match proved with Some k -> Proved_induction k | None -> Bounded depth))
    in
    let reach =
      match (!reach_found, verdict) with
      | Some c, _ -> Reachable c
      | None, _ when !reach_undecided -> Reach_unknown "solver conflict budget exhausted"
      | None, _ -> (
          match !first_undecided with
          | Some c -> Reach_unknown (Printf.sprintf "bounded search undecided at depth %d" c)
          | None -> Unreachable_to depth)
    in
    let conflicts, decisions, propagations = !stats in
    { r_id = id; r_verdict = verdict; r_reach = reach; r_conflicts = conflicts;
      r_decisions = decisions; r_propagations = propagations }
  with Model.Unsupported msg ->
    { r_id = id; r_verdict = Unknown msg; r_reach = Reach_unknown msg;
      r_conflicts = 0; r_decisions = 0; r_propagations = 0 }

let verdict_class = function
  | Violated _ -> "violated"
  | Proved_induction _ -> "proved"
  | Bounded _ -> "bounded"
  | Unknown _ -> "unknown"
