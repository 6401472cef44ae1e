(** Tseitin encoding of AIG cones into a {!Sat} solver.

    One SAT variable per AIG node, created lazily: only the cone of the
    literals the caller actually asserts or assumes is encoded, and new
    AIG nodes built after a [solve] call are encoded on demand — this is
    what makes depth-by-depth BMC unrolling incremental.  The encoding
    is the standard three-clause AND gate:

      v <-> a /\ b   ~~>   (~v \/ a) (~v \/ b) (v \/ ~a \/ ~b)

    with a single pinned variable for the constant-true node.  The gate
    clauses go to the solver through {!Sat.add_clause2} and
    {!Sat.add_clause3}, so encoding builds no list. *)

type t = {
  aig : Aig.t;
  solver : Sat.t;
  mutable map : int array;  (* AIG node -> SAT var, -1 if not yet encoded *)
  mutable stack : int array;  (* scratch for [lit]'s cone walk *)
}

let create aig solver =
  let map = Array.make (max 16 (Aig.num_nodes aig)) (-1) in
  (* pin the constant node *)
  let v = Sat.new_var solver in
  Sat.add_clause solver [ Sat.pos v ];
  map.(0) <- v;
  { aig; solver; map; stack = Array.make 64 0 }

(* Both scratch arrays grow through [Sat.extend_int], which copies
   without the write barrier. *)
let ensure_map t n =
  let cap = Array.length t.map in
  if n > cap then t.map <- Sat.extend_int t.map (max n (2 * cap)) (-1)

(* SAT literal of an already-encoded AIG literal. *)
let sat_lit_of t (l : Aig.lit) : Sat.lit =
  let v = t.map.(Aig.node_of l) in
  if Aig.compl_of l then Sat.negl v else Sat.pos v

let push t sp n =
  if sp = Array.length t.stack then t.stack <- Sat.extend_int t.stack (2 * sp) 0;
  t.stack.(sp) <- n;
  sp + 1

(** SAT literal for AIG literal [l], encoding its cone as needed.

    Depth-first over the cone with fan1's node visited before fan0's:
    the visiting order fixes the SAT variable numbering, hence the
    clause database and the search, so it must not change. *)
let lit t (l : Aig.lit) : Sat.lit =
  ensure_map t (Aig.num_nodes t.aig);
  let fan0 = t.aig.Aig.fan0 and fan1 = t.aig.Aig.fan1 and map = t.map in
  let sp = ref (push t 0 (Aig.node_of l)) in
  while !sp > 0 do
    let n = t.stack.(!sp - 1) in
    if map.(n) <> -1 then decr sp
    else if fan0.(n) = -1 then begin
      (* primary input *)
      map.(n) <- Sat.new_var t.solver;
      decr sp
    end
    else begin
      let f0 = fan0.(n) and f1 = fan1.(n) in
      let n0 = Aig.node_of f0 and n1 = Aig.node_of f1 in
      if map.(n0) = -1 || map.(n1) = -1 then begin
        if map.(n0) = -1 then sp := push t !sp n0;
        if map.(n1) = -1 then sp := push t !sp n1
      end
      else begin
        let v = Sat.new_var t.solver in
        map.(n) <- v;
        let a = sat_lit_of t f0 and b = sat_lit_of t f1 in
        Sat.add_clause2 t.solver (Sat.negl v) a;
        Sat.add_clause2 t.solver (Sat.negl v) b;
        Sat.add_clause3 t.solver (Sat.pos v) (Sat.neg a) (Sat.neg b);
        decr sp
      end
    end
  done;
  sat_lit_of t l

(** Assert [l] as a unit clause (encoding its cone). *)
let assert_lit t (l : Aig.lit) = Sat.add_clause t.solver [ lit t l ]

(** Model value of an AIG literal after [Sat].  AIG inputs outside the
    encoded cone default to false, matching {!Sat.value}. *)
let model_value t (l : Aig.lit) : bool =
  let n = Aig.node_of l in
  let base =
    if n < Array.length t.map && t.map.(n) <> -1 then Sat.value t.solver t.map.(n)
    else if n = 0 then true
    else false
  in
  base <> Aig.compl_of l

(** Evaluator of the whole AIG under the SAT model's input values
    (inputs outside the solved cone read false).  Witness extraction
    uses this rather than {!model_value} so that literals outside the
    encoded cone — e.g. the push condition of a stream that never
    reaches the violated checker — still evaluate consistently with the
    inputs the solver chose: the witness is then exactly the trace the
    deterministic replay will follow. *)
let concrete_evaluator t : Aig.lit -> bool =
  Aig.evaluator t.aig (fun n ->
      n < Array.length t.map && t.map.(n) <> -1 && Sat.value t.solver t.map.(n))
