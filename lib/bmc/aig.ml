(** Hash-consed and-inverter graph.

    The bit-blaster builds every combinational function of the unrolled
    design as a DAG of two-input AND nodes with optional inversion on
    every edge.  Structural hashing plus constant folding keep the graph
    small: unrolling from the concrete reset state folds most of the
    datapath away, leaving only the cone that actually depends on free
    inputs (stream values, process parameters, induction start state).

    A literal is [2*node + polarity]; node 0 is the constant TRUE, so
    literal 0 is true and literal 1 is false.  Nodes are created in
    topological order, which the evaluator and the CNF encoder rely
    on. *)

type lit = int

let tru : lit = 0
let fls : lit = 1
let neg (l : lit) : lit = l lxor 1
let node_of (l : lit) = l lsr 1
let compl_of (l : lit) = l land 1 = 1

(* Fanins of an AND node; a primary input has [fan0 = -1].  Node 0 is
   the constant-true node (also [fan0 = -1]).

   The structural hash is open-addressed: [table] holds node ids,
   probed linearly from a multiplicative hash of the ordered fanin
   pair.  A slot holding 0 is empty — node 0 is the constant, never an
   AND.  The table is doubled once it is half full. *)
type t = {
  mutable fan0 : int array;
  mutable fan1 : int array;
  mutable n : int;
  mutable table : int array;
  mutable ands : int;  (* AND nodes in [table] *)
}

let create () =
  let cap = 1024 in
  { fan0 = Array.make cap (-1); fan1 = Array.make cap (-1); n = 1;
    table = Array.make (2 * cap) 0; ands = 0 }

let num_nodes t = t.n

let is_input t (l : lit) =
  let v = node_of l in
  v > 0 && t.fan0.(v) = -1

let grow t =
  let cap = Array.length t.fan0 in
  if t.n >= cap then begin
    let cap' = cap * 2 in
    let f0 = Array.make cap' (-1) and f1 = Array.make cap' (-1) in
    Array.blit t.fan0 0 f0 0 cap;
    Array.blit t.fan1 0 f1 0 cap;
    t.fan0 <- f0;
    t.fan1 <- f1
  end

let alloc t a b =
  grow t;
  let v = t.n in
  t.fan0.(v) <- a;
  t.fan1.(v) <- b;
  t.n <- v + 1;
  v

(** Fresh primary input; returns its (positive) literal. *)
let new_input t : lit = 2 * alloc t (-1) (-1)

(* Home slot of the fanin pair [(a, b)]: the high bits of a
   multiplicative hash, masked to the (power-of-two) table size. *)
let slot_of mask a b =
  ((((a * 0x2545F4914F6CDD1D) + b) * 0x1E3779B97F4A7C15) lsr 29) land mask

(* Double the table and reinsert every AND node. *)
let rehash t =
  let table = Array.make (2 * Array.length t.table) 0 in
  let mask = Array.length table - 1 in
  for v = 1 to t.n - 1 do
    if t.fan0.(v) <> -1 then begin
      let i = ref (slot_of mask t.fan0.(v) t.fan1.(v)) in
      while table.(!i) <> 0 do
        i := (!i + 1) land mask
      done;
      table.(!i) <- v
    end
  done;
  t.table <- table

let mk_and t (a : lit) (b : lit) : lit =
  if a = fls || b = fls then fls
  else if a = tru then b
  else if b = tru then a
  else if a = b then a
  else if a = neg b then fls
  else begin
    let a, b = if a <= b then (a, b) else (b, a) in
    let mask = Array.length t.table - 1 in
    let i = ref (slot_of mask a b) in
    let v = ref t.table.(!i) in
    while !v <> 0 && not (t.fan0.(!v) = a && t.fan1.(!v) = b) do
      i := (!i + 1) land mask;
      v := t.table.(!i)
    done;
    if !v <> 0 then 2 * !v
    else begin
      let v = alloc t a b in
      t.table.(!i) <- v;
      t.ands <- t.ands + 1;
      if 2 * t.ands > Array.length t.table then rehash t;
      2 * v
    end
  end

let mk_or t a b = neg (mk_and t (neg a) (neg b))
let mk_xor t a b = mk_or t (mk_and t a (neg b)) (mk_and t (neg a) b)
let mk_iff t a b = neg (mk_xor t a b)

(** [mk_mux t c a b] is [if c then a else b]. *)
let mk_mux t c a b =
  if a = b then a
  else if c = tru then a
  else if c = fls then b
  else mk_or t (mk_and t c a) (mk_and t (neg c) b)

let mk_and_list t ls = List.fold_left (mk_and t) tru ls
let mk_or_list t ls = List.fold_left (mk_or t) fls ls

(** Concrete evaluation of the whole graph under an assignment of the
    primary inputs (by node id; unassigned inputs read false).  Returns
    a literal evaluator.  Nodes are in topological order, so one linear
    pass suffices; the result array is as large as the graph, so reuse
    the evaluator for every literal of interest. *)
let evaluator t (input : int -> bool) : lit -> bool =
  let vals = Bytes.make t.n '\000' in
  Bytes.set vals 0 '\001';
  for v = 1 to t.n - 1 do
    let x =
      if t.fan0.(v) = -1 then input v
      else
        let l0 = t.fan0.(v) and l1 = t.fan1.(v) in
        let e l = Bytes.get vals (node_of l) = '\001' <> compl_of l in
        e l0 && e l1
    in
    if x then Bytes.set vals v '\001'
  done;
  fun (l : lit) -> Bytes.get vals (node_of l) = '\001' <> compl_of l
