(** A small incremental CDCL SAT solver.

    MiniSat-style architecture: two-watched-literal propagation, VSIDS
    decision ordering through an activity heap, first-UIP conflict
    analysis with non-chronological backjumping, phase saving, and Luby
    restarts.  Clauses and variables may be added between [solve] calls
    and assumptions are decided first, so BMC unrolling deepens one
    solver incrementally.  Everything is deterministic: no randomness,
    no clause deletion, no time-based heuristics — identical inputs
    yield identical models, which the byte-determinism CI gates rely
    on.

    Decision order: the unassigned variable of highest activity, ties
    to the lowest index.  It is served from two tiers.  The heap holds
    only variables that [bump_var] has raised above 0; the variables
    still at 0 (most of a BMC unrolling is never in a conflict) are
    served in index order from a cursor, the lowest index that may
    still be unassigned, which [cancel_until] lowers.  A bumped
    variable beats every one at 0, so the decision is the heap's best
    unassigned variable, and the cursor's only when the heap has none.

    Clause intake avoids the write barrier: all clauses' literals sit
    back to back in one [int array] arena, addressed by a per-clause
    offset and length; growable arrays are copied with loops over their
    statically known element type; and a field is reassigned only when
    its array really grows.  In OCaml 5 a fresh per-clause block stored
    into an array of clauses, and an [Array.blit] into a major-heap
    [int array], both go through [caml_modify] element by element.

    Literal encoding: [2*var] is the positive literal of [var],
    [2*var+1] its negation. *)

type lit = int

let pos v : lit = 2 * v
let negl v : lit = (2 * v) + 1
let neg (l : lit) : lit = l lxor 1
let var_of (l : lit) = l lsr 1
let sign_of (l : lit) = l land 1 = 1  (* true = negated *)

type result = Sat | Unsat | Undecided  (** conflict budget exhausted *)

(* Truth values: 0 = unassigned, 1 = true, 2 = false (for the variable;
   a literal flips per its sign). *)
let l_undef = 0

type t = {
  mutable nvars : int;
  mutable assigns : int array;      (* per var: 0/1/2 *)
  mutable level : int array;        (* per var: decision level *)
  mutable reason : int array;       (* per var: clause index or -1 *)
  mutable activity : float array;   (* per var: VSIDS score *)
  mutable polarity : bool array;    (* per var: saved phase (true = last true) *)
  mutable heap : int array;         (* binary max-heap of bumped vars *)
  mutable heap_n : int;
  mutable heap_pos : int array;     (* per var: index in heap, -1 if absent *)
  mutable next_var : int;           (* cursor: no var below it is unassigned at activity 0 *)
  mutable arena : int array;        (* every clause's literals, back to back *)
  mutable arena_n : int;
  mutable cl_start : int array;     (* per clause: offset in [arena] *)
  mutable cl_len : int array;       (* per clause: literal count *)
  mutable nclauses : int;
  mutable watches : int array array;  (* per lit: clause indices *)
  mutable watch_n : int array;        (* per lit: used length *)
  mutable trail : int array;          (* assigned literals in order *)
  mutable trail_n : int;
  mutable trail_lim : int array;      (* decision-level marks *)
  mutable trail_lim_n : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;                (* false once level-0 UNSAT *)
  mutable model : int array;        (* snapshot of assigns after Sat *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable seen : bool array;        (* scratch for analyze *)
  mutable buf : int array;          (* scratch: the clause being added or learnt *)
}

let create () =
  {
    nvars = 0;
    assigns = Array.make 16 l_undef;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    polarity = Array.make 16 false;
    heap = Array.make 16 0;
    heap_n = 0;
    heap_pos = Array.make 16 (-1);
    next_var = 0;
    arena = Array.make 256 0;
    arena_n = 0;
    cl_start = Array.make 64 0;
    cl_len = Array.make 64 0;
    nclauses = 0;
    watches = Array.make 32 [||];
    watch_n = Array.make 32 0;
    trail = Array.make 16 0;
    trail_n = 0;
    trail_lim = Array.make 16 0;
    trail_lim_n = 0;
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    model = [||];
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    seen = Array.make 16 false;
    buf = Array.make 16 0;
  }

let conflicts t = t.conflicts
let decisions t = t.decisions
let propagations t = t.propagations
let is_ok t = t.ok

(* --- growable arrays ------------------------------------------------------- *)

(* [a] copied into a fresh array of length [cap], the rest [fill].  The
   loops store through a statically typed array, so no element goes
   through [caml_modify]. *)
let extend_int (a : int array) cap fill =
  let a' = Array.make cap fill in
  for i = 0 to Array.length a - 1 do
    a'.(i) <- a.(i)
  done;
  a'

let extend_float (a : float array) cap fill =
  let a' = Array.make cap fill in
  for i = 0 to Array.length a - 1 do
    a'.(i) <- a.(i)
  done;
  a'

let extend_bool (a : bool array) cap fill =
  let a' = Array.make cap fill in
  for i = 0 to Array.length a - 1 do
    a'.(i) <- a.(i)
  done;
  a'

(* Room for [n] literals in the scratch clause. *)
let reserve_buf t n =
  if n > Array.length t.buf then t.buf <- extend_int t.buf (max n (2 * Array.length t.buf)) 0

(* --- heap (max by activity) ------------------------------------------------ *)

let heap_lt t a b =
  (* deterministic tie-break on the var index *)
  t.activity.(a) > t.activity.(b) || (t.activity.(a) = t.activity.(b) && a < b)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(b) <- i;
  t.heap_pos.(a) <- j

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt t t.heap.(i) t.heap.(p) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_n && heap_lt t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_n && heap_lt t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

(* The heap never holds more than [nvars] entries, and [heap] grows with
   the per-variable arrays. *)
let heap_insert t v =
  if t.heap_pos.(v) = -1 then begin
    t.heap.(t.heap_n) <- v;
    t.heap_pos.(v) <- t.heap_n;
    t.heap_n <- t.heap_n + 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_n <- t.heap_n - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_n > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_n);
    t.heap_pos.(t.heap.(0)) <- 0;
    heap_down t 0
  end;
  v

let heap_bump t v = if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

(* --- variables ------------------------------------------------------------- *)

let grow_vars t cap =
  t.assigns <- extend_int t.assigns cap l_undef;
  t.level <- extend_int t.level cap 0;
  t.reason <- extend_int t.reason cap (-1);
  t.activity <- extend_float t.activity cap 0.0;
  t.polarity <- extend_bool t.polarity cap false;
  t.heap <- extend_int t.heap cap 0;
  t.heap_pos <- extend_int t.heap_pos cap (-1);
  t.seen <- extend_bool t.seen cap false;
  t.trail <- extend_int t.trail cap 0;
  let w = Array.make (2 * cap) [||] in
  Array.blit t.watches 0 w 0 (Array.length t.watches);
  t.watches <- w;
  t.watch_n <- extend_int t.watch_n (2 * cap) 0

(* A fresh variable starts at activity 0, so it joins the cursor tier,
   which already covers every index from [next_var] up.  Slots past
   [nvars] still hold the fill values. *)
let new_var t =
  let v = t.nvars in
  if v = Array.length t.assigns then grow_vars t (2 * v);
  t.nvars <- v + 1;
  v

(* Literal value: 0 undef, 1 true, 2 false. *)
let lit_value t (l : lit) =
  let a = t.assigns.(var_of l) in
  if a = l_undef then l_undef
  else if sign_of l then 3 - a
  else a

let decision_level t = t.trail_lim_n

let new_decision_level t =
  if t.trail_lim_n = Array.length t.trail_lim then
    t.trail_lim <- extend_int t.trail_lim (2 * t.trail_lim_n) 0;
  t.trail_lim.(t.trail_lim_n) <- t.trail_n;
  t.trail_lim_n <- t.trail_lim_n + 1

(* --- watches --------------------------------------------------------------- *)

let watch_add t l ci =
  let w = t.watches.(l) in
  let n = t.watch_n.(l) in
  let w =
    if n < Array.length w then w
    else begin
      let w' = extend_int w (max 4 (2 * Array.length w)) 0 in
      t.watches.(l) <- w';
      w'
    end
  in
  w.(n) <- ci;
  t.watch_n.(l) <- n + 1

(* --- assignment ------------------------------------------------------------ *)

let enqueue t (l : lit) reason =
  let v = var_of l in
  t.assigns.(v) <- (if sign_of l then 2 else 1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.polarity.(v) <- not (sign_of l);
  t.trail.(t.trail_n) <- l;
  t.trail_n <- t.trail_n + 1

(* Unassign back to level [lvl]: a bumped variable returns to the heap,
   one at activity 0 to the cursor. *)
let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_n - 1 downto bound do
      let v = var_of t.trail.(i) in
      t.assigns.(v) <- l_undef;
      t.reason.(v) <- -1;
      if t.activity.(v) > 0.0 then heap_insert t v
      else if v < t.next_var then t.next_var <- v
    done;
    t.trail_n <- bound;
    t.qhead <- bound;
    t.trail_lim_n <- lvl
  end

(* --- propagation ----------------------------------------------------------- *)

(* Propagate all enqueued assignments.  Returns the index of a
   conflicting clause, or -1.  Watch convention: [watches.(l)] holds the
   clauses in which literal [l] is one of the two watched literals
   (positions 0 and 1); when [neg l] is assigned (making [l] false) the
   clause must find a new watch, become unit, or conflict. *)
let propagate t =
  let arena = t.arena and cl_start = t.cl_start and cl_len = t.cl_len in
  let confl = ref (-1) in
  while !confl = -1 && t.qhead < t.trail_n do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = neg p in
    let ws = t.watches.(false_lit) in
    let wn = t.watch_n.(false_lit) in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < wn do
      let ci = ws.(!i) in
      incr i;
      let s = cl_start.(ci) in
      (* normalize: the false literal goes to position 1 *)
      if arena.(s) = false_lit then begin
        arena.(s) <- arena.(s + 1);
        arena.(s + 1) <- false_lit
      end;
      if lit_value t arena.(s) = 1 then begin
        (* clause satisfied: keep watching *)
        ws.(!keep) <- ci;
        incr keep
      end
      else begin
        (* look for a new literal to watch *)
        let e = s + cl_len.(ci) in
        let found = ref (-1) in
        let j = ref (s + 2) in
        while !found < 0 && !j < e do
          if lit_value t arena.(!j) <> 2 then found := !j;
          incr j
        done;
        if !found >= 0 then begin
          let j = !found in
          arena.(s + 1) <- arena.(j);
          arena.(j) <- false_lit;
          watch_add t arena.(s + 1) ci
          (* watch on false_lit dropped *)
        end
        else if lit_value t arena.(s) = 2 then begin
          (* conflict: keep the remaining watches, stop *)
          ws.(!keep) <- ci;
          incr keep;
          while !i < wn do
            ws.(!keep) <- ws.(!i);
            incr keep;
            incr i
          done;
          t.qhead <- t.trail_n;
          confl := ci
        end
        else begin
          (* unit clause *)
          ws.(!keep) <- ci;
          incr keep;
          enqueue t arena.(s) ci
        end
      end
    done;
    t.watch_n.(false_lit) <- !keep
  done;
  !confl

(* --- clause addition ------------------------------------------------------- *)

(* Store [c.(0..n-1)] as a clause, in that order, watching positions 0
   and 1.  Returns the clause index. *)
let attach t (c : int array) n : int =
  let ci = t.nclauses in
  if ci = Array.length t.cl_start then begin
    t.cl_start <- extend_int t.cl_start (2 * ci) 0;
    t.cl_len <- extend_int t.cl_len (2 * ci) 0
  end;
  let s = t.arena_n in
  if s + n > Array.length t.arena then
    t.arena <- extend_int t.arena (max (s + n) (2 * Array.length t.arena)) 0;
  let arena = t.arena in
  for i = 0 to n - 1 do
    arena.(s + i) <- c.(i)
  done;
  t.cl_start.(ci) <- s;
  t.cl_len.(ci) <- n;
  t.arena_n <- s + n;
  t.nclauses <- ci + 1;
  watch_add t c.(0) ci;
  watch_add t c.(1) ci;
  ci

let attach_clause t (c : int array) : int = attach t c (Array.length c)

(** The literals of clause [ci] as stored (a copy). *)
let clause t ci = Array.sub t.arena t.cl_start.(ci) t.cl_len.(ci)

(* Add the problem clause in [buf.(0..n-1)].  Must be called with the
   solver at decision level 0 (guaranteed between [solve] calls).
   Simplifies against the level-0 assignment: the literals are sorted
   and deduplicated, a tautology or a clause already satisfied is
   dropped, and false literals are removed, so the stored clause keeps
   its literals in ascending order.  Problem clauses are short (Tseitin
   gates give one to three literals), so the sort is an insertion
   sort. *)
let add_buffered t n =
  if t.ok then begin
    assert (decision_level t = 0);
    let c = t.buf in
    for i = 1 to n - 1 do
      let l = c.(i) in
      let j = ref i in
      while !j > 0 && c.(!j - 1) > l do
        c.(!j) <- c.(!j - 1);
        decr j
      done;
      c.(!j) <- l
    done;
    (* one pass over the sorted literals: duplicates are adjacent, and
       so are complementary pairs [2v], [2v+1]; keep the unassigned *)
    let m = ref 0 and drop = ref false and i = ref 0 in
    while (not !drop) && !i < n do
      let l = c.(!i) in
      if !i + 1 < n && c.(!i + 1) = neg l then drop := true
      else if !i > 0 && c.(!i - 1) = l then ()
      else begin
        match lit_value t l with
        | 1 -> drop := true
        | 2 -> ()
        | _ ->
            c.(!m) <- l;
            incr m
      end;
      incr i
    done;
    if not !drop then
      match !m with
      | 0 -> t.ok <- false
      | 1 ->
          enqueue t c.(0) (-1);
          if propagate t <> -1 then t.ok <- false
      | m -> ignore (attach t c m)
  end

(** Add a problem clause (simplified as [add_buffered] describes). *)
let add_clause t (lits : lit list) =
  let n = List.length lits in
  reserve_buf t n;
  List.iteri (fun i l -> t.buf.(i) <- l) lits;
  add_buffered t n

(** [add_clause t [a; b]] without building the list. *)
let add_clause2 t a b =
  t.buf.(0) <- a;
  t.buf.(1) <- b;
  add_buffered t 2

(** [add_clause t [a; b; c]] without building the list. *)
let add_clause3 t a b c =
  t.buf.(0) <- a;
  t.buf.(1) <- b;
  t.buf.(2) <- c;
  add_buffered t 3

(* --- conflict analysis ----------------------------------------------------- *)

let var_decay = 1.0 /. 0.95

(* Scale every activity down by 1e-100.  A variable that underflows to 0
   leaves the heap for the cursor tier, and the heap is rebuilt: the
   scaling can round two distinct activities to one value, and only a
   rebuild puts such a pair back in index order. *)
let rescale t =
  for i = 0 to t.nvars - 1 do
    t.activity.(i) <- t.activity.(i) *. 1e-100
  done;
  t.var_inc <- t.var_inc *. 1e-100;
  let n = t.heap_n in
  t.heap_n <- 0;
  for i = 0 to n - 1 do
    let v = t.heap.(i) in
    if t.activity.(v) > 0.0 then begin
      t.heap.(t.heap_n) <- v;
      t.heap_pos.(v) <- t.heap_n;
      t.heap_n <- t.heap_n + 1
    end
    else begin
      t.heap_pos.(v) <- -1;
      if t.assigns.(v) = l_undef && v < t.next_var then t.next_var <- v
    end
  done;
  for i = (t.heap_n / 2) - 1 downto 0 do
    heap_down t i
  done

(* Only assigned variables are bumped (they sit in the conflict's
   clauses); one not in the heap joins it when [cancel_until] frees it. *)
let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then rescale t;
  heap_bump t v

(* First-UIP learning.  Leaves the learned clause in [buf.(0..n-1)], the
   asserting literal first and the others in the order they were met,
   and returns (n, backtrack level). *)
let analyze t confl =
  let n = ref 1 in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (t.trail_n - 1) in
  let continue = ref true in
  while !continue do
    let s = t.cl_start.(!confl) in
    let start = if !p = -1 then 0 else 1 in
    for j = start to t.cl_len.(!confl) - 1 do
      let q = t.arena.(s + j) in
      let v = var_of q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump_var t v;
        if t.level.(v) >= decision_level t then incr path
        else begin
          reserve_buf t (!n + 1);
          t.buf.(!n) <- q;
          incr n
        end
      end
    done;
    (* pick the next seen literal on the trail *)
    while not t.seen.(var_of t.trail.(!index)) do
      decr index
    done;
    let q = t.trail.(!index) in
    decr index;
    p := q;
    t.seen.(var_of q) <- false;
    decr path;
    if !path > 0 then confl := t.reason.(var_of q) else continue := false
  done;
  t.buf.(0) <- neg !p;
  let bt = ref 0 in
  for j = 1 to !n - 1 do
    let v = var_of t.buf.(j) in
    t.seen.(v) <- false;
    bt := max !bt t.level.(v)
  done;
  (!n, !bt)

(* Record the learned clause that [analyze] left in [buf.(0..n-1)]. *)
let record_learnt t n =
  let c = t.buf in
  let l = c.(0) in
  if n = 1 then begin
    cancel_until t 0;
    if lit_value t l = l_undef then begin
      enqueue t l (-1);
      if propagate t <> -1 then t.ok <- false
    end
    else if lit_value t l = 2 then t.ok <- false;
    t.ok
  end
  else begin
    (* backjump already done by the caller; place the asserting literal
       at 0 and a highest-level literal at 1 *)
    let best = ref 1 in
    for j = 2 to n - 1 do
      if t.level.(var_of c.(j)) > t.level.(var_of c.(!best)) then best := j
    done;
    let tmp = c.(1) in
    c.(1) <- c.(!best);
    c.(!best) <- tmp;
    let ci = attach t c n in
    enqueue t l ci;
    true
  end

(* --- restarts -------------------------------------------------------------- *)

(* the Luby sequence 1 1 2 1 1 2 4 ... *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

(* --- solving --------------------------------------------------------------- *)

(* The next decision variable, or -1 when every variable is assigned:
   the heap's best unassigned variable, else the cursor's.  Once the
   heap is drained, no unassigned variable has a positive activity. *)
let pick_branch t =
  let v = ref (-1) in
  while !v = -1 && t.heap_n > 0 do
    let c = heap_pop t in
    if t.assigns.(c) = l_undef then v := c
  done;
  if !v = -1 then begin
    let i = ref t.next_var in
    while !i < t.nvars && t.assigns.(!i) <> l_undef do
      incr i
    done;
    t.next_var <- !i;
    if !i < t.nvars then v := !i
  end;
  !v

exception Done of result

let solve ?(assumptions : lit list = []) ?(conflict_limit = max_int) t : result =
  cancel_until t 0;
  if not t.ok then Unsat
  else begin
    let assumps = Array.of_list assumptions in
    t.model <- [||];
    let restart_no = ref 0 in
    let budget = ref (100 * luby !restart_no) in
    let conflicts_left = ref conflict_limit in
    let res =
      try
        if propagate t <> -1 then begin
          t.ok <- false;
          raise (Done Unsat)
        end;
        while true do
          let confl = propagate t in
          if confl <> -1 then begin
            t.conflicts <- t.conflicts + 1;
            decr budget;
            decr conflicts_left;
            if decision_level t = 0 then begin
              t.ok <- false;
              raise (Done Unsat)
            end;
            if !conflicts_left < 0 then raise (Done Undecided);
            let n, bt = analyze t confl in
            cancel_until t bt;
            if not (record_learnt t n) then raise (Done Unsat);
            t.var_inc <- t.var_inc *. var_decay
          end
          else if !budget <= 0 && decision_level t > Array.length assumps then begin
            (* Luby restart; assumption levels are replayed by the
               decision loop below *)
            incr restart_no;
            budget := 100 * luby !restart_no;
            cancel_until t 0
          end
          else begin
            (* pick the next decision: pending assumptions first *)
            let dl = decision_level t in
            if dl < Array.length assumps then begin
              let a = assumps.(dl) in
              match lit_value t a with
              | 1 ->
                  (* already true: open an empty level so indices align *)
                  new_decision_level t
              | 2 -> raise (Done Unsat)  (* assumptions contradictory *)
              | _ ->
                  new_decision_level t;
                  t.decisions <- t.decisions + 1;
                  enqueue t a (-1)
            end
            else begin
              (* VSIDS decision with saved phase *)
              let v = pick_branch t in
              if v = -1 then begin
                t.model <- Array.copy t.assigns;
                raise (Done Sat)
              end;
              new_decision_level t;
              t.decisions <- t.decisions + 1;
              enqueue t (if t.polarity.(v) then pos v else negl v) (-1)
            end
          end
        done;
        Unsat (* unreachable *)
      with Done r -> r
    in
    cancel_until t 0;
    res
  end

(** Model value of [var] after a [Sat] answer (false when the variable
    was never touched by the search). *)
let value t v =
  if v < Array.length t.model then t.model.(v) = 1 else false

(** Model value of a literal. *)
let lit_holds t (l : lit) = value t (var_of l) <> sign_of l
