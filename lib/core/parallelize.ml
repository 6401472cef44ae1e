(** Assertion parallelization (paper Section 3.1).

    Each assertion is moved out of the application's state machine into
    a separate checker task.  The application only *extracts* the data
    the condition needs — scalars are register taps (free), array
    elements are block-RAM reads scheduled like any other load — and
    raises a fire pulse; the checker evaluates the condition in parallel
    and reports failures on its channel.  The application's control flow
    graph is unchanged, which is where the paper's zero-latency-overhead
    rows in Tables 3-4 come from. *)

open Front.Ast

type checker_spec = {
  info : Assertion.info;
  slots : expr list;   (** leaf expressions the application evaluates and taps *)
  cond : expr;         (** the condition rewritten over [__slotN] variables *)
}

(* Leaves are the data the checker needs from the application: variable
   reads, array reads, and external-call results.  Everything above a
   leaf is pure arithmetic the checker replicates on its own silicon.
   Structurally identical leaves share one slot. *)
let extract_slots (cond : expr) : expr * expr list =
  let table : ((string * ty) * expr) list ref = ref [] in
  let originals : expr list ref = ref [] in
  let rec go (x : expr) : expr =
    match x.e with
    | Var _ | Index _ | Call _ ->
        let key = (Front.Pretty.expr_to_string x, x.ety) in
        (match List.assoc_opt key !table with
        | Some slot_var -> slot_var
        | None ->
            let k = List.length !table in
            let slot_var = { x with e = Var (Assertion.slot_name k) } in
            table := !table @ [ (key, slot_var) ];
            originals := !originals @ [ x ];
            slot_var)
    | Int _ | Bool _ -> x
    | Unop (op, a) -> { x with e = Unop (op, go a) }
    | Binop (op, a, b) ->
        (* evaluation order fixes slot numbering: left operand first *)
        let a' = go a in
        let b' = go b in
        { x with e = Binop (op, a', b') }
    | Cast (ty, a) -> { x with e = Cast (ty, go a) }
  in
  let cond' = go cond in
  (cond', !originals)

(** Rewrite the assertions of one hardware process into data-extraction
    taps, returning the modified process and the checker specifications.
    [next_id] must enumerate assertions as {!Assertion.extract} does. *)
let transform_proc (next_id : int ref) (p : proc) : proc * checker_spec list =
  if p.kind <> Hardware then (p, [])
  else begin
    let specs = ref [] in
    let body =
      map_stmts
        (fun st ->
          match st.s with
          | Assert (c, text) ->
              let id = !next_id in
              incr next_id;
              let cond, slots = extract_slots c in
              let info =
                { Assertion.id; aproc = p.pname; aloc = st.sloc; text; cond = c }
              in
              specs := { info; slots; cond } :: !specs;
              [ { st with s = Tapstmt (id, slots) } ]
          | _ -> [ st ])
        p.body
    in
    ({ p with body }, List.rev !specs)
  end

(** Apply parallelization to a whole program (failure streams are added
    separately from the channel [plan] by the driver). *)
let transform (prog : program) : program * checker_spec list =
  let next_id = ref 0 in
  let procs, specs =
    List.fold_left
      (fun (ps, ss) p ->
        let p', s = transform_proc next_id p in
        (p' :: ps, ss @ s))
      ([], []) prog.procs
  in
  ({ prog with procs = List.rev procs }, specs)
