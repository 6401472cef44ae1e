(** Forward abstract interpretation over {!Domain} (see absint.mli for
    the soundness contract against {!Interp}). *)

open Front.Ast
module Loc = Front.Loc
module Pretty = Front.Pretty
module SM = Map.Make (String)

type klass =
  | Proved
  | Violated of (string * int64) list
  | Unknown

type verdict = { vproc : string; vloc : Loc.t; vtext : string; vclass : klass }

type result = {
  verdicts : verdict list;
  uninit_reads : (string * string * Loc.t) list;
  dead : (string * Loc.t * string * string) list;
}

let class_name = function
  | Proved -> "proved"
  | Violated _ -> "violated"
  | Unknown -> "unknown"

let free_vars = Front.Ast.free_vars

(* --- environments --------------------------------------------------------- *)

type scalar = { dom : Domain.t; sty : ty; uninit : bool }
type arr = { adom : Domain.t; alen : int }

type env = {
  scalars : scalar SM.t;
  arrays : arr SM.t;
  facts : (string * Loc.t * expr) list;
      (** asserted conditions still active on every path to here (the
          dead-assertion lint; never used to refine the domain) *)
}

type state = env option (* None = unreachable *)

let fact_mem text facts = List.exists (fun (t, _, _) -> t = text) facts

let env_join a b =
  {
    scalars =
      SM.merge
        (fun _ l r ->
          match (l, r) with
          | Some l, Some r ->
              Some { dom = Domain.join l.dom r.dom; sty = l.sty; uninit = l.uninit || r.uninit }
          | _ -> None (* declared in only one branch: out of scope after *))
        a.scalars b.scalars;
    arrays =
      SM.merge
        (fun _ l r ->
          match (l, r) with
          | Some l, Some r -> Some { adom = Domain.join l.adom r.adom; alen = l.alen }
          | _ -> None)
        a.arrays b.arrays;
    facts = List.filter (fun (t, _, _) -> fact_mem t b.facts) a.facts;
  }

let env_widen old_ next =
  {
    scalars =
      SM.merge
        (fun _ l r ->
          match (l, r) with
          | Some l, Some r ->
              Some
                { dom = Domain.widen l.sty l.dom r.dom; sty = l.sty; uninit = l.uninit || r.uninit }
          | _ -> None)
        old_.scalars next.scalars;
    arrays =
      SM.merge
        (fun _ l r ->
          match (l, r) with
          | Some l, Some r ->
              Some { adom = Domain.widen (Tint (Signed, W64)) l.adom r.adom; alen = l.alen }
          | _ -> None)
        old_.arrays next.arrays;
    facts = List.filter (fun (t, _, _) -> fact_mem t next.facts) old_.facts;
  }

let env_leq a b =
  SM.for_all
    (fun k (l : scalar) ->
      match SM.find_opt k b.scalars with
      | Some r -> Domain.leq l.dom r.dom && ((not l.uninit) || r.uninit)
      | None -> false)
    a.scalars
  && SM.cardinal a.scalars = SM.cardinal b.scalars
  && SM.for_all
       (fun k (l : arr) ->
         match SM.find_opt k b.arrays with
         | Some r -> Domain.leq l.adom r.adom
         | None -> false)
       a.arrays
  && SM.cardinal a.arrays = SM.cardinal b.arrays
  && List.for_all (fun (t, _, _) -> fact_mem t a.facts) b.facts

let join_state a b =
  match (a, b) with
  | None, s | s, None -> s
  | Some a, Some b -> Some (env_join a b)

let ( >>= ) st f = match st with None -> None | Some env -> f env

(* --- analysis context ----------------------------------------------------- *)

type ctx = {
  proc : string;
  poisoned : string list;
      (** names declared more than once in the process (or colliding
          with a parameter): a flat environment cannot scope them, so
          they are pinned to the unconstrained top value *)
  verdict_tbl : (string * string * int, klass) Hashtbl.t;
      (** (proc, text, line/col key) -> last-visit classification; the
          final visit of any statement happens under the stable
          narrowed loop environments, so it both over-approximates
          every concrete visit and is the most precise sound answer *)
  dead_tbl : (string * string * int, string option) Hashtbl.t;
  uninit_tbl : (string * string, Loc.t) Hashtbl.t;
}

let loc_key (l : Loc.t) = (l.Loc.line * 4096) + l.Loc.col

let poisoned ctx x = List.mem x ctx.poisoned

(* --- expression evaluation ------------------------------------------------ *)

let rec eval ctx env (x : expr) : Domain.t =
  match x.e with
  | Int n -> Domain.const_of x.ety n
  | Bool b -> Domain.const (Interp.Value.of_bool b)
  | Var name ->
      if poisoned ctx name then Domain.top
      else (
        match SM.find_opt name env.scalars with
        | Some cell ->
            if cell.uninit && not (Hashtbl.mem ctx.uninit_tbl (ctx.proc, name)) then
              Hashtbl.replace ctx.uninit_tbl (ctx.proc, name) x.eloc;
            cell.dom
        | None -> Domain.top)
  | Index (name, idx) ->
      ignore (eval ctx env idx);
      if poisoned ctx name then Domain.top
      else (
        match SM.find_opt name env.arrays with
        | Some a -> a.adom
        | None -> Domain.top)
  | Unop (op, a) -> Domain.unop op a.ety (eval ctx env a)
  | Binop (op, a, b) -> Domain.binop op a.ety (eval ctx env a) (eval ctx env b)
  | Cast (ty, a) -> Domain.cast ~to_ty:ty (eval ctx env a)
  | Call (_, args) ->
      List.iter (fun a -> ignore (eval ctx env a)) args;
      Domain.top_of_ty x.ety

(* --- condition refinement ------------------------------------------------- *)

let set_scalar ctx env x dom : state =
  if poisoned ctx x || Domain.is_bot dom then
    if Domain.is_bot dom then None else Some env
  else
    match SM.find_opt x env.scalars with
    | Some cell -> Some { env with scalars = SM.add x { cell with dom } env.scalars }
    | None -> Some env

let swap_cmp = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | o -> o

let rec assume ctx env (c : expr) keep : state =
  match (Domain.truth (eval ctx env c), keep) with
  | Domain.False, true | Domain.True, false -> None
  | _ -> (
      match c.e with
      | Bool b -> if b = keep then Some env else None
      | Unop (Lnot, e) -> assume ctx env e (not keep)
      | Binop (Land, a, b) when keep ->
          assume ctx env a true >>= fun env -> assume ctx env b true
      | Binop (Land, a, b) ->
          join_state
            (assume ctx env a false)
            (assume ctx env a true >>= fun env' -> assume ctx env' b false)
      | Binop (Lor, a, b) when not keep ->
          assume ctx env a false >>= fun env -> assume ctx env b false
      | Binop (Lor, a, b) ->
          join_state
            (assume ctx env a true)
            (assume ctx env a false >>= fun env' -> assume ctx env' b true)
      | Binop (op, a, b) when is_comparison op ->
          let da = eval ctx env a and db = eval ctx env b in
          let ty = a.ety in
          let st =
            match a.e with
            | Var x -> set_scalar ctx env x (Domain.refine_cmp op ty keep da db)
            | _ -> Some env
          in
          st >>= fun env ->
          (match b.e with
          | Var y ->
              set_scalar ctx env y (Domain.refine_cmp (swap_cmp op) ty keep db da)
          | _ -> Some env)
      | _ -> Some env)

(* --- violation witnesses -------------------------------------------------- *)

let witness ctx env (c : expr) =
  List.filter_map
    (fun x ->
      if poisoned ctx x then None
      else
        match SM.find_opt x env.scalars with
        | Some cell -> Option.map (fun v -> (x, v)) (Domain.representative cell.dom)
        | None -> None)
    (free_vars c)

(* --- dead-assertion implication ------------------------------------------- *)

(* [implies f c]: does the earlier asserted fact [f] logically imply
   [c]?  Textual identity, or both are comparisons of the same subject
   expression against constants and [f]'s solution set is contained in
   [c]'s. *)
let implies (f : expr) (c : expr) =
  Pretty.expr_to_string f = Pretty.expr_to_string c
  ||
  match (f.e, c.e) with
  | Binop (opf, lf, rf), Binop (opc, lc, rc)
    when is_comparison opf && is_comparison opc
         && Pretty.expr_to_string lf = Pretty.expr_to_string lc
         && equal_ty lf.ety lc.ety -> (
      match (Bound.closed_const rf, Bound.closed_const rc) with
      | Some vf, Some vc ->
          let ty = lf.ety in
          let df = Domain.refine_cmp opf ty true Domain.top (Domain.const vf) in
          let dc = Domain.refine_cmp opc ty true Domain.top (Domain.const vc) in
          (not (Domain.equal dc Domain.top)) && Domain.leq df dc
      | _ -> false)
  | _ -> false

(* --- statement execution -------------------------------------------------- *)

let rec exec ctx (st : state) (stmt : stmt) : state =
  match st with
  | None -> None
  | Some env -> (
      match stmt.s with
      | Decl (Tarray (_, n), x, _) ->
          (* Interp zero-fills fresh arrays *)
          if poisoned ctx x then Some env
          else Some { env with arrays = SM.add x { adom = Domain.const 0L; alen = n } env.arrays }
      | Const_array (elem, x, vals) ->
          if poisoned ctx x then Some env
          else
            let adom =
              List.fold_left
                (fun acc v -> Domain.join acc (Domain.const_of elem v))
                Domain.Bot vals
            in
            Some { env with arrays = SM.add x { adom; alen = List.length vals } env.arrays }
      | Decl (ty, x, init) ->
          let dom, uninit =
            match init with
            | Some e -> (eval ctx env e, false)
            | None -> (Domain.const 0L, true) (* Interp zero-initializes *)
          in
          if poisoned ctx x then Some env
          else Some { env with scalars = SM.add x { dom; sty = ty; uninit } env.scalars }
      | Assign (Lvar x, e) ->
          let dom = eval ctx env e in
          let facts = List.filter (fun (_, _, f) -> not (List.mem x (free_vars f))) env.facts in
          if poisoned ctx x then Some { env with facts }
          else (
            match SM.find_opt x env.scalars with
            | Some cell ->
                Some
                  {
                    env with
                    scalars = SM.add x { cell with dom; uninit = false } env.scalars;
                    facts;
                  }
            | None ->
                Some
                  {
                    env with
                    scalars = SM.add x { dom; sty = e.ety; uninit = false } env.scalars;
                    facts;
                  })
      | Assign (Lindex (a, i), e) ->
          ignore (eval ctx env i);
          let dom = eval ctx env e in
          let facts =
            List.filter
              (fun (_, _, f) ->
                not (List.exists (fun n -> n = a) (arrays_read f)))
              env.facts
          in
          if poisoned ctx a then Some { env with facts }
          else (
            match SM.find_opt a env.arrays with
            | Some cell ->
                (* weak update: the element summary absorbs the store *)
                Some
                  {
                    env with
                    arrays = SM.add a { cell with adom = Domain.join cell.adom dom } env.arrays;
                    facts;
                  }
            | None -> Some { env with facts })
      | If (c, t, f) ->
          let st_t = exec_list ctx (assume ctx env c true) t in
          let st_f = exec_list ctx (assume ctx env c false) f in
          join_state st_t st_f
      | While (c, body) -> loop ctx env c body None
      | For (h, body) ->
          let st = match h.init with Some s -> exec ctx (Some env) s | None -> Some env in
          st >>= fun env -> loop ctx env h.cond body h.step
      | Assert (c, text) ->
          let d = eval ctx env c in
          let k =
            match Domain.truth d with
            | Domain.True -> Proved
            | Domain.False -> Violated (witness ctx env c)
            | Domain.Maybe -> Unknown
          in
          let key = (ctx.proc, text, loc_key stmt.sloc) in
          Hashtbl.replace ctx.verdict_tbl key k;
          Hashtbl.replace ctx.dead_tbl key
            (Option.map
               (fun (t, _, _) -> t)
               (List.find_opt (fun (_, _, f) -> implies f c) env.facts));
          (* record the fact for the dead-assert lint, but never refine
             the domain: NABORT executions continue past a failure *)
          let facts =
            if k <> Violated [] && not (fact_mem text env.facts) then
              (text, stmt.sloc, c) :: env.facts
            else env.facts
          in
          Some { env with facts }
      | Stream_read (lv, _) -> (
          (* feed data reaches the reader without canonicalization *)
          match lv with
          | Lvar x ->
              let facts =
                List.filter (fun (_, _, f) -> not (List.mem x (free_vars f))) env.facts
              in
              if poisoned ctx x then Some { env with facts }
              else (
                match SM.find_opt x env.scalars with
                | Some cell ->
                    Some
                      {
                        env with
                        scalars =
                          SM.add x { cell with dom = Domain.top; uninit = false } env.scalars;
                        facts;
                      }
                | None -> Some { env with facts })
          | Lindex (a, i) ->
              ignore (eval ctx env i);
              let facts =
                List.filter
                  (fun (_, _, f) -> not (List.exists (fun n -> n = a) (arrays_read f)))
                  env.facts
              in
              if poisoned ctx a then Some { env with facts }
              else (
                match SM.find_opt a env.arrays with
                | Some cell ->
                    Some
                      {
                        env with
                        arrays =
                          SM.add a { cell with adom = Domain.join cell.adom Domain.top } env.arrays;
                        facts;
                      }
                | None -> Some { env with facts }))
      | Stream_write (_, e) ->
          ignore (eval ctx env e);
          Some env
      | Return _ -> None
      | Block b -> exec_list ctx (Some env) b
      | Tapstmt (_, args) ->
          List.iter (fun a -> ignore (eval ctx env a)) args;
          Some env)

and exec_list ctx st stmts = List.fold_left (exec ctx) st stmts

(* Loop-head fixpoint: Kleene iteration with a widening delay of 2,
   then two narrowing passes (re-applying the monotone loop functional
   from a post-fixpoint descends but stays above the least fixpoint).
   The exit state re-applies the negated condition. *)
and loop ctx env0 cond body step : state =
  let f (head : env) : env =
    let entry = assume ctx head cond true in
    let out = exec_list ctx entry body in
    let out = match step with Some s -> exec ctx out s | None -> out in
    match join_state (Some env0) out with
    | Some e -> e
    | None -> env0 (* unreachable: join with env0 is always Some *)
  in
  let rec iterate head n =
    let next = f head in
    if env_leq next head then head
    else
      let grown = env_join head next in
      let head' = if n >= 2 then env_widen head grown else grown in
      if n > 64 then head' (* termination backstop; widening converges long before *)
      else iterate head' (n + 1)
  in
  let stable = iterate env0 0 in
  let narrowed = f (f stable) in
  assume ctx narrowed cond false

(* --- whole-program analysis ----------------------------------------------- *)

let duplicates_of (p : proc) =
  let declared = ref (List.map fst p.params) in
  let dups = ref [] in
  iter_stmts
    (fun st ->
      match st.s with
      | Decl (_, x, _) | Const_array (_, x, _) ->
          if List.mem x !declared then (
            if not (List.mem x !dups) then dups := x :: !dups)
          else declared := x :: !declared
      | _ -> ())
    p.body;
  !dups

let analyze (prog : program) : result =
  let verdict_tbl = Hashtbl.create 64 in
  let dead_tbl = Hashtbl.create 64 in
  let uninit_tbl = Hashtbl.create 64 in
  let hw = List.filter (fun p -> p.kind = Hardware) prog.procs in
  List.iter
    (fun (p : proc) ->
      let ctx =
        { proc = p.pname; poisoned = duplicates_of p; verdict_tbl; dead_tbl; uninit_tbl }
      in
      let env0 =
        List.fold_left
          (fun env (x, ty) ->
            match ty with
            | Tarray (_, n) ->
                { env with arrays = SM.add x { adom = Domain.top; alen = n } env.arrays }
            | _ ->
                {
                  env with
                  scalars =
                    SM.add x { dom = Domain.top_of_ty ty; sty = ty; uninit = false } env.scalars;
                })
          { scalars = SM.empty; arrays = SM.empty; facts = [] }
          p.params
      in
      ignore (exec_list ctx (Some env0) p.body))
    hw;
  let verdicts =
    List.concat_map
      (fun (p : proc) ->
        List.map
          (fun (loc, _, text) ->
            let k =
              match Hashtbl.find_opt verdict_tbl (p.pname, text, loc_key loc) with
              | Some k -> k
              | None -> Unknown (* never reached: conservatively unknown *)
            in
            { vproc = p.pname; vloc = loc; vtext = text; vclass = k })
          (assertions_of p.body))
      hw
  in
  let dead =
    List.concat_map
      (fun (p : proc) ->
        List.filter_map
          (fun (loc, _, text) ->
            match Hashtbl.find_opt dead_tbl (p.pname, text, loc_key loc) with
            | Some (Some by) -> Some (p.pname, loc, text, by)
            | _ -> None)
          (assertions_of p.body))
      hw
  in
  let uninit_reads =
    Hashtbl.fold (fun (pr, v) loc acc -> (pr, v, loc) :: acc) uninit_tbl []
    |> List.sort (fun (p1, v1, l1) (p2, v2, l2) ->
           compare
             (p1, l1.Loc.file, l1.Loc.line, l1.Loc.col, v1)
             (p2, l2.Loc.file, l2.Loc.line, l2.Loc.col, v2))
  in
  { verdicts; uninit_reads; dead }
