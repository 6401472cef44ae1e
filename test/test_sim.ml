(* Cycle-accurate simulator tests: FIFO/BRAM models, engine semantics,
   pipelined loops, hang detection, checkers — and the central
   equivalence property: the circuit computes exactly what the software
   interpreter computes (when no fault is injected). *)

open Front
module Engine = Sim.Engine
module Fifo = Sim.Fifo
module Bram = Sim.Bram

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let elab = Typecheck.parse_and_check ~file:"test.c"

(* naive substring replace (first occurrence) *)
let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
  | None -> s

(* --- Fifo -------------------------------------------------------------------- *)

let test_fifo_visibility () =
  let f = Fifo.create ~name:"t" ~depth:4 in
  Fifo.push f 1L;
  check tbool "staged value not yet visible" false (Fifo.can_pop f);
  Fifo.commit f;
  check tbool "visible after commit" true (Fifo.can_pop f);
  check tbool "pop" true (Fifo.pop f = 1L)

let test_fifo_capacity () =
  let f = Fifo.create ~name:"t" ~depth:2 in
  Fifo.push f 1L;
  Fifo.push f 2L;
  check tbool "full counts staged" false (Fifo.can_push f);
  Fifo.commit f;
  check tbool "still full" false (Fifo.can_push f);
  ignore (Fifo.pop f);
  check tbool "space after pop" true (Fifo.can_push f)

let test_fifo_stats () =
  let f = Fifo.create ~name:"t" ~depth:8 in
  List.iter (fun v -> Fifo.push f v) [ 1L; 2L; 3L ];
  Fifo.commit f;
  ignore (Fifo.pop f);
  check tint "pushes" 3 f.Fifo.pushes;
  check tint "pops" 1 f.Fifo.pops;
  check tint "max occupancy" 3 f.Fifo.max_occupancy

let fifo_order_prop =
  QCheck.Test.make ~count:200 ~name:"fifo preserves order across commits"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 20) int64)
    (fun values ->
      let f = Fifo.create ~name:"t" ~depth:1000 in
      List.iter
        (fun v ->
          Fifo.push f v;
          Fifo.commit f)
        values;
      let out = ref [] in
      while Fifo.can_pop f do
        out := Fifo.pop f :: !out
      done;
      List.rev !out = values)

(* The ring FIFO against a two-queue model (committed, staged) under
   random push / pop / commit traffic at depths 1-5, so the ring wraps;
   [Snap] and [Restore] exercise copy/restore mid-wrap. *)
type fifo_op = Push of int64 | Pop | Commit | Snap | Restore

let fifo_op_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun v -> Push v) ui64); (3, return Pop); (2, return Commit); (1, return Snap);
        (1, return Restore) ])

let fifo_op_print = function
  | Push v -> Printf.sprintf "push %Ld" v
  | Pop -> "pop"
  | Commit -> "commit"
  | Snap -> "snap"
  | Restore -> "restore"

type fifo_model = {
  m_q : int64 Queue.t;
  m_staged : int64 Queue.t;
  mutable m_pushes : int;
  mutable m_pops : int;
  mutable m_max : int;
}

let model_copy m = { m with m_q = Queue.copy m.m_q; m_staged = Queue.copy m.m_staged }

let fifo_ring_model_prop =
  QCheck.Test.make ~count:300 ~name:"ring fifo = queue model (wrap, copy/restore)"
    QCheck.(
      pair (int_range 1 5)
        (make ~print:(Print.list fifo_op_print) Gen.(list_size (int_range 0 60) fifo_op_gen)))
    (fun (depth, ops) ->
      let f = Fifo.create ~name:"t" ~depth in
      let m =
        ref { m_q = Queue.create (); m_staged = Queue.create (); m_pushes = 0; m_pops = 0; m_max = 0 }
      in
      let saved = ref None in
      let agrees () =
        let m = !m in
        let occ = Queue.length m.m_q + Queue.length m.m_staged in
        Fifo.contents f = List.of_seq (Queue.to_seq m.m_q) @ List.of_seq (Queue.to_seq m.m_staged)
        && Fifo.occupancy f = occ
        && Fifo.can_push f = (occ < depth)
        && Fifo.can_pop f = not (Queue.is_empty m.m_q)
        && Fifo.peek f = Queue.peek_opt m.m_q
        && f.Fifo.max_occupancy = m.m_max
        && f.Fifo.pushes = m.m_pushes
        && f.Fifo.pops = m.m_pops
      in
      List.for_all
        (fun op ->
          let m' = !m in
          (match op with
          | Push v ->
              if Fifo.can_push f then begin
                Fifo.push f v;
                Queue.add v m'.m_staged;
                m'.m_pushes <- m'.m_pushes + 1
              end
          | Pop ->
              if Fifo.can_pop f then begin
                let v = Fifo.pop f in
                assert (v = Queue.pop m'.m_q);
                m'.m_pops <- m'.m_pops + 1
              end
          | Commit ->
              Fifo.commit f;
              Queue.transfer m'.m_staged m'.m_q;
              m'.m_max <- max m'.m_max (Queue.length m'.m_q)
          | Snap -> saved := Some (Fifo.copy f, model_copy m')
          | Restore -> (
              match !saved with
              | Some (sf, sm) ->
                  Fifo.restore f ~saved:sf;
                  m := model_copy sm
              | None -> ()));
          agrees ())
        ops)

(* --- Bram -------------------------------------------------------------------- *)

let test_bram_rdw_old_data () =
  let b = Bram.create ~name:"m" ~length:8 ~ports:2 () in
  Bram.poke b 3 10L;
  Bram.write b 3L 99L;
  check tbool "read during write returns old data" true (Bram.read b 3L = 10L);
  Bram.commit b;
  check tbool "new data after commit" true (Bram.read b 3L = 99L)

let test_bram_address_wrap () =
  let b = Bram.create ~name:"m" ~length:6 ~ports:1 () in
  (* physical array is 8 deep; address -1 wraps to 7 (padding) *)
  Bram.write b (-1L) 42L;
  Bram.commit b;
  check tbool "wild write hit padding" true (Bram.peek b 7 = 42L);
  check tbool "wild accesses counted" true (b.Bram.wild_accesses > 0)

let test_bram_port_accounting () =
  let b = Bram.create ~name:"m" ~length:8 ~ports:1 () in
  ignore (Bram.read b 0L);
  ignore (Bram.read b 1L);
  check tbool "violation recorded" true (b.Bram.port_violations > 0);
  Bram.commit b;
  ignore (Bram.read b 0L);
  check tint "counter resets per cycle" 1 b.Bram.accesses_this_cycle

let test_bram_init () =
  let b = Bram.create ~init:[ 5L; 6L; 7L ] ~name:"m" ~length:3 ~ports:1 () in
  check tbool "rom contents" true (Bram.peek b 0 = 5L && Bram.peek b 2 = 7L)

let test_bram_mirror_write_no_port () =
  let b = Bram.create ~name:"m" ~length:4 ~ports:1 () in
  Bram.mirror_write b 0L 1L;
  check tint "mirror write uses hidden port" 0 b.Bram.accesses_this_cycle

(* More staged writes than the initial staging capacity, with repeated
   addresses: applied in program order, so the last write wins; a
   restore carries pending writes along and replaces the target's. *)
let test_bram_staged_program_order () =
  let tint64s = Alcotest.(list int64) in
  let b = Bram.create ~name:"m" ~length:4 ~ports:8 () in
  List.iter
    (fun (a, v) -> Bram.write b a v)
    [ (0L, 1L); (1L, 2L); (0L, 3L); (2L, 4L); (1L, 5L); (3L, 6L); (0L, 7L) ];
  Bram.mirror_write b 2L 8L;
  let saved = Bram.copy b in
  Bram.commit b;
  check tint64s "last write in program order wins" [ 7L; 5L; 8L; 6L ] (List.init 4 (Bram.peek b));
  let other = Bram.create ~name:"m" ~length:4 ~ports:8 () in
  Bram.write other 3L 99L;
  Bram.restore other ~saved;
  check tint64s "staged writes invisible before commit" [ 0L; 0L; 0L; 0L ]
    (List.init 4 (Bram.peek other));
  Bram.commit other;
  check tint64s "restored pending writes apply, the target's are gone" [ 7L; 5L; 8L; 6L ]
    (List.init 4 (Bram.peek other));
  check tint "the saved copy still holds its writes" 8 saved.Bram.nstaged;
  check tint "commit empties the staging" 0 other.Bram.nstaged

(* --- Fused ALU vs Value ---------------------------------------------------------- *)

(* The engine compiles every ALU instruction to its own word closure;
   [Value] stays the definition of scalar semantics.  Each instruction
   runs once in a hand-built design — a sequential state (overlay
   reads and writes) or the body of a one-iteration pipelined loop
   (iteration-view reads and writes) — and a tap on its destination
   reports the word it produced. *)
module Ir = Mir.Ir
module Fsmd = Hls.Fsmd
module Value = Interp.Value

let alu_tys =
  Ast.Tbool
  :: List.concat_map
       (fun s -> List.map (fun w -> Ast.Tint (s, w)) Ast.[ W1; W8; W16; W32; W64 ])
       Ast.[ Signed; Unsigned ]

(* Operand registers r0/r1 (initialized through params), the
   destination r2 (64-bit, so no wrap hides a wrong word), the pipe's
   issue condition r3. *)
let alu_run ~pipe ~ta ~tb ~x ~y inst =
  let info rty origin = { Ir.rty; origin } in
  let proc =
    {
      Ir.name = "alu";
      kind = Ast.Hardware;
      regs =
        [ (0, info ta (Some "a")); (1, info tb (Some "b")); (2, info Ast.int64_t None);
          (3, info Ast.Tbool (Some "go")) ];
      mems = [];
      body = [];
    }
  in
  let ops = [ Ir.unguarded inst; Ir.unguarded (Ir.Tap { id = 0; args = [ Ir.Reg 2 ] }) ] in
  let state ops next = { Fsmd.ops; next; chain_ns = 0.0 } in
  let fsmd =
    if pipe then
      {
        Fsmd.proc;
        states = [| state [] (Fsmd.Enter_pipe 0); state [] Fsmd.Done |];
        pipes =
          [|
            {
              Fsmd.ii = 1;
              depth = 1;
              cond_insts = [];
              cond = 3;
              step_insts =
                [ Ir.unguarded (Ir.Copy { dst = 3; src = Ir.Imm 0L; ty = Ast.Tbool }) ];
              cycle_ops = [| ops |];
              exit_to = 1;
              pipe_chain_ns = 0.0;
            };
          |];
        entry = 0;
        max_chain_ns = 0.0;
      }
    else
      { Fsmd.proc; states = [| state ops Fsmd.Done |]; pipes = [||]; entry = 0; max_chain_ns = 0.0 }
  in
  let seen = ref None in
  let cfg =
    {
      Engine.default_config with
      max_cycles = 20;
      params = [ ("alu", [ ("a", x); ("b", y); ("go", 1L) ]) ];
      on_tap = Some (fun _ _ vals -> seen := Some vals.(0));
    }
  in
  let r = Engine.simulate ~cfg ~streams:[] ~fsmds:[ fsmd ] () in
  match (r.Engine.outcome, !seen) with
  | Engine.Finished, Some v -> Ok v
  | Engine.Sim_error m, _ -> Error m
  | _ -> Error "no tap"

(* The word an operand reads: an immediate as is, a register at its
   type's canonical value. *)
let operand_word ~imm ty v = if imm then v else Value.wrap_ty ty v

let alu_binops =
  Ast.[ Add; Sub; Mul; Div; Mod; Shl; Shr; Lt; Le; Gt; Ge; Eq; Ne; Band; Bor; Bxor; Land; Lor ]

(* Boundary words at every width: 0, +-1, signed min/max, unsigned max,
   shift amounts at and past the width, min_int. *)
let boundary_words =
  List.sort_uniq compare
    (0L :: 1L :: -1L :: Int64.min_int :: Int64.max_int
    :: List.concat_map
         (fun n ->
           let p = Int64.shift_left 1L (n - 1) in
           [ Int64.neg p; Int64.pred p; Int64.pred (Int64.shift_left p 1); Int64.of_int n;
             Int64.of_int (n - 1); Int64.of_int (n + 1); Int64.of_int (2 * n) ])
         [ 1; 8; 16; 32; 64 ])

let alu_word_gen =
  QCheck.Gen.(frequency [ (3, oneofl boundary_words); (1, ui64); (1, map Int64.of_int small_signed_int) ])

let alu_matches_value =
  QCheck.Test.make ~count:40 ~name:"fused ALU = Value (every op, width, signedness)"
    QCheck.(
      make
        ~print:(fun (x, y, ia, ib, pipe) ->
          Printf.sprintf "x=%Ld y=%Ld imm_a=%b imm_b=%b pipe=%b" x y ia ib pipe)
        Gen.(tup5 alu_word_gen alu_word_gen bool bool bool))
    (fun (x, y, imm_a, imm_b, pipe) ->
      let opnd imm r v = if imm then Ir.Imm v else Ir.Reg r in
      let run ~ta ~tb inst = alu_run ~pipe ~ta ~tb ~x ~y inst in
      let expect f = match f () with v -> Ok v | exception Value.Division_by_zero -> Error "division by zero (r2)" in
      let agree name got want =
        got = want
        || QCheck.Test.fail_reportf "%s: engine %s, Value %s" name
             (match got with Ok v -> Int64.to_string v | Error m -> m)
             (match want with Ok v -> Int64.to_string v | Error m -> m)
      in
      List.for_all
        (fun ty ->
          let wa = operand_word ~imm:imm_a ty x and wb = operand_word ~imm:imm_b ty y in
          let a = opnd imm_a 0 x and b = opnd imm_b 1 y in
          List.for_all
            (fun op ->
              agree (Ast.show_binop op ^ " " ^ Ast.show_ty ty)
                (run ~ta:ty ~tb:ty (Ir.Bin { dst = 2; op; a; b; ty }))
                (expect (fun () -> Value.binop op ty wa wb)))
            alu_binops
          && List.for_all
               (fun op ->
                 agree (Ast.show_unop op ^ " " ^ Ast.show_ty ty)
                   (run ~ta:ty ~tb:ty (Ir.Un { dst = 2; op; a; ty }))
                   (expect (fun () -> Value.unop op ty wa)))
               Ast.[ Neg; Bnot; Lnot ]
          && agree ("copy " ^ Ast.show_ty ty)
               (run ~ta:ty ~tb:ty (Ir.Copy { dst = 2; src = a; ty }))
               (expect (fun () -> Value.wrap_ty ty wa))
          && List.for_all
               (fun to_ty ->
                 agree ("cast to " ^ Ast.show_ty to_ty ^ " from " ^ Ast.show_ty ty)
                   (run ~ta:ty ~tb:ty (Ir.Castop { dst = 2; src = a; from_ty = ty; to_ty }))
                   (expect (fun () -> Value.cast ~from_ty:ty ~to_ty wa)))
               alu_tys)
        alu_tys)

let test_alu_edge_cases () =
  let run ?(pipe = false) ty op x y =
    alu_run ~pipe ~ta:ty ~tb:ty ~x ~y
      (Ir.Bin { dst = 2; op; a = Ir.Imm x; b = Ir.Imm y; ty })
  in
  let i32 = Ast.Tint (Ast.Signed, Ast.W32) and u8 = Ast.Tint (Ast.Unsigned, Ast.W8) in
  List.iter
    (fun pipe ->
      check tbool "min_int / -1 wraps" true (run ~pipe Ast.int64_t Ast.Div Int64.min_int (-1L) = Ok Int64.min_int);
      check tbool "int32 min / -1 wraps" true (run ~pipe i32 Ast.Div (-0x80000000L) (-1L) = Ok (-0x80000000L));
      check tbool "min_int mod -1" true (run ~pipe Ast.int64_t Ast.Mod Int64.min_int (-1L) = Ok 0L);
      check tbool "division by zero names the register" true
        (run ~pipe i32 Ast.Div 7L 0L = Error "division by zero (r2)");
      check tbool "modulo by zero names the register" true
        (run ~pipe u8 Ast.Mod 7L 0L = Error "division by zero (r2)");
      check tbool "shift amount past the width" true (run ~pipe u8 Ast.Shl 1L 9L = Ok 0L);
      check tbool "unsigned shift of a non-canonical word" true
        (run ~pipe u8 Ast.Shr (-1L) 4L = Ok 15L))
    [ false; true ]

(* --- Engine basics -------------------------------------------------------------- *)

let compile src strategy = Core.Driver.compile ~strategy (elab src)

let run ?(feeds = []) ?(drains = []) ?(params = []) ?(hw_models = [])
    ?(max_cycles = 100_000) compiled =
  Core.Driver.simulate
    ~options:{ Core.Driver.feeds; drains; params; hw_models; max_cycles; timing_checks = []; trace = false; watchdog = None }
    compiled

(* --- Snapshot / restore --------------------------------------------------------- *)

(* A design exercising everything a snapshot must capture: a BRAM, a
   pipelined loop with in-flight iterations, stream state, and an
   assertion tap. *)
let snapshot_src =
  {| stream int32 inp depth 8; stream int32 out depth 8;
     process hw main(int32 n) {
       int32 acc[4];
       int32 i;
       #pragma pipeline
       for (i = 0; i < n; i = i + 1) {
         int32 x;
         x = stream_read(inp);
         assert(x < 1000);
         acc[i % 4] = acc[i % 4] + x;
         stream_write(out, acc[i % 4]);
       }
     } |}

let snapshot_options n =
  {
    Core.Driver.default_sim_options with
    Core.Driver.feeds = [ ("inp", List.init n (fun i -> Int64.of_int (i + 3))) ];
    drains = [ "out" ];
    params = [ ("main", [ ("n", Int64.of_int n) ]) ];
    max_cycles = 100_000;
  }

let same_result (a : Engine.result) (b : Engine.result) =
  a.Engine.outcome = b.Engine.outcome
  && a.Engine.cycles = b.Engine.cycles
  && a.Engine.drained = b.Engine.drained
  && a.Engine.fifo_stats = b.Engine.fifo_stats
  && a.Engine.tap_events = b.Engine.tap_events
  && a.Engine.host_log = b.Engine.host_log

let test_snapshot_restore_roundtrip () =
  let n = 24 in
  let c = compile snapshot_src Core.Driver.optimized in
  let options = snapshot_options n in
  let reference =
    let ses = Core.Driver.prepare ~options c in
    Engine.run ses.Core.Driver.ses_engine
  in
  check tbool "reference run finishes" true
    (reference.Engine.outcome = Engine.Finished);
  let mid = reference.Engine.cycles / 2 in
  let ses = Core.Driver.prepare ~options c in
  let e = ses.Core.Driver.ses_engine in
  check tbool "paused mid-run" true (Engine.run_until e ~cycle:mid = None);
  check tint "paused at the requested cycle" mid (Engine.current_cycle e);
  let snap = Engine.snapshot e in
  (* run the engine to completion, corrupting all post-[mid] state... *)
  let first = Engine.run e in
  check tbool "continuation equals the uninterrupted run" true
    (same_result reference first);
  (* ...then rewind and replay: every field must match again *)
  Engine.restore e snap;
  check tint "restore rewinds the clock" mid (Engine.current_cycle e);
  let second = Engine.run e in
  check tbool "replay after restore equals the uninterrupted run" true
    (same_result reference second)

let test_snapshot_is_deep () =
  let n = 16 in
  let c = compile snapshot_src Core.Driver.baseline in
  let options = snapshot_options n in
  let ses = Core.Driver.prepare ~options c in
  let e = ses.Core.Driver.ses_engine in
  ignore (Engine.run_until e ~cycle:5);
  let snap = Engine.snapshot e in
  (* mutating the live engine must not leak into the snapshot *)
  ignore (Engine.run e);
  Engine.restore e snap;
  check tint "snapshot unaffected by later simulation" 5 (Engine.current_cycle e);
  let r = Engine.run e in
  check tbool "replay still completes" true (r.Engine.outcome = Engine.Finished)

(* Restoring re-derives everything the engine resolved from the tables
   a restore replaces (feed queues, pipe contexts): restore a later
   snapshot, then an earlier one, then arm a fault pad while pipelined
   iterations are in flight — every run must equal a fresh engine's. *)
let test_restore_resolved_state () =
  let front = Core.Driver.front ~strategy:Core.Driver.optimized (elab snapshot_src) in
  let inst = Faults.Fault.instrument_all front.Core.Driver.f_ir in
  let c = Core.Driver.finish { front with Core.Driver.f_ir = inst.Faults.Fault.ip_prog } in
  let options = snapshot_options 24 in
  let engine () = (Core.Driver.prepare ~options c).Core.Driver.ses_engine in
  let fresh ?(arm = []) ~at () =
    let e = engine () in
    check tbool "fresh engine pauses" true (Engine.run_until e ~cycle:at = None);
    Engine.arm e arm;
    Engine.run e
  in
  let reference = Engine.run (engine ()) in
  check tbool "padded reference finishes" true (reference.Engine.outcome = Engine.Finished);
  let early = reference.Engine.cycles / 3 and late = 2 * reference.Engine.cycles / 3 in
  let e = engine () in
  ignore (Engine.run_until e ~cycle:early);
  let snap_early = Engine.snapshot e in
  ignore (Engine.run_until e ~cycle:late);
  let snap_late = Engine.snapshot e in
  check tbool "continuation equals a fresh run" true (Engine.run e = reference);
  Engine.restore e snap_late;
  check tbool "later snapshot replays" true (Engine.run e = reference);
  Engine.restore e snap_early;
  check tbool "earlier snapshot replays" true (Engine.run e = reference);
  let changing =
    List.filter
      (fun (s : Faults.Fault.site) ->
        let arm = [ (s.Faults.Fault.s_proc, s.Faults.Fault.s_arm) ] in
        let expected = fresh ~arm ~at:early () in
        Engine.restore e snap_early;
        Engine.arm e arm;
        check tbool "armed replay equals a fresh armed run" true (Engine.run e = expected);
        expected <> reference)
      (List.filter (fun (s : Faults.Fault.site) -> s.Faults.Fault.s_padded) inst.Faults.Fault.ip_sites)
  in
  check tbool "some armed pad changes the run" true (changing <> [])

(* A snapshot restored into an engine built for another design is
   refused with a [Sim_failure] naming the mismatch, before any state
   is touched: the refused engine still runs exactly like a fresh one. *)
let test_restore_shape_mismatch () =
  let options = snapshot_options 12 in
  let engine src =
    (Core.Driver.prepare ~options (compile src Core.Driver.optimized)).Core.Driver.ses_engine
  in
  let a = engine snapshot_src in
  ignore (Engine.run_until a ~cycle:10);
  let snap = Engine.snapshot a in
  let b_variant ~sub ~by = replace_once ~sub ~by snapshot_src in
  let rename_mem =
    replace_once ~sub:"acc[i % 4] = acc[i % 4]" ~by:"bcc[i % 4] = bcc[i % 4]"
      (replace_once ~sub:"stream_write(out, acc" ~by:"stream_write(out, bcc"
         (b_variant ~sub:"int32 acc[4]" ~by:"int32 bcc[4]"))
  in
  List.iter
    (fun (name, src, want) ->
      let fresh = Engine.run (engine src) in
      let b = engine src in
      let got =
        match Engine.restore b snap with
        | () -> "restored"
        | exception Engine.Sim_failure m -> m
      in
      check Alcotest.string name want got;
      check tbool (name ^ ": refused engine runs like a fresh one") true (Engine.run b = fresh))
    [
      ( "stream depth",
        b_variant ~sub:"stream int32 inp depth 8" ~by:"stream int32 inp depth 4",
        "snapshot restore: stream inp mismatch" );
      ("memory name", rename_mem, "snapshot restore: memory acc mismatch");
      ( "memory size",
        b_variant ~sub:"int32 acc[4]" ~by:"int32 acc[16]",
        "snapshot restore: memory acc mismatch" );
      ( "no pipelined loop",
        b_variant ~sub:"#pragma pipeline" ~by:"",
        "snapshot restore: pipe index mismatch" );
    ]

(* --- Cycle-exact pins ------------------------------------------------------------ *)

(* The engine's observable results on every bundled application under
   every strategy, recorded from the engine's original per-cycle
   interpreter.  Any change to how the engine executes a design must
   leave these untouched. *)
type pin = {
  p_outcome : string;
  p_cycles : int;
  p_taps : int;
  p_fifos : string;
  p_pipes : string;
  p_ports : string;
  p_wild : string;
  p_drained : string;  (** MD5 of the drained streams *)
}

let pin_of (r : Engine.result) =
  let pairs l = String.concat ";" (List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) l) in
  {
    p_outcome =
      (match r.Engine.outcome with
      | Engine.Finished -> "finished"
      | Engine.Hang l -> "hang " ^ pairs l
      | Engine.Livelock l -> "livelock " ^ pairs l
      | Engine.Aborted m -> "aborted " ^ m
      | Engine.Out_of_cycles -> "out-of-cycles"
      | Engine.Sim_error m -> "error " ^ m);
    p_cycles = r.Engine.cycles;
    p_taps = r.Engine.tap_events;
    p_fifos =
      String.concat ";"
        (List.map
           (fun (s, pu, po, occ) -> Printf.sprintf "%s:%d/%d/%d" s pu po occ)
           r.Engine.fifo_stats);
    p_pipes =
      String.concat ";"
        (List.map
           (fun (p : Engine.pipe_stats) ->
             Printf.sprintf "%s:%d/%d/%d/%.17g/%d" p.Engine.ps_proc p.Engine.ii_static
               p.Engine.depth_static p.Engine.issues p.Engine.ii_measured
               p.Engine.latency_measured)
           r.Engine.pipes);
    p_ports = pairs r.Engine.port_violations;
    p_wild = pairs r.Engine.wild_accesses;
    p_drained =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (List.map
                 (fun (s, vs) -> s ^ ":" ^ String.concat "," (List.map Int64.to_string vs))
                 r.Engine.drained)));
  }

let pinned_run (w : Campaign.workload) strategy =
  (Core.Driver.simulate ~options:w.Campaign.options
     (Core.Driver.compile ~strategy w.Campaign.program))
    .Core.Driver.engine

(* Every padded fault site of a bundled app, armed from reset under a
   watchdog: the hang and abort paths the clean runs never reach.
   Pinned as one digest per (app, strategy). *)
let mutant_digest (w : Campaign.workload) strategy =
  let front = Core.Driver.front ~strategy w.Campaign.program in
  let inst = Faults.Fault.instrument_all front.Core.Driver.f_ir in
  let c = Core.Driver.finish { front with Core.Driver.f_ir = inst.Faults.Fault.ip_prog } in
  let options =
    { w.Campaign.options with Core.Driver.max_cycles = 100_000; watchdog = Some 2_000 }
  in
  List.map
    (fun (s : Faults.Fault.site) ->
      if not s.Faults.Fault.s_padded then "unpadded"
      else
        let e = (Core.Driver.prepare ~options c).Core.Driver.ses_engine in
        Engine.arm e [ (s.Faults.Fault.s_proc, s.Faults.Fault.s_arm) ];
        let p = pin_of (Engine.run e) in
        String.concat "|"
          [ p.p_outcome; string_of_int p.p_cycles; string_of_int p.p_taps; p.p_fifos;
            p.p_pipes; p.p_ports; p.p_wild; p.p_drained ])
    inst.Faults.Fault.ip_sites
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let pins =
  [
    ( ("fir", "baseline"),
      { p_outcome = "finished"; p_cycles = 53; p_taps = 0;
        p_fifos = "samples_in:32/32/3;samples_out:32/32/1";
        p_pipes = "fir:1/18/32/1/18";
        p_ports = ""; p_wild = ""; p_drained = "439d6e881231d071f0075b76a081edf5" } );
    ( ("fir", "unoptimized"),
      { p_outcome = "finished"; p_cycles = 148; p_taps = 0;
        p_fifos = "__err_fir:0/0/0;samples_in:32/32/16;samples_out:32/32/1";
        p_pipes = "fir:4/20/32/4/20";
        p_ports = ""; p_wild = ""; p_drained = "439d6e881231d071f0075b76a081edf5" } );
    ( ("fir", "parallelized"),
      { p_outcome = "finished"; p_cycles = 53; p_taps = 64;
        p_fifos = "__err_fir:0/0/0;samples_in:32/32/3;samples_out:32/32/1";
        p_pipes = "fir:1/18/32/1/18";
        p_ports = ""; p_wild = ""; p_drained = "439d6e881231d071f0075b76a081edf5" } );
    ( ("fir", "optimized"),
      { p_outcome = "finished"; p_cycles = 53; p_taps = 64;
        p_fifos = "__err_shared0:0/0/0;samples_in:32/32/3;samples_out:32/32/1";
        p_pipes = "fir:1/18/32/1/18";
        p_ports = ""; p_wild = ""; p_drained = "439d6e881231d071f0075b76a081edf5" } );
    ( ("fir", "carte"),
      { p_outcome = "finished"; p_cycles = 53; p_taps = 64;
        p_fifos = "__err_dma:0/0/0;samples_in:32/32/3;samples_out:32/32/1";
        p_pipes = "fir:1/18/32/1/18";
        p_ports = ""; p_wild = ""; p_drained = "439d6e881231d071f0075b76a081edf5" } );
    ( ("dct", "baseline"),
      { p_outcome = "finished"; p_cycles = 943; p_taps = 0;
        p_fifos = "dct_in:16/16/13;dct_out:16/16/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "85a2dd764805aa315b9a99ca16028138" } );
    ( ("dct", "unoptimized"),
      { p_outcome = "finished"; p_cycles = 1359; p_taps = 0;
        p_fifos = "__err_dct:0/0/0;dct_in:16/16/13;dct_out:16/16/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "85a2dd764805aa315b9a99ca16028138" } );
    ( ("dct", "parallelized"),
      { p_outcome = "finished"; p_cycles = 943; p_taps = 160;
        p_fifos = "__err_dct:0/0/0;dct_in:16/16/13;dct_out:16/16/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "85a2dd764805aa315b9a99ca16028138" } );
    ( ("dct", "optimized"),
      { p_outcome = "finished"; p_cycles = 943; p_taps = 160;
        p_fifos = "__err_shared0:0/0/0;dct_in:16/16/13;dct_out:16/16/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "85a2dd764805aa315b9a99ca16028138" } );
    ( ("dct", "carte"),
      { p_outcome = "finished"; p_cycles = 943; p_taps = 160;
        p_fifos = "__err_dma:0/0/0;dct_in:16/16/13;dct_out:16/16/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "85a2dd764805aa315b9a99ca16028138" } );
    ( ("des3", "baseline"),
      { p_outcome = "finished"; p_cycles = 711; p_taps = 0;
        p_fifos = "cipher_in:2/2/2;plain_out:2/2/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "922b0e8d8f1eb397307d417430c2fb5b" } );
    ( ("des3", "unoptimized"),
      { p_outcome = "finished"; p_cycles = 791; p_taps = 0;
        p_fifos = "__err_des3:0/0/0;cipher_in:2/2/2;plain_out:2/2/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "922b0e8d8f1eb397307d417430c2fb5b" } );
    ( ("des3", "parallelized"),
      { p_outcome = "finished"; p_cycles = 759; p_taps = 32;
        p_fifos = "__err_des3:0/0/0;cipher_in:2/2/2;plain_out:2/2/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "922b0e8d8f1eb397307d417430c2fb5b" } );
    ( ("des3", "optimized"),
      { p_outcome = "finished"; p_cycles = 759; p_taps = 32;
        p_fifos = "__err_shared0:0/0/0;cipher_in:2/2/2;plain_out:2/2/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "922b0e8d8f1eb397307d417430c2fb5b" } );
    ( ("des3", "carte"),
      { p_outcome = "finished"; p_cycles = 759; p_taps = 32;
        p_fifos = "__err_dma:0/0/0;cipher_in:2/2/2;plain_out:2/2/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "922b0e8d8f1eb397307d417430c2fb5b" } );
    ( ("edge", "baseline"),
      { p_outcome = "finished"; p_cycles = 763; p_taps = 0;
        p_fifos = "pixels_in:256/256/16;pixels_out:256/256/1";
        p_pipes = "edge:2/28/32/2/28";
        p_ports = ""; p_wild = ""; p_drained = "1b898591266499517af0e252b958a1e0" } );
    ( ("edge", "unoptimized"),
      { p_outcome = "finished"; p_cycles = 765; p_taps = 0;
        p_fifos = "__err_edge:0/0/0;pixels_in:256/256/16;pixels_out:256/256/1";
        p_pipes = "edge:2/28/32/2/28";
        p_ports = ""; p_wild = ""; p_drained = "1b898591266499517af0e252b958a1e0" } );
    ( ("edge", "parallelized"),
      { p_outcome = "finished"; p_cycles = 763; p_taps = 2;
        p_fifos = "__err_edge:0/0/0;pixels_in:256/256/16;pixels_out:256/256/1";
        p_pipes = "edge:2/28/32/2/28";
        p_ports = ""; p_wild = ""; p_drained = "1b898591266499517af0e252b958a1e0" } );
    ( ("edge", "optimized"),
      { p_outcome = "finished"; p_cycles = 763; p_taps = 2;
        p_fifos = "__err_shared0:0/0/0;pixels_in:256/256/16;pixels_out:256/256/1";
        p_pipes = "edge:2/28/32/2/28";
        p_ports = ""; p_wild = ""; p_drained = "1b898591266499517af0e252b958a1e0" } );
    ( ("edge", "carte"),
      { p_outcome = "finished"; p_cycles = 763; p_taps = 2;
        p_fifos = "__err_dma:0/0/0;pixels_in:256/256/16;pixels_out:256/256/1";
        p_pipes = "edge:2/28/32/2/28";
        p_ports = ""; p_wild = ""; p_drained = "1b898591266499517af0e252b958a1e0" } );
    ( ("pulse", "baseline"),
      { p_outcome = "finished"; p_cycles = 32939; p_taps = 0;
        p_fifos = "pulse_in:4096/4096/16;stats_out:11/11/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "aa7d611aed3b76e11a7174e0500a27fa" } );
    ( ("pulse", "unoptimized"),
      { p_outcome = "finished"; p_cycles = 37037; p_taps = 0;
        p_fifos = "__err_pulse:0/0/0;pulse_in:4096/4096/16;stats_out:11/11/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "aa7d611aed3b76e11a7174e0500a27fa" } );
    ( ("pulse", "parallelized"),
      { p_outcome = "finished"; p_cycles = 32939; p_taps = 4098;
        p_fifos = "__err_pulse:0/0/0;pulse_in:4096/4096/16;stats_out:11/11/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "aa7d611aed3b76e11a7174e0500a27fa" } );
    ( ("pulse", "optimized"),
      { p_outcome = "finished"; p_cycles = 32939; p_taps = 4098;
        p_fifos = "__err_shared0:0/0/0;pulse_in:4096/4096/16;stats_out:11/11/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "aa7d611aed3b76e11a7174e0500a27fa" } );
    ( ("pulse", "carte"),
      { p_outcome = "finished"; p_cycles = 32939; p_taps = 4098;
        p_fifos = "__err_dma:0/0/0;pulse_in:4096/4096/16;stats_out:11/11/1";
        p_pipes = "";
        p_ports = ""; p_wild = ""; p_drained = "aa7d611aed3b76e11a7174e0500a27fa" } );
  ]

let mutant_pins =
  [
    (("fir", "unoptimized"), "ce083fc6d14f21dd99af00dfbd6fbc1c");
    (("fir", "optimized"), "860bb41768c009509d61df6f2bb9e752");
    (("fir", "carte"), "973327da7ea107739d7d6a143c627989");
    (("dct", "unoptimized"), "d3ee3afa255ec0af10375cd69e541e80");
    (("dct", "optimized"), "88d047876faf0203bdc6b74992503d43");
    (("dct", "carte"), "f3ce8b8bf8230972e662088e5c955f4f");
    (("des3", "unoptimized"), "31440bf7340c8b7394518b67230d28bd");
    (("des3", "optimized"), "105045d7e4f724b30388ee73b163bbde");
    (("des3", "carte"), "9fc7b607335e4b29f85fea578d3b9add");
    (("edge", "unoptimized"), "8a685890f4a90d98ae127b61bf3b65a5");
    (("edge", "optimized"), "7c0ca46682db77e89e2315a8638d8693");
    (("edge", "carte"), "ceb52eb944d26e00d3f11e42c4e6ba33");
    (("pulse", "unoptimized"), "848859fe48d3894cb6bfb6bf6437560f");
    (("pulse", "optimized"), "57509552a401aeb87b355cbcc24ae6e1");
    (("pulse", "carte"), "a7db6c544e29462e0bfe98c4f6686334");
  ]

let test_cycle_exact_pins () =
  let workloads = Campaign.bundled () in
  check tint "one pin per bundled app and strategy"
    (List.length workloads * List.length Core.Driver.all_strategies)
    (List.length pins);
  List.iter
    (fun ((app, sname), want) ->
      let w = List.find (fun (w : Campaign.workload) -> w.Campaign.wname = app) workloads in
      let got = pin_of (pinned_run w (List.assoc sname Core.Driver.all_strategies)) in
      let what f = Printf.sprintf "%s/%s %s" app sname f in
      check Alcotest.string (what "outcome") want.p_outcome got.p_outcome;
      check tint (what "cycles") want.p_cycles got.p_cycles;
      check tint (what "tap events") want.p_taps got.p_taps;
      check Alcotest.string (what "fifo stats") want.p_fifos got.p_fifos;
      check Alcotest.string (what "pipes") want.p_pipes got.p_pipes;
      check Alcotest.string (what "port violations") want.p_ports got.p_ports;
      check Alcotest.string (what "wild accesses") want.p_wild got.p_wild;
      check Alcotest.string (what "drained digest") want.p_drained got.p_drained)
    pins;
  List.iter
    (fun ((app, sname), want) ->
      let w = List.find (fun (w : Campaign.workload) -> w.Campaign.wname = app) workloads in
      check Alcotest.string
        (Printf.sprintf "%s/%s armed mutants" app sname)
        want
        (mutant_digest w (List.assoc sname Core.Driver.all_strategies)))
    mutant_pins

(* --- Engine basics (cont.) ------------------------------------------------------ *)

let test_engine_basic_dataflow () =
  let c =
    compile
      {| stream int32 inp depth 8; stream int32 out depth 8;
         process hw main() {
           int32 i;
           for (i = 0; i < 4; i = i + 1) {
             int32 x; x = stream_read(inp); stream_write(out, x * x);
           }
         } |}
      Core.Driver.baseline
  in
  let r = run c ~feeds:[ ("inp", [ 1L; 2L; 3L; 4L ]) ] ~drains:[ "out" ] in
  check tbool "finished" true (r.Core.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "squares" true
    (List.assoc "out" r.Core.Driver.engine.Engine.drained = [ 1L; 4L; 9L; 16L ])

let test_engine_multi_process_chain () =
  let c =
    compile
      {| stream int32 a depth 4; stream int32 b depth 4; stream int32 out depth 16;
         process hw p1(int32 n) {
           int32 i;
           for (i = 0; i < n; i = i + 1) { int32 v; v = stream_read(a); stream_write(b, v + 1); }
         }
         process hw p2(int32 n) {
           int32 i;
           for (i = 0; i < n; i = i + 1) { int32 v; v = stream_read(b); stream_write(out, v * 2); }
         } |}
      Core.Driver.baseline
  in
  let r =
    run c ~feeds:[ ("a", [ 1L; 2L; 3L ]) ] ~drains:[ "out" ]
      ~params:[ ("p1", [ ("n", 3L) ]); ("p2", [ ("n", 3L) ]) ]
  in
  check tbool "chained" true
    (List.assoc "out" r.Core.Driver.engine.Engine.drained = [ 4L; 6L; 8L ])

let test_engine_backpressure_hang () =
  let c =
    compile
      {| stream int32 nowhere depth 2;
         process hw main() {
           int32 i;
           for (i = 0; i < 8; i = i + 1) { stream_write(nowhere, i); }
         } |}
      Core.Driver.baseline
  in
  let r = run c in
  match r.Core.Driver.engine.Engine.outcome with
  | Engine.Hang [ ("main", _) ] -> ()
  | _ -> Alcotest.fail "expected hang"

let test_engine_extcall_latency () =
  let c =
    compile
      {| stream int32 out depth 8;
         extern int32 ext(int32) latency 5;
         process hw main() { int32 y; y = ext(6); stream_write(out, y); } |}
      Core.Driver.baseline
  in
  let r = run c ~drains:[ "out" ] ~hw_models:[ ("ext", fun vs -> Int64.mul 7L (List.hd vs)) ] in
  check tbool "result after wait states" true
    (List.assoc "out" r.Core.Driver.engine.Engine.drained = [ 42L ]);
  check tbool "latency respected" true (r.Core.Driver.engine.Engine.cycles >= 6)

let test_engine_division_by_zero_trap () =
  let c =
    compile
      {| stream int32 inp depth 4; stream int32 out depth 4;
         process hw main() { int32 x; x = stream_read(inp); stream_write(out, 10 / x); } |}
      Core.Driver.baseline
  in
  let r = run c ~feeds:[ ("inp", [ 0L ]) ] ~drains:[ "out" ] in
  match r.Core.Driver.engine.Engine.outcome with
  | Engine.Sim_error _ -> ()
  | _ -> Alcotest.fail "expected a trap"

let test_engine_wild_address_is_silent () =
  (* Figure 3 behaviour: negative index wraps in hardware, no crash *)
  let c =
    compile
      {| stream int32 out depth 4;
         process hw main() {
           int32 a[6]; int32 i;
           i = 0 - 1;
           a[i] = 7;
           stream_write(out, a[2]);
         } |}
      Core.Driver.baseline
  in
  let r = run c ~drains:[ "out" ] in
  check tbool "no crash" true (r.Core.Driver.engine.Engine.outcome = Engine.Finished);
  (* index -1 wraps to physical address 7, which is padding beyond the
     6-element logical array *)
  check tbool "wild access recorded" true (r.Core.Driver.engine.Engine.wild_accesses <> [])

(* --- Pipelined loops ---------------------------------------------------------- *)

let test_pipe_throughput () =
  let c =
    compile
      {| stream int32 inp depth 16; stream int32 out depth 16;
         process hw main(int32 n) {
           int32 i;
           #pragma pipeline
           for (i = 0; i < n; i = i + 1) {
             int32 x; x = stream_read(inp); stream_write(out, x + 100);
           }
         } |}
      Core.Driver.baseline
  in
  let n = 32 in
  let r =
    run c
      ~feeds:[ ("inp", List.init n Int64.of_int) ]
      ~drains:[ "out" ]
      ~params:[ ("main", [ ("n", Int64.of_int n) ]) ]
  in
  let e = r.Core.Driver.engine in
  check tbool "data correct" true
    (List.assoc "out" e.Engine.drained = List.init n (fun i -> Int64.of_int (i + 100)));
  (match e.Engine.pipes with
  | [ p ] ->
      check tint "static ii 1" 1 p.Engine.ii_static;
      check tbool "measured ii 1" true (p.Engine.ii_measured < 1.05);
      check tint "issues" n p.Engine.issues
  | _ -> Alcotest.fail "expected one pipe");
  check tbool "near-linear cycles" true (e.Engine.cycles < n + 20)

let test_pipe_stall_on_empty_input () =
  let c =
    compile
      {| stream int32 inp depth 16; stream int32 out depth 16;
         process hw main(int32 n) {
           int32 i;
           #pragma pipeline
           for (i = 0; i < n; i = i + 1) {
             int32 x; x = stream_read(inp); stream_write(out, x);
           }
         } |}
      Core.Driver.baseline
  in
  let r =
    run c ~feeds:[ ("inp", [ 1L; 2L ]) ] ~drains:[ "out" ]
      ~params:[ ("main", [ ("n", 5L) ]) ]
  in
  (match r.Core.Driver.engine.Engine.outcome with
  | Engine.Hang _ -> ()
  | Engine.Finished -> Alcotest.fail "finished unexpectedly"
  | _ -> Alcotest.fail "unexpected outcome");
  (* rigid stall: iterations behind the starving read freeze too, so
     only a prefix of the fed values reaches the output *)
  let out = List.assoc "out" r.Core.Driver.engine.Engine.drained in
  check tbool "partial output is a prefix" true
    (List.length out < 5 && out = List.filteri (fun i _ -> i < List.length out) [ 1L; 2L ])

let test_pipe_guarded_write_skips () =
  let c =
    compile
      {| stream int32 inp depth 16; stream int32 evens depth 16; stream int32 out depth 16;
         process hw main(int32 n) {
           int32 i;
           #pragma pipeline
           for (i = 0; i < n; i = i + 1) {
             int32 x; x = stream_read(inp);
             if ((x & 1) == 0) { stream_write(evens, x); }
             stream_write(out, x);
           }
         } |}
      Core.Driver.baseline
  in
  let n = 8 in
  let r =
    run c
      ~feeds:[ ("inp", List.init n Int64.of_int) ]
      ~drains:[ "out"; "evens" ]
      ~params:[ ("main", [ ("n", Int64.of_int n) ]) ]
  in
  let e = r.Core.Driver.engine in
  check tbool "all forwarded" true (List.assoc "out" e.Engine.drained = List.init n Int64.of_int);
  check tbool "evens filtered" true (List.assoc "evens" e.Engine.drained = [ 0L; 2L; 4L; 6L ])

let test_pipe_memory_state_survives () =
  let c =
    compile
      {| stream int32 out depth 16;
         process hw main() {
           int32 a[8]; int32 i;
           #pragma pipeline
           for (i = 0; i < 8; i = i + 1) { a[i & 7] = i * 3; }
           stream_write(out, a[5]);
         } |}
      Core.Driver.baseline
  in
  let r = run c ~drains:[ "out" ] in
  check tbool "post-loop readback" true
    (List.assoc "out" r.Core.Driver.engine.Engine.drained = [ 15L ])

let test_pipe_loop_variable_final_value () =
  let c =
    compile
      {| stream int32 out depth 16;
         process hw main() {
           int32 i;
           #pragma pipeline
           for (i = 0; i < 6; i = i + 1) { int32 x; x = i; }
           stream_write(out, i);
         } |}
      Core.Driver.baseline
  in
  let r = run c ~drains:[ "out" ] in
  check tbool "i = 6 after the loop" true
    (List.assoc "out" r.Core.Driver.engine.Engine.drained = [ 6L ])

(* --- Checkers ------------------------------------------------------------------- *)

let test_checker_latency_delays_notification_only () =
  let src =
    {| stream int32 inp depth 16; stream int32 out depth 16;
       process hw main(int32 n) {
         int32 i;
         for (i = 0; i < n; i = i + 1) {
           int32 x; x = stream_read(inp);
           assert(x < 100);
           stream_write(out, x);
         }
       } |}
  in
  let strategy =
    { Core.Driver.parallelized with Core.Driver.checker_latency = Some 20; nabort = true }
  in
  let c = compile src strategy in
  let r =
    run c
      ~feeds:[ ("inp", [ 1L; 200L; 3L ]) ]
      ~drains:[ "out" ]
      ~params:[ ("main", [ ("n", 3L) ]) ]
  in
  let e = r.Core.Driver.engine in
  check tbool "data unaffected" true (List.assoc "out" e.Engine.drained = [ 1L; 200L; 3L ]);
  check tint "failure still reported" 1 (List.length r.Core.Driver.failed_assertions)

let test_tap_events_counted () =
  let c =
    compile
      {| stream int32 inp depth 16; stream int32 out depth 16;
         process hw main(int32 n) {
           int32 i;
           for (i = 0; i < n; i = i + 1) {
             int32 x; x = stream_read(inp);
             assert(x > 0);
             stream_write(out, x);
           }
         } |}
      Core.Driver.parallelized
  in
  let r =
    run c ~feeds:[ ("inp", [ 5L; 6L; 7L; 8L ]) ] ~drains:[ "out" ]
      ~params:[ ("main", [ ("n", 4L) ]) ]
  in
  check tint "one tap event per iteration" 4 r.Core.Driver.engine.Engine.tap_events

(* --- Timing assertions (paper Section 6 future work) ----------------------------- *)

(* Two assert(true) markers bracket the loop body; marker taps anchor
   cycle-budget checks. *)
let timed_src =
  {| stream int32 inp depth 16; stream int32 out depth 16;
     process hw main(int32 n) {
       int32 i;
       for (i = 0; i < n; i = i + 1) {
         assert(true);
         int32 x; x = stream_read(inp);
         stream_write(out, x);
         assert(true);
       }
     } |}

let run_timed ~checks ~feeds =
  let c = compile timed_src Core.Driver.parallelized in
  Core.Driver.simulate
    ~options:
      {
        Core.Driver.default_sim_options with
        Core.Driver.feeds = [ ("inp", feeds) ];
        drains = [ "out" ];
        params = [ ("main", [ ("n", 4L) ]) ];
        timing_checks = checks;
        max_cycles = 2_000;
      }
    c

let test_timing_check_passes () =
  let checks =
    [ { Engine.tc_name = "body"; from_tap = 0; to_tap = 1; budget = 10; soft = false } ]
  in
  let r = run_timed ~checks ~feeds:[ 1L; 2L; 3L; 4L ] in
  check tbool "finished" true (r.Core.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "no violations" true (r.Core.Driver.engine.Engine.timing_violations = [])

let test_timing_check_catches_stall () =
  (* starve the input: the body deadline expires while the read blocks *)
  let checks =
    [ { Engine.tc_name = "body"; from_tap = 0; to_tap = 1; budget = 10; soft = false } ]
  in
  let r = run_timed ~checks ~feeds:[ 1L; 2L ] in
  match r.Core.Driver.engine.Engine.outcome with
  | Engine.Aborted msg ->
      check tbool "names the timing assertion" true
        (replace_once ~sub:"timing assertion `body'" ~by:"" msg <> msg);
      check tbool "violation recorded" true
        (r.Core.Driver.engine.Engine.timing_violations <> [])
  | _ -> Alcotest.fail "expected a timing abort"

let test_timing_check_soft_records () =
  let checks =
    [ { Engine.tc_name = "body"; from_tap = 0; to_tap = 1; budget = 10; soft = true } ]
  in
  let r = run_timed ~checks ~feeds:[ 1L; 2L ] in
  (* soft check: the run still ends as a hang, violations recorded *)
  check tbool "not aborted by the check" true
    (match r.Core.Driver.engine.Engine.outcome with Engine.Aborted _ -> false | _ -> true);
  check tbool "violation recorded" true (r.Core.Driver.engine.Engine.timing_violations <> [])

let test_timing_self_interval () =
  (* from = to: checks the interval between consecutive iterations *)
  let checks =
    [ { Engine.tc_name = "iteration-rate"; from_tap = 0; to_tap = 0; budget = 15; soft = false } ]
  in
  let r = run_timed ~checks ~feeds:[ 1L; 2L; 3L; 4L ] in
  check tbool "steady iterations pass" true
    (r.Core.Driver.engine.Engine.outcome = Engine.Finished)

(* --- Waveform trace (the SignalTap/ChipScope view) -------------------------------- *)

let contains needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_vcd_structure () =
  let c =
    compile
      {| stream int32 inp depth 8; stream int32 out depth 8;
         process hw main(int32 n) {
           int32 i;
           for (i = 0; i < n; i = i + 1) {
             int32 x; x = stream_read(inp); stream_write(out, x + 1);
           }
         } |}
      Core.Driver.baseline
  in
  let r =
    Core.Driver.simulate
      ~options:
        {
          Core.Driver.default_sim_options with
          Core.Driver.feeds = [ ("inp", [ 7L; 8L ]) ];
          drains = [ "out" ];
          params = [ ("main", [ ("n", 2L) ]) ];
          trace = true;
        }
      c
  in
  match r.Core.Driver.engine.Engine.vcd with
  | None -> Alcotest.fail "expected a VCD dump"
  | Some vcd ->
      check tbool "declares the FSM state" true (contains "main.state" vcd);
      check tbool "declares source registers" true
        (contains "main.i" vcd && contains "main.x" vcd);
      check tbool "has timestamps" true (contains "#0" vcd);
      check tbool "enddefinitions" true (contains "$enddefinitions $end" vcd)

let test_vcd_change_compressed () =
  let tr = Sim.Trace.create () in
  let s = Sim.Trace.declare tr ~name:"sig" ~width:8 in
  Sim.Trace.sample tr s ~cycle:0 5L;
  Sim.Trace.sample tr s ~cycle:1 5L;  (* unchanged: no event *)
  Sim.Trace.sample tr s ~cycle:2 6L;
  check tint "two events only" 2 (Sim.Trace.num_samples tr);
  let vcd = Sim.Trace.to_vcd tr in
  check tbool "no #1 timestamp" false (contains "#1\n" vcd)

(* --- Shared-channel burst (round-robin collector, Section 3.3 extension) --------- *)

let test_shared_channel_burst_all_reported () =
  (* many simultaneous failures funnel through one shared channel; the
     round-robin retry delivers every one of them under NABORT *)
  let src =
    {| stream int32 inp depth 64;
       stream int32 out depth 64;
       process hw main(int32 n) {
         int32 i;
         for (i = 0; i < n; i = i + 1) {
           int32 x; x = stream_read(inp);
           assert(x > 10);
           assert(x > 20);
           assert(x > 30);
           stream_write(out, x);
         }
       } |}
  in
  let strategy =
    { Core.Driver.optimized with Core.Driver.share = `Shared 32; nabort = true }
  in
  let c = compile src strategy in
  let n = 6 in
  let r =
    run c
      ~feeds:[ ("inp", List.init n (fun _ -> 1L)) ]  (* every assertion fails *)
      ~drains:[ "out" ]
      ~params:[ ("main", [ ("n", Int64.of_int n) ]) ]
  in
  check tbool "finished under NABORT" true
    (r.Core.Driver.engine.Engine.outcome = Engine.Finished);
  check tint "every failure reported" (3 * n)
    (List.length r.Core.Driver.failed_assertions)

(* --- The equivalence property ----------------------------------------------------- *)

let gen_program =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c"; "d" ] in
  let atom = oneof [ map string_of_int (int_range 0 200); var ] in
  let op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
  let rec expr n =
    if n = 0 then atom
    else
      frequency
        [
          (2, atom);
          ( 3,
            map3
              (fun a o b -> Printf.sprintf "(%s %s %s)" a o b)
              (expr (n - 1)) op (expr (n - 1)) );
        ]
  in
  let simple_stmt =
    oneof
      [
        map2 (fun v e -> Printf.sprintf "%s = %s;" v e) var (expr 2);
        map2 (fun e1 e2 -> Printf.sprintf "m[(%s) & 7] = %s;" e1 e2) (expr 1) (expr 2);
        map2 (fun v e -> Printf.sprintf "%s = m[(%s) & 7];" v e) var (expr 1);
      ]
  in
  let stmt =
    frequency
      [
        (5, simple_stmt);
        ( 2,
          map3
            (fun e t f -> Printf.sprintf "if (%s > 50) { %s } else { %s }" e t f)
            (expr 2) simple_stmt simple_stmt );
        ( 1,
          map2
            (fun v body -> Printf.sprintf "for (%s = 0; %s < 4; %s = %s + 1) { %s }" v v v v body)
            (oneofl [ "i"; "j" ])
            simple_stmt );
      ]
  in
  map
    (fun stmts ->
      Printf.sprintf
        {| stream int32 inp depth 8; stream int32 out depth 64;
           process hw main() {
             int32 a; int32 b; int32 c; int32 d; int32 i; int32 j; int32 m[8];
             a = stream_read(inp); b = stream_read(inp); c = 7; d = 11;
             %s
             stream_write(out, a); stream_write(out, b);
             stream_write(out, c); stream_write(out, d);
             stream_write(out, m[3]);
           } |}
        (String.concat "\n" stmts))
    (list_size (int_range 1 10) stmt)

let circuit_matches_software =
  QCheck.Test.make ~count:120 ~name:"circuit output equals software simulation"
    (QCheck.make gen_program ~print:(fun s -> s))
    (fun src ->
      let prog = elab src in
      let feeds = [ ("inp", [ 123L; 77L ]) ] in
      let sw =
        Interp.run
          ~cfg:{ Interp.default_config with Interp.feeds; drains = [ "out" ] }
          prog
      in
      let compiled = Core.Driver.compile ~strategy:Core.Driver.baseline prog in
      let hw =
        Core.Driver.simulate
          ~options:{ Core.Driver.default_sim_options with Core.Driver.feeds; drains = [ "out" ] }
          compiled
      in
      match (sw.Interp.outcome, hw.Core.Driver.engine.Engine.outcome) with
      | Interp.Completed, Engine.Finished ->
          sw.Interp.drained = hw.Core.Driver.engine.Engine.drained
      | _ -> false)

let gen_pipelined_program =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b" ] in
  let atom = oneof [ map string_of_int (int_range 0 60); var; pure "x"; pure "i" ] in
  let op = oneofl [ "+"; "-"; "*"; "&"; "^" ] in
  let body_stmt =
    oneof
      [
        map2
          (fun v (a, o, b) -> Printf.sprintf "%s = %s %s %s;" v a o b)
          var (triple atom op atom);
        map
          (fun (a, o, b) -> Printf.sprintf "m[i & 7] = %s %s %s;" a o b)
          (triple atom op atom);
        map
          (fun (a, o, b) -> Printf.sprintf "b = m[(%s %s %s) & 7];" a o b)
          (triple atom op atom);
      ]
  in
  map
    (fun stmts ->
      Printf.sprintf
        {| stream int32 inp depth 16; stream int32 out depth 64;
           process hw main(int32 n) {
             int32 a; int32 b; int32 m[8]; int32 i;
             a = 1; b = 2;
             #pragma pipeline
             for (i = 0; i < n; i = i + 1) {
               int32 x;
               x = stream_read(inp);
               %s
               stream_write(out, x + b);
             }
             stream_write(out, a); stream_write(out, b); stream_write(out, m[2]);
           } |}
        (String.concat "\n" stmts))
    (list_size (int_range 1 5) body_stmt)

let pipelined_matches_software =
  QCheck.Test.make ~count:80 ~name:"pipelined circuit equals software simulation"
    (QCheck.make gen_pipelined_program ~print:(fun s -> s))
    (fun src ->
      let prog = elab src in
      let n = 12 in
      let feeds = [ ("inp", List.init n (fun i -> Int64.of_int (3 * i))) ] in
      let params = [ ("main", [ ("n", Int64.of_int n) ]) ] in
      let sw =
        Interp.run
          ~cfg:{ Interp.default_config with Interp.feeds; drains = [ "out" ]; params }
          prog
      in
      let compiled = Core.Driver.compile ~strategy:Core.Driver.baseline prog in
      let hw =
        Core.Driver.simulate
          ~options:
            { Core.Driver.default_sim_options with Core.Driver.feeds; drains = [ "out" ]; params }
          compiled
      in
      match (sw.Interp.outcome, hw.Core.Driver.engine.Engine.outcome) with
      | Interp.Completed, Engine.Finished ->
          sw.Interp.drained = hw.Core.Driver.engine.Engine.drained
      | _ -> false)

let assertions_transparent =
  QCheck.Test.make ~count:60 ~name:"assertion synthesis preserves passing-run data"
    (QCheck.make gen_program ~print:(fun s -> s))
    (fun src ->
      let src =
        replace_once ~sub:"stream_write(out, a);"
          ~by:"assert(c >= 0 || c < 0); stream_write(out, a);" src
      in
      let prog = elab src in
      let feeds = [ ("inp", [ 9L; 31L ]) ] in
      let opts =
        { Core.Driver.default_sim_options with Core.Driver.feeds; drains = [ "out" ] }
      in
      let outputs strategy =
        let c = Core.Driver.compile ~strategy prog in
        let r = Core.Driver.simulate ~options:opts c in
        (r.Core.Driver.engine.Engine.outcome, r.Core.Driver.engine.Engine.drained)
      in
      let base = outputs Core.Driver.baseline in
      let unopt = outputs Core.Driver.unoptimized in
      let opt = outputs Core.Driver.optimized in
      base = unopt && base = opt)

(* Under NABORT, every strategy must report the same set of failing
   assertion sites (notification *order* may differ with checker
   latency; the paper only promises delayed notification). *)
let strategies_agree_on_failures =
  QCheck.Test.make ~count:40 ~name:"strategies agree on the failing assertion set"
    QCheck.(pair (int_range 1 6) (small_list (int_range (-20) 120)))
    (fun (threshold, extra) ->
      let feeds = List.map Int64.of_int (25 :: -3 :: 77 :: extra) in
      let n = List.length feeds in
      let src =
        Printf.sprintf
          {| stream int32 inp depth 64; stream int32 out depth 64;
             process hw main(int32 n) {
               int32 i;
               for (i = 0; i < n; i = i + 1) {
                 int32 x; x = stream_read(inp);
                 assert(x > %d);
                 assert(x < 100);
                 stream_write(out, x);
               }
             } |}
          threshold
      in
      let prog = elab src in
      let failed strategy =
        let c = Core.Driver.compile ~strategy:{ strategy with Core.Driver.nabort = true } prog in
        let r =
          Core.Driver.simulate
            ~options:
              {
                Core.Driver.default_sim_options with
                Core.Driver.feeds = [ ("inp", feeds) ];
                drains = [ "out" ];
                params = [ ("main", [ ("n", Int64.of_int n) ]) ];
              }
            c
        in
        List.sort_uniq compare r.Core.Driver.failed_assertions
      in
      let u = failed Core.Driver.unoptimized in
      let p = failed Core.Driver.parallelized in
      let o = failed Core.Driver.optimized in
      u = p && p = o)

let () =
  Alcotest.run "sim"
    [
      ( "fifo",
        [
          Alcotest.test_case "registered visibility" `Quick test_fifo_visibility;
          Alcotest.test_case "capacity" `Quick test_fifo_capacity;
          Alcotest.test_case "stats" `Quick test_fifo_stats;
          QCheck_alcotest.to_alcotest fifo_order_prop;
          QCheck_alcotest.to_alcotest fifo_ring_model_prop;
        ] );
      ( "bram",
        [
          Alcotest.test_case "read-during-write old data" `Quick test_bram_rdw_old_data;
          Alcotest.test_case "address wrap" `Quick test_bram_address_wrap;
          Alcotest.test_case "port accounting" `Quick test_bram_port_accounting;
          Alcotest.test_case "ROM init" `Quick test_bram_init;
          Alcotest.test_case "mirror write port" `Quick test_bram_mirror_write_no_port;
          Alcotest.test_case "staged writes in program order" `Quick
            test_bram_staged_program_order;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore round-trip" `Quick test_snapshot_restore_roundtrip;
          Alcotest.test_case "deep copy" `Quick test_snapshot_is_deep;
          Alcotest.test_case "restore re-derives resolved state" `Quick
            test_restore_resolved_state;
          Alcotest.test_case "restore refuses another design" `Quick test_restore_shape_mismatch;
        ] );
      ("pins", [ Alcotest.test_case "cycle-exact bundled results" `Quick test_cycle_exact_pins ]);
      ( "alu",
        [
          QCheck_alcotest.to_alcotest alu_matches_value;
          Alcotest.test_case "division and shift edge cases" `Quick test_alu_edge_cases;
        ] );
      ( "engine",
        [
          Alcotest.test_case "basic dataflow" `Quick test_engine_basic_dataflow;
          Alcotest.test_case "process chain" `Quick test_engine_multi_process_chain;
          Alcotest.test_case "backpressure hang" `Quick test_engine_backpressure_hang;
          Alcotest.test_case "extcall latency" `Quick test_engine_extcall_latency;
          Alcotest.test_case "division trap" `Quick test_engine_division_by_zero_trap;
          Alcotest.test_case "wild address silent" `Quick test_engine_wild_address_is_silent;
        ] );
      ( "pipes",
        [
          Alcotest.test_case "throughput" `Quick test_pipe_throughput;
          Alcotest.test_case "stall on empty input" `Quick test_pipe_stall_on_empty_input;
          Alcotest.test_case "guarded write skips" `Quick test_pipe_guarded_write_skips;
          Alcotest.test_case "memory survives" `Quick test_pipe_memory_state_survives;
          Alcotest.test_case "loop variable final" `Quick test_pipe_loop_variable_final_value;
        ] );
      ( "checkers",
        [
          Alcotest.test_case "latency only delays notification" `Quick
            test_checker_latency_delays_notification_only;
          Alcotest.test_case "tap events" `Quick test_tap_events_counted;
        ] );
      ( "timing",
        [
          Alcotest.test_case "within budget passes" `Quick test_timing_check_passes;
          Alcotest.test_case "stall caught" `Quick test_timing_check_catches_stall;
          Alcotest.test_case "soft mode records" `Quick test_timing_check_soft_records;
          Alcotest.test_case "self interval" `Quick test_timing_self_interval;
        ] );
      ( "trace",
        [
          Alcotest.test_case "vcd structure" `Quick test_vcd_structure;
          Alcotest.test_case "change compression" `Quick test_vcd_change_compressed;
        ] );
      ( "shared-burst",
        [
          Alcotest.test_case "round-robin delivers all" `Quick
            test_shared_channel_burst_all_reported;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest circuit_matches_software;
          QCheck_alcotest.to_alcotest pipelined_matches_software;
          QCheck_alcotest.to_alcotest assertions_transparent;
          QCheck_alcotest.to_alcotest strategies_agree_on_failures;
        ] );
    ]
