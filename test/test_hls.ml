(* HLS tests: list scheduling, FSMD invariants, modulo scheduling,
   functional-unit binding. *)

open Front
module Ir = Mir.Ir
module Fsmd = Hls.Fsmd

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let elab = Typecheck.parse_and_check ~file:"test.c"

let compile_first ?mem_ports src =
  let prog = elab src in
  Hls.Schedule.compile_proc
    (Mir.Opt.optimize (Mir.Lower.lower_proc ?mem_ports prog (List.hd prog.Ast.procs)))

let wrap body = Printf.sprintf "stream int32 inp depth 8; stream int32 out depth 8; process hw main() { %s }" body

(* The fixed programs of this file, by name; the FSMD pins below cover
   each of them. *)
let src_chaining = wrap "int32 x; int32 y; x = stream_read(inp); y = ((x & 3) | 4) ^ 1; stream_write(out, y);"
let src_long_chain = wrap "int32 x; x = stream_read(inp); int32 y; y = x * x * x * x * x; stream_write(out, y);"
let src_stream_excl = wrap "int32 x; x = stream_read(inp); stream_write(out, x + 1);"
let src_load_use = wrap "int32 a[4]; a[0] = 3; int32 v; v = a[0]; stream_write(out, v + 1);"
let src_three_loads = wrap "int32 a[8]; a[0] = 1; int32 x; int32 y; int32 z; x = a[0]; y = a[1]; z = a[2]; stream_write(out, x + y + z);"
let src_two_loads = wrap "int32 a[8]; a[0] = 1; int32 x; int32 y; x = a[0]; y = a[1]; stream_write(out, x + y);"
let src_no_if = wrap "int32 x; x = stream_read(inp); stream_write(out, x);"
let src_if = wrap "int32 x; x = stream_read(inp); if (x > 0) { x = x; } stream_write(out, x);"
let src_extcall =
  "stream int32 out depth 8; extern int32 slow(int32) latency 4; process hw main() { int32 y; y = slow(3); stream_write(out, y); }"
let src_branches =
  wrap
    "int32 x; x = stream_read(inp); if (x > 2) { stream_write(out, 1); } else { stream_write(out, 0); } int32 i; for (i = 0; i < 3; i = i + 1) { x = x + 1; } stream_write(out, x);"
let src_pipe_ii1 =
  wrap
    "int32 i; #pragma pipeline\nfor (i = 0; i < 8; i = i + 1) { int32 x; x = stream_read(inp); stream_write(out, x + 1); }"
let src_pipe_ports =
  wrap
    "int32 m[8]; int32 i; #pragma pipeline\nfor (i = 0; i < 8; i = i + 1) { int32 x; x = stream_read(inp); m[i & 7] = x; int32 y; y = m[(i + 1) & 7]; stream_write(out, y); }"
let src_pipe_guarded =
  wrap
    "int32 i; #pragma pipeline\nfor (i = 0; i < 8; i = i + 1) { int32 x; x = stream_read(inp); if (x > 3) { stream_write(out, x); } stream_write(out, 0 - x); }"
let src_pipe_carried =
  wrap
    "int32 acc; acc = 0; int32 i; #pragma pipeline\nfor (i = 0; i < 8; i = i + 1) { int32 x; x = stream_read(inp); acc = acc + x; stream_write(out, acc); }"
let src_pipe_nested =
  wrap
    "int32 i; int32 j; #pragma pipeline\nfor (i = 0; i < 4; i = i + 1) { for (j = 0; j < 4; j = j + 1) { int32 x; x = i + j; } }"
let src_pipe_guards =
  wrap
    "int32 m[8]; int32 i; #pragma pipeline\nfor (i = 0; i < 8; i = i + 1) { int32 x; x = stream_read(inp); int32 v; v = x; if (x > 5) { v = x * 2; } m[i & 7] = v; stream_write(out, v); }"
let src_deterministic =
  wrap
    "int32 m[8]; int32 x; x = stream_read(inp); m[x & 7] = x; int32 y; y = m[(x + 1) & 7]; stream_write(out, y * x);"
let src_const_shift = wrap "int32 x; x = stream_read(inp); int32 y; y = ((x << 3) ^ (x >> 2)) & 255; stream_write(out, y);"
let src_rom =
  wrap
    "const int32 t[4] = { 10, 20, 30, 40 }; int32 x; x = stream_read(inp); int32 y; y = t[x & 3]; stream_write(out, y);"
let src_shared_units =
  wrap
    "int32 x; x = stream_read(inp); int32 a; int32 b; int32 c; a = x * 3; b = a * 5; c = b * 7; stream_write(out, c);"
let src_concurrent = wrap "int32 x; x = stream_read(inp); int32 a; int32 b; a = x + 1; b = x + 2; int32 c; c = a + b; stream_write(out, c);"

let compile_unoptimized src =
  let prog = elab src in
  Hls.Schedule.compile_proc (Mir.Lower.lower_proc prog (List.hd prog.Ast.procs))

let assert_valid fsmd =
  match Fsmd.check fsmd with
  | [] -> ()
  | errs -> Alcotest.fail (String.concat "; " errs)

(* --- Sequential scheduling --------------------------------------------------- *)

let test_chaining_packs_ops () =
  (* three cheap dependent logic ops chain into one state *)
  let f = compile_first src_chaining in
  assert_valid f;
  (* states: sread, chained ALU, swrite, done *)
  check tint "chained states" 4 (Fsmd.num_states f)

let test_budget_splits_long_chains () =
  (* several dependent multiplies exceed one clock period *)
  let f = compile_first src_long_chain in
  assert_valid f;
  check tbool "multiple ALU states" true (Fsmd.num_states f > 4);
  (* no state chain exceeds the budget by more than one operator *)
  Array.iter
    (fun (s : Fsmd.state) ->
      check tbool "chain below budget" true
        (s.Fsmd.chain_ns <= Device.Stratix.chain_budget_ns +. 0.001))
    f.Fsmd.states

let test_stream_states_exclusive () =
  let f = compile_first src_stream_excl in
  assert_valid f;
  Array.iter
    (fun (s : Fsmd.state) ->
      let has_stream = List.exists (fun g -> Ir.is_stream_op g.Ir.i) s.Fsmd.ops in
      if has_stream then
        check tint "stream op alone" 1
          (List.length
             (List.filter
                (fun (g : Ir.ginst) -> match g.Ir.i with Ir.Tap _ -> false | _ -> true)
                s.Fsmd.ops)))
    f.Fsmd.states

let test_load_result_next_state () =
  let f = compile_first src_load_use in
  assert_valid f (* Fsmd.check verifies load/use separation *)

let test_port_limit_respected () =
  (* three loads from a single-ported RAM cannot share a state *)
  let f = compile_first ~mem_ports:1 src_three_loads in
  assert_valid f;
  let load_states =
    Array.to_list f.Fsmd.states
    |> List.filter (fun (s : Fsmd.state) ->
           List.exists (fun g -> match g.Ir.i with Ir.Load _ -> true | _ -> false) s.Fsmd.ops)
  in
  check tint "loads serialized" 3 (List.length load_states)

let test_dual_port_packs_loads () =
  let f = compile_first ~mem_ports:2 src_two_loads in
  assert_valid f;
  let max_loads_per_state =
    Array.fold_left
      (fun acc (s : Fsmd.state) ->
        Stdlib.max acc
          (List.length
             (List.filter (fun g -> match g.Ir.i with Ir.Load _ -> true | _ -> false) s.Fsmd.ops)))
      0 f.Fsmd.states
  in
  check tint "two loads in one state" 2 max_loads_per_state

let test_if_costs_a_state () =
  let base = compile_first src_no_if in
  let with_if = compile_first src_if in
  assert_valid with_if;
  check tbool "if adds at least one state" true
    (Fsmd.num_states with_if > Fsmd.num_states base)

let test_extcall_wait_states () =
  let f = compile_unoptimized src_extcall in
  assert_valid f;
  (* issue state + 3 wait states before the consumer *)
  check tbool "wait states exist" true (Fsmd.num_states f >= 6)

let test_branch_targets_valid () =
  let f = compile_first src_branches in
  assert_valid f

(* Random programs always produce valid FSMDs. *)
let gen_body =
  let open QCheck.Gen in
  let var = oneofl [ "a"; "b"; "c" ] in
  let atom = oneof [ map string_of_int (int_range 0 63); var ] in
  let expr = map3 (fun a o b -> Printf.sprintf "(%s %s %s)" a o b) atom (oneofl [ "+"; "*"; "&"; "^"; "-" ]) atom in
  let stmt =
    oneof
      [
        map2 (fun v e -> Printf.sprintf "%s = %s;" v e) var expr;
        map (fun e -> Printf.sprintf "m[%s & 7] = a;" e) expr;
        map (fun e -> Printf.sprintf "b = m[%s & 7];" e) expr;
        map2 (fun e v -> Printf.sprintf "if (%s > 9) { %s = 1; }" e v) expr var;
        pure "stream_write(out, a);";
      ]
  in
  map (String.concat "\n") (list_size (int_range 1 12) stmt)

let random_fsmd_valid =
  QCheck.Test.make ~count:100 ~name:"random programs schedule to valid FSMDs"
    (QCheck.make gen_body ~print:(fun s -> s))
    (fun body ->
      let src = wrap (Printf.sprintf "int32 a; int32 b; int32 c; int32 m[8]; a = stream_read(inp); b = 2; c = 3; %s" body) in
      let f = compile_first src in
      Fsmd.check f = [])

(* --- Pipelining ----------------------------------------------------------------- *)

let pipe_of src =
  let f = compile_first src in
  assert_valid f;
  match Array.to_list f.Fsmd.pipes with
  | [ p ] -> p
  | l -> Alcotest.fail (Printf.sprintf "expected one pipe, got %d" (List.length l))

let test_pipeline_ii1 () =
  let p = pipe_of src_pipe_ii1 in
  check tint "ii" 1 p.Fsmd.ii;
  check tint "depth" 3 p.Fsmd.depth

let test_pipeline_port_bound_ii () =
  let p = pipe_of src_pipe_ports in
  check tint "two RAM accesses over one port" 2 p.Fsmd.ii

let test_pipeline_guarded_stream_penalty () =
  let p = pipe_of src_pipe_guarded in
  (* conditional stream write costs one extra II slot *)
  check tbool "ii at least 3" true (p.Fsmd.ii >= 3)

let test_pipeline_loop_carried_accumulator () =
  let p = pipe_of src_pipe_carried in
  (* accumulator must commit before the next issue: feasible at ii=1
     because the add chains in cycle 1?  the write must be <= ii-1, so
     ii grows until the accumulator write fits *)
  check tbool "ii accommodates the carry" true (p.Fsmd.ii >= 1);
  check tbool "depth covers the chain" true (p.Fsmd.depth >= 2)

let test_pipeline_fallback_nested_loop () =
  (* a nested loop cannot be pipelined: falls back to sequential *)
  let f = compile_first src_pipe_nested in
  check tint "no pipes" 0 (Array.length f.Fsmd.pipes)

let test_pipeline_if_converted_guards () =
  let p = pipe_of src_pipe_guards in
  let guarded =
    Array.to_list p.Fsmd.cycle_ops
    |> List.concat |> List.filter (fun (g : Ir.ginst) -> g.Ir.guard <> None)
  in
  check tbool "guarded ops present" true (guarded <> [])

let test_schedule_deterministic () =
  let f1 = compile_first src_deterministic and f2 = compile_first src_deterministic in
  check tint "same state count" (Fsmd.num_states f1) (Fsmd.num_states f2);
  check tbool "same chains" true (f1.Fsmd.max_chain_ns = f2.Fsmd.max_chain_ns)

let test_constant_shift_is_free () =
  (* a constant shift is wiring: it chains with anything *)
  let f = compile_first src_const_shift in
  assert_valid f;
  (* shift + xor + and all chain into a single ALU state *)
  check tint "states" 4 (Fsmd.num_states f)

let test_rom_feeds_datapath () =
  let f = compile_first src_rom in
  assert_valid f;
  check tbool "rom memory present" true
    (List.exists (fun (m : Ir.mem) -> m.Ir.rom_init <> None) f.Fsmd.proc.Ir.mems)

(* --- Binding ----------------------------------------------------------------------- *)

let test_binding_shares_units () =
  let f = compile_first src_shared_units in
  let shared = Hls.Binding.bind ~policy:`Shared f in
  let flat = Hls.Binding.bind ~policy:`Flat f in
  check tbool "sharing reduces units" true (shared.Hls.Binding.total_units < flat.Hls.Binding.total_units);
  check tint "same op count" flat.Hls.Binding.total_ops shared.Hls.Binding.total_ops

let test_binding_concurrent_ops_not_shared () =
  (* independent same-state ops need separate units *)
  let f = compile_first src_concurrent in
  let b = Hls.Binding.bind ~policy:`Shared f in
  let adds =
    List.find_opt
      (fun (u : Hls.Binding.fu_usage) ->
        match u.Hls.Binding.cls with Hls.Binding.Fbin (Ast.Add, _) -> true | _ -> false)
      b.Hls.Binding.fus
  in
  match adds with
  | Some u -> check tbool "at least 2 adders" true (u.Hls.Binding.units >= 2)
  | None -> Alcotest.fail "no adders found"

let binding_invariant =
  QCheck.Test.make ~count:60 ~name:"binding: units <= ops and ops conserved"
    (QCheck.make gen_body ~print:(fun s -> s))
    (fun body ->
      let src = wrap (Printf.sprintf "int32 a; int32 b; int32 c; int32 m[8]; a = stream_read(inp); b = 2; c = 3; %s" body) in
      let f = compile_first src in
      let shared = Hls.Binding.bind ~policy:`Shared f in
      List.for_all
        (fun (u : Hls.Binding.fu_usage) -> u.Hls.Binding.units <= u.Hls.Binding.ops && u.Hls.Binding.units > 0)
        shared.Hls.Binding.fus)

(* --- FSMD pins --------------------------------------------------------------------- *)

(* Every group the pins cover, in a fixed order: examples × all
   strategies; the bundled campaign workloads × default strategies, plain
   and with every fault site padded; torture programs 0-199 of run seed
   42 in blocks of 50 per default strategy; this file's fixed
   programs. *)
let pin_groups () =
  let examples =
    Pin.example_files ()
    |> List.concat_map (fun f ->
           let prog = Typecheck.parse_and_check ~file:f (Pin.read_example f) in
           List.map
             (fun (sname, strategy) ->
               (f ^ "/" ^ sname, fun () -> Pin.compiled_fsmds (Core.Driver.compile ~strategy prog)))
             Core.Driver.all_strategies)
  in
  let bundled =
    List.concat_map
      (fun (w : Campaign.workload) ->
        List.concat_map
          (fun (sname, strategy) ->
            let front () = Core.Driver.front ~strategy w.Campaign.program in
            [
              ( "bundled " ^ w.Campaign.wname ^ "/" ^ sname,
                fun () -> Pin.compiled_fsmds (Core.Driver.finish (front ())) );
              ( "bundled " ^ w.Campaign.wname ^ "/" ^ sname ^ " padded",
                fun () ->
                  let fr = front () in
                  let inst = Faults.Fault.instrument_all fr.Core.Driver.f_ir in
                  Pin.compiled_fsmds
                    (Core.Driver.finish { fr with Core.Driver.f_ir = inst.Faults.Fault.ip_prog }) );
            ])
          Campaign.default_strategies)
      (Campaign.bundled ())
  in
  let torture =
    List.concat_map
      (fun (sname, strategy) ->
        List.map
          (fun block ->
            ( Printf.sprintf "torture 42 #%d-%d/%s" (50 * block) ((50 * block) + 49) sname,
              fun () ->
                List.concat_map
                  (fun index ->
                    let seed = Torture.Gen.program_seed ~run_seed:42L ~index in
                    let prog = Torture.Gen.generate ~seed ~fuel:Torture.Fuzz.default_fuel in
                    Pin.compiled_fsmds (Core.Driver.compile ~strategy prog))
                  (List.init 50 (fun i -> (50 * block) + i)) ))
          [ 0; 1; 2; 3 ])
      Campaign.default_strategies
  in
  let fixed =
    List.map
      (fun (name, compile) -> ("hls " ^ name, fun () -> [ compile () ]))
      [
        ("chaining", fun () -> compile_first src_chaining);
        ("long chain", fun () -> compile_first src_long_chain);
        ("stream exclusivity", fun () -> compile_first src_stream_excl);
        ("load use", fun () -> compile_first src_load_use);
        ("three loads 1 port", fun () -> compile_first ~mem_ports:1 src_three_loads);
        ("two loads 2 ports", fun () -> compile_first ~mem_ports:2 src_two_loads);
        ("no if", fun () -> compile_first src_no_if);
        ("if", fun () -> compile_first src_if);
        ("extcall", fun () -> compile_unoptimized src_extcall);
        ("branches", fun () -> compile_first src_branches);
        ("pipe ii1", fun () -> compile_first src_pipe_ii1);
        ("pipe ports", fun () -> compile_first src_pipe_ports);
        ("pipe guarded stream", fun () -> compile_first src_pipe_guarded);
        ("pipe carried", fun () -> compile_first src_pipe_carried);
        ("pipe nested", fun () -> compile_first src_pipe_nested);
        ("pipe guards", fun () -> compile_first src_pipe_guards);
        ("deterministic", fun () -> compile_first src_deterministic);
        ("const shift", fun () -> compile_first src_const_shift);
        ("rom", fun () -> compile_first src_rom);
        ("shared units", fun () -> compile_first src_shared_units);
        ("concurrent", fun () -> compile_first src_concurrent);
      ]
  in
  examples @ bundled @ torture @ fixed

(* Re-pin only for an intended change of the generated schedules. *)
let fsmd_pins =
  [
    ("campaign.c/baseline", "2 fsmds 0 pipes 2adb5a10fced8d18f4d2fe9c566993c2");
    ("campaign.c/unoptimized", "2 fsmds 0 pipes a9dcd82c5078574e7dc33b1a35b599b2");
    ("campaign.c/parallelized", "7 fsmds 0 pipes 317e727aed83958c6835c3df76dfb627");
    ("campaign.c/optimized", "7 fsmds 0 pipes b8c45c56b76ca97c4b0cc9e30e76cacc");
    ("campaign.c/carte", "7 fsmds 0 pipes 66c786ead50f4410b97ea88c54f710bf");
    ("dct.c/baseline", "1 fsmds 0 pipes e1e3050a435042da5d80600953fc0f74");
    ("dct.c/unoptimized", "1 fsmds 0 pipes 40835a5ed09180ed78d07b35557af105");
    ("dct.c/parallelized", "4 fsmds 0 pipes 3914e374d7a8b8a39230a6ebacbab2c4");
    ("dct.c/optimized", "4 fsmds 0 pipes 58d76639acb90af1ec6b745b7fd5587a");
    ("dct.c/carte", "4 fsmds 0 pipes 9e43234194ea62700cdc0743fad25032");
    ("deadlock.c/baseline", "2 fsmds 0 pipes 1256806871613f0eec6ea68db632b9dd");
    ("deadlock.c/unoptimized", "2 fsmds 0 pipes 1256806871613f0eec6ea68db632b9dd");
    ("deadlock.c/parallelized", "2 fsmds 0 pipes 1256806871613f0eec6ea68db632b9dd");
    ("deadlock.c/optimized", "2 fsmds 0 pipes 1256806871613f0eec6ea68db632b9dd");
    ("deadlock.c/carte", "2 fsmds 0 pipes 1256806871613f0eec6ea68db632b9dd");
    ("fir.c/baseline", "1 fsmds 1 pipes b963ef85e5fdaa15d4b3e9c01583a200");
    ("fir.c/unoptimized", "1 fsmds 1 pipes 018b40ddb4241cf6ec0fff4de9e591af");
    ("fir.c/parallelized", "3 fsmds 1 pipes d994282bf23600d0dfc52e49f2a06542");
    ("fir.c/optimized", "3 fsmds 1 pipes b130c3cabefdc924b19b9317e6c4e17f");
    ("fir.c/carte", "3 fsmds 1 pipes 3ea8d99c13de19ed64478a2c47993413");
    ("mine_demo.c/baseline", "1 fsmds 0 pipes 9b2b85b871b2473cb62eabf2fab28693");
    ("mine_demo.c/unoptimized", "1 fsmds 0 pipes 71d6c313f5a33a80a1b5fc382ba09ca7");
    ("mine_demo.c/parallelized", "2 fsmds 0 pipes 9e9cb4840097f6122159a1ecb15c8663");
    ("mine_demo.c/optimized", "2 fsmds 0 pipes 90ac1df778f1fee7b06e66aa9fe9f3aa");
    ("mine_demo.c/carte", "2 fsmds 0 pipes d8e6d8164f2469be2641c52263ca22f6");
    ("prove_demo.c/baseline", "1 fsmds 0 pipes fbf61a4a178da814d632ec179cc03039");
    ("prove_demo.c/unoptimized", "1 fsmds 0 pipes e22ebafe2cb197eee1b7bad25cb19012");
    ("prove_demo.c/parallelized", "3 fsmds 0 pipes b33b06dc6550307ae20c325450a2df02");
    ("prove_demo.c/optimized", "3 fsmds 0 pipes 08b0480fd8db2236de04c45f74b504e2");
    ("prove_demo.c/carte", "3 fsmds 0 pipes ed2349e7bb0dbd58b5071c20cee0310b");
    ("bundled fir/baseline", "1 fsmds 1 pipes b963ef85e5fdaa15d4b3e9c01583a200");
    ("bundled fir/baseline padded", "1 fsmds 0 pipes 32a5946bc3587785883b5952ba0d286f");
    ("bundled fir/unoptimized", "1 fsmds 1 pipes 018b40ddb4241cf6ec0fff4de9e591af");
    ("bundled fir/unoptimized padded", "1 fsmds 0 pipes d6a265815e1d98f201c1c24c7831779e");
    ("bundled fir/parallelized", "3 fsmds 1 pipes d994282bf23600d0dfc52e49f2a06542");
    ("bundled fir/parallelized padded", "3 fsmds 0 pipes 1b0282d5f8a28758aa389c0b60b48d37");
    ("bundled fir/optimized", "3 fsmds 1 pipes b130c3cabefdc924b19b9317e6c4e17f");
    ("bundled fir/optimized padded", "3 fsmds 0 pipes 9f206711f1838cd9e9e0aa86c0d52dd6");
    ("bundled dct/baseline", "1 fsmds 0 pipes e1e3050a435042da5d80600953fc0f74");
    ("bundled dct/baseline padded", "1 fsmds 0 pipes fe239a8df0542e7fa332a7891bb38cc9");
    ("bundled dct/unoptimized", "1 fsmds 0 pipes 40835a5ed09180ed78d07b35557af105");
    ("bundled dct/unoptimized padded", "1 fsmds 0 pipes 2d65fc785003e17114f572dca4ad9a1c");
    ("bundled dct/parallelized", "4 fsmds 0 pipes 3914e374d7a8b8a39230a6ebacbab2c4");
    ("bundled dct/parallelized padded", "4 fsmds 0 pipes 609b60c59e269b81c89f58ca503f9a13");
    ("bundled dct/optimized", "4 fsmds 0 pipes 58d76639acb90af1ec6b745b7fd5587a");
    ("bundled dct/optimized padded", "4 fsmds 0 pipes 59212ebc9f17a733aaa8196bedacdf64");
    ("bundled des3/baseline", "1 fsmds 0 pipes e5acd9ddc1b583467d317693374f6599");
    ("bundled des3/baseline padded", "1 fsmds 0 pipes c54a3095a79400c75e612fade9a8fb8d");
    ("bundled des3/unoptimized", "1 fsmds 0 pipes b564b2c52f1fa32bc8409cc11ea28cb0");
    ("bundled des3/unoptimized padded", "1 fsmds 0 pipes 7e5ff6e678e567be80c6150357a1c158");
    ("bundled des3/parallelized", "3 fsmds 0 pipes 19d3644e2dc69edf1ecda7a476916c01");
    ("bundled des3/parallelized padded", "3 fsmds 0 pipes 1c562cf4df0aa7a8240a3e331396f925");
    ("bundled des3/optimized", "3 fsmds 0 pipes cb7258eaa8974815fd98e2c77f157535");
    ("bundled des3/optimized padded", "3 fsmds 0 pipes fce95d673a2a641939f40c30c3610989");
    ("bundled edge/baseline", "1 fsmds 1 pipes c967cbc7aee20379b7b5d9f6b7fd80c3");
    ("bundled edge/baseline padded", "1 fsmds 0 pipes a49ac9ae0035318ca3e78851d556394c");
    ("bundled edge/unoptimized", "1 fsmds 1 pipes 27f2f959d39396b7eaeecfa5b5786959");
    ("bundled edge/unoptimized padded", "1 fsmds 0 pipes 08bfe4bd490680a0d8b6cd791adbabd1");
    ("bundled edge/parallelized", "3 fsmds 1 pipes d17d6ff54fa0b8c553768f71642d9c6b");
    ("bundled edge/parallelized padded", "3 fsmds 0 pipes 6fd8766b47e413b897bb9d7fad83eb44");
    ("bundled edge/optimized", "3 fsmds 1 pipes fc57f7df76f8209ecc2befaca860bffc");
    ("bundled edge/optimized padded", "3 fsmds 0 pipes cba3c1c5f0982e4a3397786ed6a0044a");
    ("bundled pulse/baseline", "1 fsmds 0 pipes bd9aa54b648b21a3eeee5369386e2dfc");
    ("bundled pulse/baseline padded", "1 fsmds 0 pipes c147256d72bb28484718560199ec8c87");
    ("bundled pulse/unoptimized", "1 fsmds 0 pipes 9c1fba332d7428076252ee83e0910fb0");
    ("bundled pulse/unoptimized padded", "1 fsmds 0 pipes 69eb52492f65e0843b953144c8563061");
    ("bundled pulse/parallelized", "4 fsmds 0 pipes 00cd59e90313d9a97d3311d604146c50");
    ("bundled pulse/parallelized padded", "4 fsmds 0 pipes 64995c035da677fe40dd714765c5d529");
    ("bundled pulse/optimized", "4 fsmds 0 pipes ea9be62ab9e774d8c25be0408e7bd447");
    ("bundled pulse/optimized padded", "4 fsmds 0 pipes e34ee7f80fc7cc73f41cb4a671253313");
    ("torture 42 #0-49/baseline", "95 fsmds 31 pipes 015c46c848d9cbe29e70a3ca48b756b0");
    ("torture 42 #50-99/baseline", "110 fsmds 32 pipes f4989d465c0e3f1275f41746458d75cb");
    ("torture 42 #100-149/baseline", "109 fsmds 40 pipes cff695d5353a60d1a5bd0907eb76e62c");
    ("torture 42 #150-199/baseline", "97 fsmds 23 pipes 505ba03f41c0936c3ff673b554850540");
    ("torture 42 #0-49/unoptimized", "95 fsmds 31 pipes 8abc99f347ccae0bff4047968eec317b");
    ("torture 42 #50-99/unoptimized", "110 fsmds 32 pipes 8e779e51bb058d627d5392e590efabe8");
    ("torture 42 #100-149/unoptimized", "109 fsmds 40 pipes 4107d738ccf2562edc1e8b5f030cb061");
    ("torture 42 #150-199/unoptimized", "97 fsmds 23 pipes 9830500712297e7fa53f7359fa49905b");
    ("torture 42 #0-49/parallelized", "176 fsmds 31 pipes 7b562c9d412bf34067da3d5410c8a42a");
    ("torture 42 #50-99/parallelized", "195 fsmds 32 pipes 0076353dfd98be1cdcdc12fc838bc6f4");
    ("torture 42 #100-149/parallelized", "192 fsmds 40 pipes 636040e181d803821806f45a477e5bcc");
    ("torture 42 #150-199/parallelized", "166 fsmds 23 pipes a0d9398bd68d618d3556ef7b49ad12b1");
    ("torture 42 #0-49/optimized", "176 fsmds 31 pipes c28d18277e1ee5f8da1d8080b30fd2c1");
    ("torture 42 #50-99/optimized", "195 fsmds 32 pipes 9318c523836304fd21b0b892fc8edfee");
    ("torture 42 #100-149/optimized", "192 fsmds 40 pipes 109de57dd078818694e3edb002e5af84");
    ("torture 42 #150-199/optimized", "166 fsmds 23 pipes c35de8f33ec42b3b85d8df19d963c972");
    ("hls chaining", "1 fsmds 0 pipes 3f8247bb266ddb5bea6775b7cc277705");
    ("hls long chain", "1 fsmds 0 pipes 39a96b11608856fd934fd21b0b24072a");
    ("hls stream exclusivity", "1 fsmds 0 pipes 5c25adcbbe59fe50827d767410aa33a4");
    ("hls load use", "1 fsmds 0 pipes 9da36115e4aa8111d8d2f8aa8f46c369");
    ("hls three loads 1 port", "1 fsmds 0 pipes 4f1f72c6374a5a9457385da897ac8e9f");
    ("hls two loads 2 ports", "1 fsmds 0 pipes f784131066a27f1a51861e470ccb48ed");
    ("hls no if", "1 fsmds 0 pipes be00bb1054dd51d79f6f37cf88a8dc49");
    ("hls if", "1 fsmds 0 pipes b229919fb5e9689c5cb8b29457995786");
    ("hls extcall", "1 fsmds 0 pipes 6465f5cb59b61a8c898666632fc9c448");
    ("hls branches", "1 fsmds 0 pipes 283d3b29435350aec16bd19cd6ebe44c");
    ("hls pipe ii1", "1 fsmds 1 pipes b4a1b83659925ffa0bbd72f85cc5465e");
    ("hls pipe ports", "1 fsmds 1 pipes e77988e14e6736d371fdb8b1152d9276");
    ("hls pipe guarded stream", "1 fsmds 1 pipes d9e156fef26b168ac4028f9e640ff7ef");
    ("hls pipe carried", "1 fsmds 1 pipes aa593e2b7e61d94652e252137f35e31f");
    ("hls pipe nested", "1 fsmds 0 pipes 84f3672deb4603abdd9750abe55dd434");
    ("hls pipe guards", "1 fsmds 1 pipes 47027e43b54462ebb93cbfa8ba9e0bee");
    ("hls deterministic", "1 fsmds 0 pipes 7acd84921011b86322fcd3117e041956");
    ("hls const shift", "1 fsmds 0 pipes 6d7041d6f879b65c20b925bdf21c4b03");
    ("hls rom", "1 fsmds 0 pipes fa2b525c8d947953f04f2da760918386");
    ("hls shared units", "1 fsmds 0 pipes bfbd26b8ee13285dfe9380bbb7ee5335");
    ("hls concurrent", "1 fsmds 0 pipes 929c85353fb3577b7e45aa798fd659ab");
  ]

let test_fsmd_pins () =
  let got = List.map (fun (name, fsmds) -> (name, Pin.group_pin (fsmds ()))) (pin_groups ()) in
  if got <> fsmd_pins then
    List.iter (fun (name, pin) -> Printf.printf "    (%S, %S);\n" name pin) got;
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "FSMD pins" fsmd_pins got

let () =
  Alcotest.run "hls"
    [
      ( "schedule",
        [
          Alcotest.test_case "operator chaining" `Quick test_chaining_packs_ops;
          Alcotest.test_case "chain budget" `Quick test_budget_splits_long_chains;
          Alcotest.test_case "stream exclusivity" `Quick test_stream_states_exclusive;
          Alcotest.test_case "load latency" `Quick test_load_result_next_state;
          Alcotest.test_case "port limits" `Quick test_port_limit_respected;
          Alcotest.test_case "dual-port packing" `Quick test_dual_port_packs_loads;
          Alcotest.test_case "if costs a state" `Quick test_if_costs_a_state;
          Alcotest.test_case "extcall wait states" `Quick test_extcall_wait_states;
          Alcotest.test_case "branch targets" `Quick test_branch_targets_valid;
          Alcotest.test_case "deterministic" `Quick test_schedule_deterministic;
          Alcotest.test_case "constant shifts free" `Quick test_constant_shift_is_free;
          Alcotest.test_case "ROM in datapath" `Quick test_rom_feeds_datapath;
          QCheck_alcotest.to_alcotest random_fsmd_valid;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "ii=1 streaming" `Quick test_pipeline_ii1;
          Alcotest.test_case "port-bound ii" `Quick test_pipeline_port_bound_ii;
          Alcotest.test_case "guarded stream penalty" `Quick test_pipeline_guarded_stream_penalty;
          Alcotest.test_case "loop-carried accumulator" `Quick test_pipeline_loop_carried_accumulator;
          Alcotest.test_case "nested loop fallback" `Quick test_pipeline_fallback_nested_loop;
          Alcotest.test_case "if-conversion guards" `Quick test_pipeline_if_converted_guards;
        ] );
      ( "binding",
        [
          Alcotest.test_case "sharing reduces units" `Quick test_binding_shares_units;
          Alcotest.test_case "concurrency forces units" `Quick test_binding_concurrent_ops_not_shared;
          QCheck_alcotest.to_alcotest binding_invariant;
        ] );
      ("pins", [ Alcotest.test_case "FSMD digests" `Quick test_fsmd_pins ]);
    ]
