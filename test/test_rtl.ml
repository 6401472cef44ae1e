(* RTL layer tests: netlist generation, EP2S180 area estimation, fmax
   model, VHDL emission. *)

open Front
module Netlist = Rtl.Netlist
module Area = Rtl.Area
module Timing = Rtl.Timing
module Stratix = Device.Stratix

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let elab = Typecheck.parse_and_check ~file:"test.c"

let fsmd_of src =
  let prog = elab src in
  Hls.Schedule.compile_proc
    (Mir.Opt.optimize (Mir.Lower.lower_proc prog (List.hd prog.Ast.procs)))

let wrap body =
  Printf.sprintf
    "stream int32 inp depth 16; stream int32 out depth 16; process hw main() { %s }" body

(* --- Netlist generation -------------------------------------------------------- *)

let test_gen_module_parts () =
  let f = fsmd_of (wrap "int32 a[8]; int32 x; x = stream_read(inp); a[0] = x; stream_write(out, x * 3);") in
  let m = Rtl.Gen.of_fsmd f in
  let has pred = List.exists pred m.Netlist.prims in
  check tbool "has FSM" true (has (function Netlist.Fsm _ -> true | _ -> false));
  check tbool "has BRAM" true (has (function Netlist.Bram _ -> true | _ -> false));
  check tbool "has registers" true (has (function Netlist.Regbank _ -> true | _ -> false));
  check tbool "has multiplier FU" true
    (has (function Netlist.Fu { fu_op = `Bin Ast.Mul; _ } -> true | _ -> false))

let test_gen_fifo_per_stream () =
  let prog = elab (wrap "int32 x; x = stream_read(inp); stream_write(out, x);") in
  let fsmd =
    Hls.Schedule.compile_proc (Mir.Lower.lower_proc prog (List.hd prog.Ast.procs))
  in
  let d = Rtl.Gen.design ~top_name:"t" [ fsmd ] prog.Ast.streams () in
  check tint "two fifos" 2 (List.length d.Netlist.fifos)

let test_gen_pipe_ctrl () =
  let f =
    fsmd_of
      (wrap
         "int32 i; #pragma pipeline\nfor (i = 0; i < 8; i = i + 1) { int32 x; x = stream_read(inp); stream_write(out, x); }")
  in
  let m = Rtl.Gen.of_fsmd f in
  check tbool "pipeline control logic" true
    (List.exists (function Netlist.Pipe_ctrl _ -> true | _ -> false) m.Netlist.prims)

(* --- Area model ------------------------------------------------------------------ *)

let test_area_stream_is_576_bits () =
  check tint "32-bit stream, 16 deep" 576 (Stratix.stream_ram_bits ~width:32 ~depth:16);
  check tint "16-bit stream packs x18" 288 (Stratix.stream_ram_bits ~width:16 ~depth:16)

let test_area_monotone_in_design_size () =
  let small = fsmd_of (wrap "int32 x; x = stream_read(inp); stream_write(out, x + 1);") in
  let big =
    fsmd_of
      (wrap
         "int32 x; x = stream_read(inp); int32 a; int32 b; int32 c; a = x * 3; b = a * x; c = (b ^ a) + (x & a) - (b | x); int32 m[64]; m[x & 63] = c; stream_write(out, c);")
  in
  let usage f = Area.of_design (Rtl.Gen.design ~top_name:"t" [ f ] [] ()) in
  let us = usage small and ub = usage big in
  check tbool "bigger design, more ALUTs" true (ub.Area.aluts > us.Area.aluts);
  check tbool "bigger design, more interconnect" true (ub.Area.interconnect > us.Area.interconnect)

let test_area_rom_counts_ram_bits () =
  let f = fsmd_of (wrap "const int32 t[64] = { 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63 }; int32 x; x = stream_read(inp); stream_write(out, t[x & 63]);") in
  let u = Area.of_design (Rtl.Gen.design ~top_name:"t" [ f ] [] ()) in
  check tbool "ROM bits counted" true (u.Area.ram_bits >= 64 * 36)

let test_area_percentages () =
  let f = fsmd_of (wrap "int32 x; x = stream_read(inp); stream_write(out, x);") in
  let u = Area.of_design (Rtl.Gen.design ~top_name:"t" [ f ] [] ()) in
  List.iter
    (fun (_, pct) -> check tbool "tiny design under 1%" true (pct < 1.0))
    (Area.pct_of_device u)

(* --- Timing model ------------------------------------------------------------------ *)

let base_usage = { Area.zero with Area.aluts = 5000; registers = 6000; interconnect = 15000 }

let test_timing_monotone_in_chain () =
  let t1 = Timing.estimate ~name:"a" ~max_chain_ns:2.0 base_usage in
  let t2 = Timing.estimate ~name:"a" ~max_chain_ns:4.0 base_usage in
  check tbool "longer chain, lower fmax" true (t2.Timing.fmax_mhz < t1.Timing.fmax_mhz)

let test_timing_stream_pressure () =
  let few = Timing.estimate ~name:"a" ~max_chain_ns:2.5 { base_usage with Area.streams = 10 } in
  let many = Timing.estimate ~name:"a" ~max_chain_ns:2.5 { base_usage with Area.streams = 260 } in
  check tbool "many streams, slower clock" true
    (many.Timing.fmax_mhz < few.Timing.fmax_mhz);
  check tbool "matters by >5%" true
    (many.Timing.fmax_mhz /. few.Timing.fmax_mhz < 0.95)

let test_timing_jitter_deterministic () =
  let t1 = Timing.estimate ~name:"same" ~max_chain_ns:3.0 base_usage in
  let t2 = Timing.estimate ~name:"same" ~max_chain_ns:3.0 base_usage in
  check tbool "deterministic" true (t1.Timing.fmax_mhz = t2.Timing.fmax_mhz)

let test_timing_jitter_bounded () =
  (* jitter is within +/-2% of the deterministic period *)
  let t = Timing.estimate ~name:"x" ~max_chain_ns:3.0 base_usage in
  let nominal = 1000.0 /. t.Timing.period_ns in
  check tbool "within 2%" true (Float.abs (t.Timing.fmax_mhz -. nominal) /. nominal <= 0.021)

(* --- Device tables --------------------------------------------------------------------- *)

let test_device_delay_monotone_in_width () =
  let open Front.Ast in
  List.iter
    (fun op ->
      let d w = Stratix.binop_delay_ns op (Tint (Signed, w)) in
      check tbool "wider is slower" true (d W8 <= d W16 && d W16 <= d W32 && d W32 <= d W64))
    [ Add; Sub; Lt; Mul; Div; Shl ]

let test_device_area_monotone_in_width () =
  let open Front.Ast in
  List.iter
    (fun op ->
      let a w = Stratix.binop_aluts op (Tint (Signed, w)) in
      check tbool "wider is bigger" true (a W8 <= a W16 && a W16 <= a W32 && a W32 <= a W64))
    [ Add; Sub; Lt; Band; Div; Shl ]

let test_device_chain_budget_consistent () =
  check tbool "budget below period" true
    (Stratix.chain_budget_ns < Stratix.target_period_ns);
  check tbool "two 16-bit adds chain" true
    (2.0 *. Stratix.binop_delay_ns Front.Ast.Add (Front.Ast.Tint (Front.Ast.Signed, Front.Ast.W16))
    <= Stratix.chain_budget_ns);
  check tbool "one 32-bit add chains" true
    (Stratix.binop_delay_ns Front.Ast.Add Front.Ast.int32_t <= Stratix.chain_budget_ns)

let test_device_m4k_padding () =
  check tint "x9 mode" 9 (Stratix.m4k_data_width 8);
  check tint "x18 mode" 18 (Stratix.m4k_data_width 16);
  check tint "x36 mode" 36 (Stratix.m4k_data_width 32);
  check tint "one M4K block" 1 (Stratix.m4k_blocks_of_bits 576)

(* --- Notify (decode robustness) ---------------------------------------------------------- *)

let test_notify_unknown_code () =
  let notify = Core.Notify.make ~table:[] ~decode:[ ("err", fun w -> [ Int64.to_int w ]) ] ~nabort:true in
  let handler = List.assoc "err" notify.Core.Notify.handlers in
  check tbool "unknown code tolerated" true (handler 99L = `Ok);
  let has needle s =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  match Core.Notify.messages notify with
  | [ msg ] -> check tbool "reported as unknown" true (has "unknown assertion code" msg)
  | _ -> Alcotest.fail "expected one message"

(* --- VHDL ----------------------------------------------------------------------------- *)

let contains needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_vhdl_structure () =
  let prog = elab (wrap "int32 x; x = stream_read(inp); if (x > 0) { stream_write(out, x); } stream_write(out, 0 - x);") in
  let fsmd = Hls.Schedule.compile_proc (Mir.Lower.lower_proc prog (List.hd prog.Ast.procs)) in
  let v = Rtl.Vhdl.emit_design [ fsmd ] prog.Ast.streams in
  check tbool "entity" true (contains "entity main is" v);
  check tbool "architecture" true (contains "architecture fsmd of main is" v);
  check tbool "clock port" true (contains "clk   : in std_logic;" v);
  check tbool "stream handshake ports" true (contains "inp_rdreq : out std_logic;" v);
  check tbool "case dispatch" true (contains "case state is" v);
  check tbool "one when per state" true
    (Hls.Fsmd.num_states fsmd
    = List.length
        (String.split_on_char '\n' v |> List.filter (fun l -> contains "when S" l)))

let test_vhdl_tap_signals () =
  let prog = elab (wrap "int32 x; x = stream_read(inp); assert(x > 0); stream_write(out, x);") in
  let c = Core.Driver.compile ~strategy:Core.Driver.parallelized prog in
  check tbool "tap latch enables emitted" true (contains "tap0_fire <= '1';" (Core.Driver.vhdl c))

(* --- VHDL byte pins ------------------------------------------------------------- *)

(* MD5 of the full VHDL text (what [inca vhdl] prints) for every
   examples/*.c under every strategy of [Driver.all_strategies].  A change
   to scheduling, RTL generation or the emitter that alters a single byte
   of a bundled design's VHDL fails here; re-pin only for an intended
   change of the generated hardware. *)
let vhdl_pins =
  [
    ("campaign.c", "baseline", "4d1c54abd76ad39575b4f0d5e4df8ed4");
    ("campaign.c", "unoptimized", "b3f070e0f79cc3ca2a159d77c3fbbf9b");
    ("campaign.c", "parallelized", "0003b6c175c55d2da4529795561bbe9a");
    ("campaign.c", "optimized", "f33647e83ece00f942217744b3d8535e");
    ("campaign.c", "carte", "d2c6b5cc07bdc79389b7bf4f7fb5be04");
    ("dct.c", "baseline", "71f1978235617bd808c372094b61653d");
    ("dct.c", "unoptimized", "5c455ccd395350fb8564c73784fca70e");
    ("dct.c", "parallelized", "6f75c5c96ab2b08aae405af979ed832f");
    ("dct.c", "optimized", "cd4ab34938fc3d3fa18b7e87aeb16d18");
    ("dct.c", "carte", "671452023fef752ce9d8a0dbf2c94d0c");
    ("deadlock.c", "baseline", "71e33ddeb867142d0910e502585dc1da");
    ("deadlock.c", "unoptimized", "71e33ddeb867142d0910e502585dc1da");
    ("deadlock.c", "parallelized", "71e33ddeb867142d0910e502585dc1da");
    ("deadlock.c", "optimized", "71e33ddeb867142d0910e502585dc1da");
    ("deadlock.c", "carte", "71e33ddeb867142d0910e502585dc1da");
    ("fir.c", "baseline", "58ce2adde3e7d7495a868a552799960c");
    ("fir.c", "unoptimized", "7d93fc42ba98241e93f6cea51c868297");
    ("fir.c", "parallelized", "816cca3b7b7b1df0c391d36c7450a045");
    ("fir.c", "optimized", "f9db453cc1cf0570a46e302e3f66e68e");
    ("fir.c", "carte", "6024058e569d3d1eacfb41617e45c495");
    ("mine_demo.c", "baseline", "8be33a4f7cebc0b6980d2604865ef4ca");
    ("mine_demo.c", "unoptimized", "1c4a4a44e98f310f0ae77b4124739b6d");
    ("mine_demo.c", "parallelized", "df46230034069ea4f8bf2ecc14f72a57");
    ("mine_demo.c", "optimized", "f3ce3fa991983e193b0b12c465eb22ae");
    ("mine_demo.c", "carte", "76ee4c48a5e13486fd8444ce08389acf");
    ("prove_demo.c", "baseline", "686de11bd494e013430c128894c17159");
    ("prove_demo.c", "unoptimized", "9d18e949892d6e6f91135d2959b92152");
    ("prove_demo.c", "parallelized", "99a636211fe41de4293647b581ae8676");
    ("prove_demo.c", "optimized", "414271ebd67dcce9e5119e731e94497a");
    ("prove_demo.c", "carte", "06fb07c338f7aa15778e235f9b582b84");
  ]

let test_vhdl_pins () =
  let files = Pin.example_files () in
  check (Alcotest.list Alcotest.string) "one pin per example and strategy"
    (List.concat_map (fun f -> List.map (fun (s, _) -> f ^ "/" ^ s) Core.Driver.all_strategies) files)
    (List.map (fun (f, s, _) -> f ^ "/" ^ s) vhdl_pins);
  List.iter
    (fun (f, sname, want) ->
      let c =
        Core.Driver.compile
          ~strategy:(List.assoc sname Core.Driver.all_strategies)
          (Typecheck.parse_and_check ~file:f (Pin.read_example f))
      in
      check Alcotest.string (f ^ " under " ^ sname) want
        (Digest.to_hex (Digest.string (Core.Driver.vhdl c))))
    vhdl_pins

let () =
  Alcotest.run "rtl"
    [
      ( "gen",
        [
          Alcotest.test_case "module parts" `Quick test_gen_module_parts;
          Alcotest.test_case "fifo per stream" `Quick test_gen_fifo_per_stream;
          Alcotest.test_case "pipe control" `Quick test_gen_pipe_ctrl;
        ] );
      ( "area",
        [
          Alcotest.test_case "M4K stream bits" `Quick test_area_stream_is_576_bits;
          Alcotest.test_case "monotone" `Quick test_area_monotone_in_design_size;
          Alcotest.test_case "ROM bits" `Quick test_area_rom_counts_ram_bits;
          Alcotest.test_case "percent columns" `Quick test_area_percentages;
        ] );
      ( "timing",
        [
          Alcotest.test_case "chain monotone" `Quick test_timing_monotone_in_chain;
          Alcotest.test_case "stream pressure" `Quick test_timing_stream_pressure;
          Alcotest.test_case "deterministic" `Quick test_timing_jitter_deterministic;
          Alcotest.test_case "jitter bounded" `Quick test_timing_jitter_bounded;
        ] );
      ( "device",
        [
          Alcotest.test_case "delay monotone" `Quick test_device_delay_monotone_in_width;
          Alcotest.test_case "area monotone" `Quick test_device_area_monotone_in_width;
          Alcotest.test_case "chain budget" `Quick test_device_chain_budget_consistent;
          Alcotest.test_case "M4K padding" `Quick test_device_m4k_padding;
        ] );
      ( "notify", [ Alcotest.test_case "unknown code" `Quick test_notify_unknown_code ] );
      ( "vhdl",
        [
          Alcotest.test_case "structure" `Quick test_vhdl_structure;
          Alcotest.test_case "tap signals" `Quick test_vhdl_tap_signals;
          Alcotest.test_case "bundled examples pinned" `Quick test_vhdl_pins;
        ] );
    ]
