(* Application tests: DES/3DES reference and generated hardware, edge
   detection, the loopback chain — software simulation, cycle-accurate
   circuit, and the OCaml oracles must all agree. *)

open Front
module Des = Apps.Des_ref
module Engine = Sim.Engine
module Driver = Core.Driver

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let ti64 = Alcotest.testable (fun ppf v -> Fmt.pf ppf "%Lx" v) Int64.equal

let elab = Typecheck.parse_and_check

(* --- DES reference ------------------------------------------------------------ *)

let test_des_known_vector () =
  (* the classic textbook vector *)
  check ti64 "encrypt" 0x85E813540F0AB405L (Des.encrypt 0x133457799BBCDFF1L 0x0123456789ABCDEFL);
  check ti64 "decrypt" 0x0123456789ABCDEFL (Des.decrypt 0x133457799BBCDFF1L 0x85E813540F0AB405L)

let test_des_weak_key_palindrome () =
  (* with an all-zero key, double encryption is identity (weak key) *)
  let k = 0L in
  let p = 0xDEADBEEF01234567L in
  check ti64 "weak key" p (Des.encrypt k (Des.encrypt k p))

let des_roundtrip =
  QCheck.Test.make ~count:100 ~name:"DES decrypt inverts encrypt"
    QCheck.(pair int64 int64)
    (fun (key, block) -> Des.decrypt key (Des.encrypt key block) = block)

let des_packed_equivalence =
  QCheck.Test.make ~count:100 ~name:"packed/delta-swap DES equals table DES"
    QCheck.(pair int64 int64)
    (fun (key, block) ->
      let table = Des.des_block (Des.encrypt_subkeys key) block in
      let packed = Des.des_block_packed (Des.pack_subkeys (Des.encrypt_subkeys key)) block in
      table = packed)

let ip_twiddle_equiv =
  QCheck.Test.make ~count:200 ~name:"delta-swap IP equals table IP"
    QCheck.int64
    (fun block ->
      let table = Des.permute_64 Des.ip 64 block in
      let tl = Int64.to_int (Int64.shift_right_logical table 32) land 0xFFFFFFFF in
      let tr = Int64.to_int (Int64.logand table 0xFFFFFFFFL) in
      Des.ip_twiddle block = (tl, tr))

let fp_inverts_ip =
  QCheck.Test.make ~count:200 ~name:"FP twiddle inverts IP twiddle"
    QCheck.int64
    (fun block -> Des.fp_twiddle (Des.ip_twiddle block) = block)

let test_field_map_derived () =
  match Des.field_map with
  | Some fm -> check tint "eight groups mapped" 8 (Array.length fm)
  | None -> Alcotest.fail "field map underivable"

let des3_roundtrip =
  QCheck.Test.make ~count:50 ~name:"3DES EDE decrypt inverts encrypt"
    QCheck.(pair int64 int64)
    (fun (k, block) ->
      let k1 = k and k2 = Int64.add k 7L and k3 = Int64.mul k 31L in
      Des.decrypt3 ~k1 ~k2 ~k3 (Des.encrypt3 ~k1 ~k2 ~k3 block) = block)

let des3_packed_equivalence =
  QCheck.Test.make ~count:50 ~name:"packed 3DES equals table 3DES"
    QCheck.(pair int64 int64)
    (fun (k, cipher) ->
      let k1 = k and k2 = Int64.add k 99L and k3 = Int64.logxor k 0x5555AAAAL in
      Des.decrypt3_packed ~k1 ~k2 ~k3 cipher = Des.decrypt3 ~k1 ~k2 ~k3 cipher)

let test_block_string_roundtrip () =
  let s = "OCamlHLS" in
  check tbool "roundtrip" true (Des.string_of_block (Des.block_of_string s) = s)

(* --- Generated 3DES program ------------------------------------------------------ *)

let des_program = lazy (elab ~file:"des3.c" (Apps.Des_src.demo_source ()))

let run_des_circuit ?(strategy = Driver.parallelized) text =
  let cipher = Apps.Des_src.demo_ciphertext text in
  let c = Driver.compile ~strategy (Lazy.force des_program) in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("cipher_in", cipher) ];
          drains = [ "plain_out" ];
          params = [ ("des3", [ ("nblocks", Int64.of_int (List.length cipher)) ]) ];
        }
      c
  in
  r

let test_des_circuit_decrypts () =
  let text = "hardware assertions in DES" in
  let r = run_des_circuit text in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  let blocks = List.assoc "plain_out" r.Driver.engine.Engine.drained in
  check tbool "oracle blocks" true (blocks = Apps.Des_src.demo_plaintext_blocks text)

let test_des_interp_matches_circuit () =
  let text = "interp vs circuit agree" in
  let cipher = Apps.Des_src.demo_ciphertext text in
  let prog = Lazy.force des_program in
  let sw =
    Interp.run
      ~cfg:
        {
          Interp.default_config with
          Interp.feeds = [ ("cipher_in", cipher) ];
          drains = [ "plain_out" ];
          params = [ ("des3", [ ("nblocks", Int64.of_int (List.length cipher)) ]) ];
        }
      prog
  in
  check tbool "software simulation completes" true (sw.Interp.outcome = Interp.Completed);
  let r = run_des_circuit text in
  check tbool "same blocks" true
    (sw.Interp.drained = r.Driver.engine.Engine.drained)

let test_des_ascii_assertions_catch_corruption () =
  let text = "plaintext that is pure ASCII" in
  let cipher = Apps.Des_src.demo_ciphertext text in
  let corrupted = List.mapi (fun i b -> if i = 0 then Int64.lognot b else b) cipher in
  let c = Driver.compile ~strategy:Driver.parallelized (Lazy.force des_program) in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("cipher_in", corrupted) ];
          drains = [ "plain_out" ];
          params = [ ("des3", [ ("nblocks", Int64.of_int (List.length corrupted)) ]) ];
        }
      c
  in
  match r.Driver.engine.Engine.outcome with
  | Engine.Aborted _ -> ()
  | _ -> Alcotest.fail "garbage plaintext must trip the ASCII assertions"

let des_circuit_random_text =
  QCheck.Test.make ~count:5 ~name:"3DES circuit decrypts random printable text"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 8 24) QCheck.Gen.printable)
    (fun text ->
      (* printable strings keep the ASCII assertions quiet *)
      let text = String.map (fun c -> if c = '\n' then ' ' else c) text in
      let r = run_des_circuit text in
      r.Driver.engine.Engine.outcome = Engine.Finished
      && List.assoc "plain_out" r.Driver.engine.Engine.drained
         = Apps.Des_src.demo_plaintext_blocks text)

let test_des_table1_overheads_small () =
  let prog = Lazy.force des_program in
  let orig = Driver.rtl (Driver.compile ~strategy:Driver.baseline prog) in
  let opt = Driver.rtl (Driver.compile ~strategy:Driver.parallelized prog) in
  let cap = Device.Stratix.ep2s180 in
  let alut_pct =
    100.0
    *. float_of_int (opt.Driver.area.Rtl.Area.aluts - orig.Driver.area.Rtl.Area.aluts)
    /. float_of_int cap.Device.Stratix.aluts
  in
  check tbool "ALUT overhead below 0.5%" true (alut_pct < 0.5 && alut_pct > 0.0);
  check tint "one failure stream = 576 RAM bits" 576
    (opt.Driver.area.Rtl.Area.ram_bits - orig.Driver.area.Rtl.Area.ram_bits);
  let df =
    (opt.Driver.timing.Rtl.Timing.fmax_mhz -. orig.Driver.timing.Rtl.Timing.fmax_mhz)
    /. orig.Driver.timing.Rtl.Timing.fmax_mhz
  in
  check tbool "fmax within 5%" true (Float.abs df < 0.05)

(* --- Edge detection ------------------------------------------------------------------ *)

let test_edge_reference_properties () =
  let w = 16 and h = 12 in
  let flat = Array.make (w * h) 777 in
  let out = Apps.Edge_ref.filter ~w ~h flat in
  (* a constant image has zero response everywhere *)
  check tbool "flat image -> zeros" true (Array.for_all (fun v -> v = 0) out)

let test_edge_linear_gradient_zero () =
  let w = 16 and h = 12 in
  let grad = Array.init (w * h) (fun i -> (i mod w * 3) + (i / w * 5)) in
  let out = Apps.Edge_ref.filter ~w ~h grad in
  check tbool "linear gradient -> zeros" true (Array.for_all (fun v -> v = 0) out)

let edge_program = lazy (elab ~file:"edge.c" (Apps.Edge_src.demo_source ()))

let run_edge strategy img ~w:_ ~h =
  let c = Driver.compile ~strategy (Lazy.force edge_program) in
  Driver.simulate
    ~options:
      {
        Driver.default_sim_options with
        Driver.feeds = [ ("pixels_in", Apps.Edge_ref.to_stream img) ];
        drains = [ "pixels_out" ];
        params =
          [ ("edge", [ ("width", Int64.of_int Apps.Edge_src.default_width);
                       ("height", Int64.of_int h) ]) ];
      }
    c

let test_edge_circuit_matches_reference () =
  let w = Apps.Edge_src.default_width and h = 12 in
  let img = Apps.Edge_ref.test_image ~w ~h in
  let expected = Array.to_list (Array.map Int64.of_int (Apps.Edge_ref.filter ~w ~h img)) in
  let r = run_edge Driver.parallelized img ~w ~h in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "pixels match oracle" true
    (List.assoc "pixels_out" r.Driver.engine.Engine.drained = expected)

let test_edge_geometry_assertion () =
  let w = Apps.Edge_src.default_width and h = 12 in
  let img = Apps.Edge_ref.test_image ~w ~h in
  let c = Driver.compile ~strategy:Driver.parallelized (Lazy.force edge_program) in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("pixels_in", Apps.Edge_ref.to_stream img) ];
          drains = [ "pixels_out" ];
          params = [ ("edge", [ ("width", 99L); ("height", Int64.of_int h) ]) ];
        }
      c
  in
  match r.Driver.engine.Engine.outcome with
  | Engine.Aborted _ ->
      check tbool "message names the geometry check" true
        (List.exists
           (fun m ->
             let has sub s =
               let n = String.length sub and l = String.length s in
               let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
               go 0
             in
             has "width ==" m)
           r.Driver.messages)
  | _ -> Alcotest.fail "geometry mismatch must abort"

let test_edge_pipelined () =
  let w = Apps.Edge_src.default_width and h = 10 in
  let img = Apps.Edge_ref.test_image ~w ~h in
  let r = run_edge Driver.baseline img ~w ~h in
  let active =
    List.filter (fun (p : Engine.pipe_stats) -> p.Engine.issues > 0) r.Driver.engine.Engine.pipes
  in
  check tbool "inner loop pipelined" true (active <> []);
  List.iter
    (fun (p : Engine.pipe_stats) -> check tint "line-buffer bound II" 2 p.Engine.ii_static)
    active

(* --- DCT ----------------------------------------------------------------------------- *)

let dct_program = lazy (elab ~file:"dct.c" (Apps.Dct_src.source ()))

let run_dct ?(strategy = Driver.parallelized) samples =
  let c = Driver.compile ~strategy (Lazy.force dct_program) in
  Driver.simulate
    ~options:
      {
        Driver.default_sim_options with
        Driver.feeds = [ ("dct_in", samples) ];
        drains = [ "dct_out" ];
        params =
          [ ("dct", [ ("nblocks", Int64.of_int (List.length samples / Apps.Dct_ref.points)) ]) ];
      }
    c

let test_dct_circuit_matches_reference () =
  let blocks = 6 in
  let samples = Apps.Dct_ref.test_blocks blocks in
  let expected =
    Array.to_list (Array.map Int64.of_int (Apps.Dct_ref.transform_stream samples))
  in
  let r = run_dct (Apps.Dct_ref.to_stream samples) in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "coefficients match oracle" true
    (List.assoc "dct_out" r.Driver.engine.Engine.drained = expected)

let test_dct_dc_component () =
  (* a constant block concentrates all energy in coefficient 0 *)
  let block = Array.make 8 1000 in
  let out = Apps.Dct_ref.transform block in
  check tbool "DC dominant" true (abs out.(0) > 2000);
  check tbool "ACs near zero" true
    (Array.for_all (fun v -> abs v <= 2) (Array.sub out 1 7))

let test_dct_bound_assertion_fires () =
  (* out-of-range inputs overflow the accumulator bound *)
  let samples = List.init 8 (fun _ -> 2_000_000L) in
  let r = run_dct samples in
  match r.Driver.engine.Engine.outcome with
  | Engine.Aborted _ -> ()
  | _ -> Alcotest.fail "bound assertion should fire"

let dct_linear_prop =
  QCheck.Test.make ~count:60 ~name:"reference DCT is linear"
    QCheck.(pair (array_of_size (QCheck.Gen.pure 8) (int_range (-1000) 1000)) (int_range 1 4))
    (fun (block, s) ->
      let scaled = Array.map (fun v -> v * s) block in
      let y1 = Apps.Dct_ref.transform block in
      let ys = Apps.Dct_ref.transform scaled in
      (* integer truncation allows +-s of slack per coefficient *)
      Array.for_all2 (fun a b -> abs ((a * s) - b) <= s + 1) y1 ys)

(* --- Loopback ---------------------------------------------------------------------------- *)

let test_loopback_dataflow () =
  let n = 4 and count = 12 in
  let prog = elab ~file:"loopback.c" (Apps.Loopback_src.source ~n ()) in
  let c = Driver.compile ~strategy:{ Driver.optimized with Driver.share = `Shared 32 } prog in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("feed_in", Apps.Loopback_src.feed ~count) ];
          drains = [ "loop_out" ];
          params = Apps.Loopback_src.params ~n ~count;
        }
      c
  in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "values loop through unchanged" true
    (List.assoc "loop_out" r.Driver.engine.Engine.drained = Apps.Loopback_src.feed ~count)

let test_loopback_shared_failure_identified () =
  (* with 2 stages sharing one channel, a failure in stage 1 decodes to
     the right assertion *)
  let n = 2 and count = 3 in
  let prog = elab ~file:"loopback.c" (Apps.Loopback_src.source ~n ()) in
  let c = Driver.compile ~strategy:{ Driver.optimized with Driver.share = `Shared 32 } prog in
  let r =
    Driver.simulate
      ~options:
        {
          Driver.default_sim_options with
          Driver.feeds = [ ("feed_in", [ 5L; 0L; 7L ]) ];
          drains = [ "loop_out" ];
          params = Apps.Loopback_src.params ~n ~count;
        }
      c
  in
  match r.Driver.engine.Engine.outcome with
  | Engine.Aborted msg ->
      let has sub s =
        let m = String.length sub and l = String.length s in
        let rec go i = i + m <= l && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check tbool "stage0's assertion" true (has "stage0" msg)
  | _ -> Alcotest.fail "zero must trip a stage assertion"

(* --- FIR filter ---------------------------------------------------------------------- *)

let fir_program = lazy (elab ~file:"fir.c" (Apps.Fir_src.source ()))

let run_fir ?(strategy = Driver.parallelized) samples =
  let c = Driver.compile ~strategy (Lazy.force fir_program) in
  Driver.simulate
    ~options:
      {
        Driver.default_sim_options with
        Driver.feeds = [ ("samples_in", samples) ];
        drains = [ "samples_out" ];
        params = [ ("fir", [ ("n", Int64.of_int (List.length samples)) ]) ];
      }
    c

let test_fir_circuit_matches_reference () =
  let n = 96 in
  let signal = Apps.Fir_ref.test_signal n in
  let expected = Array.to_list (Array.map Int64.of_int (Apps.Fir_ref.filter signal)) in
  let r = run_fir (Apps.Fir_ref.to_stream signal) in
  check tbool "finished" true (r.Driver.engine.Engine.outcome = Engine.Finished);
  check tbool "filtered output matches oracle" true
    (List.assoc "samples_out" r.Driver.engine.Engine.drained = expected)

let test_fir_pipelines_at_ii1 () =
  let r = run_fir ~strategy:Driver.baseline (List.init 32 (fun i -> Int64.of_int i)) in
  match List.filter (fun (p : Engine.pipe_stats) -> p.Engine.issues > 0) r.Driver.engine.Engine.pipes with
  | [ p ] ->
      check tint "II = 1" 1 p.Engine.ii_static;
      check tbool "measured II = 1" true (p.Engine.ii_measured < 1.05)
  | _ -> Alcotest.fail "expected one pipe"

let test_fir_overflow_assertion_fires () =
  (* a huge sample wraps the 32-bit accumulator; the sign guard trips *)
  let samples = List.init 32 (fun _ -> 5_000_000L) in
  let r = run_fir samples in
  match r.Driver.engine.Engine.outcome with
  | Engine.Aborted msg ->
      let has sub s =
        let m = String.length sub and l = String.length s in
        let rec go i = i + m <= l && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check tbool "overflow guard named" true (has "acc" msg)
  | _ -> Alcotest.fail "accumulator overflow must trip an assertion"

let test_fir_interp_matches_circuit () =
  let n = 48 in
  let signal = Apps.Fir_ref.test_signal n in
  let prog = Lazy.force fir_program in
  let sw =
    Interp.run
      ~cfg:
        {
          Interp.default_config with
          Interp.feeds = [ ("samples_in", Apps.Fir_ref.to_stream signal) ];
          drains = [ "samples_out" ];
          params = [ ("fir", [ ("n", Int64.of_int n) ]) ];
        }
      prog
  in
  let hw = run_fir (Apps.Fir_ref.to_stream signal) in
  check tbool "interp = circuit" true (sw.Interp.drained = hw.Driver.engine.Engine.drained)

let test_loopback_stream_counts () =
  (* figure 4/5 mechanics: unoptimized adds n failure streams, shared
     adds ceil(n/32) *)
  let n = 64 in
  let prog = elab ~file:"loopback.c" (Apps.Loopback_src.source ~n ()) in
  let count strategy =
    (Driver.rtl (Driver.compile ~strategy prog)).Driver.area.Rtl.Area.streams
  in
  let base = count Driver.baseline in
  check tint "unoptimized adds one stream per process" (base + 64) (count Driver.unoptimized);
  check tint "shared adds one per 32 assertions" (base + 2)
    (count { Driver.unoptimized with Driver.share = `Shared 32 })

let () =
  Alcotest.run "apps"
    [
      ( "des-reference",
        [
          Alcotest.test_case "known vector" `Quick test_des_known_vector;
          Alcotest.test_case "weak key" `Quick test_des_weak_key_palindrome;
          Alcotest.test_case "field map derived" `Quick test_field_map_derived;
          Alcotest.test_case "block/string roundtrip" `Quick test_block_string_roundtrip;
          QCheck_alcotest.to_alcotest des_roundtrip;
          QCheck_alcotest.to_alcotest des_packed_equivalence;
          QCheck_alcotest.to_alcotest ip_twiddle_equiv;
          QCheck_alcotest.to_alcotest fp_inverts_ip;
          QCheck_alcotest.to_alcotest des3_roundtrip;
          QCheck_alcotest.to_alcotest des3_packed_equivalence;
        ] );
      ( "des-circuit",
        [
          Alcotest.test_case "circuit decrypts" `Slow test_des_circuit_decrypts;
          Alcotest.test_case "interp matches circuit" `Slow test_des_interp_matches_circuit;
          Alcotest.test_case "ASCII assertions" `Slow test_des_ascii_assertions_catch_corruption;
          Alcotest.test_case "table 1 overheads" `Quick test_des_table1_overheads_small;
          QCheck_alcotest.to_alcotest des_circuit_random_text;
        ] );
      ( "edge",
        [
          Alcotest.test_case "flat image" `Quick test_edge_reference_properties;
          Alcotest.test_case "linear gradient" `Quick test_edge_linear_gradient_zero;
          Alcotest.test_case "circuit matches oracle" `Slow test_edge_circuit_matches_reference;
          Alcotest.test_case "geometry assertion" `Quick test_edge_geometry_assertion;
          Alcotest.test_case "pipelined inner loop" `Quick test_edge_pipelined;
        ] );
      ( "fir",
        [
          Alcotest.test_case "circuit matches oracle" `Quick test_fir_circuit_matches_reference;
          Alcotest.test_case "pipelines at II=1" `Quick test_fir_pipelines_at_ii1;
          Alcotest.test_case "overflow assertion" `Quick test_fir_overflow_assertion_fires;
          Alcotest.test_case "interp matches circuit" `Quick test_fir_interp_matches_circuit;
        ] );
      ( "dct",
        [
          Alcotest.test_case "circuit matches oracle" `Quick test_dct_circuit_matches_reference;
          Alcotest.test_case "DC component" `Quick test_dct_dc_component;
          Alcotest.test_case "bound assertion" `Quick test_dct_bound_assertion_fires;
          QCheck_alcotest.to_alcotest dct_linear_prop;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "dataflow" `Quick test_loopback_dataflow;
          Alcotest.test_case "shared failure decode" `Quick test_loopback_shared_failure_identified;
          Alcotest.test_case "stream counts" `Quick test_loopback_stream_counts;
        ] );
    ]
