(* Triple-DES case study (paper Section 5.2, Table 1).

   Decrypts ciphertext on the synthesized FPGA design while two
   in-circuit assertions verify every decrypted byte lies within ASCII
   text bounds.  The run is validated against an independent OCaml
   Triple-DES oracle, and the assertion overhead (area, fmax) is
   reported in the paper's format.

   Run with: dune exec examples/triple_des.exe *)

let text = "The quick brown fox jumps over the lazy dog 0123456789."

let pct part whole = 100.0 *. float_of_int part /. float_of_int whole

let overhead_row name orig assert_ total =
  Printf.printf "  %-22s %9d %9d  %+6d (%+.2f%%)\n" name orig assert_ (assert_ - orig)
    (pct (assert_ - orig) total)

let () =
  let src = Apps.Des_src.demo_source () in
  let program = Front.Typecheck.parse_and_check ~file:"des3.c" src in
  let cipher = Apps.Des_src.demo_ciphertext text in
  let expected = Apps.Des_src.demo_plaintext_blocks text in
  let nblocks = List.length cipher in

  let original = Core.Driver.compile ~strategy:Core.Driver.baseline program in
  let with_asserts = Core.Driver.compile ~strategy:Core.Driver.parallelized program in

  print_endline "=== Triple-DES assertion overhead (EP2S180) ===";
  let ro = Core.Driver.rtl original and ra = Core.Driver.rtl with_asserts in
  let a = ro.Core.Driver.area and b = ra.Core.Driver.area in
  let cap = Device.Stratix.ep2s180 in
  overhead_row "Logic used" a.Rtl.Area.logic b.Rtl.Area.logic cap.Device.Stratix.aluts;
  overhead_row "Comb. ALUT" a.Rtl.Area.aluts b.Rtl.Area.aluts cap.Device.Stratix.aluts;
  overhead_row "Registers" a.Rtl.Area.registers b.Rtl.Area.registers cap.Device.Stratix.registers;
  overhead_row "Block RAM bits" a.Rtl.Area.ram_bits b.Rtl.Area.ram_bits cap.Device.Stratix.bram_bits;
  overhead_row "Block interconnect" a.Rtl.Area.interconnect b.Rtl.Area.interconnect
    cap.Device.Stratix.interconnect;
  Printf.printf "  %-22s %9.1f %9.1f  (%.2f%%)\n" "Frequency (MHz)"
    ro.Core.Driver.timing.Rtl.Timing.fmax_mhz
    ra.Core.Driver.timing.Rtl.Timing.fmax_mhz
    (100.0
    *. (ra.Core.Driver.timing.Rtl.Timing.fmax_mhz
        -. ro.Core.Driver.timing.Rtl.Timing.fmax_mhz)
    /. ro.Core.Driver.timing.Rtl.Timing.fmax_mhz);

  print_endline "\n=== in-circuit decryption ===";
  let options =
    {
      Core.Driver.default_sim_options with
      Core.Driver.feeds = [ ("cipher_in", cipher) ];
      drains = [ "plain_out" ];
      params = [ ("des3", [ ("nblocks", Int64.of_int nblocks) ]) ];
    }
  in
  let run = Core.Driver.simulate ~options with_asserts in
  let engine = run.Core.Driver.engine in
  let blocks =
    try List.assoc "plain_out" engine.Sim.Engine.drained with Not_found -> []
  in
  Printf.printf "cycles: %d, blocks: %d, matches oracle: %b\n" engine.Sim.Engine.cycles
    (List.length blocks) (blocks = expected);
  print_string "decrypted: ";
  List.iter (fun b -> print_string (Apps.Des_ref.string_of_block b)) blocks;
  print_newline ();

  (* Corrupt one ciphertext block: the ASCII assertions catch it. *)
  print_endline "\n=== corrupted ciphertext ===";
  let corrupted =
    List.mapi (fun i b -> if i = 2 then Int64.logxor b 0x4242424242424242L else b) cipher
  in
  let run =
    Core.Driver.simulate
      ~options:{ options with Core.Driver.feeds = [ ("cipher_in", corrupted) ] }
      with_asserts
  in
  List.iter print_endline run.Core.Driver.messages;
  Printf.printf "outcome: %s\n"
    (match run.Core.Driver.engine.Sim.Engine.outcome with
    | Sim.Engine.Aborted _ -> "halted on first failed assertion"
    | Sim.Engine.Finished -> "finished (corruption decrypted to valid ASCII!)"
    | _ -> "other")
