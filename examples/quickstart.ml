(* Quickstart: compile a small streaming kernel with an in-circuit
   assertion, look at the overhead report, and watch the assertion fire
   in the cycle-accurate simulator.

   Run with: dune exec examples/quickstart.exe *)

let source =
  {|
stream int32 input depth 16;
stream int32 output depth 16;

process hw scale(int32 n) {
  int32 i;
  for (i = 0; i < n; i = i + 1) {
    int32 x;
    x = stream_read(input);
    assert(x > 0);
    stream_write(output, x * 3);
  }
}
|}

let () =
  (* 1. Compile three ways: no assertions, unoptimized, optimized. *)
  let program = Front.Typecheck.parse_and_check ~file:"scale.c" source in
  let original = Core.Driver.compile ~strategy:Core.Driver.baseline program in
  let unopt = Core.Driver.compile ~strategy:Core.Driver.unoptimized program in
  let opt = Core.Driver.compile ~strategy:Core.Driver.optimized program in
  let report name (c : Core.Driver.compiled) =
    let r = Core.Driver.rtl c in
    Printf.printf "%-12s ALUTs %5d  regs %5d  RAM bits %6d  fmax %6.1f MHz\n" name
      r.Core.Driver.area.Rtl.Area.aluts r.Core.Driver.area.Rtl.Area.registers
      r.Core.Driver.area.Rtl.Area.ram_bits r.Core.Driver.timing.Rtl.Timing.fmax_mhz
  in
  print_endline "=== area / fmax ===";
  report "original" original;
  report "unoptimized" unopt;
  report "optimized" opt;

  (* 2. The instrumented HLL source (what the framework would hand back
        to the Impulse-C flow, Figure 2 of the paper). *)
  print_endline "\n=== instrumented source (unoptimized assertions) ===";
  print_endline (Front.Pretty.program_to_string unopt.Core.Driver.instrumented);

  (* 3. Run in circuit with a bad input: the assertion fires and the
        notification function prints the ANSI assert message. *)
  print_endline "=== in-circuit run (input contains a zero) ===";
  let options =
    {
      Core.Driver.default_sim_options with
      Core.Driver.feeds = [ ("input", [ 5L; 9L; 0L; 7L ]) ];
      drains = [ "output" ];
      params = [ ("scale", [ ("n", 4L) ]) ];
    }
  in
  let result = Core.Driver.simulate ~options opt in
  List.iter print_endline result.Core.Driver.messages;
  (match result.Core.Driver.engine.Sim.Engine.outcome with
  | Sim.Engine.Aborted msg -> Printf.printf "application halted: %s\n" msg
  | Sim.Engine.Finished -> print_endline "application finished"
  | Sim.Engine.Hang _ -> print_endline "application hung"
  | Sim.Engine.Livelock _ -> print_endline "application live-locked"
  | Sim.Engine.Out_of_cycles -> print_endline "out of cycles"
  | Sim.Engine.Sim_error e -> Printf.printf "simulation error: %s\n" e);
  Printf.printf "cycles: %d\n" result.Core.Driver.engine.Sim.Engine.cycles;

  (* 4. The same program under software simulation passes with good
        input and catches the failure with C semantics. *)
  print_endline "\n=== software simulation (same bad input) ===";
  let sw =
    Core.Driver.software_sim
      ~options:{ options with Core.Driver.max_cycles = 100_000 }
      opt
  in
  (match sw.Interp.outcome with
  | Interp.Aborted f -> print_endline (Interp.failure_message f)
  | _ -> print_endline "software simulation completed");

  (* 5. Generated artifacts. *)
  print_endline "\n=== generated notification function (C) ===";
  print_endline (Core.Driver.notification_source opt)
