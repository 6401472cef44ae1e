(* Assertion scalability (paper Section 5.3, Figures 4 and 5).

   A streaming loopback chain of N processes, one assertion per process.
   Compares three builds: the original application, unoptimized
   assertions (one failure stream per process), and channel-shared
   assertions (one 32-bit stream per 32 assertions, Section 4.2), then
   runs the 8-stage design in circuit to show data still flows and a
   bad input is caught.

   Run with: dune exec examples/scalability.exe *)

let () =
  print_endline "  N    fmax orig  fmax unopt  fmax shared | ALUT ovh: unopt   shared";
  List.iter
    (fun n ->
      let program =
        Front.Typecheck.parse_and_check ~file:"loopback.c"
          (Apps.Loopback_src.source ~n ())
      in
      let open Core.Driver in
      let orig = rtl (compile ~strategy:baseline program) in
      let unopt = rtl (compile ~strategy:unoptimized program) in
      let shared =
        rtl (compile ~strategy:{ unoptimized with share = `Shared 32 } program)
      in
      let ovh c =
        100.0
        *. float_of_int (c.area.Rtl.Area.aluts - orig.area.Rtl.Area.aluts)
        /. float_of_int Device.Stratix.ep2s180.Device.Stratix.aluts
      in
      Printf.printf "%4d   %8.1f    %8.1f     %8.1f |          %5.2f%%   %5.2f%%\n" n
        orig.timing.Rtl.Timing.fmax_mhz unopt.timing.Rtl.Timing.fmax_mhz
        shared.timing.Rtl.Timing.fmax_mhz (ovh unopt) (ovh shared))
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];

  print_endline "\n--- running the 8-stage chain in circuit ---";
  let n = 8 and count = 16 in
  let program =
    Front.Typecheck.parse_and_check ~file:"loopback.c" (Apps.Loopback_src.source ~n ())
  in
  let compiled =
    Core.Driver.compile ~strategy:{ Core.Driver.optimized with Core.Driver.share = `Shared 32 }
      program
  in
  let options =
    {
      Core.Driver.default_sim_options with
      Core.Driver.feeds = [ ("feed_in", Apps.Loopback_src.feed ~count) ];
      drains = [ "loop_out" ];
      params = Apps.Loopback_src.params ~n ~count;
    }
  in
  let run = Core.Driver.simulate ~options compiled in
  let out =
    try List.assoc "loop_out" run.Core.Driver.engine.Sim.Engine.drained with Not_found -> []
  in
  Printf.printf "looped %d values through %d stages in %d cycles\n" (List.length out) n
    run.Core.Driver.engine.Sim.Engine.cycles;

  (* inject a zero: stage assertions require strictly positive values *)
  let bad_feed = 0L :: Apps.Loopback_src.feed ~count:(count - 1) in
  let run =
    Core.Driver.simulate
      ~options:{ options with Core.Driver.feeds = [ ("feed_in", bad_feed) ] }
      compiled
  in
  List.iter print_endline run.Core.Driver.messages
