(* Edge-detection case study (paper Section 5.2, Table 2).

   A pipelined 5x5 kernel processes a streamed grayscale image; two
   in-circuit assertions verify the image geometry sent by the host
   matches the hardware configuration.  Output is validated against an
   OCaml reference filter, and a deliberate geometry mismatch shows the
   assertions firing in circuit.

   Run with: dune exec examples/edge_detect.exe *)

let () =
  let w = Apps.Edge_src.default_width and h = 24 in
  let img = Apps.Edge_ref.test_image ~w ~h in
  let expected = Array.to_list (Array.map Int64.of_int (Apps.Edge_ref.filter ~w ~h img)) in
  let program =
    Front.Typecheck.parse_and_check ~file:"edge.c" (Apps.Edge_src.demo_source ())
  in
  let original = Core.Driver.compile ~strategy:Core.Driver.baseline program in
  let compiled = Core.Driver.compile ~strategy:Core.Driver.parallelized program in

  let rtl = Core.Driver.rtl compiled and original_rtl = Core.Driver.rtl original in
  Printf.printf "image: %dx%d, 16-bit grayscale\n" w h;
  Printf.printf "area: %d ALUTs (+%d for assertions), fmax %.1f MHz (original %.1f)\n"
    rtl.Core.Driver.area.Rtl.Area.aluts
    (rtl.Core.Driver.area.Rtl.Area.aluts - original_rtl.Core.Driver.area.Rtl.Area.aluts)
    rtl.Core.Driver.timing.Rtl.Timing.fmax_mhz
    original_rtl.Core.Driver.timing.Rtl.Timing.fmax_mhz;

  let options =
    {
      Core.Driver.default_sim_options with
      Core.Driver.feeds = [ ("pixels_in", Apps.Edge_ref.to_stream img) ];
      drains = [ "pixels_out" ];
      params = [ ("edge", [ ("width", Int64.of_int w); ("height", Int64.of_int h) ]) ];
    }
  in
  let run = Core.Driver.simulate ~options compiled in
  let engine = run.Core.Driver.engine in
  let out = try List.assoc "pixels_out" engine.Sim.Engine.drained with Not_found -> [] in
  Printf.printf "in-circuit run: %d cycles, %d pixels, matches reference filter: %b\n"
    engine.Sim.Engine.cycles (List.length out) (out = expected);
  List.iter
    (fun (p : Sim.Engine.pipe_stats) ->
      Printf.printf "pipeline: II=%d (measured %.2f), depth=%d, %d iterations\n"
        p.Sim.Engine.ii_static p.Sim.Engine.ii_measured p.Sim.Engine.depth_static
        p.Sim.Engine.issues)
    (List.filter (fun (p : Sim.Engine.pipe_stats) -> p.Sim.Engine.issues > 0)
       engine.Sim.Engine.pipes);

  (* Host misconfiguration: stream a wider image than the bitstream
     supports.  Software simulation of the same source would fail too —
     but only if the developer thought to simulate this case; in the
     field, the in-circuit assertion is what catches it. *)
  print_endline "\n--- host sends a 48-pixel-wide image ---";
  let bad =
    {
      options with
      Core.Driver.params =
        [ ("edge", [ ("width", 48L); ("height", Int64.of_int h) ]) ];
    }
  in
  let run = Core.Driver.simulate ~options:bad compiled in
  List.iter print_endline run.Core.Driver.messages
