(* Headline-claim guards: the Section 5.3 scalability results (Figures
   4-5) as regression tests, at N=64 to keep runtime reasonable. *)

open Front
module Driver = Core.Driver
module Area = Rtl.Area
module Timing = Rtl.Timing

let check = Alcotest.check
let tbool = Alcotest.bool

let n = 64

(* The RTL of the three designs: original, unoptimized and shared. *)
let compiled =
  lazy
    (let prog =
       Typecheck.parse_and_check ~file:"loopback.c" (Apps.Loopback_src.source ~n ())
     in
     let rtl strategy = Driver.rtl (Driver.compile ~strategy prog) in
     ( rtl Driver.baseline,
       rtl Driver.unoptimized,
       rtl { Driver.unoptimized with Driver.share = `Shared 32 } ))

let test_figure5_ratio () =
  let orig, unopt, shared = Lazy.force compiled in
  let ovh (r : Driver.rtl) = r.Driver.area.Area.aluts - orig.Driver.area.Area.aluts in
  check tbool "sharing reduces ALUT overhead by at least 3x" true
    (float_of_int (ovh unopt) /. float_of_int (ovh shared) >= 3.0)

let test_figure4_ordering () =
  let orig, unopt, shared = Lazy.force compiled in
  let f (r : Driver.rtl) = r.Driver.timing.Timing.fmax_mhz in
  check tbool "unoptimized is the slowest" true (f unopt < f shared);
  check tbool "unoptimized drops well below original" true (f unopt < 0.95 *. f orig);
  check tbool "sharing recovers a substantial part of the loss" true
    (f shared > f unopt +. (0.4 *. (f orig -. f unopt)))

let test_overhead_grows_linearly () =
  (* unoptimized overhead per process is constant: one assertion + one
     stream per stage *)
  let ovh k =
    let prog =
      Typecheck.parse_and_check ~file:"loopback.c" (Apps.Loopback_src.source ~n:k ())
    in
    let aluts strategy = (Driver.rtl (Driver.compile ~strategy prog)).Driver.area.Area.aluts in
    float_of_int (aluts Driver.unoptimized - aluts Driver.baseline)
  in
  let per8 = ovh 8 /. 8.0 and per32 = ovh 32 /. 32.0 in
  check tbool "linear within 10%" true (Float.abs (per8 -. per32) /. per8 < 0.1)

let test_end_to_end_dataflow_at_scale () =
  (* the 64-stage chain still moves data correctly with shared assertions *)
  let prog =
    Typecheck.parse_and_check ~file:"loopback.c" (Apps.Loopback_src.source ~n ())
  in
  let c = Driver.compile ~strategy:{ Driver.optimized with Driver.share = `Shared 32 } prog in
  let count = 8 in
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
  check tbool "finished" true (r.Driver.engine.Sim.Engine.outcome = Sim.Engine.Finished);
  check tbool "data intact through 64 stages" true
    (List.assoc "loop_out" r.Driver.engine.Sim.Engine.drained
    = Apps.Loopback_src.feed ~count)

let () =
  Alcotest.run "scalability"
    [
      ( "figures",
        [
          Alcotest.test_case "figure 5 ratio >= 3x" `Slow test_figure5_ratio;
          Alcotest.test_case "figure 4 ordering" `Slow test_figure4_ordering;
          Alcotest.test_case "linear overhead" `Slow test_overhead_grows_linearly;
          Alcotest.test_case "64-stage dataflow" `Slow test_end_to_end_dataflow_at_scale;
        ] );
    ]
