(* Helpers shared by the digest pins of several suites: locating and
   reading the bundled examples, and a canonical text of an FSMD. *)

module Ir = Mir.Ir
module Fsmd = Hls.Fsmd

(* Where [examples/] may be, relative to the test's working directory:
   dune runs tests from subdirectories of [_build]. *)
let example_dirs = [ "../examples"; "examples"; "../../examples" ]

(* Looked up on each use, so a binary started away from [examples/]
   fails the test that needs it, by name, instead of dying before
   Alcotest starts. *)
let examples_dir () =
  match List.find_opt (fun d -> Sys.file_exists (Filename.concat d "fir.c")) example_dirs with
  | Some d -> d
  | None ->
      Alcotest.failf "no examples/ directory (holding fir.c) from %s; tried %s" (Sys.getcwd ())
        (String.concat ", " example_dirs)

let read_example f =
  let ic = open_in_bin (Filename.concat (examples_dir ()) f) in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  src

(* The bundled [examples/*.c] file names, sorted. *)
let example_files () =
  Sys.readdir (examples_dir ()) |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare

let hex s = Digest.to_hex (Digest.string s)

(* A canonical text of one FSMD: every state's ops, guard, successor and
   chain delay, every pipe's II, depth, per-cycle ops, cond/step
   instructions, exit and chain delay, plus the entry and the worst
   chain.  Floats print in hex, so the text is exact. *)
let fsmd_text (f : Fsmd.t) =
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b fmt in
  let insts tag gs = List.iter (fun g -> p "  %s %s\n" tag (Ir.show_ginst g)) gs in
  p "proc %s entry %d max %h\n" f.Fsmd.proc.Ir.name f.Fsmd.entry f.Fsmd.max_chain_ns;
  Array.iteri
    (fun i (s : Fsmd.state) ->
      p "state %d chain %h next %s\n" i s.Fsmd.chain_ns
        (match s.Fsmd.next with
        | Fsmd.Goto t -> Printf.sprintf "goto %d" t
        | Fsmd.Branch (r, t, e) -> Printf.sprintf "branch r%d %d %d" r t e
        | Fsmd.Enter_pipe k -> Printf.sprintf "pipe %d" k
        | Fsmd.Done -> "done");
      insts "op" s.Fsmd.ops)
    f.Fsmd.states;
  Array.iteri
    (fun i (q : Fsmd.pipe) ->
      p "pipe %d ii %d depth %d cond r%d exit %d chain %h\n" i q.Fsmd.ii q.Fsmd.depth q.Fsmd.cond
        q.Fsmd.exit_to q.Fsmd.pipe_chain_ns;
      insts "cond" q.Fsmd.cond_insts;
      insts "step" q.Fsmd.step_insts;
      Array.iteri (fun c ops -> p " cycle %d\n" c; insts "op" ops) q.Fsmd.cycle_ops)
    f.Fsmd.pipes;
  Buffer.contents b

(* One pin covers a group of FSMDs: their count, the pipes among them,
   and the MD5 over the per-FSMD digests in order. *)
let group_pin (fs : Fsmd.t list) =
  let npipes = List.fold_left (fun acc (f : Fsmd.t) -> acc + Array.length f.Fsmd.pipes) 0 fs in
  Printf.sprintf "%d fsmds %d pipes %s" (List.length fs) npipes
    (Digest.to_hex
       (Digest.string (String.concat "" (List.map (fun f -> Digest.string (fsmd_text f)) fs))))

(* The application FSMDs of a compile followed by its checkers'. *)
let compiled_fsmds (c : Core.Driver.compiled) =
  c.Core.Driver.fsmds @ List.map (fun (k : Core.Checker.t) -> k.Core.Checker.fsmd) c.Core.Driver.checkers
