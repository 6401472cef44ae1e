(** Netlist generation: lower an FSMD (plus its binding) to structural
    primitives.  One module per hardware process; stream FIFOs are
    program-level and added by the driver via {!design}. *)

module Ir = Mir.Ir
open Front.Ast

let bits_of_ty = function
  | Tint (_, w) -> bits_of_width w
  | Tbool -> 1
  | Tarray (Tint (_, w), _) -> bits_of_width w
  | Tarray _ | Tvoid -> 32

(* Architectural + pipeline staging registers of an FSMD. *)
let register_prims (f : Hls.Fsmd.t) : Netlist.prim list =
  let arch_bits =
    List.fold_left (fun acc (_, info) -> acc + bits_of_ty info.Ir.rty) 0 f.Hls.Fsmd.proc.Ir.regs
  in
  let arch =
    Netlist.Regbank { width = 1; count = arch_bits; purpose = "datapath" }
  in
  (* each value produced inside a pipelined loop gets one stage register *)
  let pipe_bits =
    Array.fold_left
      (fun acc (p : Hls.Fsmd.pipe) ->
        Array.fold_left
          (fun acc ops ->
            List.fold_left
              (fun acc (g : Ir.ginst) ->
                match Ir.dst_of g.Ir.i with
                | Some r -> acc + bits_of_ty (Ir.reg_type f.Hls.Fsmd.proc r)
                | None -> acc)
              acc ops)
          acc p.Hls.Fsmd.cycle_ops)
      0 f.Hls.Fsmd.pipes
  in
  if pipe_bits = 0 then [ arch ]
  else [ arch; Netlist.Regbank { width = 1; count = pipe_bits; purpose = "pipeline" } ]

let fu_prims (binding : Hls.Binding.t) : Netlist.prim list =
  List.concat_map
    (fun (u : Hls.Binding.fu_usage) ->
      let fu_op, width =
        match u.Hls.Binding.cls with
        | Hls.Binding.Fbin (op, w) -> (`Bin op, bits_of_width w)
        | Hls.Binding.Fun_ (op, w) -> (`Un op, bits_of_width w)
      in
      let fu = Netlist.Fu { fu_op; fu_width = width; fu_count = u.Hls.Binding.units } in
      if u.Hls.Binding.mux_ways = 0 then [ fu ]
      else [ fu; Netlist.Mux { width; ways = u.Hls.Binding.mux_ways; count = 1 } ])
    binding.Hls.Binding.fus

let fsm_prim (f : Hls.Fsmd.t) : Netlist.prim =
  let states = Array.length f.Hls.Fsmd.states in
  let transitions =
    Array.fold_left
      (fun acc (s : Hls.Fsmd.state) ->
        acc + match s.Hls.Fsmd.next with Hls.Fsmd.Branch _ -> 2 | _ -> 1)
      0 f.Hls.Fsmd.states
  in
  Netlist.Fsm { states; transitions }

let bram_prims (f : Hls.Fsmd.t) : Netlist.prim list =
  List.map
    (fun (m : Ir.mem) ->
      Netlist.Bram
        {
          width = bits_of_ty m.Ir.elem;
          depth = m.Ir.length;
          ports = m.Ir.ports;
          name = m.Ir.mname;
        })
    f.Hls.Fsmd.proc.Ir.mems

let pipe_prims (f : Hls.Fsmd.t) : Netlist.prim list =
  Array.to_list
    (Array.map
       (fun (p : Hls.Fsmd.pipe) -> Netlist.Pipe_ctrl { ii = p.Hls.Fsmd.ii; depth = p.Hls.Fsmd.depth })
       f.Hls.Fsmd.pipes)

(** Lower one process FSMD to a netlist module. *)
let of_fsmd ?(policy = `Shared) (f : Hls.Fsmd.t) : Netlist.module_ =
  let binding = Hls.Binding.bind ~policy f in
  {
    Netlist.mod_name = f.Hls.Fsmd.proc.Ir.name;
    prims =
      fu_prims binding @ register_prims f @ [ fsm_prim f ] @ bram_prims f @ pipe_prims f;
  }

(** A stream FIFO primitive for one stream declaration. *)
let fifo_of_stream (s : stream_decl) : Netlist.prim =
  Netlist.Fifo { width = bits_of_ty s.elem; depth = s.depth; name = s.sname }

(** Assemble the whole design: process modules + the stream FIFOs. *)
let design ?(policy = `Shared) ~top_name (fsmds : Hls.Fsmd.t list)
    (streams : stream_decl list) ?(extra_modules : Netlist.module_ list = []) () :
    Netlist.t =
  {
    Netlist.top_name;
    modules = List.map (fun f -> of_fsmd ~policy f) fsmds @ extra_modules;
    fifos = List.map fifo_of_stream streams;
  }
