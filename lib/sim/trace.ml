(** Waveform capture — the embedded-logic-analyzer view.

    The paper positions in-circuit assertions against vendor logic
    analyzers (Xilinx ChipScope, Altera SignalTap): those capture raw
    HDL signal values, which are not at the source level.  This module
    provides that baseline: it samples every process's FSM state and
    every source-named register each cycle and renders a standard VCD
    file, so a reproduction user can *see* exactly what a logic analyzer
    would show them — and how much further the source-level assertion
    messages go.

    Change-compressed: a value is emitted only on the cycle it changes. *)

type signal = {
  sname : string;
  width : int;
  code : string;          (** VCD identifier code *)
  mutable last : int64 option;
}

type t = {
  mutable signals : signal list;  (** declaration order *)
  body : Buffer.t;
  mutable current_cycle : int;
  mutable samples : int;
}

let create () =
  { signals = []; body = Buffer.create 4096; current_cycle = -1; samples = 0 }

(* VCD identifier codes: printable ASCII 33..126, little-endian digits. *)
let code_of_index i =
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = acc ^ String.make 1 c in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

(** Declare a signal; call for every signal before the first sample. *)
let declare t ~name ~width =
  let code = code_of_index (List.length t.signals) in
  let s = { sname = name; width; code; last = None } in
  t.signals <- t.signals @ [ s ];
  s

let binary_of_value width (v : int64) =
  if width = 1 then (if Int64.logand v 1L = 0L then "0" else "1")
  else begin
    let b = Bytes.create width in
    for i = 0 to width - 1 do
      let bit = Int64.logand (Int64.shift_right_logical v (width - 1 - i)) 1L in
      Bytes.set b i (if bit = 0L then '0' else '1')
    done;
    Bytes.to_string b
  end

let emit_value t (s : signal) v =
  if s.width = 1 then Buffer.add_string t.body (binary_of_value 1 v ^ s.code ^ "\n")
  else Buffer.add_string t.body ("b" ^ binary_of_value s.width v ^ " " ^ s.code ^ "\n")

(** Record [v] on [s] at [cycle]; only changes are written. *)
let sample t (s : signal) ~cycle (v : int64) =
  if s.last <> Some v then begin
    if cycle <> t.current_cycle then begin
      Buffer.add_string t.body (Printf.sprintf "#%d\n" cycle);
      t.current_cycle <- cycle
    end;
    emit_value t s v;
    s.last <- Some v;
    t.samples <- t.samples + 1
  end

(** Render the complete VCD file. *)
let to_vcd ?(timescale = "1 ns") t =
  let header = Buffer.create 1024 in
  Buffer.add_string header "$date inca cycle-accurate simulation $end\n";
  Buffer.add_string header "$version inca 1.0 $end\n";
  Buffer.add_string header (Printf.sprintf "$timescale %s $end\n" timescale);
  Buffer.add_string header "$scope module design $end\n";
  List.iter
    (fun s ->
      Buffer.add_string header
        (Printf.sprintf "$var wire %d %s %s $end\n" s.width s.code s.sname))
    t.signals;
  Buffer.add_string header "$upscope $end\n$enddefinitions $end\n";
  Buffer.contents header ^ Buffer.contents t.body

let num_signals t = List.length t.signals
let num_samples t = t.samples
