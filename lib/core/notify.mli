(** The assertion notification function (paper Figure 1 / Section 4.1):
    the CPU-side task that receives failure words over the streaming
    channels, decodes the error code, prints the ANSI-C assertion
    message, and halts — unless NABORT. *)

type t = {
  handlers : (string * (int64 -> Sim.Engine.host_action)) list;
      (** one host handler per failure stream *)
  log : string list ref;        (** messages, newest first *)
  failed_ids : int list ref;    (** assertion ids, newest first *)
}

(** Build the executable notification function from the code [table]
    and the channel plan's [decode] map. *)
val make :
  table:(int * Assertion.info) list ->
  decode:(string * (int64 -> int list)) list ->
  nabort:bool ->
  t

(** Messages in arrival order. *)
val messages : t -> string list

(** Failed assertion ids in arrival order. *)
val failures : t -> int list

(** The generated C source of the notification function — the software
    side of the paper's Figure 2 instrumentation.  [route] (the channel
    plan's assertion id -> (stream, failure word) map) restricts each
    stream's drain loop to the failure words actually routed to it;
    with [dma] or an empty [route] every assertion appears in every loop,
    keyed by id. *)
val c_source :
  dma:bool ->
  route:(int * (string * int64)) list ->
  table:(int * Assertion.info) list ->
  streams:string list ->
  nabort:bool ->
  string
