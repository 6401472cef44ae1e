(** The assertion notification function (paper Figure 1 / Section 4.1).

    Runs on the CPU: receives failure words over the HLS streaming
    channels, decodes the error code, prints the ANSI-C assertion
    message to standard error, and halts the application — unless
    NABORT is defined, in which case execution continues and every
    failure is recorded (the paper's assert(0) tracing mode).

    Two renderings are produced: an executable host handler for the
    cycle simulator, and the generated C source a developer would see
    coming out of the instrumentation framework (Figure 2). *)

module Loc = Front.Loc

type t = {
  handlers : (string * (int64 -> Sim.Engine.host_action)) list;
  log : string list ref;           (** messages in arrival order *)
  failed_ids : int list ref;       (** assertion ids in arrival order *)
}

(** Build the notification function.  [table] maps assertion ids to
    their info; [decode] (from the channel {!Share.plan}) maps a failure
    word on a stream to the failing ids. *)
let make ~(table : (int * Assertion.info) list)
    ~(decode : (string * (int64 -> int list)) list) ~(nabort : bool) : t =
  let log = ref [] and failed_ids = ref [] in
  let handlers =
    List.map
      (fun (stream, dec) ->
        ( stream,
          fun word ->
            let ids = dec word in
            let msgs =
              List.map
                (fun id ->
                  match List.assoc_opt id table with
                  | Some info -> Assertion.message info
                  | None -> Printf.sprintf "unknown assertion code %d" id)
                ids
            in
            List.iter (fun m -> log := m :: !log) msgs;
            failed_ids := List.rev_append ids !failed_ids;
            match (msgs, nabort) with
            | [], _ | _, true -> `Ok
            | first :: _, false -> `Abort first ))
      decode
  in
  { handlers; log; failed_ids }

let messages (n : t) = List.rev !(n.log)
let failures (n : t) = List.rev !(n.failed_ids)

(** Generated C source of the notification function — the software side
    of the paper's Figure 2 instrumentation.  Each stream's drain loop
    switches only on the failure words actually routed to that stream
    (from the channel {!Share.plan}); under [dma] or with an empty [route]
    every assertion appears in every loop, keyed by assertion id. *)
let c_source ~(dma : bool) ~(route : (int * (string * int64)) list)
    ~(table : (int * Assertion.info) list) ~(streams : string list) ~(nabort : bool) :
    string =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* cases for one stream's drain loop: (failure word, assertions it
     reports), in routing order; several assertions can share a word
     under channel sharing *)
  let cases_for s =
    let routed =
      if dma || route = [] then
        List.map (fun (id, info) -> (Int64.of_int id, info)) table
      else
        List.filter_map
          (fun (id, (stream, word)) ->
            if stream = s then
              match List.assoc_opt id table with
              | Some info -> Some (word, info)
              | None -> None
            else None)
          route
    in
    let words =
      List.fold_left
        (fun acc (w, _) -> if List.mem w acc then acc else acc @ [ w ])
        [] routed
    in
    List.map
      (fun w -> (w, List.filter_map (fun (w', i) -> if w' = w then Some i else None) routed))
      words
  in
  p "/* generated by inca: assertion notification function (software) */";
  p "#include <stdio.h>";
  p "#include <stdlib.h>";
  p "";
  if dma then begin
    (* Carte-C flavour (Section 4.3): poll the DMA mailbox written by the
       FPGA function instead of reading Impulse-C streams *)
    p "void assertion_notification(uint32_t *mailbox, int *head, int *tail)";
    p "{";
    p "  uint32_t code;";
    p "  while (*head != *tail) {  /* drain the DMA'd failure codes */";
    p "    code = mailbox[(*head)++ & 63];"
  end
  else begin
    p "void assertion_notification(co_stream %s)"
      (String.concat ", co_stream " (match streams with [] -> [ "err" ] | s -> s));
    p "{";
    p "  uint32_t code;"
  end;
  List.iter
    (fun s ->
      if not dma then
        p "  while (co_stream_read(%s, &code, sizeof(code)) == co_err_none) {" s;
      p "    switch (code) {";
      List.iter
        (fun (word, infos) ->
          p "    case %Ld:" word;
          List.iter
            (fun (info : Assertion.info) ->
              p "      fprintf(stderr, \"%s:%d: %s: Assertion `%s' failed.\\n\");"
                info.Assertion.aloc.Loc.file info.Assertion.aloc.Loc.line
                info.Assertion.aproc info.Assertion.text)
            infos;
          if nabort then p "      break; /* NABORT: continue execution */"
          else p "      abort();")
        (cases_for s);
      p "    default: fprintf(stderr, \"unknown assertion code %%u\\n\", code);";
      p "    }";
      p "  }")
    (if dma then [ "mailbox" ] else streams);
  p "}";
  Buffer.contents buf
