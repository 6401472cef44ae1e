type request = {
  req_id : string;
  req_job : Core.Job.t;
}

type cache_delta = { cd_memory_hits : int; cd_disk_hits : int }

type event =
  | Progress of { seq : int; label : string; data : Json.t }
  | Done of { report : Core.Report.t; cache : cache_delta }
  | Failed of { message : string }

let request_id j =
  match Json.member "id" j with
  | Some (Json.Str s) -> s
  | Some (Json.Int n) -> Int64.to_string n
  | _ -> "-"

(* [required] distinguishes the envelope form (version mandatory) from
   the bare-job form (validated only when the client sent one). *)
let check_version ~required j =
  match Json.member "schema_version" j with
  | None ->
      if required then Error "missing \"schema_version\" field" else Ok ()
  | Some v -> (
      match Json.get_int v with
      | None -> Error "\"schema_version\" must be an integer"
      | Some n when n <> Core.Report.schema_version ->
          Error
            (Printf.sprintf
               "schema_version mismatch: request speaks version %d, this daemon speaks \
                version %d"
               n Core.Report.schema_version)
      | Some _ -> Ok ())

let decode_request j : (request, string) result =
  let id = request_id j in
  match Json.member "job" j with
  | Some job_j -> (
      match check_version ~required:true j with
      | Error e -> Error e
      | Ok () -> (
          match Core.Job.of_json job_j with
          | Ok job -> Ok { req_id = id; req_job = job }
          | Error e -> Error e))
  | None -> (
      match Json.member "kind" j with
      | None ->
          Error
            "request must be {\"schema_version\": 1, \"id\": …, \"job\": {…}} or a bare \
             job object with a \"kind\" field"
      | Some _ -> (
          match check_version ~required:false j with
          | Error e -> Error e
          | Ok () -> (
              match Core.Job.of_json j with
              | Ok job -> Ok { req_id = id; req_job = job }
              | Error e -> Error e)))

let encode_event ~id (e : event) : string =
  let envelope name rest =
    Json.to_string
      (Json.Obj
         ([
            ("schema_version", Json.int Core.Report.schema_version);
            ("id", Json.Str id);
            ("event", Json.Str name);
          ]
         @ rest))
  in
  match e with
  | Progress { seq; label; data } ->
      envelope "progress"
        [ ("seq", Json.int seq); ("label", Json.Str label); ("data", data) ]
  | Done { report; cache } ->
      envelope "report"
        [
          ( "cache",
            Json.Obj
              [
                ("memory_hits", Json.int cache.cd_memory_hits);
                ("disk_hits", Json.int cache.cd_disk_hits);
              ] );
          ("report", Core.Report.to_json report);
        ]
  | Failed { message } -> envelope "error" [ ("error", Json.Str message) ]

let decode_event line : (string * event, string) result =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> (
      match check_version ~required:true j with
      | Error e -> Error e
      | Ok () -> (
          let id = request_id j in
          match Option.bind (Json.member "event" j) Json.get_str with
          | Some "progress" ->
              let seq =
                Option.value ~default:0
                  (Option.bind (Json.member "seq" j) Json.get_int)
              in
              let label =
                Option.value ~default:""
                  (Option.bind (Json.member "label" j) Json.get_str)
              in
              let data = Option.value ~default:Json.Null (Json.member "data" j) in
              Ok (id, Progress { seq; label; data })
          | Some "report" -> (
              match Json.member "report" j with
              | None -> Error "report event without a \"report\" field"
              | Some rj -> (
                  match Core.Report.of_json rj with
                  | Error e -> Error e
                  | Ok report ->
                      let cache =
                        match Json.member "cache" j with
                        | Some c ->
                            let get k =
                              Option.value ~default:0
                                (Option.bind (Json.member k c) Json.get_int)
                            in
                            {
                              cd_memory_hits = get "memory_hits";
                              cd_disk_hits = get "disk_hits";
                            }
                        | None -> { cd_memory_hits = 0; cd_disk_hits = 0 }
                      in
                      Ok (id, Done { report; cache })))
          | Some "error" ->
              let message =
                Option.value ~default:"unknown error"
                  (Option.bind (Json.member "error" j) Json.get_str)
              in
              Ok (id, Failed { message })
          | Some e -> Error (Printf.sprintf "unknown event %S" e)
          | None -> Error "event line without an \"event\" field"))

(* --- self-description ----------------------------------------------------- *)

let fields kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)

let source_doc = "{\"path\": string} | {\"name\": string, \"text\": string}"

let stimulus_doc =
  [
    ("feeds", "object: stream -> [int]  (default {}: auto-derived ramp)");
    ("drains", "[string]  (default []: auto-derived)");
    ("params", "object: proc -> {name: int}  (default {})");
  ]

let describe () : Json.t =
  Json.Obj
    [
      ("schema_version", Json.int Core.Report.schema_version);
      ( "request",
        fields
          [
            ("schema_version", "int, required in the envelope form");
            ("id", "string, echoed on every event (default \"-\")");
            ("job", "one of the job objects below; or send the job object bare");
          ] );
      ( "events",
        fields
          [
            ( "progress",
              "{schema_version, id, event: \"progress\", seq: int, label: string, \
               data: object}" );
            ( "report",
              "{schema_version, id, event: \"report\", cache: {memory_hits, \
               disk_hits}, report: <report envelope>}" );
            ("error", "{schema_version, id, event: \"error\", error: string}");
          ] );
      ( "report",
        fields
          [
            ("schema_version", "int");
            ("kind", "the job kind that produced the report");
            ("exit_code", "int; what the CLI adapter exits with");
            ("error", "string, present only on failure");
            ("report", "the kind-specific payload");
          ] );
      ( "jobs",
        Json.Obj
          [
            ( "compile",
              fields
                [
                  ("source", source_doc ^ ", required");
                  ("strategy", "string (default \"optimized\")");
                  ("nabort", "bool (default false)");
                  ("ndebug", "bool (default false)");
                  ("prune_proved", "bool (default false)");
                  ("prune_induction", "int (default 0: disabled)");
                ] );
            ( "check",
              fields
                [
                  ("sources", "[" ^ source_doc ^ "], required");
                  ("strategy", "string (default \"optimized\")");
                  ("nabort", "bool (default false)");
                  ("ndebug", "bool (default false)");
                  ("only", "[string] | null (default null: every diagnostic code)");
                  ("ignore", "[string] | null (default null: none)");
                  ( "watchdog",
                    "int >= 1 | null (default null): window measured against the proved \
                     completion bound" );
                ] );
            ( "prove",
              fields
                [
                  ("sources", "[" ^ source_doc ^ "], required");
                  ("depth", "int (default 12)");
                  ("induction", "int (default 4)");
                  ("assertion", "int | null (default null: all)");
                  ("conflict_limit", "int (default 200000)");
                  ("jobs", "int | null (default null: daemon default)");
                ] );
            ( "campaign",
              fields
                ([ ("source", source_doc ^ " | null (default: bundled workloads)") ]
                @ stimulus_doc
                @ [
                    ("budget", "int >= 1 | null (default: 4x baseline + slack)");
                    ("watchdog", "int >= 1 | null (default: budget/20, floor 200)");
                    ("max_mutants", "int | null (default: unlimited)");
                    ("jobs", "int | null");
                    ("from_reset", "bool (default false)");
                    ("max_cycles", "int >= 1 (default 1000000)");
                    ("prune_hangs", "bool (default true)");
                  ]) );
            ( "mine",
              fields
                ([
                   ("source", source_doc ^ ", required");
                   ("strategy", "string (default \"parallelized\")");
                 ]
                @ stimulus_doc
                @ [
                    ("top", "int (default 10)");
                    ("max_candidates", "int (default 12)");
                    ("max_mutants", "int | null");
                    ("budget", "int >= 1 | null");
                    ("jobs", "int | null");
                    ("emit", "bool (default false): include instrumented source");
                  ]) );
            ( "fuzz",
              fields
                [
                  ("seed", "int (default 42)");
                  ("count", "int >= 1 | null (default: 200)");
                  ("fuel", "int >= 0 | null (default: 8)");
                  ("max_cycles", "int >= 1 | null");
                  ("watchdog", "int >= 1 | null");
                  ("bmc_depth", "int | null (default null: cross-check disabled)");
                  ("corpus_dir", "string | null (default null: no reproducers written)");
                  ("jobs", "int | null");
                ] );
          ] );
    ]
