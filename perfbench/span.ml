(* In-memory spans and counters for the traced benchmark run.

   Spans are recorded by the benchmark around its own calls into each
   layer's public functions; the library itself is not instrumented.
   Until [enable] is called, [run] is a plain call and [count] does
   nothing.  Spans may be opened on any domain (pool workers
   included): each domain keeps its own stack of open spans, and
   finished spans go to one mutex-protected list. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  pass : int;
  domain : int;
  start : float;
  stop : float;
}

let enabled = ref false
let pass_id = Atomic.make 0
let next_id = Atomic.make 0
let lock = Mutex.create ()
let finished : t list ref = ref []
let counters : (string, int) Hashtbl.t = Hashtbl.create 32
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let enable () = enabled := true
let set_pass n = Atomic.set pass_id n

(* The innermost open span on this domain, [-1] at top level. *)
let current () = match Domain.DLS.get stack with id :: _ -> id | [] -> -1

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* [run name f] times [f ()] as span [name].  [parent] overrides the
   enclosing span, so a pool job can hang under the phase that started
   the pool although it runs on another domain.  [rename] picks the
   recorded name from the result, for a call whose layer is only known
   afterwards (a cache lookup that missed and compiled). *)
let run ?parent ?rename name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match parent with Some p -> p | None -> current () in
    let outer = Domain.DLS.get stack in
    Domain.DLS.set stack (id :: outer);
    let start = Unix.gettimeofday () in
    let record r =
      let stop = Unix.gettimeofday () in
      Domain.DLS.set stack outer;
      let name = match (rename, r) with Some g, Some v -> g v | _ -> name in
      let s =
        { id; name; parent; pass = Atomic.get pass_id;
          domain = (Domain.self () :> int); start; stop }
      in
      locked (fun () -> finished := s :: !finished)
    in
    match f () with
    | v ->
        record (Some v);
        v
    | exception e ->
        record None;
        raise e
  end

let count name n =
  if !enabled then
    locked (fun () ->
        Hashtbl.replace counters name
          (n + Option.value ~default:0 (Hashtbl.find_opt counters name)))

(* The counters recorded since the last call, sorted by name. *)
let take_counters () =
  locked (fun () ->
      let l = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []) in
      Hashtbl.reset counters;
      l)

let all () = List.rev !finished

(* Self time of every span: its duration minus the durations of its
   children on the same domain.  Same-domain children never overlap,
   so their sum is the part of the interval they cover; children on
   other domains run alongside the parent and are not subtracted. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | Some p when p.domain = s.domain ->
          Hashtbl.replace child p.id
            ((s.stop -. s.start) +. Option.value ~default:0.0 (Hashtbl.find_opt child p.id))
      | _ -> ())
    spans;
  List.map
    (fun s ->
      (s, s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Chrome trace-event JSON: one complete ("X") event per span, one
   thread row per domain. *)
let write_chrome path spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us seconds = Json.Float (Float.round (seconds *. 1e7) /. 10.0) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.Str "X");
        ("pid", Json.int 1);
        ("tid", Json.int s.domain);
        ("ts", us (s.start -. t0));
        ("dur", us (s.stop -. s.start));
        ( "args",
          Json.Obj
            [ ("id", Json.int s.id); ("parent", Json.int s.parent); ("pass", Json.int s.pass) ] );
      ]
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string (Json.Obj [ ("traceEvents", Json.List (List.map event spans)) ]));
  close_out oc
