(* The benchmark's own span buffer.  A span wraps one call into a
   program layer, made from the benchmark's side: name, start, end,
   parent span and request id, kept in memory.  Recording is off in
   measured runs; [with_span] is then a plain call.  Only the thread
   that owns the buffer records (no locking). *)

let now_ns = Posl_telemetry.Telemetry.now_ns

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  req : int;
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []
let current_req = ref (-1)

let clear () =
  spans := [];
  stack := [];
  next_id := 0

let with_req req f =
  let saved = !current_req in
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := saved) f

let with_span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; req = !current_req; start_ns = now_ns (); stop_ns = 0 }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

let dur s = s.stop_ns - s.start_ns

(* Self time of every span: its duration minus the time its direct
   children cover. *)
let self_times () =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    !spans;
  List.map
    (fun s -> (s, dur s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)))
    !spans

(* Summed self time (ns) per (request, span name). *)
let self_by_req () =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (s, self) ->
      let k = (s.req, s.name) in
      Hashtbl.replace tbl k (self + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (self_times ());
  tbl

(* Self time (ns) of span [name] in each request of [reqs]; 0 where
   the request has no such span. *)
let per_req tbl name reqs =
  List.map
    (fun r -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl (r, name))))
    reqs
