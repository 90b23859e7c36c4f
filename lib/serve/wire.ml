(* Protocol documents: typed requests, typed error responses, and the
   result/stats serializers shared with the CLI's --json output. *)

module Json = Posl_verdict.Verdict.Json
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Verdict = Posl_verdict.Verdict

type addr = [ `Unix of string | `Tcp of string * int ]

let pp_addr ppf = function
  | `Unix path -> Format.fprintf ppf "unix:%s" path
  | `Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

type query_ref = { kind : string; names : string list }

type submit = {
  file : string option;
  spec_text : string option;
  manifest : string option;
  manifest_text : string option;
  queries : query_ref list;
  depth : int option;
  extra_objects : int option;
  deadline_ms : int option;
  trace_id : string option;
}

let submission ?depth ?extra_objects ?deadline_ms ?trace_id ?(queries = [])
    source =
  let none =
    { file = None; spec_text = None; manifest = None; manifest_text = None;
      queries; depth; extra_objects; deadline_ms; trace_id }
  in
  match source with
  | `File f -> { none with file = Some f }
  | `Spec_text t -> { none with spec_text = Some t }
  | `Manifest m -> { none with manifest = Some m }
  | `Manifest_text t -> { none with manifest_text = Some t }

type request = Ping | Stats | Metrics | Shutdown | Submit of submit

let request_json = function
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Metrics -> Json.Obj [ ("op", Json.Str "metrics") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]
  | Submit s ->
      let opt name = function
        | None -> []
        | Some v -> [ (name, Json.Str v) ]
      in
      let opt_int name = function
        | None -> []
        | Some v -> [ (name, Json.Int v) ]
      in
      let queries =
        match s.queries with
        | [] -> []
        | qs ->
            [
              ( "queries",
                Json.List
                  (List.map
                     (fun q ->
                       Json.Obj
                         [
                           ("kind", Json.Str q.kind);
                           ( "specs",
                             Json.List
                               (List.map (fun n -> Json.Str n) q.names) );
                         ])
                     qs) );
            ]
      in
      Json.Obj
        (("op", Json.Str "submit")
         :: (opt "file" s.file @ opt "spec_text" s.spec_text
            @ opt "manifest" s.manifest
            @ opt "manifest_text" s.manifest_text
            @ queries @ opt_int "depth" s.depth
            @ opt_int "extra_objects" s.extra_objects
            @ opt_int "deadline_ms" s.deadline_ms
            @ opt "trace_id" s.trace_id))

let ( let* ) = Result.bind

let fields_of = function
  | Json.Obj fields -> Ok fields
  | _ -> Error "request must be a JSON object"

let str_field fields name =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let int_field fields name =
  match List.assoc_opt name fields with
  | None -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let queries_field fields =
  match List.assoc_opt "queries" fields with
  | None -> Ok []
  | Some (Json.List qs) ->
      List.fold_left
        (fun acc q ->
          let* acc = acc in
          let* qf = fields_of q in
          let* kind = str_field qf "kind" in
          let* kind =
            match kind with
            | Some k -> Ok k
            | None -> Error "query object needs a \"kind\" field"
          in
          let* names =
            match List.assoc_opt "specs" qf with
            | Some (Json.List names) ->
                List.fold_left
                  (fun acc n ->
                    let* acc = acc in
                    match n with
                    | Json.Str s -> Ok (s :: acc)
                    | _ -> Error "\"specs\" entries must be strings")
                  (Ok []) names
                |> Result.map List.rev
            | Some _ | None -> Error "query object needs a \"specs\" array"
          in
          Ok ({ kind; names } :: acc))
        (Ok []) qs
      |> Result.map List.rev
  | Some _ -> Error "field \"queries\" must be an array"

let parse_submit fields =
  let* file = str_field fields "file" in
  let* spec_text = str_field fields "spec_text" in
  let* manifest = str_field fields "manifest" in
  let* manifest_text = str_field fields "manifest_text" in
  let* queries = queries_field fields in
  let* depth = int_field fields "depth" in
  let* extra_objects = int_field fields "extra_objects" in
  let* deadline_ms = int_field fields "deadline_ms" in
  let* trace_id = str_field fields "trace_id" in
  let sources =
    List.filter Option.is_some [ file; spec_text; manifest; manifest_text ]
  in
  let* () =
    match sources with
    | [ _ ] -> Ok ()
    | [] ->
        Error
          "submit needs exactly one spec source: \"file\", \"spec_text\", \
           \"manifest\" or \"manifest_text\""
    | _ -> Error "submit takes only one spec source"
  in
  let* () =
    match (manifest, manifest_text, queries) with
    | (Some _, _, _ :: _ | _, Some _, _ :: _) ->
        Error "manifest submissions embed their queries in the manifest"
    | (Some _, _, [] | _, Some _, []) -> Ok ()
    | None, None, [] -> Error "submit needs a non-empty \"queries\" array"
    | None, None, _ :: _ -> Ok ()
  in
  Ok
    (Submit
       {
         file;
         spec_text;
         manifest;
         manifest_text;
         queries;
         depth;
         extra_objects;
         deadline_ms;
         trace_id;
       })

let parse_request payload =
  let* doc =
    match Json.of_string payload with
    | Ok doc -> Ok doc
    | Error e -> Error (Printf.sprintf "invalid JSON: %s" e)
  in
  let* fields = fields_of doc in
  let* op = str_field fields "op" in
  match op with
  | None -> Error "request needs an \"op\" field"
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics
  | Some "shutdown" -> Ok Shutdown
  | Some "submit" -> parse_submit fields
  | Some op -> Error (Printf.sprintf "unknown op: %s" op)

type error_code =
  | Overloaded
  | Deadline_exceeded
  | Malformed
  | Oversized
  | Input
  | Shutting_down
  | Internal

let code_string = function
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Malformed -> "malformed"
  | Oversized -> "oversized"
  | Input -> "input"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_json code message =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [
            ("code", Json.Str (code_string code));
            ("message", Json.Str message);
          ] );
    ]

let json_of_result (r : Engine.result) =
  Json.Obj
    [
      ("label", Json.Str r.Engine.request.Engine.label);
      ("kind", Json.Str (Job.kind r.Engine.request.Engine.query));
      ("depth", Json.Int r.Engine.request.Engine.depth);
      ("holds", Json.Bool (Verdict.to_bool r.Engine.verdict));
      ("cached", Json.Bool r.Engine.cached);
      ("from_store", Json.Bool r.Engine.from_store);
      ("cacheable", Json.Bool (r.Engine.digest <> None));
      ("ms", Json.Float r.Engine.ms);
      ( "span_id",
        match r.Engine.span_id with
        | Some id -> Json.Int id
        | None -> Json.Null );
      ("verdict", Verdict.to_json r.Engine.verdict);
    ]

let json_of_stats (s : Engine.stats) ~failed =
  Json.Obj
    [
      ("jobs", Json.Int s.Engine.jobs);
      ("failed", Json.Int failed);
      ("cache_hits", Json.Int s.Engine.cache_hits);
      ("cache_misses", Json.Int s.Engine.cache_misses);
      ("uncacheable", Json.Int s.Engine.uncacheable);
      ("store_hits", Json.Int s.Engine.store_hits);
      ("store_misses", Json.Int s.Engine.store_misses);
      ("store_writes", Json.Int s.Engine.store_writes);
      ("derived_hits", Json.Int s.Engine.derived_hits);
      ("plan_fallbacks", Json.Int s.Engine.plan_fallbacks);
      ("dfa_cache_hits", Json.Int s.Engine.dfa_cache_hits);
      ("dfa_compiles", Json.Int s.Engine.dfa_compiles);
      ("key_fragments", Json.Int s.Engine.key_fragments);
      ("busy_ms", Json.Float s.Engine.busy_ms);
      ("wall_ms", Json.Float s.Engine.wall_ms);
      ("domains", Json.Int s.Engine.domains);
      ("utilization", Json.Float s.Engine.utilization);
    ]
