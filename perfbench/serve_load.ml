(* Workload serve-fresh: the benchmark's own load client against a
   child `posl-check serve` process, over
   Posl_serve.Client / Frame / Wire (not Loadgen, so a change to the
   load generator cannot move the measurement). *)

module Spec = Posl_core.Spec
module Lang = Posl_lang.Lang
module Engine = Posl_engine.Engine
module Manifest = Posl_engine.Manifest
module Digest = Posl_engine.Digest
module Cache = Posl_engine.Cache
module Counters = Posl_engine.Counters
module Store = Posl_store.Store
module Wire = Posl_serve.Wire
module Client = Posl_serve.Client
module Frame = Posl_serve.Frame
module Json = Wire.Json

let ms_of_ns ns = float_of_int ns /. 1e6

(* ---------------------------------------------------------------- *)
(* The server child                                                  *)
(* ---------------------------------------------------------------- *)

let children : int list ref = ref []

let reap pid ~grace =
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  (try go () with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap pid ~grace:10.)
    !children

type server = { pid : int; client : Client.t; store_dir : string option }

let call c doc =
  match Client.call c doc with Ok j -> j | Error e -> failwith ("server: " ^ e)

let start ~posl_check ~dir ~workers ~store_dir =
  let sock = Filename.concat dir "serve.sock" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [ posl_check; "serve"; "--socket"; sock; "--workers"; string_of_int workers ]
    @ match store_dir with Some d -> [ "--store"; d ] | None -> []
  in
  let pid = Unix.create_process posl_check (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  children := pid :: !children;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec connect () =
    match Client.connect (`Unix sock) with
    | c -> c
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0
        then failwith "posl-check serve did not start (see .perfbench/*/serve.log)";
        Unix.sleepf 0.005;
        connect ()
  in
  { pid; client = connect (); store_dir }

let shutdown s =
  (try ignore (Client.call s.client (Wire.request_json Wire.Shutdown)) with _ -> ());
  Client.close s.client;
  reap s.pid ~grace:30.

(* Server-side counters: the stats op's engine object and the metrics
   op's Prometheus exposition, flattened into one name → value table. *)
let field k = function Json.Obj kv -> List.assoc_opt k kv | _ -> None

let number = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> 0.

let counters s =
  let tbl = Hashtbl.create 64 in
  (match field "engine" (call s.client (Wire.request_json Wire.Stats)) with
  | Some (Json.Obj kv) -> List.iter (fun (k, v) -> Hashtbl.replace tbl ("engine." ^ k) (number v)) kv
  | _ -> failwith "stats: no engine object");
  (match field "metrics" (call s.client (Wire.request_json Wire.Metrics)) with
  | Some (Json.Str text) ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ name; v ] when line.[0] <> '#' ->
              Option.iter (Hashtbl.replace tbl name) (float_of_string_opt v)
          | _ -> ())
        (String.split_on_char '\n' text)
  | _ -> failwith "metrics: no exposition");
  (match s.store_dir with
  | Some d -> Hashtbl.replace tbl "store.bytes" (float_of_int (Unix.stat (Store.log_path d)).Unix.st_size)
  | None -> ());
  tbl

let delta before after k =
  Option.value ~default:0. (Hashtbl.find_opt after k) -. Option.value ~default:0. (Hashtbl.find_opt before k)

(* ---------------------------------------------------------------- *)
(* Requests                                                          *)
(* ---------------------------------------------------------------- *)

type request = {
  doc : Json.t;
  payload : string;  (** [doc], encoded *)
  expected : bool;
  kind : string;
}

let project_requests (src : Corpus.source) ~seed i =
  let p = Corpus.project src ~seed i in
  ( p,
    Array.mapi
      (fun qi (q : Corpus.query) ->
        let doc =
          Wire.request_json
            (Wire.Submit
               (Wire.submission ~depth:q.Corpus.depth
                  ~queries:
                    [ { Wire.kind = q.Corpus.kind; names = List.map (Corpus.rename_name p.Corpus.tag) q.Corpus.names } ]
                  (`Spec_text (List.assoc q.Corpus.file p.Corpus.files))))
        in
        { doc; payload = Json.to_string doc; expected = src.Corpus.expected.(qi); kind = q.Corpus.kind })
      src.Corpus.queries )

type outcome = Verdict of bool  (** holds *) | Failed | Mismatch

(* A response is a failure when the transport failed, it carries a typed
   error, or its verdict differs from the reference. *)
let check (r : request) = function
  | Error _ -> Failed
  | Ok j -> (
      match field "ok" j, field "results" j with
      | Some (Json.Bool true), Some (Json.List [ res ]) -> (
          match field "holds" res with
          | Some (Json.Bool h) -> if h = r.expected then Verdict h else Mismatch
          | _ -> Failed)
      | _ -> Failed)

let tally outcomes =
  List.fold_left
    (fun (failed, mismatched, refuted) -> function
      | Verdict holds -> (failed, mismatched, if holds then refuted else refuted + 1)
      | Failed -> (failed + 1, mismatched, refuted)
      | Mismatch -> (failed + 1, mismatched + 1, refuted))
    (0, 0, 0) outcomes

(* ---------------------------------------------------------------- *)
(* Traced replay: the in-process layers of one request                *)
(* ---------------------------------------------------------------- *)

(* Replays each payload through the calls the server makes for it —
   frame, wire decode, spec-text memo (parse on a miss), name
   resolution, Engine.answer over warm state, store lookup/append on a
   miss, result encoding — plus the client's own framing and codec,
   each in a span.  Digest.query and Cache.find are timed by separate
   calls: answer repeats both internally, so they are a breakdown of
   its time, not an addition to it. *)
type replay = {
  session : Engine.session;
  rcounters : Counters.t;
  memo : (string, (Spec.t list * Posl_ident.Universe.t, string) result) Hashtbl.t;
  rstore : Store.t option;
  pipe_ic : in_channel;
  pipe_oc : out_channel;
  mutable answered : (int * string * int * bool) list;  (** req, kind, answer ns, cached *)
}

let replay_state ~store_dir =
  let r, w = Unix.pipe () in
  {
    session = Engine.session ();
    rcounters = Counters.create ();
    memo = Hashtbl.create 16;
    rstore = Option.map (fun d -> Store.open_ d) store_dir;
    pipe_ic = Unix.in_channel_of_descr r;
    pipe_oc = Unix.out_channel_of_descr w;
    answered = [];
  }

let close_replay rp =
  Option.iter Store.close rp.rstore;
  close_in_noerr rp.pipe_ic;
  close_out_noerr rp.pipe_oc

let through_frame rp payload =
  (* a pipe holds 64 KiB; larger frames are only rendered *)
  if String.length payload < 60_000 then begin
    Frame.write rp.pipe_oc payload;
    ignore (Frame.read rp.pipe_ic)
  end
  else ignore (Frame.to_string payload)

let replay_one rp ~req (r : request) =
  Spans.with_req req @@ fun () ->
  Spans.with_span "request" @@ fun () ->
  Spans.with_span "serve.frame" (fun () -> through_frame rp r.payload);
  let s =
    match Spans.with_span "serve.decode" (fun () -> Wire.parse_request r.payload) with
    | Ok (Wire.Submit s) -> s
    | _ -> failwith "replay: not a submission"
  in
  let text = Option.get s.Wire.spec_text in
  let loaded =
    Spans.with_span "lang.parse" (fun () ->
        match Hashtbl.find_opt rp.memo text with
        | Some l -> l
        | None ->
            let l =
              match Lang.specs_of_string text with
              | Ok specs -> Ok (specs, Spec.adequate_universe ~extra_objects:2 specs)
              | Error e -> Error (Format.asprintf "%a" Lang.pp_error e)
            in
            Hashtbl.add rp.memo text l;
            l)
  in
  let specs, universe = match loaded with Ok l -> l | Error e -> failwith e in
  let depth = Option.value s.Wire.depth ~default:6 in
  let ereq =
    Spans.with_span "manifest.elaborate" (fun () ->
        let q = List.hd s.Wire.queries in
        let resolved =
          List.map
            (fun n ->
              match Manifest.resolve_name specs ~file:"inline" n with
              | Ok sp -> sp
              | Error e -> failwith e)
            q.Wire.names
        in
        match Manifest.query ~kind:q.Wire.kind resolved with
        | Ok query -> Engine.request ~depth ~universe query
        | Error e -> failwith e)
  in
  let digest =
    Spans.with_span "digest.query" (fun () ->
        Digest.query ~universe ~depth ereq.Engine.query)
  in
  let hit =
    Spans.with_span "cache.find" (fun () ->
        Option.bind digest (Cache.find (Engine.session_cache rp.session)))
  in
  let base =
    match rp.rstore, hit with
    | Some store, None ->
        Spans.with_span "store.find" (fun () ->
            match Digest.query_base ~universe ereq.Engine.query with
            | Some b -> if Store.find store ~digest:b ~depth = None then Some (store, b) else None
            | None -> None)
    | _ -> None
  in
  let t0 = Spans.now_ns () in
  let result =
    Spans.with_span "engine.answer" (fun () -> Engine.answer rp.session rp.rcounters ereq)
  in
  rp.answered <- (req, r.kind, Spans.now_ns () - t0, result.Engine.cached) :: rp.answered;
  Option.iter
    (fun (store, b) ->
      Spans.with_span "store.append" (fun () ->
          ignore (Store.add store ~digest:b ~depth result.Engine.verdict)))
    base;
  let response =
    Spans.with_span "verdict.encode" (fun () ->
        Json.to_string
          (Json.Obj
             [
               ("ok", Json.Bool true); ("op", Json.Str "submit"); ("trace_id", Json.Str "r");
               ("jobs", Json.Int 1); ("failed", Json.Int 0); ("expired", Json.Int 0);
               ("results", Json.List [ Wire.json_of_result result ]);
             ]))
  in
  Spans.with_span "serve.frame" (fun () -> through_frame rp response);
  Spans.with_span "serve.decode" (fun () -> ignore (Json.of_string response))

(* Per-layer values from the replayed requests [(req id, client-observed
   latency ms)]. *)
let replay_layers rp replayed =
  let tbl = Spans.self_by_req () in
  let reqs = List.map fst replayed in
  let n = float_of_int (List.length reqs) in
  let mean_ns name = Stat.mean (Spans.per_req tbl name reqs) in
  (* only over the requests that made the call *)
  let mean_called name =
    match List.filter (fun x -> x > 0.) (Spans.per_req tbl name reqs) with
    | [] -> 0.
    | xs -> Stat.mean xs
  in
  let dur = Hashtbl.create 1024 in
  List.iter (fun (s : Spans.span) -> Hashtbl.replace dur (s.Spans.req, s.Spans.name) (Spans.dur s)) !Spans.spans;
  let d r name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt dur (r, name))) in
  let residuals =
    List.map
      (fun (r, lat_ms) ->
        let in_process = d r "request" -. d r "digest.query" -. d r "cache.find" in
        lat_ms -. (in_process /. 1e6))
      replayed
  in
  let decide kind =
    List.fold_left
      (fun a (req, k, ns, cached) ->
        if req >= 0 && k = kind && not cached then a +. ms_of_ns ns else a)
      0. rp.answered
    /. n
  in
  ( [
      ("lang.parse_ms", mean_ns "lang.parse" /. 1e6);
      ("manifest.elaborate_ms", mean_ns "manifest.elaborate" /. 1e6);
      ("digest.query_us", mean_ns "digest.query" /. 1e3);
      ("cache.find_us", mean_ns "cache.find" /. 1e3);
      ("verdict.encode_us", mean_ns "verdict.encode" /. 1e3);
      ("store.find_us", mean_called "store.find" /. 1e3);
      ("store.append_us", mean_called "store.append" /. 1e3);
      ("serve.frame_us", mean_ns "serve.frame" /. 1e3);
      ("serve.decode_us", mean_ns "serve.decode" /. 1e3);
      ("serve.residual_ms", Stat.median residuals);
    ]
    @ List.map (fun k -> ("core.decide_ms." ^ k, decide k)) Batch_cold.kinds,
    (Stat.median (List.map (fun r -> (d r "request" -. d r "digest.query" -. d r "cache.find") /. 1e6) reqs),
     Stat.median residuals,
     Stat.median (List.map snd replayed)) )

(* Layer values read from the server's own counters over the measured
   phase. *)
let counter_layers before after ~workers ~requests ~refuted ~wall_s =
  let d = delta before after in
  let per_q k = d k /. float_of_int requests in
  let pairs = d "posl_bmc_antichain_pairs_total" and prunes = d "posl_bmc_antichain_prunes_total" in
  [
    ("cache.hit_ratio", d "engine.cache_hits" /. d "engine.jobs");
    ("plan.derived_hits", per_q "engine.derived_hits");
    ("plan.fallbacks", per_q "engine.plan_fallbacks");
    ("par.utilization", d "engine.busy_ms" /. (wall_s *. 1e3 *. float_of_int workers));
    ("par.domains", float_of_int workers);
    ("bmc.pairs_admitted", pairs /. float_of_int requests);
    ("bmc.pairs_pruned", prunes /. float_of_int requests);
    ("bmc.prune_ratio", if pairs +. prunes > 0. then prunes /. (pairs +. prunes) else 0.);
    (* the stats op counts DFA traffic only for manifest batches; the
       compile-time histogram counts every compile *)
    ("tset.dfa_compiles", per_q "posl_tset_dfa_compile_ms_count");
    ("tset.states_interned", per_q "posl_tset_interned_states_total");
    ("verdict.refuted", float_of_int refuted /. float_of_int requests);
    ("store.writes", per_q "engine.store_writes");
    ("store.bytes", per_q "store.bytes");
    ("serve.rejected", d "posl_serve_rejected_total");
    ("serve.expired", d "posl_serve_expired_total");
    ("gc.minor_words_per_query", per_q "posl_gc_minor_words_total");
    ("gc.major_collections", d "posl_gc_major_collections_total");
  ]

let accounting_note ~in_process ~residual ~latency =
  Printf.sprintf
    "accounting (replayed requests, medians): client latency %.4f ms = in-process layers %.4f ms \
     + serve.residual %.4f ms"
    latency in_process residual

(* One measured segment: a fresh server, set up, measured, shut down.
   A run is as many as fit in its time.  Each segment does the same
   fixed work, so its latencies, peak RSS and set-up are comparable from
   segment to segment and run to run.  Latencies are scaled by their own
   segment's calibration units and then pooled over the run: a p99 of a
   single segment rests on its ~29 slowest requests, which a few
   projects decide, and moved ~18% from segment to segment. *)

type sample = {
  k : int;  (** request number within the segment *)
  req : request;
  lat_ms : float;
  traced : bool;
  outcome : outcome;
}

type segment = {
  setup_s : float;
  samples : sample list;
  wall_s : float;
  before : (string, float) Hashtbl.t;
  after : (string, float) Hashtbl.t;
  rss_mb : float;
  calib : Calib.sample list;  (** units run before, during and after the measured phase *)
}

let untraced samples = List.filter_map (fun s -> if s.traced then None else Some s.lat_ms) samples
let traced samples = List.filter_map (fun s -> if s.traced then Some s.lat_ms else None) samples
let outcomes samples = List.map (fun s -> s.outcome) samples

let calibrate () = List.init 5 (fun _ -> Calib.sample ())

let run_segments ~seconds ~setup ~measure =
  let deadline = Unix.gettimeofday () +. float_of_int seconds in
  let rec go acc =
    if acc <> [] && Unix.gettimeofday () >= deadline then List.rev acc
    else begin
      let t0 = Unix.gettimeofday () in
      let server, state = setup (List.length acc) in
      let setup_s = Unix.gettimeofday () -. t0 in
      let before = counters server in
      let c0 = calibrate () in
      let samples, wall_s, during = measure state in
      let calib = c0 @ during @ calibrate () in
      let after = counters server in
      let rss_mb = Proc.peak_rss_mb (string_of_int server.pid) in
      shutdown server;
      Spans.clear ();
      go ({ setup_s; samples; wall_s; before; after; rss_mb; calib } :: acc)
    end
  in
  go []

(* A segment's request latencies in ref-ms. *)
let scaled seg lats = List.map (fun l -> l *. Calib.factor Calib.wall seg.calib) lats

let summarize name segs =
  let all = List.concat_map (fun s -> s.samples) segs in
  let failed, mismatched, _ = tally (outcomes all) in
  let pooled = List.concat_map (fun s -> scaled s (untraced s.samples)) segs in
  (* one request in flight, so the loop's rate *)
  let loop_ms = Stat.sum (List.concat_map (fun s -> scaled s (List.map (fun x -> x.lat_ms) s.samples)) segs) in
  let end_to_end =
    Out.
      [
        m "throughput_qps" "verdicts/ref-s" (float_of_int (List.length all - failed) /. (loop_ms /. 1e3));
        m "latency_p50_ms" "ref-ms" (Stat.median pooled);
        m "latency_p99_ms" "ref-ms" (Stat.quantile pooled 0.99);
        (* a mean: where the server's collector happens to be when the
           largest job runs splits segment peaks into two clusters ~15%
           apart, between which a median jumps *)
        m "peak_rss_mb" "MiB" (Stat.mean (List.map (fun s -> s.rss_mb) segs));
      ]
  in
  let per_segment f = String.concat "/" (List.map f segs) in
  let notes =
    [
      Printf.sprintf "%s: %d segments of %s requests" name (List.length segs)
        (per_segment (fun s -> string_of_int (List.length s.samples)));
      Printf.sprintf "  per segment: p50 %s ref-ms; p99 %s ref-ms"
        (per_segment (fun s -> Printf.sprintf "%.3f" (Stat.median (scaled s (untraced s.samples)))))
        (per_segment (fun s -> Printf.sprintf "%.2f" (Stat.quantile (scaled s (untraced s.samples)) 0.99)));
      Printf.sprintf
        "  per segment, unscaled: p50 %s ms; p99 %s ms; calibration unit %s ms; peak RSS %s MiB; \
         set-up %s s"
        (per_segment (fun s -> Printf.sprintf "%.3f" (Stat.median (untraced s.samples))))
        (per_segment (fun s -> Printf.sprintf "%.2f" (Stat.quantile (untraced s.samples) 0.99)))
        (per_segment (fun s -> Printf.sprintf "%.2f" (Stat.median (List.map Calib.wall s.calib))))
        (per_segment (fun s -> Printf.sprintf "%.1f" s.rss_mb))
        (per_segment (fun s -> Printf.sprintf "%.3f" s.setup_s));
    ]
  in
  {
    Out.attempted = List.length all;
    failed;
    mismatched;
    setup_s = List.map (fun s -> s.setup_s) segs;
    end_to_end;
    per_layer = [];
    notes;
  }

(* Replay the last segment's first [limit] requests and combine the
   layer times with that segment's server counters. *)
let traced_layers rp seg ~workers ~warm ~limit =
  let _, _, refuted = tally (outcomes seg.samples) in
  Array.iteri (fun k r -> replay_one rp ~req:(-1 - k) r) warm;
  Spans.enabled := true;
  let replayed =
    List.filteri (fun j _ -> j < limit) seg.samples
    |> List.map (fun s ->
           replay_one rp ~req:s.k s.req;
           (s.k, s.lat_ms))
  in
  Spans.enabled := false;
  let layers, (in_process, residual, latency) = replay_layers rp replayed in
  close_replay rp;
  Spans.clear ();
  let values =
    layers
    @ counter_layers seg.before seg.after ~workers ~requests:(List.length seg.samples) ~refuted
        ~wall_s:seg.wall_s
    @ [ ("trace.overhead_ratio", Stat.median (traced seg.samples) /. Stat.median (untraced seg.samples)) ]
  in
  (Out.complete values, accounting_note ~in_process ~residual ~latency)

let last l = List.nth l (List.length l - 1)

(* ---------------------------------------------------------------- *)
(* serve-fresh: closed loop, fresh queries and repeats               *)
(* ---------------------------------------------------------------- *)

(* Three requests in every block of eight are fresh.  Of a project's 92
   queries one (T(RW)=T(RW), ~150 ms) is far the slowest, the next two
   take ~20 and ~8 ms, and below them lie many refinements of a few ms
   with slow repeats among them.  At 3/8 fresh the top 1% of requests
   is the top 2.45 queries of each project, so the p99 falls mid-band
   among the ~8 ms query's times; at 1/4 it fell among the few-ms
   crowd, whose make-up changes with the projects, and spread 13% over
   five seeds. *)
let block = 8
let fresh_per_block = 3

(* Never-seen projects a segment walks, after its warm-up project: at
   twelve, a segment sends 2,944 requests.  Each segment walks projects
   of its own, so a run averages over many. *)
let segment_projects = 12

(* One connection keeps at most one job in the server at a time, so one
   worker domain serves it; a second would share the pinned CPU. *)
let fresh_workers = 1

let run_fresh ~dir ~posl_check ~seed ~seconds ~trace =
  let src = Corpus.load_source () in
  let per_project = Array.length src.Corpus.queries in
  let fresh_total = segment_projects * per_project in
  let store_dir = Filename.concat dir "store" in
  let prepare segment =
    Corpus.fresh_dir dir;
    (* The schedule: blocks of [block] requests, [fresh_per_block] of
       them — at seeded positions — the next never-seen queries
       (projects walked query by query), the others repeats of a
       uniformly drawn query already sent. *)
    let rng = Random.State.make [| seed; 1 |] in
    let projects =
      Array.init (segment_projects + 1) (fun i ->
          let p, reqs = project_requests src ~seed ((segment * (segment_projects + 1)) + i) in
          ignore (Corpus.write_project dir p);
          reqs)
    in
    let sent = Array.make (fresh_total + per_project) projects.(0).(0) in
    Array.blit projects.(0) 0 sent 0 per_project;
    let n_sent = ref per_project and f = ref 0 in
    let schedule =
      Array.concat
        (List.init (fresh_total / fresh_per_block) (fun _ ->
             let fresh = Array.make block false in
             while Array.fold_left (fun a b -> if b then a + 1 else a) 0 fresh < fresh_per_block do
               fresh.(Random.State.int rng block) <- true
             done;
             Array.init block (fun j ->
                 if fresh.(j) then begin
                   let r = projects.(1 + (!f / per_project)).(!f mod per_project) in
                   incr f;
                   sent.(!n_sent) <- r;
                   incr n_sent;
                   r
                 end
                 else sent.(Random.State.int rng !n_sent))))
    in
    (schedule, projects.(0))
  in
  let setup segment =
    let schedule, warmup = prepare segment in
    let server = start ~posl_check ~dir ~workers:fresh_workers ~store_dir:(Some store_dir) in
    Array.iter (fun r -> ignore (call server.client r.doc)) warmup;
    (server, schedule)
  in
  let measure schedule =
    (* A connection of its own, fed pre-encoded frames: each request is
       written when the previous response has been read. *)
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX (Filename.concat dir "serve.sock"));
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    (* after a transport error every later response is lost too *)
    let broken = ref false in
    let during = ref [] in
    let t_start = Spans.now_ns () in
    let samples =
      Array.mapi
        (fun k r ->
          (* a calibration unit after each fresh project's worth *)
          if k > 0 && k mod (block * per_project / fresh_per_block) = 0 then
            during := Calib.sample () :: !during;
          let traced = trace && k land 1 = 1 in
          Spans.enabled := traced;
          let t0 = Spans.now_ns () in
          let resp =
            if !broken then Error "connection lost"
            else
              Spans.with_req k (fun () ->
                  Spans.with_span "client.call" (fun () ->
                      match
                        Frame.write oc r.payload;
                        Frame.read ic
                      with
                      | Ok p -> Json.of_string p
                      | Error e ->
                          broken := true;
                          Error (Format.asprintf "%a" Frame.pp_error e)
                      | exception Sys_error e ->
                          broken := true;
                          Error e))
          in
          let lat_ms = ms_of_ns (Spans.now_ns () - t0) in
          Spans.enabled := false;
          { k; req = r; lat_ms; traced; outcome = check r resp })
        schedule
    in
    let paused_ms = Stat.sum (List.map Calib.wall !during) in
    let wall_s = (float_of_int (Spans.now_ns () - t_start) /. 1e9) -. (paused_ms /. 1e3) in
    Unix.close fd;
    (Array.to_list samples, wall_s, !during)
  in
  let segs = run_segments ~seconds ~setup ~measure in
  let out = summarize "serve-fresh" segs in
  let out =
    { out with
      Out.notes =
        out.Out.notes
        @ [ Printf.sprintf "closed loop, one connection; %d in %d requests fresh, %d fresh projects per segment"
              fresh_per_block block segment_projects ] }
  in
  if not trace then out
  else begin
    let schedule, warmup = prepare (List.length segs - 1) in
    let store_dir = Filename.concat dir "replay-store" in
    Corpus.fresh_dir store_dir;
    (* replay the stream until it has sent two projects' worth of
       never-seen queries *)
    let limit = ref (Array.length schedule) and seen = Hashtbl.create 512 in
    Array.iter (fun r -> Hashtbl.replace seen r.payload ()) warmup;
    Array.iteri
      (fun k r ->
        if not (Hashtbl.mem seen r.payload) then begin
          Hashtbl.replace seen r.payload ();
          if Hashtbl.length seen > 3 * per_project && !limit = Array.length schedule then limit := k
        end)
      schedule;
    let per_layer, note =
      traced_layers (replay_state ~store_dir:(Some store_dir)) (last segs) ~workers:fresh_workers
        ~warm:warmup ~limit:!limit
    in
    { out with Out.per_layer; notes = out.Out.notes @ [ note ] }
  end
