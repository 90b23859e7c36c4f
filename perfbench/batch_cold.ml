(* Workload batch-cold: each project is one CLI-like cold invocation —
   read and elaborate its manifest, then answer every query on a fresh
   Engine.session, as `posl-check batch` does, on one domain. *)

module Lang = Posl_lang.Lang
module Engine = Posl_engine.Engine
module Manifest = Posl_engine.Manifest
module Digest = Posl_engine.Digest
module Cache = Posl_engine.Cache
module Job = Posl_engine.Job
module Verdict = Posl_verdict.Verdict

let extra_objects = 2
let default_depth = 6
let kinds = [ "refine"; "compose"; "proper"; "deadlock"; "equal" ]

(* The benchmark runs pinned to one CPU (run.py), so one domain: a
   second one would share that CPU and measure the scheduler.  Unpinned
   on a 2-core shared host it was no better: the second domain slowed
   the ~150 ms T(RW)=T(RW) job ~40% and its time spread ~40% run to
   run. *)
let domains = 1

(* What the summaries need of one project.  The session and the results
   are dropped when the project ends, as they are when a `posl-check
   batch` process exits. *)
type project_run = {
  latency_ms : float;  (** wall clock *)
  cpu_ms : float;  (** process CPU time *)
  calib : Calib.sample;  (** a calibration unit run just before *)
  job_ms : float list;  (** Engine.result.ms of every query *)
  stats : Engine.stats option;  (** None when the project failed outright *)
  failed : int;
  mismatched : int;
  refuted : int;
  decide_ms : (string * float) list;  (** per kind: summed ms of uncached answers *)
  probe : (float list * float list) option;  (** traced: digest µs, cache-find µs per query *)
}

(* Time the calls answer makes before deciding, from outside, on one
   traced project's requests: content digest and cache lookup. *)
let probe_digest_and_cache session results =
  let cache = Engine.session_cache session in
  List.fold_left
    (fun (ds, cs) (r : Engine.result) ->
      let req = r.Engine.request in
      let t0 = Spans.now_ns () in
      let d =
        Digest.query ~universe:req.Engine.universe ~depth:req.Engine.depth req.Engine.query
      in
      let t1 = Spans.now_ns () in
      (match d with Some k -> ignore (Cache.find cache k) | None -> ());
      let t2 = Spans.now_ns () in
      (float_of_int (t1 - t0) /. 1e3 :: ds, float_of_int (t2 - t1) /. 1e3 :: cs))
    ([], []) results

(* Parse the project's spec files once each, as the manifest's loader
   does, each call in a lang.parse span: Manifest.requests_of_file parses
   inside, where the benchmark cannot wrap it. *)
let time_parse (p : Corpus.project) =
  List.iter
    (fun (_, text) -> ignore (Spans.with_span "lang.parse" (fun () -> Lang.specs_of_string text)))
    p.Corpus.files

let run_project (src : Corpus.source) (p : Corpus.project) manifest_path =
  let n = Array.length src.Corpus.queries in
  let calib = Calib.sample () in
  let session = Engine.session () in
  let c0 = Calib.cpu_s () in
  let t0 = Spans.now_ns () in
  let outcome =
    Spans.with_span "project" @@ fun () ->
    match
      Spans.with_span "manifest.elaborate" (fun () ->
          Manifest.requests_of_file ~default_depth ~extra_objects manifest_path)
    with
    | Error e -> Error e
    | Ok requests -> (
        match Spans.with_span "par.run_jobs" (fun () -> Engine.run_jobs ~domains session requests) with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  let latency_ms = float_of_int (Spans.now_ns () - t0) /. 1e6 in
  let cpu_ms = (Calib.cpu_s () -. c0) *. 1e3 in
  match outcome with
  | Error e ->
      prerr_endline ("perfbench: project failed: " ^ e);
      { latency_ms; cpu_ms; calib; job_ms = []; stats = None; failed = n; mismatched = 0; refuted = 0;
        decide_ms = []; probe = None }
  | Ok (results, stats) ->
      let probe =
        if !Spans.enabled then begin
          time_parse p;
          Some (probe_digest_and_cache session results)
        end
        else None
      in
      let mismatched = ref 0 and refuted = ref 0 in
      List.iteri
        (fun i (r : Engine.result) ->
          let holds = Verdict.to_bool r.Engine.verdict in
          if not holds then incr refuted;
          if i >= n || holds <> src.Corpus.expected.(i) then incr mismatched)
        results;
      let mismatched = !mismatched + abs (n - List.length results) in
      let decide kind =
        Stat.sum
          (List.filter_map
             (fun (r : Engine.result) ->
               if (not r.Engine.cached) && Job.kind r.Engine.request.Engine.query = kind
               then Some r.Engine.ms
               else None)
             results)
      in
      {
        latency_ms;
        cpu_ms;
        calib;
        job_ms = List.map (fun (r : Engine.result) -> r.Engine.ms) results;
        stats = Some stats;
        failed = mismatched;
        mismatched;
        refuted = !refuted;
        decide_ms = List.map (fun k -> (k, decide k)) kinds;
        probe;
      }

(* All processes' minor words: worker domains fold theirs into the
   global count when they terminate, which run_jobs waits for. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Runs project 0 as a warm-up.  Each measured project is generated and
   written just before it runs, outside its timed latency: writing every
   project a run might reach (a thousand files) up front made set-up
   time depend on the host's disk. *)
let setup ~dir ~seed (src : Corpus.source) =
  Corpus.fresh_dir dir;
  let p = Corpus.project src ~seed 0 in
  ignore (run_project src p (Corpus.write_project dir p))

let windows = 5

let run ~dir ~seed ~seconds ~trace =
  let src = Corpus.load_source () in
  let setups =
    List.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        setup ~dir ~seed src;
        Unix.gettimeofday () -. t0)
  in
  let n = Array.length src.Corpus.queries in
  let minor0 = minor_words () and major0 = major_collections () in
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. float_of_int seconds in
  (* In the traced run, odd projects record spans and even ones do not,
     so both halves see the same machine state. *)
  let rec loop i acc =
    if Unix.gettimeofday () >= deadline then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      Spans.enabled := traced;
      let p = Corpus.project src ~seed i in
      let path = Corpus.write_project dir p in
      let pr = Spans.with_req i (fun () -> run_project src p path) in
      Spans.enabled := false;
      loop (i + 1) ((i, traced, pr) :: acc)
    end
  in
  let runs = loop 1 [] in
  let wall = Unix.gettimeofday () -. t_start in
  let rss = Proc.peak_rss_mb "self" in
  let minor = minor_words () -. minor0 and major = major_collections () - major0 in
  let prs = List.map (fun (_, _, pr) -> pr) runs in
  let verdicts = n * List.length prs in
  let failed = List.fold_left (fun a pr -> a + pr.failed) 0 prs in
  let mismatched = List.fold_left (fun a pr -> a + pr.mismatched) 0 prs in
  let untraced_prs = List.filter_map (fun (_, t, pr) -> if t then None else Some pr) runs in
  let untraced = List.map (fun pr -> pr.latency_ms) untraced_prs in
  (* Medians over windows (consecutive fifths of the run's projects), so
     a burst of host noise that spoils a few windows does not move them.
     A project's latency is its process CPU time, which leaves out time
     the host lent our CPU to others; per-query times are wall clock.
     Each is scaled to ref-ms by the window's calibration units. *)
  let ws = Stat.chunks windows untraced_prs in
  let calibs w = List.map (fun pr -> pr.calib) w in
  let latencies w = List.map (fun pr -> pr.cpu_ms *. Calib.factor Calib.cpu (calibs w)) w in
  let throughput w =
    let ok = List.fold_left (fun a pr -> a + n - pr.failed) 0 w in
    float_of_int ok /. (Stat.sum (latencies w) /. 1e3)
  in
  (* The p99 is taken over the whole run: one query in 92, T(RW)=T(RW),
     is far the slowest, so the p99 falls at the 8th percentile of that
     job's times, the same share in a run of any length.  In a window of
     ~35 projects it rests on the third or fourth fastest of them, and
     spread 13% over five seeds. *)
  let scaled_job_ms w =
    let f = Calib.factor Calib.wall (calibs w) in
    List.concat_map (fun pr -> List.map (fun ms -> ms *. f) pr.job_ms) w
  in
  let end_to_end =
    Out.
      [
        m "throughput_qps" "verdicts/ref-s" (Stat.median_over ws throughput);
        m "latency_p50_ms" "ref-ms" (Stat.median_over ws (fun w -> Stat.median (latencies w)));
        m "latency_p99_ms" "ref-ms" (Stat.quantile (List.concat_map scaled_job_ms ws) 0.99);
        m "peak_rss_mb" "MiB" rss;
      ]
  in
  let raw f = Stat.median (List.map f untraced_prs) in
  let notes =
    [
      Printf.sprintf "batch-cold: %d projects x %d queries in %.2f s; %d untraced projects in %d windows"
        (List.length prs) n wall (List.length untraced) (List.length ws);
      Printf.sprintf
        "  unscaled medians: project wall %.2f ms, CPU %.2f ms; calibration unit wall %.3f ms, CPU %.3f ms"
        (raw (fun pr -> pr.latency_ms)) (raw (fun pr -> pr.cpu_ms))
        (raw (fun pr -> pr.calib.Calib.wall_ms)) (raw (fun pr -> pr.calib.Calib.cpu_ms));
    ]
  in
  let per_layer, layer_notes =
    if not trace then ([], [])
    else begin
      let traced = List.filter_map (fun (i, t, pr) -> if t then Some (i, pr) else None) runs in
      let tbl = Spans.self_by_req () in
      let reqs = List.map fst traced in
      (* per traced project, in ms *)
      let per_p name = List.map (fun ns -> ns /. 1e6) (Spans.per_req tbl name reqs) in
      let parse = per_p "lang.parse" in
      (* requests_of_file parses inside; its own share is the rest *)
      let elaborate = List.map2 (fun e p -> Float.max 0. (e -. p)) (per_p "manifest.elaborate") parse in
      let per_q xs = Stat.median xs /. float_of_int n in
      let stats = List.filter_map (fun pr -> pr.stats) prs in
      let total f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
      let per_query f = total f /. float_of_int verdicts in
      let decide kind =
        Stat.median (List.map (fun (_, pr) -> List.assoc kind pr.decide_ms /. float_of_int n) traced)
      in
      let probes = List.filter_map (fun (_, pr) -> pr.probe) traced in
      let traced_lat = List.map (fun (_, pr) -> pr.latency_ms) traced in
      let refuted = List.fold_left (fun a pr -> a + pr.refuted) 0 prs in
      let pairs = total (fun s -> s.Engine.antichain_pairs) in
      let prunes = total (fun s -> s.Engine.antichain_prunes) in
      let values =
        [
          ("lang.parse_ms", per_q parse);
          ("manifest.elaborate_ms", per_q elaborate);
          ("digest.query_us", Stat.median (List.concat_map fst probes));
          ("cache.find_us", Stat.median (List.concat_map snd probes));
          ( "cache.hit_ratio",
            total (fun s -> s.Engine.cache_hits) /. total (fun s -> s.Engine.jobs) );
          ("plan.derived_hits", per_query (fun s -> s.Engine.derived_hits));
          ("plan.fallbacks", per_query (fun s -> s.Engine.plan_fallbacks));
          ("par.utilization", Stat.median (List.map (fun s -> s.Engine.utilization) stats));
          ("par.domains", float_of_int (List.hd stats).Engine.domains);
          ("bmc.pairs_admitted", pairs /. float_of_int verdicts);
          ("bmc.pairs_pruned", prunes /. float_of_int verdicts);
          ("bmc.prune_ratio", if pairs +. prunes > 0. then prunes /. (pairs +. prunes) else 0.);
          ("tset.dfa_compiles", per_query (fun s -> s.Engine.dfa_compiles));
          ("tset.dfa_cache_hits", per_query (fun s -> s.Engine.dfa_cache_hits));
          ("tset.states_interned", per_query (fun s -> s.Engine.interned_states));
          ("verdict.refuted", float_of_int refuted /. float_of_int verdicts);
          ("gc.minor_words_per_query", minor /. float_of_int verdicts);
          ("gc.major_collections", float_of_int major);
          ("trace.overhead_ratio", Stat.median traced_lat /. Stat.median untraced);
        ]
        @ List.map (fun k -> ("core.decide_ms." ^ k, decide k)) kinds
      in
      (* Accounting of the traced project latency, per project. *)
      let lang = Stat.median parse and manifest = Stat.median elaborate
      and par = Stat.median (per_p "par.run_jobs") and own = Stat.median (per_p "project") in
      let core = List.fold_left (fun a k -> a +. decide k) 0. kinds *. float_of_int n in
      let util = List.assoc "par.utilization" values in
      let domains = List.assoc "par.domains" values in
      let notes =
        [
          Printf.sprintf
            "accounting (traced project, medians): latency %.2f ms = lang %.2f + manifest %.2f \
             + par.run_jobs %.2f + benchmark %.2f"
            (Stat.median traced_lat) lang manifest par own;
          Printf.sprintf
            "  par.run_jobs %.2f ms ~ sum core.decide %.2f ms / (%.0f domains x utilization %.2f) = %.2f ms"
            par core domains util (core /. (domains *. util));
        ]
      in
      (Out.complete values, notes)
    end
  in
  Spans.clear ();
  {
    Out.attempted = verdicts;
    failed;
    mismatched;
    setup_s = setups;
    end_to_end;
    per_layer;
    notes = notes @ layer_notes;
  }
