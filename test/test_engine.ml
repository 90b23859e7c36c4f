(* The batch verification engine: cache soundness (cached verdict ≡
   freshly computed verdict), scheduling determinism across domain
   counts, digest separation of distinct queries, and the engine's
   stats accounting. *)

module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Dig = Posl_engine.Digest
module Spec = Posl_core.Spec
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper
module Oid = Posl_ident.Oid
module Mth = Posl_ident.Mth
module Oset = Posl_sets.Oset
module Mset = Posl_sets.Mset
module Eventset = Posl_sets.Eventset
module G = QCheck2.Gen
module V = Posl_verdict.Verdict

let u = Util.paper_universe
let depth = 4

let req ?depth:(d = depth) q = Engine.request ~depth:d ~universe:u q

(* A representative mixed batch over the paper's cast: every query
   kind, positive and negative verdicts. *)
let paper_batch () =
  [
    req (Job.Refine { refined = Ex.read2; abstract = Ex.read });
    req (Job.Refine { refined = Ex.read; abstract = Ex.read2 });
    req (Job.Refine { refined = Ex.write_acc; abstract = Ex.write });
    req (Job.Refine { refined = Ex.rw2; abstract = Ex.write_acc });
    req (Job.Refine { refined = Ex.client2; abstract = Ex.client });
    req (Job.Compose { left = Ex.client; right = Ex.write_acc });
    req (Job.Compose { left = Ex.read; right = Ex.write });
    req
      (Job.Proper
         { refined = Ex.rw2; abstract = Ex.write_acc; context = Ex.client });
    req (Job.Deadlock { left = Ex.client; right = Ex.write_acc });
    req (Job.Deadlock { left = Ex.client2; right = Ex.write_acc });
    req (Job.Equal { left = Ex.read; right = Ex.read });
    req (Job.Equal { left = Ex.write; right = Ex.write });
    req (Job.Equal { left = Ex.write; right = Ex.write_acc });
    req (Job.Refine { refined = Ex.read2; abstract = Ex.read });
    (* repeat: cache food *)
    req (Job.Equal { left = Ex.read; right = Ex.read });
  ]

let verdicts results = List.map (fun r -> r.Engine.verdict) results

(* Structural verdict-list equality: V.equal ignores the elapsed-time
   provenance, which legitimately differs between runs. *)
let verdicts_equal a b =
  List.length a = List.length b && List.for_all2 V.equal a b

(* --- cache behaviour ------------------------------------------------ *)

let test_cache_hit_on_repeat () =
  let session = Engine.session () in
  let q = req (Job.Refine { refined = Ex.read2; abstract = Ex.read }) in
  let results, stats = Engine.run_jobs ~domains:1 session [ q; q ] in
  Util.check_int "jobs" 2 stats.Engine.jobs;
  Util.check_int "misses" 1 stats.Engine.cache_misses;
  Util.check_int "hits" 1 stats.Engine.cache_hits;
  (match results with
  | [ a; b ] ->
      Util.check_bool "first computed" false a.Engine.cached;
      Util.check_bool "second cached" true b.Engine.cached;
      Util.check_bool "verdicts identical" true
        (V.equal a.Engine.verdict b.Engine.verdict)
  | _ -> Alcotest.fail "expected two results");
  (* A later batch on the same session is all hits. *)
  let _, stats2 = Engine.run_jobs ~domains:1 session [ q ] in
  Util.check_int "warm misses" 0 stats2.Engine.cache_misses;
  Util.check_int "warm hits" 1 stats2.Engine.cache_hits

let test_cached_equals_fresh_paper () =
  let session = Engine.session () in
  let batch = paper_batch () in
  let cold, _ = Engine.run_jobs ~domains:2 session batch in
  let warm, warm_stats = Engine.run_jobs ~domains:2 session batch in
  Util.check_int "warm batch recomputes nothing" 0
    warm_stats.Engine.cache_misses;
  Util.check_bool "cold ≡ warm verdicts" true
    (verdicts_equal (verdicts cold) (verdicts warm));
  (* And both equal a computation that never saw the cache. *)
  List.iter2
    (fun (r : Engine.result) (q : Engine.request) ->
      let fresh =
        Job.run (Tset.ctx q.Engine.universe) ~depth:q.Engine.depth
          q.Engine.query
      in
      Util.check_bool
        (Printf.sprintf "cached ≡ fresh (%s)" q.Engine.label)
        true
        (V.equal r.Engine.verdict fresh))
    warm batch

let test_stats_accounting () =
  let results, stats = Engine.run_batch ~domains:2 (paper_batch ()) in
  Util.check_int "jobs = batch size" (List.length results) stats.Engine.jobs;
  Util.check_int "hits + misses + uncacheable = jobs"
    stats.Engine.jobs
    (stats.Engine.cache_hits + stats.Engine.cache_misses
   + stats.Engine.uncacheable);
  Util.check_bool "busy time accumulated" true (stats.Engine.busy_ms > 0.)

(* --- determinism across domain counts ------------------------------- *)

let test_deterministic_across_domains () =
  (* a fresh session per domain count, so every count computes every
     verdict cold (one shared session would turn the 2- and 4-domain
     runs into verdict-cache hits and the comparison vacuous) *)
  let run domains =
    let results, stats =
      Engine.run_jobs ~domains (Engine.session ()) (paper_batch ())
    in
    Util.check_bool
      (Printf.sprintf "domains %d compiles its own automata" domains)
      true
      (stats.Engine.dfa_compiles > 0);
    verdicts results
  in
  let v1 = run 1 and v2 = run 2 and v4 = run 4 in
  Util.check_bool "domains 1 = 2" true (verdicts_equal v1 v2);
  Util.check_bool "domains 1 = 4" true (verdicts_equal v1 v4)

(* --- the shared compiled-automata cache ------------------------------ *)

let test_dfa_compiles_do_not_scale_with_domains () =
  let run domains =
    snd (Engine.run_batch ~domains (paper_batch ()))
  in
  let s1 = run 1 and s4 = run 4 in
  Util.check_bool "serial pass compiles automata" true
    (s1.Engine.dfa_compiles > 0);
  (* no per-domain compilation tax: 4 domains share one context per
     universe, so compiles stay at the distinct-regex count (plus the
     occasional benign duplicate), not 4× the serial count *)
  Util.check_bool "4-domain compiles ≪ 4× serial compiles" true
    (s4.Engine.dfa_compiles < 2 * s1.Engine.dfa_compiles);
  Util.check_bool "the shared context's memo is actually hit" true
    (s4.Engine.dfa_cache_hits > 0)

let test_dfa_cache_warm_across_batches () =
  (* one session, one domain, the paper batch in two halves: the
     second half compiles only what the first left uncompiled, so the
     halves' compiles sum exactly to the whole batch's on a fresh
     session — automata stay warm across run_jobs calls, and each
     call's counters cover exactly its own work *)
  let batch = paper_batch () in
  let first = List.filteri (fun i _ -> i < List.length batch / 2) batch
  and second = List.filteri (fun i _ -> i >= List.length batch / 2) batch in
  let session = Engine.session () in
  let s1 = snd (Engine.run_jobs ~domains:1 session first) in
  let s2 = snd (Engine.run_jobs ~domains:1 session second) in
  let whole = snd (Engine.run_jobs ~domains:1 (Engine.session ()) batch) in
  Util.check_bool "first half compiles automata" true
    (s1.Engine.dfa_compiles > 0);
  Util.check_int "compiles(first) + compiles(second) = compiles(whole)"
    whole.Engine.dfa_compiles
    (s1.Engine.dfa_compiles + s2.Engine.dfa_compiles)

(* --- uncacheable (opaque) queries ----------------------------------- *)

let pointwise_spec =
  let o = Oid.v "o" in
  Spec.v ~name:"Tiny" ~objs:[ o ]
    ~alpha:
      (Eventset.calls
         ~callers:(Oset.cofin_of_list [ o ])
         ~callees:(Oset.singleton o)
         (Mset.singleton (Mth.v "R")))
    (Tset.pointwise "len<=2" (fun h -> Posl_trace.Trace.length h <= 2))

let test_opaque_uncacheable () =
  Alcotest.(check (option string))
    "no digest" None
    (Dig.query ~universe:u ~depth
       (Job.Equal { left = pointwise_spec; right = pointwise_spec }));
  let q = req (Job.Equal { left = pointwise_spec; right = pointwise_spec }) in
  let results, stats = Engine.run_batch ~domains:1 [ q; q ] in
  Util.check_int "both uncacheable" 2 stats.Engine.uncacheable;
  Util.check_int "no cache traffic" 0
    (stats.Engine.cache_hits + stats.Engine.cache_misses);
  Util.check_bool "still answered, identically" true
    (match verdicts results with
    | [ a; b ] -> V.equal a b
    | _ -> false)

(* --- digests --------------------------------------------------------- *)

let test_digest_separates_paper_specs () =
  let keys =
    List.map
      (fun s ->
        match Dig.spec_key ~universe:u s with
        | Some k -> k
        | None -> Alcotest.fail ("opaque key for " ^ Spec.name s))
      Ex.all_specs
  in
  Util.check_int "all paper specs have distinct keys"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_digest_separates_kinds_and_depth () =
  let qs =
    [
      Job.Refine { refined = Ex.write_acc; abstract = Ex.write };
      Job.Compose { left = Ex.write_acc; right = Ex.write };
      Job.Deadlock { left = Ex.write_acc; right = Ex.write };
      Job.Equal { left = Ex.write_acc; right = Ex.write };
      Job.Proper
        { refined = Ex.write_acc; abstract = Ex.write; context = Ex.client };
    ]
  in
  let digs =
    List.map
      (fun q ->
        match Dig.query ~universe:u ~depth q with
        | Some d -> d
        | None -> Alcotest.fail "unexpectedly opaque")
      qs
  in
  Util.check_int "kinds separated" (List.length digs)
    (List.length (List.sort_uniq compare digs));
  let q = Job.Refine { refined = Ex.read2; abstract = Ex.read } in
  Util.check_bool "depth separated" true
    (Dig.query ~universe:u ~depth:4 q <> Dig.query ~universe:u ~depth:6 q)

(* --- randomized properties ------------------------------------------ *)

let sc = Gen.default_scenario
let k0 = Oid.v "k0"

let qsuite =
  [
    (* (a) cached verdict ≡ freshly computed verdict on random pairs *)
    Util.qtest ~count:25 "engine: cached ≡ fresh on random spec pairs"
      (G.pair (Gen.interface_spec sc k0) (Gen.interface_spec sc k0))
      (fun (a, b) ->
        let q = Job.Refine { refined = a; abstract = b } in
        let r = Engine.of_specs ~depth:3 q in
        let session = Engine.session () in
        let first, _ = Engine.run_jobs ~domains:1 session [ r ] in
        let second, stats = Engine.run_jobs ~domains:1 session [ r ] in
        let fresh =
          Job.run (Tset.ctx r.Engine.universe) ~depth:3 q
        in
        stats.Engine.cache_hits = 1
        && verdicts_equal (verdicts first) (verdicts second)
        && verdicts_equal (verdicts second) [ fresh ]);
    (* (c) digest collisions do not conflate distinct queries *)
    Util.qtest ~count:60 "digest: equal keys ⟹ semantically equal specs"
      (G.pair (Gen.interface_spec sc k0) (Gen.interface_spec sc k0))
      (fun (a, b) ->
        let ka = Dig.spec_key ~universe:sc.Gen.universe a
        and kb = Dig.spec_key ~universe:sc.Gen.universe b in
        match (ka, kb) with
        | Some ka, Some kb when ka = kb ->
            (* identical content addresses must mean identical
               specifications (names included by construction) *)
            Spec.name a = Spec.name b
            && Theory.is_pass
                 (Theory.spec_equal
                    (Tset.ctx sc.Gen.universe)
                    ~depth:3 a b)
        | _ -> true);
    Util.qtest ~count:60 "digest: distinct bodies ⟹ distinct digests"
      (G.pair (Gen.interface_spec sc k0) (Gen.interface_spec sc k0))
      (fun (a, b) ->
        let q1 = Job.Refine { refined = a; abstract = b }
        and q2 = Job.Refine { refined = b; abstract = a } in
        let d1 = Dig.query ~universe:sc.Gen.universe ~depth:3 q1
        and d2 = Dig.query ~universe:sc.Gen.universe ~depth:3 q2 in
        (* asymmetric queries over an unequal pair must key apart *)
        match (d1, d2) with
        | Some d1, Some d2 ->
            d1 = d2
            = (Dig.spec_key ~universe:sc.Gen.universe a
               = Dig.spec_key ~universe:sc.Gen.universe b)
        | _ -> true);
  ]

let suite =
  [
    Alcotest.test_case "cache hit on repeated query" `Quick
      test_cache_hit_on_repeat;
    Alcotest.test_case "cached ≡ fresh on the paper batch" `Slow
      test_cached_equals_fresh_paper;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "deterministic across domain counts" `Slow
      test_deterministic_across_domains;
    Alcotest.test_case "DFA compiles don't scale with domains" `Slow
      test_dfa_compiles_do_not_scale_with_domains;
    Alcotest.test_case "DFA cache stays warm across batches" `Quick
      test_dfa_cache_warm_across_batches;
    Alcotest.test_case "opaque trace sets are uncacheable" `Quick
      test_opaque_uncacheable;
    Alcotest.test_case "digest separates the paper specs" `Quick
      test_digest_separates_paper_specs;
    Alcotest.test_case "digest separates kinds and depths" `Quick
      test_digest_separates_kinds_and_depth;
  ]
  @ qsuite
