(* Exact work counters at one domain: product pairs the inclusion
   explorer admits, DFA compiles and memo hits, content-key fragments,
   planner derivations and fallbacks, reachable monitor states and
   automaton sizes.  These numbers do not depend on the machine, so a
   change that makes an algorithm do more or less work fails here on
   any host; a deliberate algorithmic change updates the pinned figure
   and says why.  Wall-clock performance is measured by perfbench/. *)

module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Plan = Posl_engine.Plan
module Manifest = Posl_engine.Manifest
module Metrics = Posl_telemetry.Metrics
module Regex = Posl_regex.Regex
module Eventset = Posl_sets.Eventset
module Nfa = Posl_automata.Nfa
module Dfa = Posl_automata.Dfa
module Ex = Posl_core.Examples_paper
open Posl_ident

let check_int = Util.check_int

(* Every ordered pair of distinct specs of the paper's cast. *)
let paper_pairs =
  List.concat_map
    (fun g' ->
      List.filter_map
        (fun g -> if g' == g then None else Some (g', g))
        Ex.all_specs)
    Ex.all_specs

let pairs_admitted f =
  let c = Metrics.counter "posl_bmc_antichain_pairs_total" in
  let before = Metrics.value c in
  f ();
  Metrics.value c - before

(* Clause 3 of Def. 2 for all 56 pairs on one fresh context. *)
let test_paper_corpus_pairs () =
  check_int "corpus size" 56 (List.length paper_pairs);
  let ctx = Tset.ctx Util.paper_universe in
  check_int "pairs admitted" 362
    (pairs_admitted (fun () ->
         List.iter
           (fun (g', g) ->
             ignore (Refine.verdict ~opts:(Refine.opts ~depth:6 ()) ctx g' g))
           paper_pairs))

(* The same 56 pairs as one engine batch (depth 4), cold and then warm
   on the same session: the warm pass is all verdict-cache hits and
   touches no automaton. *)
let test_paper_batch () =
  let batch =
    List.map
      (fun (g', g) ->
        Engine.request ~depth:4 ~universe:Util.paper_universe
          (Job.refine ~refined:g' ~abstract:g))
      paper_pairs
  in
  let session = Engine.session () in
  let _, cold = Engine.run_jobs ~domains:1 session batch in
  check_int "cold: computed" 56 cold.Engine.cache_misses;
  check_int "cold: pairs admitted" 362 cold.Engine.antichain_pairs;
  check_int "cold: pairs revisited" 1721 cold.Engine.antichain_prunes;
  check_int "cold: DFA compiles" 14 cold.Engine.dfa_compiles;
  check_int "cold: DFA memo hits" 18 cold.Engine.dfa_cache_hits;
  check_int "cold: states interned" 341 cold.Engine.interned_states;
  check_int "cold: key fragments" 8 cold.Engine.key_fragments;
  let _, warm = Engine.run_jobs ~domains:1 session batch in
  check_int "warm: cache hits" 56 warm.Engine.cache_hits;
  check_int "warm: pairs admitted" 0 warm.Engine.antichain_pairs;
  check_int "warm: DFA compiles" 0 warm.Engine.dfa_compiles;
  check_int "warm: DFA memo hits" 0 warm.Engine.dfa_cache_hits;
  check_int "warm: key fragments" 0 warm.Engine.key_fragments

let test_batch_manifest () =
  let requests =
    match
      Manifest.requests_of_file ~default_depth:6 ~extra_objects:2
        (Util.example_file "batch.manifest")
    with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "batch.manifest: %s" e
  in
  let _, s = Engine.run_batch ~domains:1 requests in
  check_int "jobs" 26 s.Engine.jobs;
  check_int "computed" 23 s.Engine.cache_misses;
  check_int "pairs admitted" 1026 s.Engine.antichain_pairs;
  check_int "pairs revisited" 5158 s.Engine.antichain_prunes;
  check_int "DFA compiles" 15 s.Engine.dfa_compiles;
  check_int "DFA memo hits" 18 s.Engine.dfa_cache_hits;
  check_int "states interned" 413 s.Engine.interned_states;
  check_int "key fragments" 12 s.Engine.key_fragments

(* The planner answers the composite corpus with strictly fewer
   product pairs than direct checking: 12 composites derived from
   component verdicts, 2 declined. *)
let test_composite_corpus () =
  let requests = Util.composite_corpus () in
  let _, off = Engine.run_batch ~domains:1 ~plan:Plan.Off requests in
  let _, auto = Engine.run_batch ~domains:1 ~plan:Plan.Auto requests in
  check_int "off: jobs" 16 off.Engine.jobs;
  check_int "off: derived" 0 off.Engine.derived_hits;
  check_int "off: pairs admitted" 448 off.Engine.antichain_pairs;
  check_int "auto: jobs (premises included)" 29 auto.Engine.jobs;
  check_int "auto: derived" 12 auto.Engine.derived_hits;
  check_int "auto: fallbacks" 2 auto.Engine.plan_fallbacks;
  check_int "auto: pairs admitted" 360 auto.Engine.antichain_pairs;
  Util.check_bool "planner explores fewer product pairs" true
    (auto.Engine.antichain_pairs < off.Engine.antichain_pairs)

(* Reachable states of RW's monitor by depth (EXPERIMENTS.md, P1). *)
let test_rw_reachable_states () =
  let alphabet = Spec.concrete_alphabet Util.paper_universe Ex.rw in
  List.iter
    (fun (depth, states) ->
      check_int
        (Printf.sprintf "depth %d" depth)
        states
        (Bmc.count_states Util.paper_ctx ~alphabet ~depth (Spec.tset Ex.rw)))
    [ (2, 26); (3, 76); (4, 121); (5, 202); (6, 247) ]

(* Write's prs-automaton through the pipeline regex → prefix-closed
   NFA → DFA → minimal DFA, over a growing environment (EXPERIMENTS.md,
   P2): the minimal DFA keeps one "who holds the lock" state per
   object. *)
let test_write_pipeline_states () =
  List.iter
    (fun (n_env, alphabet, nfa_states, dfa_states, min_states) ->
      let u =
        Universe.make
          ~objects:
            (Oid.v "o"
            :: List.init n_env (fun i -> Oid.v (Printf.sprintf "env%d" i)))
          ~methods:[ Mth.v "OW"; Mth.v "CW"; Mth.v "W" ]
          ~values:[ Value.v "d1" ]
      in
      let ground = Regex.expand u Ex.write_regex in
      let events =
        Array.of_list (Eventset.sample u (Regex.atom_union ground))
      in
      let nfa = Nfa.prefix_close (Regex.to_nfa ~events ground) in
      let dfa = Nfa.to_dfa nfa in
      let label what = Printf.sprintf "%d env objects: %s" n_env what in
      check_int (label "alphabet") alphabet (Array.length events);
      check_int (label "NFA states") nfa_states (Nfa.n_states nfa);
      check_int (label "DFA states") dfa_states (Dfa.n_states dfa);
      check_int (label "minimal states") min_states
        (Dfa.n_states (Dfa.minimize dfa)))
    [
      (1, 3, 14, 5, 3);
      (2, 6, 28, 8, 4);
      (4, 12, 56, 14, 6);
      (8, 24, 112, 26, 10);
    ]

let suite =
  [
    Alcotest.test_case "56-pair paper corpus: pairs admitted" `Quick
      test_paper_corpus_pairs;
    Alcotest.test_case "56-pair paper batch: cold and warm counters" `Quick
      test_paper_batch;
    Alcotest.test_case "batch.manifest counters" `Quick test_batch_manifest;
    Alcotest.test_case "composite corpus: planner vs direct counters" `Quick
      test_composite_corpus;
    Alcotest.test_case "RW reachable states by depth" `Quick
      test_rw_reachable_states;
    Alcotest.test_case "Write automaton sizes by environment" `Quick
      test_write_pipeline_states;
  ]
