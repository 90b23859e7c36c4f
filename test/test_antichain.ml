(* Differential tests for the on-the-fly antichain inclusion route:
   agreement with the compiled-automata route and the brute-force
   depth-cut oracle ({!Util.depth_cut_oracle}), on the paper corpus
   (bit-for-bit verdicts, witnesses included) and on random
   specifications with alphabet expansion; trace-set equality against
   the compiled-DFA oracle ({!Util.equal_oracle}); and the interning
   layer's transparency (interned ids never change the reference
   semantics' answers). *)

open Posl_ident
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace
module Verdict = Posl_verdict.Verdict
module Ex = Posl_core.Examples_paper
module Theory = Posl_core.Theory
module Job = Posl_engine.Job
module Metrics = Posl_telemetry.Metrics
module G = QCheck2.Gen
module Gen = Posl_gen.Gen

let ctx = Util.paper_ctx
let depth = 6

(* Every ordered pair over the paper cast — the 56-pair corpus the
   performance campaigns measure. *)
let corpus =
  List.concat_map
    (fun g' ->
      List.filter_map
        (fun g -> if g' == g then None else Some (g', g))
        Ex.all_specs)
    Ex.all_specs

(* The pre-antichain Auto route took the compiled-automata route on
   every corpus pair (all of them compile), so the exact oracle is
   [Automata_only]. *)
let test_corpus_verdicts_agree () =
  Util.check_int "corpus size" 56 (List.length corpus);
  List.iter
    (fun (g', g) ->
      let new_route =
        Refine.verdict ~opts:(Refine.opts ~depth ()) ctx g' g
      in
      let old_route =
        Refine.verdict
          ~opts:(Refine.opts ~strategy:Refine.Automata_only ~depth ())
          ctx g' g
      in
      if not (Verdict.equal new_route old_route) then
        Alcotest.failf "%s ⊑ %s: antichain %s vs legacy %s" (Spec.name g')
          (Spec.name g)
          (Verdict.to_string new_route)
          (Verdict.to_string old_route))
    corpus

(* At the Bmc level with [~complete:false], the explorer answers the
   question the brute-force oracle answers: same depth cut, same
   canonical lex-least witnesses.  The oracle enumerates every lhs
   trace, so the cut is kept at 4 (RW alone has ~90k traces of length
   6). *)
let test_bmc_differential () =
  let depth = 4 in
  List.iter
    (fun (g', g) ->
      let alphabet = Spec.concrete_alphabet Util.paper_universe g' in
      let lhs = Spec.tset g'
      and proj = Spec.alpha g
      and rhs = Spec.tset g in
      let oracle =
        Util.depth_cut_oracle ctx ~alphabet ~depth ~lhs ~proj ~rhs
      in
      let anti =
        Bmc.check_inclusion ~complete:false ctx ~alphabet ~depth ~lhs ~proj
          ~rhs
      in
      match (oracle, anti) with
      | Some h1, Bmc.Refuted h2 ->
          if not (Trace.equal h1 h2) then
            Alcotest.failf "%s ⊑ %s: witnesses differ: %a vs %a" (Spec.name g')
              (Spec.name g) Trace.pp h1 Trace.pp h2
      | None, Bmc.Holds _ -> ()
      | Some h, Bmc.Holds _ ->
          Alcotest.failf "%s ⊑ %s: antichain missed refutation %a"
            (Spec.name g') (Spec.name g) Trace.pp h
      | None, Bmc.Refuted h ->
          Alcotest.failf "%s ⊑ %s: antichain over-refuted with %a"
            (Spec.name g') (Spec.name g) Trace.pp h)
    corpus

(* Trace-set equality runs on the same explorer as clause 3 (mutual
   inclusion, no projection).  On every ordered pair of the paper cast,
   self-pairs included, it must give the compiled-DFA oracle's answer:
   status, [Exact] confidence when equal, and the same side and
   canonical witness when not. *)
let test_equal_differential () =
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) Ex.all_specs) Ex.all_specs
  in
  Util.check_int "pairs" 64 (List.length pairs);
  List.iter
    (fun (a, b) ->
      let alphabet =
        Array.of_list
          (Posl_sets.Eventset.sample Util.paper_universe
             (Posl_sets.Eventset.union (Spec.alpha a) (Spec.alpha b)))
      in
      let v = Theory.tset_equal ctx ~depth a b in
      let name = Spec.name a ^ " = " ^ Spec.name b in
      match
        (Util.equal_oracle ctx ~alphabet (Spec.tset a) (Spec.tset b), v)
      with
      | None, _ -> Alcotest.failf "%s: the oracle did not compile" name
      | Some (Ok ()), { Verdict.status = Holds; confidence = Some Exact; _ } ->
          ()
      | ( Some (Error (h, side)),
          {
            Verdict.status = Refuted;
            evidence = [ Verdict.Equality_witness w ];
            _;
          } ) ->
          if not (Trace.equal h w.trace && side = w.side) then
            Alcotest.failf "%s: witness %a vs oracle %a" name Trace.pp w.trace
              Trace.pp h
      | Some _, v ->
          Alcotest.failf "%s: oracle disagrees with %s" name
            (Verdict.to_string v))
    pairs

(* The engine's [equal] jobs take the explorer, not a compiled route:
   T(RW) = T(RW) is an exact automata-theoretic decision that admits
   product pairs. *)
let test_equal_job_route () =
  let pairs () =
    Metrics.value (Metrics.counter "posl_bmc_antichain_pairs_total")
  in
  let before = pairs () in
  let v =
    Job.run (Tset.ctx Util.paper_universe) ~depth
      (Job.equal ~left:Ex.rw ~right:Ex.rw)
  in
  Util.check_bool "holds" true (Verdict.is_holds v);
  Util.check_bool "exact" true (v.Verdict.confidence = Some Verdict.Exact);
  Util.check_bool "automata" true
    (v.Verdict.provenance.procedure = Some Verdict.Automata);
  Util.check_bool "explorer admitted pairs" true (pairs () > before)

(* Equality's exactness is bounded by the explorer's pair budget over
   the (lhs, rhs) product, not by whether each monitor compiles.  Past
   the depth, a product over the budget gives up: an equality the
   compiled oracle decides exactly (T(RW) = T(RW)) comes out
   [Bounded depth], and a refutation whose shortest witness lies past
   the depth (T(Client) ⊄ T(Client2), three events) is not found.  The
   default budget decides both. *)
let test_equal_pair_budget () =
  let included ?budget ~depth a b =
    let alphabet =
      Array.of_list
        (Posl_sets.Eventset.sample Util.paper_universe
           (Posl_sets.Eventset.union (Spec.alpha a) (Spec.alpha b)))
    in
    ( alphabet,
      Bmc.check_inclusion ?budget ctx ~alphabet ~depth ~lhs:(Spec.tset a)
        ~proj:Posl_sets.Eventset.full ~rhs:(Spec.tset b) )
  in
  let alphabet, v = included ~budget:1 ~depth:2 Ex.rw Ex.rw in
  Util.check_bool "RW oracle exact" true
    (Util.equal_oracle ctx ~alphabet (Spec.tset Ex.rw) (Spec.tset Ex.rw)
    = Some (Ok ()));
  Util.check_bool "RW over budget: bounded" true (v = Bmc.Holds (Bounded 2));
  Util.check_bool "RW default budget: exact" true
    (snd (included ~depth:2 Ex.rw Ex.rw) = Bmc.Holds Exact);
  let alphabet, v = included ~budget:1 ~depth:2 Ex.client Ex.client2 in
  let witness =
    match
      Util.equal_oracle ctx ~alphabet (Spec.tset Ex.client)
        (Spec.tset Ex.client2)
    with
    | Some (Error (h, `Left_only)) -> h
    | _ -> Alcotest.fail "oracle: expected a Client-only witness"
  in
  Util.check_int "witness past the depth" 3 (Trace.length witness);
  Util.check_bool "Client over budget: bounded" true
    (v = Bmc.Holds (Bounded 2));
  match snd (included ~depth:2 Ex.client Ex.client2) with
  | Bmc.Refuted h ->
      Util.check_bool "default budget: oracle's witness" true
        (Trace.equal h witness)
  | _ -> Alcotest.fail "default budget: expected a refutation"

(* Random specifications, with the refined side's alphabet expanded by
   construction (the situation Def. 2 clause 3's projection exists
   for). *)
let sc = Util.sc
let gctx = Util.ctx

let gen_pair =
  let open G in
  let* g = Gen.spec sc [ Oid.v "k0" ] in
  let* g' = Gen.refinement_of sc g in
  pure (g', g)

(* The route may settle past the depth bound (it explores to
   exhaustion), so it can refute a pair the oracle accepts up to the
   cut — but the two may never contradict each other within the
   oracle's claim: an oracle witness is the route's witness, and a
   holding route means no oracle witness.  Clause 1–2 failures are
   symbolic and outside the oracle's question. *)
let qsuite =
  [
    Util.qtest ~count:60 "antichain vs bounded route agreement" gen_pair
      (fun (g', g) ->
        let depth = 4 in
        let v = Refine.verdict ~opts:(Refine.opts ~depth ()) gctx g' g in
        match v.Verdict.provenance.procedure with
        | Some Verdict.Symbolic -> Verdict.is_refuted v
        | _ -> (
            let alphabet = Spec.concrete_alphabet sc.Gen.universe g' in
            match
              Util.depth_cut_oracle gctx ~alphabet ~depth ~lhs:(Spec.tset g')
                ~proj:(Spec.alpha g) ~rhs:(Spec.tset g)
            with
            | Some h ->
                Verdict.is_refuted v
                && List.equal Trace.equal (Verdict.witness_traces v) [ h ]
            | None -> true));
    Util.qtest ~count:60 "interning preserves the reference semantics"
      (let open G in
       let* g = Gen.spec sc [ Oid.v "k0" ] in
       let* len = G.int_range 0 4 in
       let* picks = G.list_size (G.pure len) (G.int_bound 1000) in
       pure (g, picks))
      (fun (g, picks) ->
        let t = Spec.tset g in
        let alphabet =
          Array.of_list
            (Posl_sets.Eventset.sample sc.Posl_gen.Gen.universe (Spec.alpha g))
        in
        if Array.length alphabet = 0 then true
        else
          let events =
            List.map (fun i -> alphabet.(i mod Array.length alphabet)) picks
          in
          let h = Trace.of_list events in
          (* Walk the monitor through the successor rows of one fresh
             context twice: over the spec's alphabet, then over that
             alphabet reversed followed by the rest of the universe
             sample.  The second handle sees the same events at other
             positions and, having more events, widens the rows the
             first filled.  Interning is canonical, so both walks must
             visit the same ids — any mix-up of alphabet positions and
             context event ids shows — and answer as the reference
             semantics. *)
          let ctx = Tset.ctx sc.Posl_gen.Gen.universe in
          let walk alpha =
            let rows = Tset.rows ctx t alpha in
            let pos e =
              let rec find i =
                if Posl_trace.Event.equal alpha.(i) e then i else find (i + 1)
              in
              find 0
            in
            (* Each visited row is filled whole, as a search would;
               the walk returns the ids it visits, [-1] once dead. *)
            let rec go id = function
              | [] -> []
              | e :: rest ->
                  let r = Tset.row rows id in
                  Array.iteri (fun s _ -> ignore (Tset.succ rows r s)) alpha;
                  let id' = Tset.succ rows r (pos e) in
                  id' :: (if id' < 0 then [] else go id' rest)
            in
            match Tset.initial rows with
            | None -> [ -1 ]
            | Some id0 -> id0 :: go id0 events
          in
          let others =
            List.filter
              (fun e -> not (Array.exists (Posl_trace.Event.equal e) alphabet))
              (Posl_sets.Eventset.sample sc.Posl_gen.Gen.universe
                 Posl_sets.Eventset.full)
          in
          let ids = walk alphabet in
          ids
          = walk
              (Array.append
                 (Array.of_list (List.rev (Array.to_list alphabet)))
                 (Array.of_list others))
          && (not (List.mem (-1) ids)) = Tset.mem_naive ctx t h);
  ]

let suite =
  [
    Alcotest.test_case "56-pair corpus: antichain Auto ≡ legacy Auto" `Quick
      test_corpus_verdicts_agree;
    Alcotest.test_case "Bmc differential: antichain ≡ bounded at the cut"
      `Quick test_bmc_differential;
    Alcotest.test_case "equality ≡ compiled-DFA oracle on all 64 pairs"
      `Quick test_equal_differential;
    Alcotest.test_case "equal jobs run on the explorer" `Quick
      test_equal_job_route;
    Alcotest.test_case "equality exactness is bounded by the pair budget"
      `Quick test_equal_pair_budget;
  ]
  @ qsuite
