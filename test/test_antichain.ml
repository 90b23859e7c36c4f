(* Differential tests for the on-the-fly antichain inclusion route:
   agreement with the compiled-automata route and the brute-force
   depth-cut oracle ({!Util.depth_cut_oracle}), on the paper corpus
   (bit-for-bit verdicts, witnesses included) and on random
   specifications with alphabet expansion; and the interning layer's
   transparency (interned ids never change the reference semantics'
   answers). *)

open Posl_ident
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace
module Verdict = Posl_verdict.Verdict
module Ex = Posl_core.Examples_paper
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
          (* Walk the monitor, round-tripping every state through the
             interning tables; the walk's answer must match the
             reference semantics, and the round-trip must be the
             identity up to [compare_state]. *)
          let rec walk st = function
            | [] -> true
            | e :: rest -> (
                let id = Tset.intern_state gctx st in
                let st' = Tset.state_of_id gctx id in
                if Tset.compare_state st st' <> 0 then false
                else
                  match Tset.step gctx t st' e with
                  | None -> false
                  | Some nxt -> walk nxt rest)
          in
          let stepped =
            match Tset.start gctx t with
            | None -> false
            | Some st0 -> walk st0 events
          in
          stepped = Tset.mem_naive gctx t h);
  ]

let suite =
  [
    Alcotest.test_case "56-pair corpus: antichain Auto ≡ legacy Auto" `Quick
      test_corpus_verdicts_agree;
    Alcotest.test_case "Bmc differential: antichain ≡ bounded at the cut"
      `Quick test_bmc_differential;
  ]
  @ qsuite
