(** The paper's propositions as executable checkers.

    The authors verified these properties in PVS; this module is the
    reproduction's substitute.  Each proposition becomes a function on a
    concrete instance that checks the premises and then the conclusion,
    so the universally quantified statements can be exercised both on
    the paper's own examples and on large random instance families
    (see the test suite and the benchmark harness).

    Outcomes are structured verdicts ({!Posl_verdict.Verdict.t}): a
    proposition holds (with the confidence of the underlying trace
    checks), is vacuous (the instance does not satisfy the premises —
    the proposition says nothing about it), or is refuted with typed
    evidence. *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Bmc = Posl_bmc.Bmc
module Verdict = Posl_verdict.Verdict

type outcome = Verdict.t

let pp_outcome = Verdict.pp
let is_pass = Verdict.is_holds
let is_fail = Verdict.is_refuted
let is_vacuous = Verdict.is_vacuous
let both = Verdict.both
let all = Verdict.all

(* Symbolic clauses are exact by construction. *)
let pass c = Verdict.holds ~confidence:c ()

let symbolic v =
  Verdict.with_context ~procedure:Verdict.Symbolic v

let vacuousf fmt = Format.kasprintf Verdict.vacuous fmt

(** {1 The filter law}

    h/S₁\S₂ = h\S₂/(S₁−S₂) — the identity the proof of Theorem 7 leans
    on ("since h/S₁\S₂ = h\S₂/(S₁−S₂) for any sequence h and sets S₁ and
    S₂").  Checked pointwise on traces. *)
let filter_law s1 s2 h =
  let lhs = Eventset.delete_trace s2 (Eventset.restrict_trace s1 h) in
  let rhs =
    Eventset.restrict_trace (Eventset.diff s1 s2) (Eventset.delete_trace s2 h)
  in
  Trace.equal lhs rhs

(** {1 Specification equality} *)

(** Equality of the {e trace sets} alone, over the sampled union of the
    two alphabets.  Example 6 of the paper equates
    T(RW2‖Client) = T(WriteAcc‖Client) although the composed alphabets
    differ — the extra events of the refined constituent never occur. *)
let tset_equal ctx ~depth (a : Spec.t) (b : Spec.t) : outcome =
  Posl_telemetry.Telemetry.with_span "theory.tset-equal"
    ~attrs:[ ("depth", string_of_int depth) ]
  @@ fun () ->
  let u = Tset.universe ctx in
  let alphabet =
    Array.of_list
      (Eventset.sample u (Eventset.union (Spec.alpha a) (Spec.alpha b)))
  in
  (* Both decision routes funnel their counterexamples through here:
     the witness must be a trace of exactly one side under the
     reference semantics before it may be reported. *)
  let fail h side =
    let inside, outside =
      match side with
      | `Left_only -> (Spec.tset a, Spec.tset b)
      | `Right_only -> (Spec.tset b, Spec.tset a)
    in
    Posl_telemetry.Telemetry.with_span "verdict.certify"
      ~attrs:[ ("kind", "equality") ]
      (fun () ->
        if not (Tset.mem_naive ctx inside h) || Tset.mem_naive ctx outside h
        then
          Verdict.uncertified
            "equality counterexample %a is not one-sided under the reference \
             semantics"
            Trace.pp h);
    Verdict.refuted
      [
        Verdict.Equality_witness
          { trace = h; side; left = Spec.name a; right = Spec.name b };
      ]
  in
  let automata () =
    try
      match
        ( Tset.compile ctx alphabet (Spec.tset a),
          Tset.compile ctx alphabet (Spec.tset b) )
      with
      | Some da, Some db ->
          let word_trace w =
            Trace.of_list (List.map (fun s -> alphabet.(s)) w)
          in
          (match Posl_automata.Dfa.included da db with
          | Error w -> Some (fail (word_trace w) `Left_only)
          | Ok () -> (
              match Posl_automata.Dfa.included db da with
              | Error w -> Some (fail (word_trace w) `Right_only)
              | Ok () -> Some (pass Exact)))
      | _, _ -> None
    with Tset.Closure_overflow _ -> None
  in
  match automata () with
  | Some outcome -> Verdict.with_context ~procedure:Verdict.Automata outcome
  | None ->
      Verdict.with_context ~procedure:Verdict.Bounded_search ~depth
        (match
           Bmc.check_equal ctx ~alphabet ~depth ~left:(Spec.tset a)
             ~right:(Spec.tset b)
         with
        | Bmc.Holds c -> pass c
        | Bmc.Refuted (h, side) -> fail h side)

(** Semantic equality of specifications: equal object sets, equal
    alphabets (exact, symbolic) and equal trace sets. *)
let spec_equal ctx ~depth (a : Spec.t) (b : Spec.t) : outcome =
  if not (Oid.Set.equal (Spec.objs a) (Spec.objs b)) then
    symbolic
      (Verdict.refuted ~confidence:Exact
         [
           Verdict.Objects_differ
             {
               left_only = Oid.Set.diff (Spec.objs a) (Spec.objs b);
               right_only = Oid.Set.diff (Spec.objs b) (Spec.objs a);
             };
         ])
  else if not (Eventset.equal (Spec.alpha a) (Spec.alpha b)) then
    symbolic
      (Verdict.refuted ~confidence:Exact
         [
           Verdict.Alphabets_differ
             {
               left_only =
                 Eventset.normalise
                   (Eventset.diff (Spec.alpha a) (Spec.alpha b));
               right_only =
                 Eventset.normalise
                   (Eventset.diff (Spec.alpha b) (Spec.alpha a));
             };
         ])
  else tset_equal ctx ~depth a b

let refine_outcome ctx ~depth gamma' gamma : outcome =
  Refine.verdict ~opts:(Refine.opts ~depth ()) ctx gamma' gamma

(* Premise checks ask the same question as {!refine_outcome} but only
   need the boolean. *)
let refines ctx ~depth gamma' gamma =
  Refine.refines ~opts:(Refine.opts ~depth ()) ctx gamma' gamma

(** {1 Property 5} — Γ‖Γ = Γ for an interface specification Γ.  This is
    where object identity departs from process algebra: composing a
    specification with itself adds nothing, because I(o,o) is
    unobservable. *)
let property5 ctx ~depth (gamma : Spec.t) : outcome =
  if not (Spec.is_interface gamma) then
    Verdict.vacuous "Property 5 concerns interface specifications"
  else spec_equal ctx ~depth (Compose.interface gamma gamma) gamma

(** {1 Lemma 6} — for interface specifications Γ₁, Γ₂ of the same
    object, Γ₁‖Γ₂ is the weakest common refinement. *)

let lemma6_premise g1 g2 =
  if not (Spec.is_interface g1 && Spec.is_interface g2) then
    Some "Lemma 6 concerns interface specifications"
  else if not (Oid.Set.equal (Spec.objs g1) (Spec.objs g2)) then
    Some "Lemma 6 requires specifications of the same object"
  else None

(* Part 1: Γ₁‖Γ₂ ⊑ Γ₁ and Γ₁‖Γ₂ ⊑ Γ₂. *)
let lemma6_refines ctx ~depth g1 g2 : outcome =
  match lemma6_premise g1 g2 with
  | Some why -> Verdict.vacuous why
  | None ->
      let comp = Compose.interface g1 g2 in
      all
        [
          refine_outcome ctx ~depth comp g1;
          refine_outcome ctx ~depth comp g2;
        ]

(* Part 2: any ∆ refining both Γ₁ and Γ₂ refines Γ₁‖Γ₂. *)
let lemma6_weakest ctx ~depth ~delta g1 g2 : outcome =
  match lemma6_premise g1 g2 with
  | Some why -> Verdict.vacuous why
  | None ->
      if not (refines ctx ~depth delta g1 && refines ctx ~depth delta g2) then
        Verdict.vacuous "∆ does not refine both Γ₁ and Γ₂"
      else refine_outcome ctx ~depth delta (Compose.interface g1 g2)

(** {1 Theorem 7} — compositional refinement for interface
    specifications: Γ′ ⊑ Γ ⟹ Γ′‖∆ ⊑ Γ‖∆. *)
let theorem7 ctx ~depth ~gamma' ~gamma ~delta : outcome =
  if
    not
      (Spec.is_interface gamma' && Spec.is_interface gamma
     && Spec.is_interface delta)
  then Verdict.vacuous "Theorem 7 concerns interface specifications"
  else if not (Oid.Set.equal (Spec.objs gamma') (Spec.objs gamma)) then
    Verdict.vacuous "Theorem 7 keeps the object set unchanged"
  else if not (refines ctx ~depth gamma' gamma) then
    Verdict.vacuous "premise Γ′ ⊑ Γ does not hold"
  else
    refine_outcome ctx ~depth
      (Compose.interface gamma' delta)
      (Compose.interface gamma delta)

(** {1 Lemma 13} — composition preserves soundness: sound specifications
    Γ, ∆ of a component C compose to a sound specification of C. *)
let lemma13 ctx ~depth (c : Component.t) (gamma : Spec.t) (delta : Spec.t) :
    outcome =
  let sound spec =
    match Component.sound ctx ~depth spec c with
    | Bmc.Holds _ -> true
    | Bmc.Refuted _ -> false
  in
  match Compose.compose gamma delta with
  | Error _ -> Verdict.vacuous "Γ and ∆ are not composable"
  | Ok comp ->
      if not (sound gamma && sound delta) then
        Verdict.vacuous "premise: Γ and ∆ must both be sound for C"
      else
        Verdict.with_context ~depth
          (match Component.sound ctx ~depth comp c with
          | Bmc.Holds conf -> pass conf
          | Bmc.Refuted h ->
              Verdict.refuted
                [
                  Verdict.Trace_escape
                    {
                      trace = h;
                      projected =
                        Eventset.restrict_trace (Spec.alpha comp) h;
                    };
                ])

(** {1 Lemma 15} — under composability and properness, refinement does
    not disturb the visible alphabet:
    (α(Γ) ∪ α(∆)) ∩ I(O(Γ′‖∆)) = (α(Γ) ∪ α(∆)) ∩ I(O(Γ‖∆)).
    Purely symbolic, hence always exact. *)
let lemma15 ~gamma' ~gamma ~delta : outcome =
  if not (Compose.composable gamma' delta) then
    Verdict.vacuous "Γ′ and ∆ are not composable"
  else if not (Compose.proper ~refined:gamma' ~abstract:gamma ~context:delta)
  then Verdict.vacuous "Γ′ is not a proper refinement of Γ w.r.t. ∆"
  else if
    not
      (Oid.Set.subset (Spec.objs gamma) (Spec.objs gamma')
      && Eventset.subset (Spec.alpha gamma) (Spec.alpha gamma'))
  then Verdict.vacuous "premise Γ′ ⊑ Γ does not hold on objects/alphabet"
  else
    let union_alpha = Eventset.union (Spec.alpha gamma) (Spec.alpha delta) in
    let i_refined =
      Internal.of_set (Oid.Set.union (Spec.objs gamma') (Spec.objs delta))
    in
    let i_abstract =
      Internal.of_set (Oid.Set.union (Spec.objs gamma) (Spec.objs delta))
    in
    let visible_refined = Eventset.inter union_alpha i_refined in
    let visible_abstract = Eventset.inter union_alpha i_abstract in
    if Eventset.equal visible_refined visible_abstract then
      symbolic (pass Exact)
    else
      symbolic
        (Verdict.refuted ~confidence:Exact
           [
             Verdict.Alphabets_differ
               {
                 left_only =
                   Eventset.normalise
                     (Eventset.diff visible_refined visible_abstract);
                 right_only =
                   Eventset.normalise
                     (Eventset.diff visible_abstract visible_refined);
               };
           ])

(** {1 Theorem 16} — compositional refinement for component
    specifications: if Γ′ is a proper refinement of Γ w.r.t. ∆ and Γ′, ∆
    are composable, then Γ′‖∆ ⊑ Γ‖∆. *)
let theorem16 ctx ~depth ~gamma' ~gamma ~delta : outcome =
  match Compose.check_composable gamma' delta with
  | Error f ->
      vacuousf "Γ′ and ∆ are not composable (%a)"
        Compose.pp_composability_failure f
  | Ok () ->
      if not (Compose.proper ~refined:gamma' ~abstract:gamma ~context:delta)
      then Verdict.vacuous "Γ′ is not a proper refinement of Γ w.r.t. ∆"
      else if not (refines ctx ~depth gamma' gamma) then
        Verdict.vacuous "premise Γ′ ⊑ Γ does not hold"
      else (
        match Compose.compose gamma delta with
        | Error f ->
            (* Cannot happen when Γ′ ⊑ Γ and Γ′, ∆ composable (see the
               proof of Lemma 15); surface it rather than masking. *)
            symbolic
              (Verdict.refuted ~confidence:Exact
                 [ Compose.evidence_of_failure f ])
        | Ok abstract_comp ->
            let refined_comp = Compose.compose_exn gamma' delta in
            refine_outcome ctx ~depth refined_comp abstract_comp)

(** {1 Property 17} — refinement without new objects preserves
    composability.  Note: this holds when the refinement's alphabet
    growth respects well-formedness (Def. 1) and the object sets of Γ
    and ∆ are disjoint; our specifications enforce Def. 1 at
    construction. *)
let property17 ~gamma' ~gamma ~delta : outcome =
  if not (Oid.Set.equal (Spec.objs gamma') (Spec.objs gamma)) then
    Verdict.vacuous "Property 17 requires O(Γ′) = O(Γ)"
  else if
    not
      (Oid.Set.subset (Spec.objs gamma) (Spec.objs gamma')
      && Eventset.subset (Spec.alpha gamma) (Spec.alpha gamma'))
  then Verdict.vacuous "premise Γ′ ⊑ Γ does not hold on objects/alphabet"
  else if not (Compose.composable gamma delta) then
    Verdict.vacuous "Γ and ∆ are not composable"
  else
    match Compose.check_composable gamma' delta with
    | Ok () -> symbolic (pass Exact)
    | Error f ->
        symbolic
          (Verdict.refuted ~confidence:Exact
             [ Compose.evidence_of_failure f ])

(** {1 Theorem 18} — compositional refinement without new objects:
    Γ′ ⊑ Γ ∧ O(Γ′) = O(Γ) ⟹ Γ′‖∆ ⊑ Γ‖∆. *)
let theorem18 ctx ~depth ~gamma' ~gamma ~delta : outcome =
  if not (Oid.Set.equal (Spec.objs gamma') (Spec.objs gamma)) then
    Verdict.vacuous "Theorem 18 requires O(Γ′) = O(Γ)"
  else if not (refines ctx ~depth gamma' gamma) then
    Verdict.vacuous "premise Γ′ ⊑ Γ does not hold"
  else
    match (Compose.compose gamma' delta, Compose.compose gamma delta) with
    | Ok refined_comp, Ok abstract_comp ->
        refine_outcome ctx ~depth refined_comp abstract_comp
    | Error f, _ | _, Error f ->
        vacuousf "not composable (%a)" Compose.pp_composability_failure f

(** {1 Refinement partial-order laws} (Section 3: "the refinement
    relation given here is a partial order") *)

let refinement_reflexive ctx ~depth gamma : outcome =
  refine_outcome ctx ~depth gamma gamma

let refinement_transitive ctx ~depth ~g1 ~g2 ~g3 : outcome =
  if not (refines ctx ~depth g1 g2 && refines ctx ~depth g2 g3) then
    Verdict.vacuous "premises Γ₁ ⊑ Γ₂ ⊑ Γ₃ do not hold"
  else refine_outcome ctx ~depth g1 g3

(** {1 Composition laws} (Property 12: commutative and associative) *)

let composition_commutative ctx ~depth g d : outcome =
  match (Compose.compose g d, Compose.compose d g) with
  | Ok gd, Ok dg -> spec_equal ctx ~depth gd dg
  | Error f, _ | _, Error f ->
      vacuousf "not composable (%a)" Compose.pp_composability_failure f

let composition_associative ctx ~depth g d e : outcome =
  let ( >>= ) = Result.bind in
  let left = Compose.compose g d >>= fun gd -> Compose.compose gd e in
  let right = Compose.compose d e >>= fun de -> Compose.compose g de in
  match (left, right) with
  | Ok l, Ok r -> spec_equal ctx ~depth l r
  | Error f, _ | _, Error f ->
      vacuousf "not composable (%a)" Compose.pp_composability_failure f
