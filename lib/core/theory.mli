(** The paper's propositions as executable checkers — the reproduction's
    substitute for the authors' PVS proofs.

    Each proposition becomes a function on a concrete instance that
    checks the premises, then the conclusion, so the universally
    quantified statements can be exercised on the paper's own examples
    and on random instance families. *)

open Posl_sets
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Verdict = Posl_verdict.Verdict

type outcome = Verdict.t
(** A proposition's outcome is an ordinary structured verdict: it holds
    (with the confidence of the underlying trace checks), is vacuous
    (premises unmet — the proposition says nothing about the instance),
    or is refuted with typed evidence. *)

val pp_outcome : Format.formatter -> outcome -> unit
val is_pass : outcome -> bool
val is_fail : outcome -> bool
val is_vacuous : outcome -> bool

val both : outcome -> outcome -> outcome
(** {!Verdict.both}: refutation dominates, then vacuity; two holding
    outcomes meet their confidences. *)

val all : outcome list -> outcome

val filter_law : Eventset.t -> Eventset.t -> Posl_trace.Trace.t -> bool
(** h/S₁\S₂ = h\S₂/(S₁−S₂) — the identity the proof of Theorem 7 leans
    on. *)

val tset_equal : Tset.ctx -> depth:int -> Spec.t -> Spec.t -> outcome
(** Equality of the trace sets alone (Example 6 compares compositions
    whose alphabets legitimately differ). *)

val spec_equal : Tset.ctx -> depth:int -> Spec.t -> Spec.t -> outcome
(** Full semantic equality: objects, alphabets (symbolic, exact) and
    trace sets. *)

(** {1 The propositions} *)

val property5 : Tset.ctx -> depth:int -> Spec.t -> outcome
(** Γ‖Γ = Γ for an interface specification — where object identity
    departs from process algebra. *)

val lemma6_refines : Tset.ctx -> depth:int -> Spec.t -> Spec.t -> outcome
(** Lemma 6 part 1: Γ₁‖Γ₂ ⊑ Γ₁ and Γ₁‖Γ₂ ⊑ Γ₂ (same-object interface
    specifications). *)

val lemma6_weakest :
  Tset.ctx -> depth:int -> delta:Spec.t -> Spec.t -> Spec.t -> outcome
(** Lemma 6 part 2: any ∆ refining both refines the composition. *)

val theorem7 :
  Tset.ctx ->
  depth:int ->
  gamma':Spec.t ->
  gamma:Spec.t ->
  delta:Spec.t ->
  outcome
(** Compositional refinement for interface specifications:
    Γ′ ⊑ Γ ⟹ Γ′‖∆ ⊑ Γ‖∆. *)

val lemma13 :
  Tset.ctx -> depth:int -> Component.t -> Spec.t -> Spec.t -> outcome
(** Composition preserves soundness w.r.t. a component. *)

val lemma15 : gamma':Spec.t -> gamma:Spec.t -> delta:Spec.t -> outcome
(** Under composability and properness, refinement does not disturb the
    visible alphabet.  Purely symbolic — always exact. *)

val theorem16 :
  Tset.ctx ->
  depth:int ->
  gamma':Spec.t ->
  gamma:Spec.t ->
  delta:Spec.t ->
  outcome
(** Compositional refinement for component specifications, under
    composability and properness. *)

val property17 : gamma':Spec.t -> gamma:Spec.t -> delta:Spec.t -> outcome
(** Refinement without new objects preserves composability (for
    well-formed specifications over disjoint component object sets). *)

val theorem18 :
  Tset.ctx ->
  depth:int ->
  gamma':Spec.t ->
  gamma:Spec.t ->
  delta:Spec.t ->
  outcome
(** The no-new-objects case of compositional refinement. *)

(** {1 Order and algebra laws} *)

val refinement_reflexive : Tset.ctx -> depth:int -> Spec.t -> outcome

val refinement_transitive :
  Tset.ctx -> depth:int -> g1:Spec.t -> g2:Spec.t -> g3:Spec.t -> outcome

val composition_commutative :
  Tset.ctx -> depth:int -> Spec.t -> Spec.t -> outcome
(** Property 12 (commutativity), as trace-set equality. *)

val composition_associative :
  Tset.ctx -> depth:int -> Spec.t -> Spec.t -> Spec.t -> outcome
(** Property 12 (associativity), as trace-set equality. *)
