(** The refinement relation Γ′ ⊑ Γ (Def. 2 of the paper).

    Γ′ refines Γ iff (1) O(Γ) ⊆ O(Γ′) — objects may be added; (2)
    α(Γ) ⊆ α(Γ′) — the alphabet may be expanded; (3)
    ∀h ∈ T(Γ′) : h/α(Γ) ∈ T(Γ) — on the old alphabet, behaviour only
    becomes more deterministic.  Alphabet expansion is what gives
    multiple inheritance of behaviour (two viewpoints share a common
    refinement) and models component upgrade; classical trace
    refinement is the special case with fixed alphabet and objects.

    Clauses 1–2 are decided exactly on the symbolic representation;
    clause 3 over a concrete universe, by the route {!strategy}
    selects.  The API is verdict-first: {!verdict} is the one
    entrypoint, reporting status, confidence, typed evidence and
    provenance as a {!Posl_verdict.Verdict.t}; {!refines} is a thin
    boolean wrapper over it. *)

module Tset = Posl_tset.Tset
module Verdict = Posl_verdict.Verdict

type strategy =
  | Auto
      (** on-the-fly antichain inclusion ({!Posl_bmc.Bmc.check_inclusion});
          on closure overflow past the depth bound, the same explorer
          cut at the depth *)
  | Automata_only
      (** compiled-DFA language inclusion; raise if the monitors do
          not compile — the exact oracle of the differential tests *)

type opts = {
  strategy : strategy;
  depth : int;
      (** bound of (and reported by) depth-cut exploration; default 6 *)
}

val opts : ?strategy:strategy -> ?depth:int -> unit -> opts
(** Defaults: [Auto], depth 6. *)

val default_opts : opts
(** [opts ()]. *)

val verdict : ?opts:opts -> Tset.ctx -> Spec.t -> Spec.t -> Verdict.t
(** [verdict ?opts ctx gamma' gamma] decides Γ′ ⊑ Γ.  Trace-clause
    verdicts are relative to [ctx]'s universe.  Clause 1–2 failures
    report the [Symbolic] procedure with [Objects_missing] /
    [Events_missing] evidence; clause 3 reports [Automata] for an
    exact inclusion decision (compiled or antichain-exhausted, both
    with the same canonical lexicographically-least shortest
    counterexamples) and [Bounded_search] for a depth-cut run.
    Counterexamples from every route are certified against
    [Tset.mem_naive] before being reported
    ({!Verdict.Uncertified} on disagreement).

    A hidden-event closure that overflows its cap
    ({!Tset.Closure_overflow}) beyond [depth] makes [Auto] fall back to
    the depth cut; one that overflows within [depth] propagates to the
    caller — it is never reported as a verdict, in particular never as
    an [Exact] one. *)

val refines : ?opts:opts -> Tset.ctx -> Spec.t -> Spec.t -> bool
(** [Verdict.is_holds] of {!verdict}. *)
