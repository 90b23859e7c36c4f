(** State-space exploration over trace-set monitors.

    The verification questions of the paper that are not purely
    set-algebraic all reduce to reachability over products of monitors:
    projected trace-set inclusion (Def. 2 clause 3), trace-set equality
    (Example 6), and deadlock (Examples 4–5).  Exploration is
    breadth-first over interned monitor-state ids, on one domain so
    that witness order is canonical; when the reachable space is
    exhausted, the verdict holds for {e all} depths over the given
    alphabet and is reported {!Exact}.

    Every counterexample ({!check_inclusion}, {!check_equal},
    {!find_deadlock}) is {e self-certifying}: it is replayed through the
    denotational reference semantics [Tset.mem_naive] before being
    reported, and {!Posl_verdict.Verdict.Uncertified} is raised if the
    replay disagrees with the exploration. *)

module Tset = Posl_tset.Tset
module Event = Posl_trace.Event
module Trace = Posl_trace.Trace
module Eventset = Posl_sets.Eventset

type confidence = Posl_verdict.Verdict.confidence =
  | Exact  (** state space exhausted: exact for the sampled universe *)
  | Bounded of int  (** exploration cut at this depth *)

val pp_confidence : Format.formatter -> confidence -> unit

type 'a verdict = Holds of confidence | Refuted of 'a

val pp_verdict :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a verdict -> unit

val procedure : 'a verdict -> Posl_verdict.Verdict.procedure
(** The provenance label of an explorer verdict, shared by refinement
    and equality: [Automata] for an exhausted or refuted run (an exact
    inclusion decision), [Bounded_search] only for a [Bounded] one. *)

val check_inclusion :
  ?complete:bool ->
  ?budget:int ->
  Tset.ctx ->
  alphabet:Event.t array ->
  depth:int ->
  lhs:Tset.t ->
  proj:Eventset.t ->
  rhs:Tset.t ->
  Trace.t verdict
(** Does every trace of [lhs] over [alphabet] satisfy [h/proj ∈ rhs]?
    Clause 3 of Def. 2 is [lhs = T(Γ′), proj = α(Γ), rhs = T(Γ)].
    Decided on the fly over interned state ids with memoized successor
    rows, visiting each (lhs, rhs) state pair at most once.
    Refutations carry a genuine [lhs] trace: the
    lexicographically-least shortest violating one, the same canonical
    witness the compiled-automata route produces.

    With [complete] (default [true]), exploration continues past
    [depth] until the frontier is exhausted ([Exact]) or more than
    [budget] (default 200_000) pairs have been admitted
    ([Bounded depth]); with [~complete:false] it cuts at [depth]
    ([Exact] only when the frontier dies out first).

    A hidden-event closure that overflows its cap
    ({!Tset.Closure_overflow}) past [depth] during a complete run makes
    the same explorer re-run cut at [depth]; one that overflows within
    [depth] propagates to the caller, never becoming a verdict. *)

val check_equal :
  Tset.ctx ->
  alphabet:Event.t array ->
  depth:int ->
  left:Tset.t ->
  right:Tset.t ->
  (Trace.t * [ `Left_only | `Right_only ]) verdict
(** Trace-set equality over the same alphabet: {!check_inclusion} with
    no projection ([proj = Eventset.full]), [left] in [right] and then
    [right] in [left], each a complete run under the default budget and
    the overflow rule.  Holding directions meet their confidences; a
    refutation is the first direction's canonical witness, tagged with
    the side it belongs to ([`Left_only]: a trace of [left] outside
    [right]).  Exactness is bounded by the explorer's pair budget over
    the (lhs, rhs) product, not by the size of either monitor: a
    product that admits more pairs than the budget before exhausting
    reports [Bounded depth], and a refutation whose shortest witness
    lies past [depth] is then not found. *)

val find_deadlock :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> Trace.t option
(** A shortest reachable trace after which no event of the alphabet is
    enabled, if any. *)

val enabled :
  Tset.ctx -> alphabet:Event.t array -> Tset.t -> Trace.t -> Event.t list
(** The events that may extend [h] within the trace set. *)

val count_traces :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> int array
(** Member-trace counts per length [0..depth], by dynamic programming
    over monitor states (no trace explosion). *)

val enumerate :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> Trace.t list
(** All member traces up to [depth] — tests and tiny examples only. *)

val count_states :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> int
(** Reachable monitor states within [depth] — the state-count metric of
    the performance experiments. *)
