(** Trace sets: prefix-closed sets of communication traces.

    A specification's trace set T(Γ) is a prefix-closed subset of
    Seq[α(Γ)] (Def. 1 of the paper).  Every constructor below is prefix
    closed {e by construction}; all membership questions are answered
    by one incremental {e monitor} semantics ({!start}/{!step}), with a
    denotational reference ({!mem_naive}) for differential testing, and
    {!compile} turns any monitor with a finite reachable state space
    into an exact DFA over a concrete alphabet. *)

open Posl_ident
open Posl_sets
module Regex = Posl_regex.Regex

type t =
  | All  (** every trace — Example 1's Read ("no restrictions") *)
  | Prs of Regex.t  (** the paper's [h prs R] *)
  | Counting of Counting.t
      (** largest prefix-closed subset of a counting predicate
          (Example 3's P{_RW2}) *)
  | Pointwise of string * (Posl_trace.Trace.t -> bool)
      (** largest prefix-closed subset of a named arbitrary predicate *)
  | Forall_obj of Oset.t * (Oid.t -> t)
      (** per-environment-object projection predicates:
          ∀x ∈ s : h/x ∈ body x (Example 2's Read2, Example 3's
          P{_RW1}).  The body must treat unnamed sort members
          uniformly. *)
  | Conj of t list  (** intersection *)
  | Restrict of Eventset.t * t  (** [{h | h/es ∈ t}] *)
  | Product of part list * Eventset.t
      (** the trace set of a composition (Defs. 4 and 11): observable
          traces over the visible alphabet that extend to a joint trace
          projecting into every part *)

and part = { part_alpha : Eventset.t; part_tset : t }

(** {1 Constructors} *)

val all : t
val prs : Regex.t -> t
val counting : Counting.t -> t
val pointwise : string -> (Posl_trace.Trace.t -> bool) -> t
val forall_obj : Oset.t -> (Oid.t -> t) -> t
val conj : t list -> t
val restrict : Eventset.t -> t -> t
val product : part list -> Eventset.t -> t
val part : alpha:Eventset.t -> t -> part

(** {1 Contexts}

    All trace-level operations are relative to a {!ctx}: the finite
    universe sample (binder expansion, internal-event sampling), a
    safety cap for product closures, and the context's memo tables —
    interned monitor states, successor rows and the compiled
    prs-automata.  The type is abstract and owns its memos: each
    distinct prs-expression is compiled once per context.  Every memo
    is guarded by one lock, so a context can be shared by every worker
    domain of a parallel batch.  Compiles are observed by the
    [posl_tset_dfa_compile_ms] histogram and memo hits counted by
    [posl_tset_dfa_cache_hits_total]. *)

type ctx

val ctx : ?closure_cap:int -> Universe.t -> ctx
(** [closure_cap] defaults to 20_000. *)

val universe : ctx -> Universe.t
val closure_cap : ctx -> int

exception Closure_overflow of int
(** Raised when the hidden-event closure of a [Product] monitor exceeds
    [closure_cap]; verdicts derived after catching this must be
    reported as bounded, not exact. *)

(** {1 Monitor semantics}

    Monitor states are pure data; {!compare_state} gives structural
    comparison for de-duplication.  A state is "alive": prefix-closed
    languages are exactly the survival languages of monitors. *)

type state

val compare_state : state -> state -> int

val finitary : t -> bool
(** Whether every reachable monitor state is bounded-shape pure data,
    so interning de-duplicates revisited states and exploration past a
    depth bound can terminate by exhaustion.  [false] as soon as the
    monitor contains a [pointwise] member — its states carry the whole
    prefix read so far, so completion would enumerate paths, not
    states.  Used by the antichain inclusion route to decide whether
    running past the depth cut is affordable. *)

(** {1 Interning}

    Each context owns an interning table mapping monitor states to
    dense small-int ids, so exploration frontiers can compare, hash
    and store states as single words instead of structural values.
    Product states additionally record a {e macro view}: the sorted
    id array of their composite states under hidden-event closure,
    which is what antichain subsumption in [posl.bmc] compares.  All
    interning operations are thread-safe (contexts are shared across
    engine worker domains). *)

val intern_state : ctx -> state -> int
(** Find-or-assign the dense id of a state.  Ids are stable for the
    lifetime of the context and start at 0. *)

val state_of_id : ctx -> int -> state
(** Inverse of {!intern_state}.  @raise Invalid_argument on an id
    never returned by this context. *)

val macro_of_id : ctx -> int -> int array option
(** The sorted composite-id array of a [Product] monitor state, or
    [None] for every other state kind.  Subset inclusion on these
    arrays is the antichain subsumption order. *)

val hashcons_event : ctx -> Posl_trace.Event.t -> Posl_trace.Event.t
(** Canonical representative of an event within this context:
    structurally equal events return the same physical value, so
    downstream tables can key on physical identity. *)

val event_id : ctx -> Posl_trace.Event.t -> int
(** Dense id of a (hash-consed) event, for row-cache keys. *)

val tset_id : ctx -> t -> int
(** Dense id of a trace-set value under {e physical} identity.
    Monitors reached through [Spec.tset] are physically stable, so one
    spec keeps one id however many refinement pairs it appears in;
    structurally-equal-but-distinct values get distinct ids (costing
    only row sharing, never soundness). *)

val intern_counts : ctx -> int * int * int
(** [(states, composites, events)] interned so far in this context. *)

val start : ctx -> t -> state option
(** [None] iff even the empty trace is outside the set (degenerate). *)

val step : ctx -> t -> state -> Posl_trace.Event.t -> state option
(** [None] = the extended trace is outside the set (permanently). *)

val step_id :
  ctx -> t -> tset_id:int -> event_id:int -> int -> Posl_trace.Event.t -> int
(** [step_id c t ~tset_id ~event_id sid e] is the interned id of
    [step c t (state_of_id c sid) e], or [-1] when dead — memoized in
    the context's successor-row cache keyed by
    [(tset_id, sid, event_id)].  Rows persist for the context's
    lifetime, so a monitor shared by many inclusion checks steps each
    state once.  [tset_id] must be [tset_id c t] and [event_id] must
    be [event_id c e] (precompute both outside hot loops).
    Thread-safe; the step itself runs outside the intern lock. *)

(** {1 Membership} *)

val mem : ctx -> t -> Posl_trace.Trace.t -> bool

val mem_naive : ctx -> t -> Posl_trace.Trace.t -> bool
(** Denotational reference semantics ([Product] shares the monitor's
    search); for differential testing. *)

(** {1 Compilation} *)

val compile :
  ?max_states:int ->
  ctx ->
  Posl_trace.Event.t array ->
  t ->
  Posl_automata.Dfa.t option
(** Explore the monitor's reachable state space over a concrete
    alphabet.  [Some dfa] is an {e exact} automaton of the trace set
    restricted to traces over the given events (state 0 a rejecting
    sink, all others accepting); [None] when the space exceeds
    [max_states] or a closure overflows. *)

(** {1 Utilities} *)

val mentioned : t -> Oid.Set.t * Mth.Set.t * Value.Set.t
val pp : Format.formatter -> t -> unit
