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
    interned monitor states, per-monitor successor rows and the
    compiled prs-automata.  The type is abstract and owns its memos:
    each distinct prs-expression is compiled once per context, under
    the context's lock, and each (monitor, state, event) successor is
    stepped once per context.  Every memo is guarded by one lock, so a
    context can be shared by every worker domain of a parallel batch.
    Compiles are observed by the [posl_tset_dfa_compile_ms] histogram,
    memo hits counted by [posl_tset_dfa_cache_hits_total], interned
    states by [posl_tset_interned_states_total] and computed successor
    cells by [posl_tset_steps_total]. *)

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

    The reference semantics: monitor states are pure data, and a state
    is "alive" — prefix-closed languages are exactly the survival
    languages of monitors. *)

type state

val finitary : t -> bool
(** Whether every reachable monitor state is bounded-shape pure data,
    so interning de-duplicates revisited states and exploration past a
    depth bound can terminate by exhaustion.  [false] as soon as the
    monitor contains a [pointwise] member — its states carry the whole
    prefix read so far, so completion would enumerate paths, not
    states.  Used by the inclusion explorer to decide whether
    running past the depth cut is affordable. *)

val start : ctx -> t -> state option
(** [None] iff even the empty trace is outside the set (degenerate). *)

val step : ctx -> t -> state -> Posl_trace.Event.t -> state option
(** [None] = the extended trace is outside the set (permanently). *)

(** {1 Successor rows}

    Every traversal of the reachable state space steps through the
    context's rows.  Monitor states are interned to dense small-int
    ids — canonically: a [Product] state is the sorted set of its
    composites under hidden-event closure, so equal states share one
    id — and the context keeps, per monitor and interned state, one
    row of successor ids indexed by the context's event ids.  Cells
    are filled lazily, one {!step} each, and persist for the context's
    lifetime, so a monitor shared by many checks steps each (state,
    event) once.  Ids are stable for the lifetime of the context and
    meaningful only relative to it and the handle's monitor.  All
    operations are thread-safe (contexts are shared across engine
    worker domains). *)

type rows
(** A handle on one monitor's rows over one concrete alphabet: binds
    the monitor (under physical identity — a physically stable value,
    such as [Spec.tset], keeps one set of rows), the alphabet and its
    event ids.  Alphabet positions index {!succ}. *)

val rows : ctx -> t -> Posl_trace.Event.t array -> rows

val initial : rows -> int option
(** The interned start state; [None] as for {!start}. *)

type row
(** One interned state's successor row, fetched with one locked
    lookup; cells are then read without the lock. *)

val row : rows -> int -> row
(** [row h id] for an id returned by [initial h] or [succ h]. *)

val succ : rows -> row -> int -> int
(** [succ h r s] is the interned successor of [r]'s state under the
    alphabet's event at position [s], or [-1] when dead — computed on
    the first read, then remembered.  A caller that never reads a cell
    never steps it. *)

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
