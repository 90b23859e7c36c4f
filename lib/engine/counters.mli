(** Engine statistics for one batch ({!Posl_engine.Engine.run_jobs}) or
    one server lifetime ([posl.serve]'s stats op).

    A [t] is a {e delta view} over the process-wide
    {!Posl_telemetry.Metrics} registry: every [incr_*] bumps a global
    cumulative counter (named [posl_engine_*_total], exposed by
    [posl-check metrics] and [--metrics FILE]), and {!snapshot}
    subtracts the values captured by {!create}, so a caller reports
    exactly the traffic since it started while the registry
    accumulates process totals.  The decision-layer figures — DFA
    compiles and memo hits, antichain pairs, interned states — are
    counted where the work happens, in [posl.tset] and [posl.bmc], and
    only read here, so they hold for every {!Posl_engine.Engine.answer}
    caller.  All increments are atomic and may come from any worker
    domain; snapshots are exact for non-overlapping callers. *)

type t

val create : unit -> t
(** Capture the current registry totals as the baseline this [t]'s
    {!snapshot} subtracts. *)

val incr_jobs : t -> unit
val incr_hits : t -> unit
val incr_misses : t -> unit
val incr_uncacheable : t -> unit

val incr_store_hits : t -> unit
(** A verdict was answered from the persistent on-disk store
    ({!Posl_store.Store}) rather than computed. *)

val incr_store_misses : t -> unit
(** A persistent-store lookup found no usable record, so the verdict
    was computed (and, if cacheable, written behind). *)

val incr_store_writes : t -> unit
(** A record was appended to the persistent store. *)

val incr_derived_hits : t -> unit
(** A composite verdict was derived from component verdicts by the
    planner ({!Plan}) instead of being computed directly. *)

val incr_plan_fallbacks : t -> unit
(** The planner recognised a composite query but declined it — a
    theorem side condition failed or a premise verdict was not exact —
    and the engine computed it directly. *)

val add_busy_ns : t -> int -> unit
(** Accumulate one job's wall time in nanoseconds.  Summed across
    workers this measures total useful work; [busy_ms] divided by
    (elapsed wall time × domains) gives worker utilization, which is
    how {!Posl_engine.Engine.pp_stats} reports it. *)

type snapshot = {
  jobs : int;  (** jobs answered, cached or computed *)
  hits : int;  (** verdicts served from the in-memory cache *)
  misses : int;  (** verdicts computed and inserted *)
  uncacheable : int;  (** jobs with no content address (opaque tsets) *)
  store_hits : int;  (** verdicts served from the persistent store *)
  store_misses : int;  (** store lookups that had to compute *)
  store_writes : int;  (** records appended to the persistent store *)
  derived_hits : int;
      (** composite verdicts derived from component verdicts *)
  plan_fallbacks : int;
      (** composite queries the planner declined (answered directly) *)
  busy_ms : float;  (** summed per-job wall time *)
  dfa_hits : int;  (** compiled automata served from a context's memo *)
  dfa_compiles : int;  (** prs-expressions compiled to DFAs *)
  antichain_pairs : int;
      (** product pairs admitted by on-the-fly inclusion checks *)
  antichain_prunes : int;
      (** candidate pairs dropped on arrival as already visited *)
  interned_states : int;  (** distinct monitor states interned *)
  key_fragments : int;
      (** specification key fragments serialized — content-key memo
          misses ({!Digest.Memo}) *)
}

val snapshot : t -> snapshot
(** Registry totals now, minus the totals at {!create} time. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
