(* Per-batch engine statistics as a delta view over the process-wide
   [Posl_telemetry.Metrics] registry.

   Every increment lands in a global cumulative counter (exposed via
   [posl-check metrics] / [--metrics]); a [Counters.t] merely remembers
   the registry values at [create] time and [snapshot] reports the
   difference.  Batches that do not overlap in time therefore see exact
   per-batch numbers, while the registry keeps exact process totals
   even when they do. *)

module Metrics = Posl_telemetry.Metrics

let jobs_c =
  Metrics.counter
    ~help:"Jobs answered by Engine.answer, batch or served (cached or computed)"
    "posl_engine_jobs_total"

let hits_c =
  Metrics.counter ~help:"Verdicts served from the in-memory cache"
    "posl_engine_cache_hits_total"

let misses_c =
  Metrics.counter ~help:"Verdicts computed and inserted into the cache"
    "posl_engine_cache_misses_total"

let uncacheable_c =
  Metrics.counter ~help:"Jobs with no content address (opaque tsets)"
    "posl_engine_uncacheable_total"

let store_hits_c =
  Metrics.counter ~help:"Verdicts served from the persistent store"
    "posl_engine_store_hits_total"

let store_misses_c =
  Metrics.counter ~help:"Persistent-store lookups that had to compute"
    "posl_engine_store_misses_total"

let store_writes_c =
  Metrics.counter ~help:"Records appended to the persistent store"
    "posl_engine_store_writes_total"

let derived_hits_c =
  Metrics.counter
    ~help:"Composite verdicts derived from component verdicts by the planner"
    "posl_engine_derived_hits_total"

let plan_fallbacks_c =
  Metrics.counter
    ~help:
      "Composite queries the planner declined (side condition failed or \
       premise not exact), answered by direct checking"
    "posl_engine_plan_fallbacks_total"

let busy_ns_c =
  Metrics.counter ~help:"Summed per-job wall time, nanoseconds"
    "posl_engine_busy_ns_total"

(* The explorer, interning and DFA metrics live in posl.bmc /
   posl.tset, and the key-fragment count in [Digest.Memo], where the
   work happens; [Metrics.counter] and [Metrics.histogram] are
   get-or-create by name, so redeclaring them here only obtains
   handles on the same registry cells.  Every DFA
   compile is observed by the compile-time histogram, so its sample
   count is the compile count. *)
let antichain_pairs_c =
  Metrics.counter ~help:"Frontier pairs admitted by the inclusion explorer"
    "posl_bmc_antichain_pairs_total"

let antichain_prunes_c =
  Metrics.counter
    ~help:"Frontier pairs dropped on arrival as already visited"
    "posl_bmc_antichain_prunes_total"

let interned_states_c =
  Metrics.counter ~help:"Distinct monitor states interned per context"
    "posl_tset_interned_states_total"

let dfa_compile_hist =
  Metrics.histogram ~help:"Time to compile one prs-expression to a DFA, ms"
    "posl_tset_dfa_compile_ms"

let key_fragments_c =
  Metrics.counter
    ~help:"Specification key fragments serialized (key memo misses)"
    "posl_engine_key_fragments_total"

let dfa_hits_c =
  Metrics.counter
    ~help:"Compiled prs-automata served from a context's memo (no compile)"
    "posl_tset_dfa_cache_hits_total"

type totals = {
  t_jobs : int;
  t_hits : int;
  t_misses : int;
  t_uncacheable : int;
  t_store_hits : int;
  t_store_misses : int;
  t_store_writes : int;
  t_derived_hits : int;
  t_plan_fallbacks : int;
  t_busy_ns : int;
  t_dfa_hits : int;
  t_dfa_compiles : int;
  t_antichain_pairs : int;
  t_antichain_prunes : int;
  t_interned_states : int;
  t_key_fragments : int;
}

let read_totals () =
  {
    t_jobs = Metrics.value jobs_c;
    t_hits = Metrics.value hits_c;
    t_misses = Metrics.value misses_c;
    t_uncacheable = Metrics.value uncacheable_c;
    t_store_hits = Metrics.value store_hits_c;
    t_store_misses = Metrics.value store_misses_c;
    t_store_writes = Metrics.value store_writes_c;
    t_derived_hits = Metrics.value derived_hits_c;
    t_plan_fallbacks = Metrics.value plan_fallbacks_c;
    t_busy_ns = Metrics.value busy_ns_c;
    t_dfa_hits = Metrics.value dfa_hits_c;
    t_dfa_compiles = Metrics.count dfa_compile_hist;
    t_antichain_pairs = Metrics.value antichain_pairs_c;
    t_antichain_prunes = Metrics.value antichain_prunes_c;
    t_interned_states = Metrics.value interned_states_c;
    t_key_fragments = Metrics.value key_fragments_c;
  }

type t = { base : totals }

let create () = { base = read_totals () }
let incr_jobs (_ : t) = Metrics.incr jobs_c
let incr_hits (_ : t) = Metrics.incr hits_c
let incr_misses (_ : t) = Metrics.incr misses_c
let incr_uncacheable (_ : t) = Metrics.incr uncacheable_c
let incr_store_hits (_ : t) = Metrics.incr store_hits_c
let incr_store_misses (_ : t) = Metrics.incr store_misses_c
let incr_store_writes (_ : t) = Metrics.incr store_writes_c
let incr_derived_hits (_ : t) = Metrics.incr derived_hits_c
let incr_plan_fallbacks (_ : t) = Metrics.incr plan_fallbacks_c
let add_busy_ns (_ : t) ns = Metrics.add busy_ns_c ns

type snapshot = {
  jobs : int;
  hits : int;
  misses : int;
  uncacheable : int;
  store_hits : int;
  store_misses : int;
  store_writes : int;
  derived_hits : int;
  plan_fallbacks : int;
  busy_ms : float;
  dfa_hits : int;
  dfa_compiles : int;
  antichain_pairs : int;
  antichain_prunes : int;
  interned_states : int;
  key_fragments : int;
}

let snapshot (c : t) : snapshot =
  let now = read_totals () in
  let b = c.base in
  {
    jobs = now.t_jobs - b.t_jobs;
    hits = now.t_hits - b.t_hits;
    misses = now.t_misses - b.t_misses;
    uncacheable = now.t_uncacheable - b.t_uncacheable;
    store_hits = now.t_store_hits - b.t_store_hits;
    store_misses = now.t_store_misses - b.t_store_misses;
    store_writes = now.t_store_writes - b.t_store_writes;
    derived_hits = now.t_derived_hits - b.t_derived_hits;
    plan_fallbacks = now.t_plan_fallbacks - b.t_plan_fallbacks;
    busy_ms = float_of_int (now.t_busy_ns - b.t_busy_ns) /. 1e6;
    dfa_hits = now.t_dfa_hits - b.t_dfa_hits;
    dfa_compiles = now.t_dfa_compiles - b.t_dfa_compiles;
    antichain_pairs = now.t_antichain_pairs - b.t_antichain_pairs;
    antichain_prunes = now.t_antichain_prunes - b.t_antichain_prunes;
    interned_states = now.t_interned_states - b.t_interned_states;
    key_fragments = now.t_key_fragments - b.t_key_fragments;
  }

let pp_snapshot ppf s =
  Format.fprintf ppf
    "jobs=%d hits=%d misses=%d uncacheable=%d store_hits=%d store_misses=%d \
     store_writes=%d derived_hits=%d plan_fallbacks=%d busy=%.1fms \
     dfa_hits=%d dfa_compiles=%d antichain_pairs=%d \
     antichain_prunes=%d interned_states=%d key_fragments=%d"
    s.jobs s.hits s.misses s.uncacheable s.store_hits s.store_misses
    s.store_writes s.derived_hits s.plan_fallbacks s.busy_ms s.dfa_hits
    s.dfa_compiles s.antichain_pairs s.antichain_prunes
    s.interned_states s.key_fragments
