(* What a workload run hands back, and the result line. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  attempted : int;
  failed : int;
  mismatched : int;  (** verdicts that differ from the reference *)
  setup_s : float list;  (** one sample per set-up *)
  end_to_end : metric list;  (** everything but setup_s *)
  per_layer : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let m name unit_ value = { name; value; unit_ }

(* All digits, so every run's measured value shows.  A per-layer value
   with no samples behind it (e.g. a ratio of two zero counts) reads 0. *)
let number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let with_setup t = m "setup_s" "s" (Stat.median t.setup_s) :: t.end_to_end

let result_line ~trace t =
  let metrics = if trace then t.per_layer else with_setup t in
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.mismatched = 0) t.attempted t.failed (String.concat ", " fields)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-28s %16.6g %s\n" x.name x.value x.unit_) metrics

(* Every per-layer metric, in BENCHMARK.json order.  A workload reports
   the ones on its path; a layer it never enters reads 0. *)
let per_layer_units =
  [
    ("lang.parse_ms", "ms");
    ("manifest.elaborate_ms", "ms");
    ("digest.query_us", "us");
    ("cache.find_us", "us");
    ("cache.hit_ratio", "ratio");
    ("plan.derived_hits", "count/query");
    ("plan.fallbacks", "count/query");
    ("par.utilization", "ratio");
    ("par.domains", "count");
    ("core.decide_ms.refine", "ms");
    ("core.decide_ms.compose", "ms");
    ("core.decide_ms.proper", "ms");
    ("core.decide_ms.deadlock", "ms");
    ("core.decide_ms.equal", "ms");
    ("bmc.pairs_admitted", "count/query");
    ("bmc.pairs_pruned", "count/query");
    ("bmc.prune_ratio", "ratio");
    ("tset.dfa_compiles", "count/query");
    ("tset.dfa_cache_hits", "count/query");
    ("tset.states_interned", "count/query");
    ("verdict.encode_us", "us");
    ("verdict.refuted", "ratio");
    ("store.find_us", "us");
    ("store.append_us", "us");
    ("store.writes", "count/query");
    ("store.bytes", "B/query");
    ("serve.frame_us", "us");
    ("serve.decode_us", "us");
    ("serve.residual_ms", "ms");
    ("serve.rejected", "count");
    ("serve.expired", "count");
    ("gc.minor_words_per_query", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
  ]

let complete values =
  List.map
    (fun (name, unit_) -> m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
    per_layer_units
