(* The typed verdict layer (posl.verdict): lattice laws of the
   confidence meet and the [both] join, self-certifying counterexamples
   replayed against the reference semantics [Tset.mem_naive], cache
   transparency (cached ≡ fresh as values), and the JSON serializer. *)

module V = Posl_verdict.Verdict
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Theory = Posl_core.Theory
module Compose = Posl_core.Compose
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace
module Eventset = Posl_sets.Eventset
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Ex = Posl_core.Examples_paper
module G = QCheck2.Gen

let ctx = Util.paper_ctx
let u = Util.paper_universe
let depth = 5

(* Refinement counterexamples: the escape witness of RW ⋢ Read2 must
   replay under the reference semantics — a genuine trace of T(RW)
   whose projection on α(Read2) is not a trace of T(Read2). *)
let test_refine_witness_replays () =
  let v = Refine.verdict ~opts:(Refine.opts ~depth ()) ctx Ex.rw Ex.read2 in
  Util.check_bool "refuted" true (V.is_refuted v);
  let traces = V.witness_traces v in
  Util.check_bool "carries a witness" true (traces <> []);
  List.iter
    (fun h ->
      Util.check_bool "witness ∈ T(RW) under mem_naive" true
        (Tset.mem_naive ctx (Spec.tset Ex.rw) h);
      Util.check_bool "projection escapes T(Read2) under mem_naive" false
        (Tset.mem_naive ctx (Spec.tset Ex.read2)
           (Eventset.restrict_trace (Spec.alpha Ex.read2) h)))
    traces;
  (* [certify] with the genuine replay accepts the verdict unchanged. *)
  let replay = function
    | V.Trace_escape { trace; projected } ->
        Tset.mem_naive ctx (Spec.tset Ex.rw) trace
        && not (Tset.mem_naive ctx (Spec.tset Ex.read2) projected)
    | _ -> true
  in
  Util.check_bool "certify accepts" true (V.equal v (V.certify ~replay v))

(* Equality witnesses are one-sided: a member of exactly one of the two
   trace sets under the reference semantics. *)
let test_equality_witness_one_sided () =
  let v = Theory.tset_equal ctx ~depth Ex.read Ex.read2 in
  Util.check_bool "T(Read) ≠ T(Read2)" true (V.is_refuted v);
  let traces = V.witness_traces v in
  Util.check_bool "carries a witness" true (traces <> []);
  List.iter
    (fun h ->
      let l = Tset.mem_naive ctx (Spec.tset Ex.read) h in
      let r = Tset.mem_naive ctx (Spec.tset Ex.read2) h in
      Util.check_bool "in exactly one side" true (l <> r))
    traces

(* Example 5's deadlock: the witness from the composition search must
   be a reachable trace with no enabled extension, under mem_naive. *)
let test_deadlock_witness_replays () =
  let v =
    Job.run ctx ~depth:6 (Job.deadlock ~left:Ex.client2 ~right:Ex.write_acc)
  in
  Util.check_bool "deadlock found" true (V.is_refuted v);
  match Compose.compose Ex.client2 Ex.write_acc with
  | Error _ -> Alcotest.fail "Client2 ‖ WriteAcc should compose"
  | Ok comp ->
      let t = Spec.tset comp in
      let alphabet = Spec.concrete_alphabet u comp in
      let replay = function
        | V.Deadlock h ->
            (Trace.is_empty h || Tset.mem_naive ctx t h)
            && Array.for_all
                 (fun e -> not (Tset.mem_naive ctx t (Trace.snoc h e)))
                 alphabet
        | _ -> true
      in
      Util.check_bool "deadlock replays" true (V.equal v (V.certify ~replay v))

(* Cache transparency: a cache hit returns a verdict structurally equal
   to the freshly computed one — including typed evidence on refuted
   queries — even though elapsed times differ. *)
let test_cache_hit_equals_fresh () =
  let q =
    Engine.request ~depth ~universe:u
      (Job.refine ~refined:Ex.read ~abstract:Ex.read2)
  in
  let session = Engine.session () in
  let cold, _ = Engine.run_jobs ~domains:1 session [ q ] in
  let warm, stats = Engine.run_jobs ~domains:1 session [ q ] in
  Util.check_int "warm run hits the cache" 1 stats.Engine.cache_hits;
  match (cold, warm) with
  | [ a ], [ b ] ->
      Util.check_bool "fresh is refuted with evidence" true
        (V.is_refuted a.Engine.verdict
        && V.witness_traces a.Engine.verdict <> []
           || a.Engine.verdict.V.evidence <> []);
      Util.check_bool "cached ≡ fresh" true
        (V.equal a.Engine.verdict b.Engine.verdict)
  | _ -> Alcotest.fail "one result per run expected"

(* A wrong witness must not survive: certify raises Uncertified; holds
   and vacuous verdicts carry no counterexamples to replay. *)
let test_uncertified_raises () =
  let bogus = V.refuted [ V.Note "bogus" ] in
  (match V.certify ~replay:(fun _ -> false) bogus with
  | exception V.Uncertified _ -> ()
  | _ -> Alcotest.fail "expected Uncertified");
  let ok = V.holds ~confidence:V.Exact ~evidence:[ V.Note "n" ] () in
  Util.check_bool "holds verdicts are not replayed" true
    (V.equal ok (V.certify ~replay:(fun _ -> false) ok));
  let vac = V.vacuous "premise" in
  Util.check_bool "vacuous verdicts are not replayed" true
    (V.equal vac (V.certify ~replay:(fun _ -> false) vac))

let test_equal_ignores_elapsed () =
  let v = V.holds ~confidence:V.Exact () in
  let v1 = V.with_context ~elapsed_ms:1.0 v in
  let v2 = V.with_context ~elapsed_ms:250.0 v in
  Util.check_bool "equal despite elapsed" true (V.equal v1 v2);
  Util.check_bool "but different universes differ" false
    (V.equal
       (V.with_context ~universe_digest:"aa" v)
       (V.with_context ~universe_digest:"bb" v))

let test_json_serializer () =
  Alcotest.(check string)
    "escape" "a\\\"b\\\\c\\nd" (V.Json.escape "a\"b\\c\nd");
  Alcotest.(check string)
    "control chars" "\\u0001" (V.Json.escape "\x01");
  (* A job verdict carries full provenance (digest, depth, elapsed). *)
  let v =
    Job.run ctx ~depth (Job.refine ~refined:Ex.rw ~abstract:Ex.read2)
  in
  let s = V.Json.to_string (V.to_json v) in
  List.iter
    (fun needle ->
      Util.check_bool (Printf.sprintf "document has %s" needle) true
        (Util.contains_substring ~needle s))
    [
      "\"status\"";
      "\"refuted\"";
      "\"holds\"";
      "\"evidence\"";
      "\"provenance\"";
      "\"universe_digest\"";
    ]

(* The parser half of the JSON layer: hand-written documents, error
   positions, and the serialize∘parse = id law the persistent store
   depends on. *)
let test_json_parser () =
  let ok s = match V.Json.of_string s with
    | Ok d -> d
    | Error e -> Alcotest.failf "%S should parse: %s" s e
  in
  let err s = match V.Json.of_string s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error e -> e
  in
  Util.check_bool "ints and floats" true
    (ok "[0, -7, 3.5, 2e3, -1.25e-2]"
    = V.Json.List
        [
          V.Json.Int 0;
          V.Json.Int (-7);
          V.Json.Float 3.5;
          V.Json.Float 2e3;
          V.Json.Float (-1.25e-2);
        ]);
  Util.check_bool "nested object" true
    (ok "{\"a\": {\"b\": [true, false, null]}}"
    = V.Json.Obj
        [
          ( "a",
            V.Json.Obj
              [ ("b", V.Json.List [ V.Json.Bool true; V.Json.Bool false; V.Json.Null ]) ]
          );
        ]);
  Util.check_bool "escapes and \\uXXXX (surrogate pair)" true
    (ok "\"a\\\"b\\\\c\\n\\u00e9\\ud83d\\ude00\""
    = V.Json.Str "a\"b\\c\n\xC3\xA9\xF0\x9F\x98\x80");
  Util.check_bool "huge integer falls back to float" true
    (match ok "123456789012345678901234567890" with
    | V.Json.Float _ -> true
    | _ -> false);
  List.iter
    (fun s ->
      Util.check_bool
        (Printf.sprintf "error carries a byte offset for %S" s)
        true
        (Util.contains_substring ~needle:"byte" (err s)))
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\" 1}"; "[1] trailing"; "nul" ]

(* A production verdict — refuted, trace evidence, full provenance —
   survives the round trip as a value. *)
let test_job_verdict_round_trips () =
  let v =
    Job.run ctx ~depth (Job.refine ~refined:Ex.rw ~abstract:Ex.read2)
  in
  match V.of_string (V.Json.to_string (V.to_json v)) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok v' ->
      Util.check_bool "parsed ≡ original (V.equal)" true (V.equal v v');
      Util.check_bool "witness traces survive" true
        (List.for_all2 Trace.equal (V.witness_traces v) (V.witness_traces v'))

(* Generators for the qcheck lattice laws. *)
let conf_gen =
  G.(
    oneof
      [
        pure V.Exact;
        map (fun k -> V.Bounded (1 + (abs k mod 9))) (int_bound 1000);
      ])

let verdict_gen =
  G.(
    oneof
      [
        map (fun c -> V.holds ~confidence:c ()) conf_gen;
        pure (V.refuted [ V.Note "x" ]);
        pure (V.vacuous "premise");
      ])

(* Rich generators covering every evidence constructor, for the
   serialize∘parse = id law. *)
module Oid = Posl_ident.Oid
module Oset = Posl_sets.Oset
module Mset = Posl_sets.Mset
module Vset = Posl_sets.Vset
module Rect = Posl_sets.Rect
module Argsel = Posl_sets.Argsel

let oid_gen p = G.(map (fun i -> Oid.v (Printf.sprintf "%s%d" p i)) (int_bound 4))

let event_gen =
  (* distinct prefixes keep caller ≠ callee, which Event.make enforces *)
  G.(
    map
      (fun ((caller, callee), (m, arg)) ->
        Posl_trace.Event.make ?arg ~caller ~callee m)
      (pair
         (pair (oid_gen "o") (oid_gen "p"))
         (pair
            (map (fun i -> Posl_ident.Mth.v (Printf.sprintf "m%d" i)) (int_bound 3))
            (opt (map (fun i -> Posl_ident.Value.v (Printf.sprintf "v%d" i)) (int_bound 3))))))

let trace_gen = G.(map Trace.of_list (list_size (int_bound 4) event_gen))
let oid_set_gen = G.(map Oid.Set.of_list (list_size (int_bound 4) (oid_gen "o")))

let oset_gen =
  G.(
    oneof
      [
        map Oset.of_list (list_size (int_bound 3) (oid_gen "o"));
        map Oset.cofin_of_list (list_size (int_bound 3) (oid_gen "o"));
      ])

let mset_gen =
  let m i = Posl_ident.Mth.v (Printf.sprintf "m%d" i) in
  G.(
    oneof
      [
        map (fun is -> Mset.of_list (List.map m is)) (list_size (int_bound 3) (int_bound 3));
        map (fun is -> Mset.cofin_of_list (List.map m is)) (list_size (int_bound 3) (int_bound 3));
      ])

let vset_gen =
  let v i = Posl_ident.Value.v (Printf.sprintf "v%d" i) in
  G.(
    oneof
      [
        map (fun is -> Vset.of_list (List.map v is)) (list_size (int_bound 3) (int_bound 3));
        map (fun is -> Vset.cofin_of_list (List.map v is)) (list_size (int_bound 3) (int_bound 3));
      ])

let rect_gen =
  G.(
    map
      (fun ((callers, callees), (mths, (none, vs))) ->
        Rect.make ~callers ~callees ~mths
          ~args:(Argsel.make ~allow_none:none vs))
      (pair (pair oset_gen oset_gen) (pair mset_gen (pair bool vset_gen))))

let eventset_gen =
  G.(map Eventset.of_rects (list_size (int_bound 3) rect_gen))

let label_gen =
  G.oneofl [ "a"; "premise"; "weird \"quote\"\nline"; "x\\y"; "\xE2\x9F\xA8utf8\xE2\x9F\xA9" ]

let side_gen = G.oneofl [ `Left_only; `Right_only ]

let evidence_gen =
  G.(
    oneof
      [
        map2
          (fun trace projected -> V.Trace_escape { trace; projected })
          trace_gen trace_gen;
        map (fun s -> V.Objects_missing s) oid_set_gen;
        map (fun e -> V.Events_missing e) eventset_gen;
        map3
          (fun trace side (left, right) ->
            V.Equality_witness { trace; side; left; right })
          trace_gen side_gen (pair label_gen label_gen);
        map (fun t -> V.Deadlock t) trace_gen;
        map2
          (fun obligation trace -> V.Unanswerable { obligation; trace })
          label_gen trace_gen;
        map2
          (fun offending side -> V.Not_composable { offending; side })
          eventset_gen
          (oneofl [ `Left_sees_right_internal; `Right_sees_left_internal ]);
        map3
          (fun alpha0 offending context ->
            V.Improper { alpha0; offending; context })
          eventset_gen eventset_gen label_gen;
        map2
          (fun left_only right_only -> V.Objects_differ { left_only; right_only })
          oid_set_gen oid_set_gen;
        map2
          (fun left_only right_only ->
            V.Alphabets_differ { left_only; right_only })
          eventset_gen eventset_gen;
        map (fun t -> V.Consistency_witness t) trace_gen;
        map2 (fun law trace -> V.Law_violation { law; trace }) label_gen trace_gen;
        map (fun s -> V.Premise_unmet s) label_gen;
        map (fun s -> V.Note s) label_gen;
      ])

let provenance_gen =
  G.(
    map
      (fun ((procedure, depth), (universe_digest, ms)) ->
        {
          V.procedure;
          depth;
          universe_digest;
          elapsed_ms = float_of_int ms /. 8.;
        })
      (pair
         (pair
            (opt (oneofl [ V.Symbolic; V.Automata; V.Bounded_search ]))
            (opt (int_bound 9)))
         (pair (opt (oneofl [ "aabb"; "ccdd" ])) (int_bound 10000))))

let rich_verdict_gen =
  G.(
    map
      (fun ((status, confidence), (evidence, provenance)) ->
        { V.status; confidence; evidence; provenance })
      (pair
         (pair (oneofl [ V.Holds; V.Refuted; V.Vacuous ]) (opt conf_gen))
         (pair (list_size (int_bound 4) evidence_gen) provenance_gen)))

let qsuite =
  [
    Util.qtest ~count:200 "meet is commutative" G.(pair conf_gen conf_gen)
      (fun (a, b) -> V.meet a b = V.meet b a);
    Util.qtest ~count:200 "meet is associative"
      G.(triple conf_gen conf_gen conf_gen)
      (fun (a, b, c) -> V.meet a (V.meet b c) = V.meet (V.meet a b) c);
    Util.qtest ~count:200 "meet is idempotent, Exact is the top" conf_gen
      (fun c -> V.meet c c = c && V.meet c V.Exact = c);
    Util.qtest ~count:200 "both: refutation dominates"
      G.(pair verdict_gen verdict_gen)
      (fun (a, b) ->
        V.is_refuted (V.both a b) = (V.is_refuted a || V.is_refuted b));
    Util.qtest ~count:200 "both: vacuity beats holding"
      G.(pair verdict_gen verdict_gen)
      (fun (a, b) ->
        V.is_holds (V.both a b) = (V.is_holds a && V.is_holds b));
    Util.qtest ~count:200 "both agrees with all" G.(pair verdict_gen verdict_gen)
      (fun (a, b) -> V.equal (V.both a b) (V.all [ a; b ]));
    Util.qtest ~count:50 "equal is reflexive" verdict_gen (fun v ->
        V.equal v v);
    Util.qtest ~count:300 "serialize∘parse = id over all evidence kinds"
      rich_verdict_gen
      (fun v ->
        match V.of_string (V.Json.to_string (V.to_json v)) with
        | Ok v' -> V.equal v v'
        | Error e -> QCheck2.Test.fail_reportf "did not round-trip: %s" e);
    Util.qtest ~count:300 "Json parse of serialized docs is exact"
      rich_verdict_gen
      (fun v ->
        (* one more lap: serializing the parsed document reproduces the
           byte string, so the parser loses nothing the printer keeps *)
        let s = V.Json.to_string (V.to_json v) in
        match V.Json.of_string s with
        | Ok d -> String.equal s (V.Json.to_string d)
        | Error e -> QCheck2.Test.fail_reportf "unparseable: %s" e);
  ]

let suite =
  [
    Alcotest.test_case "refinement witness replays (mem_naive)" `Quick
      test_refine_witness_replays;
    Alcotest.test_case "equality witness is one-sided (mem_naive)" `Quick
      test_equality_witness_one_sided;
    Alcotest.test_case "deadlock witness replays (mem_naive)" `Quick
      test_deadlock_witness_replays;
    Alcotest.test_case "cache hit ≡ fresh verdict" `Quick
      test_cache_hit_equals_fresh;
    Alcotest.test_case "certify rejects wrong witnesses" `Quick
      test_uncertified_raises;
    Alcotest.test_case "equal ignores elapsed time" `Quick
      test_equal_ignores_elapsed;
    Alcotest.test_case "JSON serializer" `Quick test_json_serializer;
    Alcotest.test_case "JSON parser" `Quick test_json_parser;
    Alcotest.test_case "job verdict round-trips through JSON" `Quick
      test_job_verdict_round_trips;
  ]
  @ qsuite
