(* posl.watch: the spec→query dependency map (footprints, invalidation,
   corpus diffing), the incremental watcher over the fleet corpus
   (counters, flips, parse-error resilience), and the refinement-
   session journal (restart replay, torn tail, convergence signal).
   Plus the dep-set soundness property: an edit to a spec outside a
   query's footprint never moves that query's base digest. *)

module Manifest = Posl_engine.Manifest
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Qdigest = Posl_engine.Digest
module Spec = Posl_core.Spec
module Deps = Posl_watch.Deps
module Watch = Posl_watch.Watch
module Journal = Posl_watch.Journal
module V = Posl_verdict.Verdict

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spec_file name =
  let candidates =
    [
      Filename.concat "../examples/specs" name;
      Filename.concat "examples/specs" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some f -> f
  | None -> Alcotest.failf "example file %s not found" name

let read_file f = In_channel.with_open_bin f In_channel.input_all

let write_file f s =
  Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "posl-watch-test-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o700;
    d

(* A scratch fleet corpus the test can edit in place. *)
let fleet_copy () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "fleet.manifest" in
  let spec = Filename.concat dir "fleet.oun" in
  write_file manifest (read_file (spec_file "fleet.manifest"));
  write_file spec (read_file (spec_file "fleet.oun"));
  (manifest, spec)

let replace ~needle ~by s =
  let nl = String.length needle and sl = String.length s in
  let rec find i =
    if i + nl > sl then Alcotest.failf "edit needle not found: %s" needle
    else if String.sub s i nl = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + nl) (sl - i - nl)

(* Universe-preserving edits, verified against the shipped fleet.oun:
   both touch one spec's [traces] section only, so the adequate
   universe — and with it every other spec's digest — stands. *)
let gauger_line = "traces prs (bind x in Env . (<x,g,SAMPLE(_)>))*;"

let gauger_doubled =
  "traces prs (bind x in Env . (<x,g,SAMPLE(_)> <x,g,SAMPLE(_)>))*;"

let gauge2_line = "<x,g,OPEN> <x,g,SAMPLE(_)>* <x,g,CLOSE>"
let gauge2_edited = "<x,g,OPEN> <x,g,CLOSE>"

let parse_specs text =
  match Manifest.specs_of_source ~extra_objects:2 ~file:"fleet.oun" text with
  | Ok v -> v
  | Error e -> Alcotest.failf "fleet.oun: %s" (Manifest.input_error_message e)

let fleet_entries () =
  match
    Manifest.entries_typed ~path:"fleet.manifest" ~default_depth:6
      (read_file (spec_file "fleet.manifest"))
  with
  | Ok es -> es
  | Error e ->
      Alcotest.failf "fleet.manifest: %s" (Manifest.input_error_message e)

(* --- Manifest name plumbing the dep map is built on ------------------- *)

let test_composition_parts () =
  Alcotest.(check (list string))
    "three-part token" [ "Gauge2"; "Log"; "Clock" ]
    (Manifest.composition_parts "Gauge2||Log||Clock");
  Alcotest.(check (list string))
    "plain name" [ "Gauge" ]
    (Manifest.composition_parts "Gauge")

let test_resolve_name () =
  let specs, _u = parse_specs (read_file (spec_file "fleet.oun")) in
  (match Manifest.resolve_name specs ~file:"fleet.oun" "Gauge" with
  | Ok s -> Alcotest.(check string) "plain lookup" "Gauge" (Spec.name s)
  | Error m -> Alcotest.failf "resolve Gauge: %s" m);
  (match Manifest.resolve_name specs ~file:"fleet.oun" "Gauge||Log" with
  | Ok s ->
      check_bool "composition token builds a composite" true
        (Spec.parts s <> None)
  | Error m -> Alcotest.failf "resolve Gauge||Log: %s" m);
  check_bool "unknown name is an error" true
    (Result.is_error (Manifest.resolve_name specs ~file:"fleet.oun" "Nope"))

let test_footprints () =
  let entries = fleet_entries () in
  let deps = Deps.of_entries entries in
  check_int "one footprint per query" (List.length entries) (Deps.size deps);
  (* Entry 0 is [refine Gauge2||Log Gauge||Log]: the file plus the
     three distinct component names. *)
  let fp = Deps.inputs deps 0 in
  let e0 = List.nth entries 0 in
  let file = e0.Manifest.file in
  check_int "file + 3 distinct names" 4 (List.length fp);
  List.iter
    (fun i -> check_bool (Format.asprintf "%a" Deps.pp_input i) true
        (List.exists (Deps.equal_input i) fp))
    [
      Deps.In_file file;
      Deps.In_spec { file; name = "Gauge" };
      Deps.In_spec { file; name = "Gauge2" };
      Deps.In_spec { file; name = "Log" };
    ]

(* --- corpus diff + invalidation over the real fleet ------------------- *)

let invalidated_by_edit ~needle ~by =
  let original = read_file (spec_file "fleet.oun") in
  let old_specs, old_universe = parse_specs original in
  let specs, universe = parse_specs (replace ~needle ~by original) in
  let entries = fleet_entries () in
  let file = (List.nth entries 0).Manifest.file in
  let changed =
    Deps.corpus_changes ~file ~old_specs ~old_universe ~specs ~universe
  in
  (changed, Deps.invalidate (Deps.of_entries entries) ~changed)

let test_corpus_changes_gauger () =
  let changed, hit =
    invalidated_by_edit ~needle:gauger_line ~by:gauger_doubled
  in
  check_int "one changed input" 1 (List.length changed);
  check_bool "the changed input is GaugeR" true
    (match changed with
    | [ Deps.In_spec { name = "GaugeR"; _ } ] -> true
    | _ -> false);
  (* GaugeR appears in exactly one fleet query. *)
  check_int "one invalidated query" 1 (List.length hit)

let test_corpus_changes_gauge2 () =
  let changed, hit =
    invalidated_by_edit ~needle:gauge2_line ~by:gauge2_edited
  in
  check_bool "the changed input is Gauge2" true
    (match changed with
    | [ Deps.In_spec { name = "Gauge2"; _ } ] -> true
    | _ -> false);
  (* Gauge2 appears in six of the ten fleet queries. *)
  check_int "six invalidated queries" 6 (List.length hit)

let test_corpus_changes_neutral () =
  let original = read_file (spec_file "fleet.oun") in
  let old_specs, old_universe = parse_specs original in
  let specs, universe = parse_specs (original ^ "\n// digest-neutral\n") in
  let changed =
    Deps.corpus_changes ~file:"fleet.oun" ~old_specs ~old_universe ~specs
      ~universe
  in
  check_int "comment edit changes nothing" 0 (List.length changed)

(* Editing only the classes a counting constraint counts changes the
   spec's content: the diff names it and its query is invalidated. *)
let test_corpus_changes_counting () =
  let old_specs, old_universe, _ = Util.counting_query Util.counted_writes in
  let specs, universe, _ = Util.counting_query Util.counted_reads in
  let changed =
    Deps.corpus_changes ~file:"count.oun" ~old_specs ~old_universe ~specs
      ~universe
  in
  check_bool "the changed input is Y" true
    (match changed with
    | [ Deps.In_spec { name = "Y"; _ } ] -> true
    | _ -> false);
  let entries =
    match
      Manifest.entries_typed ~path:"count.manifest" ~default_depth:6
        "use count.oun\nrefine X Y\n"
    with
    | Ok es -> es
    | Error e -> Alcotest.failf "manifest: %s" (Manifest.input_error_message e)
  in
  Alcotest.(check (list int))
    "refine X Y invalidated" [ 0 ]
    (Deps.invalidate (Deps.of_entries entries) ~changed)

(* The soundness direction of the dep map, as a property: under a
   universe-preserving edit to GaugeR's body, every query whose
   footprint does NOT mention GaugeR keeps its exact base digest (the
   reused verdicts are answers to the same question), and the edited
   query's digest moves. *)
let test_depset_property =
  let gen = QCheck2.Gen.int_range 2 5 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:4 ~name:"untouched footprint, unmoved digest"
       gen (fun k ->
         let original = read_file (spec_file "fleet.oun") in
         let sample = "<x,g,SAMPLE(_)>" in
         let by =
           Printf.sprintf "traces prs (bind x in Env . (%s))*;"
             (String.concat " " (List.init k (fun _ -> sample)))
         in
         let edited = replace ~needle:gauger_line ~by original in
         let old_corpus = parse_specs original in
         let new_corpus = parse_specs edited in
         if
           not
             (String.equal
                (Job.universe_digest (snd old_corpus))
                (Job.universe_digest (snd new_corpus)))
         then QCheck2.Test.fail_report "edit was not universe-preserving";
         let entries = fleet_entries () in
         let deps = Deps.of_entries entries in
         let base corpus e =
           match
             Manifest.request_of_entry ~load:(fun _ -> Ok corpus) e
           with
           | Ok (r : Engine.request) ->
               Qdigest.query_base ~universe:r.Engine.universe r.Engine.query
           | Error e ->
               Alcotest.failf "elaborate: %s" (Manifest.input_error_message e)
         in
         List.for_all
           (fun (i, e) ->
             let touched =
               List.exists
                 (function
                   | Deps.In_spec { name = "GaugeR"; _ } -> true
                   | Deps.In_spec _ | Deps.In_file _ -> false)
                 (Deps.inputs deps i)
             in
             let same = base old_corpus e = base new_corpus e in
             if touched then not same else same)
           (List.mapi (fun i e -> (i, e)) entries)))

(* --- the watcher over a live corpus ----------------------------------- *)

let poll_round w =
  match Watch.poll w with
  | Some r -> r
  | None -> Alcotest.fail "expected a watch round"

let test_watch_counters () =
  let manifest, spec = fleet_copy () in
  let w = Watch.create manifest in
  let r1 = poll_round w in
  check_int "cold round verifies everything" 10 r1.Watch.invalidated;
  check_int "cold round reuses nothing" 0 r1.Watch.reused;
  check_int "ten queries" 10 r1.Watch.total;
  check_int "fleet holds" 0 r1.Watch.failing;
  check_bool "steady state: no round" true (Watch.poll w = None);
  (* One component edit: exactly the six Gauge2 queries re-run. *)
  write_file spec
    (replace ~needle:gauge2_line ~by:gauge2_edited (read_file spec));
  let r2 = poll_round w in
  check_int "six invalidated" 6 r2.Watch.invalidated;
  check_int "four reused" 4 r2.Watch.reused;
  check_int "no flips (refinements still hold)" 0
    (List.length r2.Watch.flips);
  (* A digest-neutral edit: content hash moves, no round runs. *)
  write_file spec (read_file spec ^ "\n// trailing comment\n");
  check_bool "comment edit: no round" true (Watch.poll w = None)

let test_watch_flip () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec in
  let w = Watch.create manifest in
  let r1 = poll_round w in
  check_int "cold round" 10 r1.Watch.invalidated;
  write_file spec (replace ~needle:gauger_line ~by:gauger_doubled original);
  let r2 = poll_round w in
  check_int "one invalidated" 1 r2.Watch.invalidated;
  check_int "nine reused" 9 r2.Watch.reused;
  (match r2.Watch.flips with
  | [ f ] ->
      check_bool "was holding" true (V.to_bool f.Watch.previous);
      check_bool "now refuted" false (V.to_bool f.Watch.verdict)
  | fs -> Alcotest.failf "expected one flip, got %d" (List.length fs));
  check_int "one failing after the flip" 1 r2.Watch.failing;
  (* Reverting flips it back — and only it. *)
  write_file spec original;
  let r3 = poll_round w in
  check_int "revert invalidates one" 1 r3.Watch.invalidated;
  (match r3.Watch.flips with
  | [ f ] -> check_bool "back to holding" true (V.to_bool f.Watch.verdict)
  | fs -> Alcotest.failf "expected one flip, got %d" (List.length fs));
  check_int "none failing" 0 r3.Watch.failing

(* The fleet at scale: the ten stock queries plus every cross-family
   compose/deadlock combination over {Gauge, Gauge2}, {Log, Log2} and
   {Clock}, in every family order — 58 queries, with GaugeR still
   named by exactly one of them. *)
let scale_out =
  let families = [ [ "Gauge"; "Gauge2" ]; [ "Log"; "Log2" ]; [ "Clock" ] ] in
  let rec orders = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun f ->
            List.map
              (fun rest -> f :: rest)
              (orders (List.filter (( != ) f) l)))
          l
  in
  List.concat_map
    (function
      | [ f1; f2; f3 ] ->
          List.concat_map
            (fun x ->
              List.concat_map
                (fun y ->
                  List.concat_map
                    (fun z ->
                      [
                        Printf.sprintf "compose %s||%s %s\n" x y z;
                        Printf.sprintf "deadlock %s||%s %s\n" x y z;
                      ])
                    f3)
                f2)
            f1
      | _ -> assert false)
    (orders families)
  |> String.concat ""

(* A one-spec edit re-verifies one query of 58 and answers the other 57
   from their standing verdicts, so the incremental round is at least
   10x faster than a cold batch over the same manifest — an in-run
   ratio, both sides timed in this process (best of several). *)
let test_incremental_round_at_scale () =
  let manifest, spec = fleet_copy () in
  write_file manifest (read_file manifest ^ scale_out);
  let original = read_file spec in
  let edited = replace ~needle:gauger_line ~by:gauger_doubled original in
  let cold_batch () =
    let t0 = Unix.gettimeofday () in
    match
      Manifest.requests_of_file ~default_depth:6 ~extra_objects:2 manifest
    with
    | Error e -> Alcotest.failf "scaled fleet: %s" e
    | Ok requests ->
        let _, stats = Engine.run_batch ~domains:1 requests in
        check_int "cold batch: jobs" 66 stats.Engine.jobs;
        (Unix.gettimeofday () -. t0) *. 1000.
  in
  let cold_ms =
    List.fold_left min infinity (List.init 3 (fun _ -> cold_batch ()))
  in
  let w = Watch.create ~domains:1 manifest in
  let r0 = poll_round w in
  check_int "cold round: queries" 58 r0.Watch.total;
  check_int "cold round: invalidated" 58 r0.Watch.invalidated;
  check_int "cold round: reused" 0 r0.Watch.reused;
  (* The first edit computes the composite and its premise
     T(GaugeR) = T(Gauge); every later round re-asks a composite the
     session has already answered, one job and no premise. *)
  let rounds =
    List.init 6 (fun k ->
        write_file spec (if k mod 2 = 0 then edited else original);
        let r = poll_round w in
        check_int "incremental: invalidated" 1 r.Watch.invalidated;
        check_int "incremental: reused" 57 r.Watch.reused;
        check_int "incremental: flips" 1 (List.length r.Watch.flips);
        match r.Watch.stats with
        | Some s -> (s.Engine.jobs, r.Watch.elapsed_ms)
        | None -> Alcotest.fail "incremental round ran no engine batch")
  in
  Alcotest.(check (list int))
    "incremental: jobs per round" [ 2; 1; 1; 1; 1; 1 ] (List.map fst rounds);
  let inc_ms = List.fold_left min infinity (List.map snd rounds) in
  if cold_ms < 10. *. inc_ms then
    Alcotest.failf
      "incremental round %.3f ms vs cold batch %.3f ms: %.1fx < 10x" inc_ms
      cold_ms (cold_ms /. inc_ms)

let test_watch_parse_error () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec in
  let w = Watch.create manifest in
  let r1 = poll_round w in
  let before = Watch.verdicts w in
  check_int "ten standing verdicts" 10 (List.length before);
  (* Half-saved file: cut inside the last spec's [traces] section. *)
  let cut =
    let needle = "traces" in
    let nl = String.length needle in
    let rec rfind i =
      if i < 0 then Alcotest.fail "no traces section in fleet.oun"
      else if String.sub original i nl = needle then i
      else rfind (i - 1)
    in
    String.sub original 0 (rfind (String.length original - nl) + 3)
  in
  write_file spec cut;
  let r2 = poll_round w in
  check_int "nothing invalidated" 0 r2.Watch.invalidated;
  check_int "everything reused" r1.Watch.total r2.Watch.reused;
  (match r2.Watch.diagnostics with
  | [ d ] ->
      check_bool "diagnostic carries a byte offset" true
        (d.Manifest.input_offset <> None)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  check_bool "verdicts stand through the breakage" true
    (List.for_all2
       (fun (la, va) (lb, vb) -> String.equal la lb && V.equal va vb)
       before (Watch.verdicts w));
  (* A standing breakage is reported once, not every poll. *)
  check_bool "broken file: no second round" true (Watch.poll w = None);
  (* Restoring the original content is digest-visible but
     semantically neutral: no round. *)
  write_file spec original;
  check_bool "restore: no round" true (Watch.poll w = None)

(* --- the session journal ---------------------------------------------- *)

let jr ~round ~failing ~flips =
  {
    Journal.round;
    failing;
    flips;
    invalidated = flips;
    reused = 10 - flips;
    elapsed_ms = 1.0;
  }

let test_journal_restart () =
  let dir = fresh_dir () in
  let j = Journal.open_ dir in
  check_int "fresh journal starts at 1" 1 (Journal.next_round j);
  List.iter (Journal.append j)
    [
      jr ~round:1 ~failing:3 ~flips:3;
      jr ~round:2 ~failing:2 ~flips:1;
      jr ~round:3 ~failing:1 ~flips:1;
    ];
  let live = Journal.rounds j in
  let live_signal = Journal.signal ~window:3 live in
  check_bool "failures strictly decreasing" true
    (live_signal = Journal.Converging);
  Journal.close j;
  (* Restart: the replayed history and signal match the live ones. *)
  let j2 = Journal.open_ dir in
  let replayed = Journal.rounds j2 in
  check_int "three rounds replayed" 3 (List.length replayed);
  check_bool "replay reproduces the history" true
    (List.for_all2
       (fun (a : Journal.round) (b : Journal.round) ->
         a.Journal.round = b.Journal.round
         && a.Journal.failing = b.Journal.failing
         && a.Journal.flips = b.Journal.flips)
       live replayed);
  check_bool "replayed signal agrees" true
    (Journal.signal ~window:3 replayed = live_signal);
  check_int "numbering continues" 4 (Journal.next_round j2);
  Journal.append j2 (jr ~round:4 ~failing:1 ~flips:0);
  check_bool "steady after a no-change round" true
    (Journal.signal ~window:2 (Journal.rounds j2) = Journal.Steady);
  Journal.close j2

let test_journal_torn_tail () =
  let dir = fresh_dir () in
  let j = Journal.open_ dir in
  List.iter (Journal.append j)
    [ jr ~round:1 ~failing:2 ~flips:2; jr ~round:2 ~failing:1 ~flips:1 ];
  Journal.close j;
  let log = Filename.concat dir "session.log" in
  (* A crash mid-append: a frame header promising more bytes than the
     file holds. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 log in
  output_string oc "\x00\x00\x01\x00torn";
  close_out oc;
  let j2 = Journal.open_ dir in
  check_int "torn tail truncated, rounds intact" 2
    (List.length (Journal.rounds j2));
  (* The journal is appendable again after truncation. *)
  Journal.append j2 (jr ~round:3 ~failing:0 ~flips:1);
  Journal.close j2;
  let j3 = Journal.open_ dir in
  check_int "post-truncation append survives reopen" 3
    (List.length (Journal.rounds j3));
  Journal.close j3

let test_signal_classes () =
  let rs fs =
    List.mapi (fun i f -> jr ~round:(i + 1) ~failing:f ~flips:1) fs
  in
  let sig3 fs = Journal.signal ~window:3 (rs fs) in
  check_bool "converging" true (sig3 [ 5; 3; 1 ] = Journal.Converging);
  check_bool "diverging" true (sig3 [ 1; 3; 5 ] = Journal.Diverging);
  check_bool "steady" true (sig3 [ 2; 2; 2 ] = Journal.Steady);
  check_bool "mixed" true (sig3 [ 2; 4; 3 ] = Journal.Mixed);
  check_bool "singleton is unknown" true (sig3 [ 2 ] = Journal.Unknown);
  check_bool "empty is unknown" true (sig3 [] = Journal.Unknown);
  (* The window looks at the tail only. *)
  check_bool "window ignores old divergence" true
    (Journal.signal ~window:2 (rs [ 1; 9; 7 ]) = Journal.Converging)

let suite =
  [
    Alcotest.test_case "composition parts" `Quick test_composition_parts;
    Alcotest.test_case "resolve_name" `Quick test_resolve_name;
    Alcotest.test_case "dep footprints" `Quick test_footprints;
    Alcotest.test_case "corpus diff: GaugeR edit hits one query" `Quick
      test_corpus_changes_gauger;
    Alcotest.test_case "corpus diff: Gauge2 edit hits six queries" `Quick
      test_corpus_changes_gauge2;
    Alcotest.test_case "corpus diff: counted-class edit hits its query"
      `Quick test_corpus_changes_counting;
    Alcotest.test_case "corpus diff: comment edit hits nothing" `Quick
      test_corpus_changes_neutral;
    test_depset_property;
    Alcotest.test_case "watch: single-edit counters" `Quick
      test_watch_counters;
    Alcotest.test_case "watch: verdict flip and flip back" `Quick
      test_watch_flip;
    Alcotest.test_case "watch: one edit at scale beats a cold batch 10x"
      `Quick test_incremental_round_at_scale;
    Alcotest.test_case "watch: half-saved file leaves verdicts standing"
      `Quick test_watch_parse_error;
    Alcotest.test_case "journal: restart replays history and signal" `Quick
      test_journal_restart;
    Alcotest.test_case "journal: torn tail truncated, never fatal" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "journal: convergence signal classes" `Quick
      test_signal_classes;
  ]
