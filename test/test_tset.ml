(* Trace sets: the unified monitor semantics against the denotational
   reference, prefix closure by construction, and exact DFA
   compilation. *)

open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Dfa = Posl_automata.Dfa
module G = QCheck2.Gen
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper
module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Bmc = Posl_bmc.Bmc
module Par = Posl_par.Par
module Metrics = Posl_telemetry.Metrics

let sc = Util.sc
let ctx = Util.ctx
let probes = Eventset.sample sc.Gen.universe Eventset.full
let gen_tset = Gen.tset_within sc probes
let gen_trace = Gen.trace ~max_len:5 sc

let word_index alphabet e =
  let rec find i =
    if i >= Array.length alphabet then Alcotest.fail "event outside alphabet"
    else if Posl_trace.Event.equal alphabet.(i) e then i
    else find (i + 1)
  in
  find 0

let qsuite =
  [
    Util.qtest ~count:300 "monitor agrees with denotational semantics"
      (G.pair gen_tset gen_trace) (fun (t, h) ->
        Tset.mem ctx t h = Tset.mem_naive ctx t h);
    Util.qtest ~count:200 "membership is prefix closed"
      (G.pair gen_tset gen_trace) (fun (t, h) ->
        if Tset.mem ctx t h then
          List.for_all (fun p -> Tset.mem ctx t p) (Trace.prefixes h)
        else true);
    Util.qtest ~count:100 "compile agrees with membership"
      (G.pair gen_tset gen_trace) (fun (t, h) ->
        let alphabet = Array.of_list probes in
        match Tset.compile ctx alphabet t with
        | None -> QCheck2.assume_fail ()
        | Some dfa ->
            let word = List.map (word_index alphabet) (Trace.to_list h) in
            Dfa.accepts dfa word = Tset.mem ctx t h);
    Util.qtest ~count:200 "conj is intersection" (G.pair (G.pair gen_tset gen_tset) gen_trace)
      (fun ((t1, t2), h) ->
        Tset.mem ctx (Tset.conj [ t1; t2 ]) h
        = (Tset.mem ctx t1 h && Tset.mem ctx t2 h));
    Util.qtest ~count:200 "restrict is projection membership"
      (G.triple gen_tset (Gen.eventset sc) gen_trace) (fun (t, es, h) ->
        Tset.mem ctx (Tset.restrict es t) h
        = Tset.mem ctx t (Eventset.restrict_trace es h));
    Util.qtest ~count:200 "All accepts everything" gen_trace (fun h ->
        Tset.mem ctx Tset.all h);
  ]

(* The Forall_obj constructor on the paper's Read2 semantics. *)
let test_forall_obj () =
  let ctx = Util.paper_ctx in
  let t = Posl_core.Spec.tset Ex.read2 in
  let or_ x = Util.ev x "o" "OR"
  and cr x = Util.ev x "o" "CR"
  and r x = Util.ev ~arg:(Posl_ident.Value.v "d1") x "o" "R" in
  let mem h = Tset.mem ctx t (Util.tr h) in
  Util.check_bool "empty" true (mem []);
  Util.check_bool "bracketed read" true (mem [ or_ "c"; r "c"; cr "c" ]);
  Util.check_bool "unbracketed read rejected" false (mem [ r "c" ]);
  Util.check_bool "two concurrent readers fine" true
    (mem [ or_ "c"; or_ "obj1"; r "obj1"; r "c"; cr "c"; cr "obj1" ]);
  Util.check_bool "reader reads for someone else rejected" false
    (mem [ or_ "c"; r "obj1" ])

(* The Product constructor: observable behaviour of Client‖WriteAcc is
   exactly OK* (Example 4). *)
let test_product_observable () =
  let ctx = Util.paper_ctx in
  let comp = Posl_core.Compose.interface Ex.client Ex.write_acc in
  let t = Posl_core.Spec.tset comp in
  let ok = Util.ev "c" "om" "OK" in
  Util.check_bool "ε observable" true (Tset.mem ctx t Trace.empty);
  Util.check_bool "OK observable" true (Tset.mem ctx t (Util.tr [ ok ]));
  Util.check_bool "OK OK observable" true (Tset.mem ctx t (Util.tr [ ok; ok ]));
  (* A W call to a third object never happens: the client only writes to
     o (hidden in the composition). *)
  Util.check_bool "stray W not observable" false
    (Tset.mem ctx t (Util.tr [ Util.ev ~arg:(Posl_ident.Value.v "d1") "c" "obj1" "W" ]))

let test_closure_overflow_guard () =
  (* A tiny cap must trip the safety valve on a composition that needs
     internal closure. *)
  let tight = Tset.ctx ~closure_cap:0 Util.paper_universe in
  let comp = Posl_core.Compose.interface Ex.client Ex.write_acc in
  let ok = Util.ev "c" "om" "OK" in
  match Tset.mem tight (Posl_core.Spec.tset comp) (Util.tr [ ok ]) with
  | exception Tset.Closure_overflow _ -> ()
  | _ -> Alcotest.fail "expected Closure_overflow"

let test_pointwise_largest_prefix_closed () =
  (* Pointwise with a non-monotone predicate: membership requires all
     prefixes to satisfy it (largest prefix-closed subset). *)
  let p h = Trace.length h <> 1 in
  let t = Tset.pointwise "len-not-1" p in
  Util.check_bool "ε in" true (Tset.mem ctx t Trace.empty);
  Util.check_bool "length 1 out" false
    (Tset.mem ctx t (Util.tr [ Util.ev "a" "b" "m" ]));
  (* length 2 satisfies p but its prefix of length 1 does not *)
  Util.check_bool "length 2 out too" false
    (Tset.mem ctx t (Util.tr [ Util.ev "a" "b" "m"; Util.ev "a" "b" "m" ]))

let test_compile_pointwise_unbounded () =
  (* Pointwise monitors carry the whole prefix: unbounded state space,
     so compilation must give up (None) rather than loop. *)
  let t = Tset.pointwise "accept-all" (fun _ -> true) in
  let alphabet = Array.of_list probes in
  match Tset.compile ~max_states:50 ctx alphabet t with
  | None -> ()
  | Some _ -> Alcotest.fail "expected compilation to give up"

let test_outside_universe_event_rejected_or_loud () =
  (* An event whose identifiers are outside the context universe:
     either it matches no atom of the compiled expression (clean
     rejection) or the library must fail loudly rather than give a
     wrong verdict. *)
  let ctx = Util.paper_ctx in
  let t = Posl_core.Spec.tset Ex.write in
  let stranger = Util.ev "zz_unknown" "o" "OW" in
  (match Tset.mem ctx t (Util.tr [ stranger ]) with
  | exception Invalid_argument _ -> () (* loud: universe too small *)
  | false -> () (* clean rejection *)
  | true -> Alcotest.fail "an unsampled caller cannot be accepted")

(* --- one context shared across domains -------------------------------- *)

(* The context's DFA traffic, read from the process registry where
   posl.tset counts it: every compile is one sample of the compile-time
   histogram, every memo hit one counter increment. *)
let dfa_compiles () =
  Metrics.count (Metrics.histogram "posl_tset_dfa_compile_ms")

let dfa_hits () = Metrics.value (Metrics.counter "posl_tset_dfa_cache_hits_total")

(* Every paper specification against a handful of traces over its
   cast, repeated so domains overlap on already/not-yet compiled
   regexes. *)
let shared_ctx_work () =
  let ow = Util.ev "c" "o" "OW"
  and cw = Util.ev "c" "o" "CW"
  and w = Util.ev ~arg:(Posl_ident.Value.v "d1") "c" "o" "W"
  and r = Util.ev "c" "o" "R" in
  let traces =
    [
      Trace.empty;
      Util.tr [ ow ];
      Util.tr [ ow; w; cw ];
      Util.tr [ w ];
      Util.tr [ ow; w; w; cw; ow; cw ];
      Util.tr [ r; r; r ];
      Util.tr [ ow; r ];
      Util.tr [ cw ];
    ]
  in
  let tsets = List.map Spec.tset Ex.all_specs in
  let cases =
    List.concat_map (fun t -> List.map (fun h -> (t, h)) traces) tsets
  in
  cases @ cases @ cases @ cases

(* Verdict equality: membership verdicts computed by 4 domains sharing
   ONE context (one memo, overlapping regexes compiled concurrently)
   must equal a serial run on a fresh context; the shared memo must
   compile exactly the serial automata set — compiles happen under the
   context's lock, so a race never compiles twice — and be hit across
   domains. *)
let test_shared_ctx_verdicts () =
  let work = shared_ctx_work () in
  let c0 = dfa_compiles () in
  let serial_ctx = Tset.ctx Util.paper_universe in
  let expected = List.map (fun (t, h) -> Tset.mem serial_ctx t h) work in
  let serial_compiles = dfa_compiles () - c0 in
  let shared = Tset.ctx Util.paper_universe in
  let c1 = dfa_compiles () and h1 = dfa_hits () in
  let got = Par.map_dyn ~domains:4 (fun (t, h) -> Tset.mem shared t h) work in
  Util.check_bool "serial ≡ 4-domain shared-context verdicts" true
    (expected = got);
  Util.check_bool "the serial run compiled automata" true (serial_compiles > 0);
  Util.check_int "shared context compiled exactly the serial set"
    serial_compiles (dfa_compiles () - c1);
  Util.check_bool "shared memo was hit across domains" true
    (dfa_hits () - h1 > 0)

(* Exploration on a shared context: clause 3 of Def. 2 for every
   ordered pair of the paper cast and a deadlock search of every spec
   and of Examples 4–5's compositions, each rendered with its witness.
   These read and fill the context's successor rows without its lock. *)
let exploration_work () =
  let u = Util.paper_universe and depth = 6 in
  let inclusion g' g ctx =
    Format.asprintf "%a" (Bmc.pp_verdict Trace.pp)
      (Bmc.check_inclusion ctx ~alphabet:(Spec.concrete_alphabet u g') ~depth
         ~lhs:(Spec.tset g') ~proj:(Spec.alpha g) ~rhs:(Spec.tset g))
  and deadlock g ctx =
    Format.asprintf "%a"
      (Format.pp_print_option ~none:(Fmt.any "none") Trace.pp)
      (Bmc.find_deadlock ctx ~alphabet:(Spec.concrete_alphabet u g) ~depth
         (Spec.tset g))
  in
  let compositions =
    [ Compose.interface Ex.client Ex.write_acc;
      Compose.interface Ex.client2 Ex.write_acc ]
  in
  List.concat_map
    (fun g' ->
      List.filter_map
        (fun g -> if g' == g then None else Some (inclusion g' g))
        Ex.all_specs)
    Ex.all_specs
  @ List.map deadlock (Ex.all_specs @ compositions)

(* 4 domains hammer one fresh shared context per round, each domain
   walking the corpus from a different offset so first compiles of one
   regex race across domains, and so do first fills of one successor
   row: membership queries, then inclusion checks and deadlock
   searches.  Every round's verdicts and witnesses must equal the
   serial run, and afterwards a serial re-run on the shared context
   must compile nothing: every automaton is in the memo, whichever
   domain compiled it. *)
let test_domain_hammer () =
  let work = Array.of_list (shared_ctx_work ()) in
  let n = Array.length work in
  let explore = Array.of_list (exploration_work ()) in
  let m = Array.length explore in
  let serial_ctx = Tset.ctx Util.paper_universe in
  let expected = Array.map (fun (t, h) -> Tset.mem serial_ctx t h) work in
  let expected_explore = Array.map (fun run -> run serial_ctx) explore in
  for round = 1 to 6 do
    let shared = Tset.ctx Util.paper_universe in
    let walk d =
      let got = Array.make n false in
      for k = 0 to n - 1 do
        let i = (k + (d * n / 4)) mod n in
        let t, h = work.(i) in
        got.(i) <- Tset.mem shared t h
      done;
      let explored = Array.make m "" in
      for k = 0 to m - 1 do
        let i = (k + (d * m / 4)) mod m in
        explored.(i) <- explore.(i) shared
      done;
      (got, explored)
    in
    (* One spawned domain per walk: [Par.map_dyn] runs a list this
       short on the calling domain alone. *)
    let runs =
      List.init 4 (fun d -> Domain.spawn (fun () -> walk d))
      |> List.map Domain.join
    in
    List.iteri
      (fun d (got, explored) ->
        Util.check_bool
          (Printf.sprintf "round %d, domain %d ≡ serial" round d)
          true (got = expected);
        Array.iteri
          (fun i want ->
            Alcotest.(check string)
              (Printf.sprintf "round %d, domain %d, exploration %d ≡ serial"
                 round d i)
              want explored.(i))
          expected_explore)
      runs;
    let c0 = dfa_compiles () in
    let again = Array.map (fun (t, h) -> Tset.mem shared t h) work in
    Util.check_bool "serial re-run ≡ serial" true (again = expected);
    Util.check_int
      (Printf.sprintf "round %d: serial re-run compiles nothing" round)
      0
      (dfa_compiles () - c0)
  done

let suite =
  [
    Alcotest.test_case "forall-obj (Read2 semantics)" `Quick test_forall_obj;
    Alcotest.test_case "compile gives up on unbounded monitors" `Quick
      test_compile_pointwise_unbounded;
    Alcotest.test_case "events outside the universe" `Quick
      test_outside_universe_event_rejected_or_loud;
    Alcotest.test_case "product observable behaviour" `Quick
      test_product_observable;
    Alcotest.test_case "closure overflow guard" `Quick
      test_closure_overflow_guard;
    Alcotest.test_case "pointwise largest prefix-closed subset" `Quick
      test_pointwise_largest_prefix_closed;
    Alcotest.test_case "serial ≡ shared-context verdicts (4 domains)" `Slow
      test_shared_ctx_verdicts;
    Alcotest.test_case "4-domain hammer, one shared context" `Slow
      test_domain_hammer;
  ]
  @ qsuite
