(* Test entry point: one alcotest run over all module suites. *)

let () =
  Alcotest.run "posl"
    [
      ("ident", Test_ident.suite);
      ("cset", Test_cset.suite);
      ("eventset", Test_eventset.suite);
      ("trace", Test_trace.suite);
      ("regex", Test_regex.suite);
      ("automata", Test_automata.suite);
      ("counting", Test_counting.suite);
      ("tset", Test_tset.suite);
      ("spec", Test_spec.suite);
      ("refine", Test_refine.suite);
      ("compose", Test_compose.suite);
      ("bmc", Test_bmc.suite);
      ("component", Test_component.suite);
      ("theory", Test_theory.suite);
      ("verdict", Test_verdict.suite);
      ("examples", Test_examples.suite);
      ("lang", Test_lang.suite);
      ("live", Test_live.suite);
      ("consistency", Test_consistency.suite);
      ("runner", Test_runner.suite);
      ("par", Test_par.suite);
      ("engine", Test_engine.suite);
      ("plan", Test_plan.suite);
      ("store", Test_store.suite);
      ("report", Test_report.suite);
      ("async", Test_async.suite);
      ("ag", Test_ag.suite);
      ("strategies", Test_strategies.suite);
      ("antichain", Test_antichain.suite);
      ("telemetry", Test_telemetry.suite);
      ("serve", Test_serve.suite);
      ("watch", Test_watch.suite);
    ]
