(* The paper-reproduction harness: regenerates every checkable artefact
   of the paper — its figure, its examples, its lemmas and theorems (the
   paper has no measurement tables, see EXPERIMENTS.md) — as tables of
   paper claim vs measured verdict, E1..E15 of DESIGN.md.

   Exits 1 when any row disagrees with the paper (a DISAGREES status, a
   failed theorem-campaign instance, or an unexpected ablation
   outcome), so it doubles as a reproduction gate.  Performance is
   measured by perfbench/, not here.

   Run with: dune exec bench/main.exe *)

module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Internal = Posl_core.Internal
module Component = Posl_core.Component
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace
module Eventset = Posl_sets.Eventset
module Oset = Posl_sets.Oset
module Mset = Posl_sets.Mset
module Regex = Posl_regex.Regex
module Epat = Posl_regex.Epat
module Report = Posl_report.Report
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper
module Oid = Posl_ident.Oid
module Mth = Posl_ident.Mth
module Verdict = Posl_verdict.Verdict

let universe = Spec.adequate_universe Ex.all_specs
let ctx = Tset.ctx universe
let depth = 6
let rand = Random.State.make [| 0x5e5_1ab |]
let generate n gen = QCheck2.Gen.generate ~rand ~n gen

let pp_str pp v = Format.asprintf "%a" pp v

let verdict_of_refine expected g' g =
  let v = Refine.verdict ~opts:(Refine.opts ~depth ()) ctx g' g in
  let measured = Verdict.to_string v in
  let ok = Verdict.is_holds v = expected in
  (measured, ok)

(* Rows that disagree with the paper; any makes the harness exit 1. *)
let disagreements = ref 0

let status ok =
  if ok then "agrees"
  else begin
    incr disagreements;
    "DISAGREES"
  end

(* ------------------------------------------------------------------ *)
(* Section 1: reproduction verdicts                                     *)
(* ------------------------------------------------------------------ *)

(* E1 — Fig. 1: event classification of two overlapping interface
   specifications.  The figure's point: composition hides all events
   between the two objects, including events in neither alphabet ("we
   hide more than we can see"). *)
let e1 () =
  Report.section "E1 (Fig. 1): hiding classification for Client ‖ WriteAcc";
  let g = Ex.client and d = Ex.write_acc in
  let internal = Internal.pair (Oid.v "c") (Oid.v "o") in
  let both = Eventset.inter (Spec.alpha g) (Spec.alpha d) in
  let one_sided =
    Eventset.diff
      (Eventset.inter internal (Eventset.union (Spec.alpha g) (Spec.alpha d)))
      both
  in
  let unseen =
    Eventset.diff internal (Eventset.union (Spec.alpha g) (Spec.alpha d))
  in
  let t = Report.create [ "event class"; "paper"; "measured"; "status" ] in
  let row name expected_nonempty es =
    let nonempty = not (Eventset.is_empty es) in
    Report.add_row t
      [
        name;
        (if expected_nonempty then "non-empty" else "empty");
        (if nonempty then "non-empty" else "empty");
        status (nonempty = expected_nonempty);
      ]
  in
  (* Internal events known to one spec only (stapled arrows of Fig. 1):
     the client's W-calls to o are in both alphabets here, so the
     one-sided class contains e.g. WriteAcc's OW/CW from c. *)
  row "internal ∩ α(Γ) ∩ α(∆) (shared)" true (Eventset.inter internal both);
  row "internal, one-sided" true one_sided;
  row "internal, in neither alphabet (\"hide more than we see\")" true unseen;
  row "visible after composition"
    true
    (Spec.alpha (Compose.interface g d));
  Report.print t

(* E2/E3 — the refinement lattice of Examples 1-3. *)
let e2_e3 () =
  Report.section "E2-E3 (Examples 1-3): the viewpoint refinement lattice";
  let t = Report.create [ "check"; "paper"; "measured"; "status" ] in
  let row name expected g' g =
    let measured, ok = verdict_of_refine expected g' g in
    Report.add_row t
      [ name; (if expected then "refines" else "refuted"); measured; status ok ]
  in
  row "Read2 ⊑ Read" true Ex.read2 Ex.read;
  row "Read ⊑ Read2" false Ex.read Ex.read2;
  row "RW ⊑ Read" true Ex.rw Ex.read;
  row "RW ⊑ Write" true Ex.rw Ex.write;
  row "RW ⊑ Read2" false Ex.rw Ex.read2;
  row "WriteAcc ⊑ Write" true Ex.write_acc Ex.write;
  row "RW2 ⊑ RW" true Ex.rw2 Ex.rw;
  row "RW2 ⊑ WriteAcc" true Ex.rw2 Ex.write_acc;
  row "Client2 ⊑ Client" true Ex.client2 Ex.client;
  Report.print t

(* E4/E5/E6 — composition, projection, deadlock. *)
let e4_e5_e6 () =
  Report.section "E4-E6 (Examples 4-6): composition and deadlock";
  let t = Report.create [ "check"; "paper"; "measured"; "status" ] in
  let comp = Compose.interface Ex.client Ex.write_acc in
  let alphabet = Spec.concrete_alphabet universe comp in
  (* E4a: observable behaviour is OK*. *)
  let ok_star =
    Tset.prs
      (Regex.star
         (Regex.atom
            (Epat.make ~caller:(Epat.Const (Oid.v "c"))
               ~callee:(Epat.Const (Oid.v "om"))
               (Mset.singleton (Mth.v "OK")))))
  in
  (match Bmc.check_equal ctx ~alphabet ~depth ~left:(Spec.tset comp) ~right:ok_star with
  | Bmc.Holds c ->
      Report.add_row t
        [
          "T(Client‖WriteAcc) = ⟨c,o',OK⟩*";
          "equal";
          Format.asprintf "equal [%a]" Bmc.pp_confidence c;
          status true;
        ]
  | Bmc.Refuted _ ->
      Report.add_row t
        [ "T(Client‖WriteAcc) = ⟨c,o',OK⟩*"; "equal"; "NOT equal"; status false ]);
  (* E4b: no deadlock with projection. *)
  let dl = Bmc.find_deadlock ctx ~alphabet ~depth (Spec.tset comp) in
  Report.add_row t
    [
      "Client‖WriteAcc deadlock";
      "none";
      (match dl with None -> "none" | Some h -> pp_str Trace.pp h);
      status (dl = None);
    ];
  (* E4c: ablation — without projection the composition dies at once. *)
  let noproj = Compose.interface_noproj Ex.client Ex.write_acc in
  let np_alpha = Spec.concrete_alphabet universe noproj in
  let dl_np = Bmc.find_deadlock ctx ~alphabet:np_alpha ~depth (Spec.tset noproj) in
  Report.add_row t
    [
      "ablation: no-projection composition";
      "deadlock at ε";
      (match dl_np with
      | Some h when Trace.is_empty h -> "deadlock at ε"
      | Some h -> Format.asprintf "deadlock after %a" Trace.pp h
      | None -> "no deadlock");
      status (match dl_np with Some h -> Trace.is_empty h | None -> false);
    ];
  (* E5: Client2‖WriteAcc = {ε} and still refines. *)
  let comp2 = Compose.interface Ex.client2 Ex.write_acc in
  let a2 = Spec.concrete_alphabet universe comp2 in
  let counts = Bmc.count_traces ctx ~alphabet:a2 ~depth:4 (Spec.tset comp2) in
  let only_eps = Array.to_list counts = [ 1; 0; 0; 0; 0 ] in
  Report.add_row t
    [
      "T(Client2‖WriteAcc)";
      "{ε}";
      (if only_eps then "{ε}" else "larger");
      status only_eps;
    ];
  let m, ok5 = verdict_of_refine true comp2 comp in
  Report.add_row t
    [ "Client2‖WriteAcc ⊑ Client‖WriteAcc (trivially)"; "refines"; m; status ok5 ];
  (* E6: T(RW2‖Client) = T(WriteAcc‖Client). *)
  let left = Compose.interface Ex.rw2 Ex.client in
  let right = Compose.interface Ex.write_acc Ex.client in
  let e6 = Theory.tset_equal ctx ~depth left right in
  Report.add_row t
    [
      "T(RW2‖Client) = T(WriteAcc‖Client)";
      "equal";
      pp_str Theory.pp_outcome e6;
      status (Theory.is_pass e6);
    ];
  Report.print t

(* A deterministic component for E10 (Lemma 13): the ping/note server of
   the test suite. *)
let lemma13_component () =
  let s = Oid.v "o" and t_obj = Oid.v "om" in
  let m_ping = Mth.v "R" and m_note = Mth.v "OK" in
  let behaviour =
    Tset.prs
      (Regex.star
         (Regex.seq
            (Regex.atom
               (Epat.make
                  ~caller:(Epat.In (Oset.cofin_of_list [ s; t_obj ]))
                  ~callee:(Epat.Const s)
                  (Mset.singleton m_ping)))
            (Regex.atom
               (Epat.make ~caller:(Epat.Const s) ~callee:(Epat.Const t_obj)
                  (Mset.singleton m_note)))))
  in
  let component =
    Component.of_objects
      [
        Component.model_object ~oid:s behaviour;
        Component.model_object ~oid:t_obj Tset.all;
      ]
  in
  let ping =
    Eventset.calls
      ~callers:(Oset.cofin_of_list [ s; t_obj ])
      ~callees:(Oset.singleton s) (Mset.singleton m_ping)
  in
  let view1 = Spec.v ~name:"PingAny" ~objs:[ s ] ~alpha:ping Tset.all in
  let view2 =
    Spec.v ~name:"PingSeq" ~objs:[ s ] ~alpha:ping
      (Tset.prs
         (Regex.star
            (Regex.atom
               (Epat.make
                  ~caller:(Epat.In (Oset.cofin_of_list [ s; t_obj ]))
                  ~callee:(Epat.Const s)
                  (Mset.singleton m_ping)))))
  in
  (component, view1, view2)

(* E7-E13 — randomized theorem campaigns. *)
let theorem_campaigns () =
  Report.section
    "E7-E13: theorem campaigns (randomized; substitutes for the PVS proofs)";
  let sc = Gen.default_scenario in
  let gctx = Tset.ctx sc.Gen.universe in
  let cdepth = 4 in
  let t =
    Report.create [ "proposition"; "instances"; "pass"; "vacuous"; "fail" ]
  in
  let campaign name n gen check =
    let pass = ref 0 and vac = ref 0 and fail = ref 0 in
    List.iter
      (fun inst ->
        let o = check inst in
        if Theory.is_pass o then incr pass
        else if Theory.is_vacuous o then incr vac
        else incr fail)
      (generate n gen);
    if !fail > 0 then incr disagreements;
    Report.add_row t
      [ name; string_of_int n; string_of_int !pass; string_of_int !vac;
        string_of_int !fail ]
  in
  let open QCheck2.Gen in
  let k0 = Oid.v "k0" and k1 = Oid.v "k1" and r0 = Oid.v "r0" in
  campaign "Property 5: Γ‖Γ = Γ" 60 (Gen.interface_spec sc k0) (fun g ->
      Theory.property5 gctx ~depth:cdepth g);
  campaign "Lemma 6: Γ₁‖Γ₂ ⊑ Γᵢ" 40
    (pair (Gen.interface_spec sc k0) (Gen.interface_spec sc k0))
    (fun (g1, g2) -> Theory.lemma6_refines gctx ~depth:cdepth g1 g2);
  campaign "Theorem 7: Γ′⊑Γ ⇒ Γ′‖∆ ⊑ Γ‖∆" 40
    (let* g = Gen.interface_spec sc k0 in
     let* g' = Gen.refinement_of sc g in
     let* d = Gen.interface_spec sc k1 in
     pure (g', g, d))
    (fun (gamma', gamma, delta) ->
      Theory.theorem7 gctx ~depth:cdepth ~gamma' ~gamma ~delta);
  (let component, view1, view2 = lemma13_component () in
   campaign "Lemma 13: soundness preserved" 1 (pure ()) (fun () ->
       Theory.lemma13 ctx ~depth:5 component view1 view2));
  let gen_triple ~new_objs =
    let* g = Gen.spec sc [ k0 ] in
    let* g' = Gen.refinement_of ~new_objs sc g in
    let* d = Gen.spec sc [ k1 ] in
    pure (g', g, d)
  in
  campaign "Lemma 15: alphabet preserved" 40 (gen_triple ~new_objs:[ r0 ])
    (fun (gamma', gamma, delta) -> Theory.lemma15 ~gamma' ~gamma ~delta);
  campaign "Theorem 16: proper compositional refinement" 30
    (gen_triple ~new_objs:[ r0 ])
    (fun (gamma', gamma, delta) ->
      Theory.theorem16 gctx ~depth:cdepth ~gamma' ~gamma ~delta);
  campaign "Property 17: composability preserved" 40 (gen_triple ~new_objs:[])
    (fun (gamma', gamma, delta) -> Theory.property17 ~gamma' ~gamma ~delta);
  campaign "Theorem 18: no-new-object case" 30 (gen_triple ~new_objs:[])
    (fun (gamma', gamma, delta) ->
      Theory.theorem18 gctx ~depth:cdepth ~gamma' ~gamma ~delta);
  campaign "Filter law h/S₁\\S₂ = h\\S₂/(S₁−S₂)" 200
    (triple (Gen.trace sc) (Gen.eventset sc) (Gen.eventset sc))
    (fun (h, s1, s2) ->
      if Theory.filter_law s1 s2 h then
        Posl_verdict.Verdict.holds ~confidence:Bmc.Exact ()
      else
        Posl_verdict.Verdict.refuted
          [
            Posl_verdict.Verdict.Law_violation
              { law = "filter law h/S₁\\S₂ = h\\S₂/(S₁−S₂)"; trace = h };
          ]);
  Report.print t;
  (* The negative side: properness is necessary.  A deterministic
     improper instance must break the conclusion of Theorem 16. *)
  let m = Mth.v "m0" in
  let mon = Oid.v "e1" in
  let delta =
    Spec.v ~name:"D" ~objs:[ k1 ]
      ~alpha:
        (Eventset.calls ~callers:(Oset.singleton k1)
           ~callees:(Oset.singleton mon) (Mset.singleton m))
      Tset.all
  in
  let gamma =
    Spec.v ~name:"G" ~objs:[ k0 ]
      ~alpha:
        (Eventset.calls
           ~callers:(Oset.of_list [ Oid.v "e0" ])
           ~callees:(Oset.singleton k0) (Mset.singleton m))
      Tset.all
  in
  let gamma' =
    Spec.v ~name:"G'" ~objs:[ k0; mon ] ~alpha:(Spec.alpha gamma)
      (Spec.tset gamma)
  in
  let broke =
    match (Compose.compose gamma' delta, Compose.compose gamma delta) with
    | Ok rc, Ok ac ->
        not (Refine.refines ~opts:(Refine.opts ~depth:cdepth ()) gctx rc ac)
    | _ -> false
  in
  if not broke then incr disagreements;
  Format.printf
    "ablation: dropping properness breaks Theorem 16's conclusion: %s@."
    (if broke then "yes (as the paper motivates)" else "NO (unexpected)")

(* E14 — the liveness extension (the paper's future work, Section 9):
   Example 5's phenomenon as an analysis. *)
let e14 () =
  Report.section
    "E14: liveness extension (Sec. 9 future work) — deadlock preservation";
  let t = Report.create [ "check"; "expected"; "measured"; "status" ] in
  let module Live = Posl_live.Live in
  (* Client → Client2 breaks deadlock freedom of the composition. *)
  (match
     Live.compositional_deadlock_preservation ctx ~depth ~gamma':Ex.client2
       ~gamma:Ex.client ~delta:Ex.write_acc
   with
  | Error h ->
      Report.add_row t
        [
          "Client→Client2 preserves ‖WriteAcc liveness";
          "broken (Example 5)";
          Format.asprintf "fresh deadlock after %a" Trace.pp h;
          status true;
        ]
  | Ok () ->
      Report.add_row t
        [
          "Client→Client2 preserves ‖WriteAcc liveness";
          "broken (Example 5)";
          "preserved";
          status false;
        ]);
  (* WriteAcc → RW2 is harmless (Example 6's refinement). *)
  (match
     Live.compositional_deadlock_preservation ctx ~depth ~gamma':Ex.rw2
       ~gamma:Ex.write_acc ~delta:Ex.client
   with
  | Ok () ->
      Report.add_row t
        [
          "WriteAcc→RW2 preserves ‖Client liveness";
          "preserved";
          "preserved";
          status true;
        ]
  | Error h ->
      Report.add_row t
        [
          "WriteAcc→RW2 preserves ‖Client liveness";
          "preserved";
          Format.asprintf "deadlock after %a" Trace.pp h;
          status false;
        ]);
  (* Live refinement rejects Client2 under a progress obligation. *)
  let mth_events m =
    Eventset.calls ~args:Posl_sets.Argsel.full ~callers:Oset.full
      ~callees:Oset.full (Mset.singleton m)
  in
  let ow_answerable =
    Live.obligation ~name:"ow-answerable" ~trigger:(mth_events Ex.m_ow)
      ~response:(mth_events Ex.m_cw)
  in
  let refined =
    Live.v ~deadlock_free:false ~obligations:[ ow_answerable ] Ex.client2
  in
  let abstract = Live.v ~deadlock_free:false Ex.client in
  (let v =
     Live.refine ~opts:(Posl_core.Refine.opts ~depth ()) ctx refined abstract
   in
   let module V = Posl_verdict.Verdict in
   let liveness_rejection =
     (not (V.is_holds v))
     && List.exists
          (function
            | V.Unanswerable _ | V.Deadlock _ -> true
            | _ -> false)
          v.V.evidence
   in
   if liveness_rejection then
     Report.add_row t
       [
         "Client2 ⊑live Client (with obligation)";
         "rejected";
         "rejected (obligation unanswerable)";
         status true;
       ]
   else
     Report.add_row t
       [
         "Client2 ⊑live Client (with obligation)";
         "rejected";
         "accepted";
         status false;
       ]);
  Report.print t

(* E15 — non-trivial consistency (Section 7's discussion of Boiten et
   al.). *)
let e15 () =
  Report.section "E15: non-trivial consistency (Sec. 7)";
  let module Consistency = Posl_core.Consistency in
  let t = Report.create [ "pair"; "expected"; "measured"; "status" ] in
  let row name expected a b =
    let v =
      Consistency.verdict ~opts:(Posl_core.Refine.opts ~depth ()) ctx a b
    in
    let module V = Posl_verdict.Verdict in
    let measured = V.to_string v in
    let got =
      match v.V.status with
      | V.Holds -> `Consistent
      | V.Refuted -> `Trivial
      | V.Vacuous -> `Incomparable
    in
    Report.add_row t
      [
        name;
        (match expected with
        | `Consistent -> "consistent"
        | `Trivial -> "only trivial"
        | `Incomparable -> "not composable");
        measured;
        status (got = expected);
      ]
  in
  row "Write vs Read2 (mergeable viewpoints)" `Consistent Ex.write Ex.read2;
  row "Read vs Write" `Consistent Ex.read Ex.write;
  let mk_order name first second =
    let a m =
      Regex.atom
        (Epat.make ~caller:(Epat.Const Ex.c) ~callee:(Epat.Const Ex.o)
           (Mset.singleton m))
    in
    Spec.v ~name ~objs:[ Ex.o ]
      ~alpha:
        (Eventset.calls
           ~callers:(Oset.cofin_of_list [ Ex.o ])
           ~callees:(Oset.singleton Ex.o)
           (Mset.of_list [ Ex.m_ow; Ex.m_cw ]))
      (Tset.prs (Regex.star (Regex.seq (a first) (a second))))
  in
  row "contradicting open/close orders" `Trivial
    (mk_order "OwFirst" Ex.m_ow Ex.m_cw)
    (mk_order "CwFirst" Ex.m_cw Ex.m_ow);
  Report.print t

let () =
  Format.printf
    "posl experiment harness — Johnsen & Owe, Composition and Refinement for@.\
     Partial Object Specifications (2002).  Paper claims vs measured verdicts.@.";
  e1 ();
  e2_e3 ();
  e4_e5_e6 ();
  theorem_campaigns ();
  e14 ();
  e15 ();
  if !disagreements > 0 then begin
    Format.printf "@.%d result(s) disagree with the paper.@." !disagreements;
    exit 1
  end;
  Format.printf "@.done: every result agrees with the paper.@."
