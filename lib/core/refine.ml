(** The refinement relation Γ′ ⊑ Γ (Def. 2 of the paper).

    Γ′ refines Γ iff

    + O(Γ) ⊆ O(Γ′) — objects may be {e added} (the [new] command);
    + α(Γ) ⊆ α(Γ′) — the alphabet may be {e expanded} with new methods
      and new objects' events;
    + ∀h ∈ T(Γ′) : h/α(Γ) ∈ T(Γ) — on the old alphabet, behaviour only
      becomes more deterministic.

    Clauses 1 and 2 are decided exactly on the symbolic representation.
    Clause 3 is decided over a concrete universe sample; see
    {!strategy} for the available decision routes.  A failed clause 3
    always carries a counterexample trace of Γ′ whose projection
    escapes T(Γ). *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event
module Bmc = Posl_bmc.Bmc
module Dfa = Posl_automata.Dfa
module Nfa = Posl_automata.Nfa
module Verdict = Posl_verdict.Verdict

(* The internal result of the clause checks; the public API reports it
   as typed {!Verdict.t} evidence. *)
type failure =
  | Objects_missing of Oid.Set.t
  | Alphabet_missing of Eventset.t
  | Trace_escape of Trace.t

type result = (Bmc.confidence, failure) Stdlib.result

(* Exact route for clause 3: compile both monitors to DFAs over the
   concrete alphabet of Γ′, project the refined language onto the
   symbols of α(Γ), and decide inclusion.  [None] when either monitor's
   state space exceeds the compilation budget. *)
let trace_clause_automata ctx ~(alphabet : Event.t array) ~(proj : Eventset.t)
    ~(lhs : Tset.t) ~(rhs : Tset.t) : (unit, Trace.t) Stdlib.result option =
  let keep_syms =
    Array.to_list alphabet
    |> List.mapi (fun i e -> (i, e))
    |> List.filter (fun (_, e) -> Eventset.mem e proj)
  in
  let kept = Array.of_list (List.map snd keep_syms) in
  let sym_map = Array.make (Array.length alphabet) None in
  List.iteri (fun j (i, _) -> sym_map.(i) <- Some j) keep_syms;
  match Tset.compile ctx alphabet lhs with
  | None -> None
  | Some lhs_dfa -> (
      match Tset.compile ctx kept rhs with
      | None -> None
      | Some rhs_dfa ->
          (* {h | h/α(Γ) ∈ T(Γ)} as a DFA over the full alphabet:
             symbols outside α(Γ) self-loop.  Clause 3 is then a plain
             language inclusion, and counterexamples are genuine traces
             of Γ′. *)
          let lifted =
            Dfa.lift ~n_syms:(Array.length alphabet)
              ~map:(fun sym -> sym_map.(sym))
              rhs_dfa
          in
          (match Dfa.included lhs_dfa lifted with
          | Ok () -> Some (Ok ())
          | Error word ->
              let h =
                Trace.of_list (List.map (fun s -> alphabet.(s)) word)
              in
              Some (Error h)))

type strategy = Auto | Automata_only
type opts = { strategy : strategy; depth : int }

let opts ?(strategy = Auto) ?(depth = 6) () = { strategy; depth }

let default_opts = opts ()

(* The clause checks, with the decision procedure that settled the
   question (clause 1–2 failures are symbolic; clause 3 is decided by
   compiled automata or on-the-fly exploration). *)
let decide ~strategy ctx ~depth (gamma' : Spec.t) (gamma : Spec.t) :
    result * Verdict.procedure =
  Posl_telemetry.Telemetry.with_span "refine.check"
    ~attrs:[ ("depth", string_of_int depth) ]
  @@ fun () ->
  let missing_objs = Oid.Set.diff (Spec.objs gamma) (Spec.objs gamma') in
  if not (Oid.Set.is_empty missing_objs) then
    (Error (Objects_missing missing_objs), Verdict.Symbolic)
  else
    let missing_alpha =
      Eventset.normalise (Eventset.diff (Spec.alpha gamma) (Spec.alpha gamma'))
    in
    if not (Eventset.is_empty missing_alpha) then
      (Error (Alphabet_missing missing_alpha), Verdict.Symbolic)
    else begin
      let u = Tset.universe ctx in
      let alphabet = Spec.concrete_alphabet u gamma' in
      let lhs = Spec.tset gamma' and rhs = Spec.tset gamma in
      let proj = Spec.alpha gamma in
      (* The automata route decides inclusion on compiled DFAs, so its
         counterexamples are replayed through the reference semantics
         just like the exploration's (which certifies internally). *)
      let certify h =
        Posl_telemetry.Telemetry.with_span "verdict.certify"
          ~attrs:[ ("kind", "automata-inclusion") ]
        @@ fun () ->
        if
          Tset.mem_naive ctx lhs h
          && not (Tset.mem_naive ctx rhs (Eventset.restrict_trace proj h))
        then h
        else
          Verdict.uncertified
            "automata counterexample %a does not refute the inclusion under \
             the reference semantics"
            Trace.pp h
      in
      let automata () =
        try trace_clause_automata ctx ~alphabet ~proj ~lhs ~rhs
        with Tset.Closure_overflow _ -> None
      in
      (* On-the-fly inclusion with antichain subsumption: an exhausted
         (or refuted) run is a lazy automata-theoretic inclusion
         decision and is labelled as such — same claim, same canonical
         lex-least witness as the compiled-DFA route; only a
         budget/depth cut is a bounded search. *)
      let explore ~complete =
        match
          Bmc.check_inclusion ~complete ctx ~alphabet ~depth ~lhs ~proj ~rhs
        with
        | Bmc.Holds Bmc.Exact -> (Ok Bmc.Exact, Verdict.Automata)
        | Bmc.Holds (Bmc.Bounded _ as c) -> (Ok c, Verdict.Bounded_search)
        | Bmc.Refuted h -> (Error (Trace_escape h), Verdict.Automata)
      in
      match strategy with
      | Automata_only -> (
          match automata () with
          | Some (Ok ()) -> (Ok Bmc.Exact, Verdict.Automata)
          | Some (Error h) ->
              (Error (Trace_escape (certify h)), Verdict.Automata)
          | None ->
              invalid_arg
                "Refine.verdict: automata strategy failed to compile monitors")
      | Auto -> (
          (* A hidden-event closure can overflow while exploration runs
             past the depth bound toward exhaustion; the same explorer
             cut at the depth then answers.  An overflow inside the
             bound propagates. *)
          try explore ~complete:true
          with Tset.Closure_overflow _ -> explore ~complete:false)
    end

(* The typed-evidence view of a failure.  [proj] is α(Γ), used to
   attach the projected trace to an escape witness. *)
let evidence_of_failure ~proj = function
  | Objects_missing os -> Verdict.Objects_missing os
  | Alphabet_missing es -> Verdict.Events_missing es
  | Trace_escape h ->
      Verdict.Trace_escape
        { trace = h; projected = Eventset.restrict_trace proj h }

(** [verdict ?opts ctx gamma' gamma] decides Γ′ ⊑ Γ as a structured
    {!Verdict.t} (procedure and depth filled in; the caller adds
    universe digest and elapsed time).  Trace-clause verdicts are
    relative to [ctx]'s universe; counterexamples from every decision
    route are certified against [Tset.mem_naive] before being reported
    ({!Verdict.Uncertified} on disagreement). *)
let verdict ?(opts = default_opts) ctx (gamma' : Spec.t) (gamma : Spec.t) :
    Verdict.t =
  let { strategy; depth } = opts in
  let result, procedure = decide ~strategy ctx ~depth gamma' gamma in
  let v =
    match result with
    | Ok c -> Verdict.holds ~confidence:c ()
    | Error f ->
        (* Object and alphabet failures are symbolic, hence exact; a
           trace escape is a concrete counterexample, also exact. *)
        Verdict.refuted ~confidence:Exact
          [ evidence_of_failure ~proj:(Spec.alpha gamma) f ]
  in
  Verdict.with_context ~procedure ~depth v

(** Boolean convenience wrapper. *)
let refines ?opts ctx gamma' gamma =
  Verdict.is_holds (verdict ?opts ctx gamma' gamma)
