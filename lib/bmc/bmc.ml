(** State-space exploration over trace-set monitors.

    The verification questions of the paper that are not purely
    set-algebraic all reduce to reachability over the product of
    trace-set monitors:

    - clause 3 of refinement (Def. 2): every trace of Γ′ projects into
      T(Γ) — an inclusion between the survival language of one monitor
      and the (projected) survival language of another;
    - trace-set equality of compositions (Example 6);
    - deadlock analysis (Examples 4 and 5): reachable monitor states
      with no enabled events.

    Exploration is breadth-first over interned monitor-state ids, on
    one domain so that witness order is canonical.  When the reachable
    state space is exhausted, the verdict holds for {e all} depths over
    the given concrete alphabet and is reported {!Exact}; otherwise it
    is {!Bounded} by the depth. *)

module Tset = Posl_tset.Tset
module Event = Posl_trace.Event
module Trace = Posl_trace.Trace
module Eventset = Posl_sets.Eventset
module Verdict = Posl_verdict.Verdict
module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics

(* These metric names, and the explorer's "bmc.antichain" span, are
   read by name by the benchmark and CI, so they keep their
   "antichain" wording. *)
let antichain_pairs_c =
  Metrics.counter ~help:"Frontier pairs admitted by the inclusion explorer"
    "posl_bmc_antichain_pairs_total"

let antichain_prunes_c =
  Metrics.counter
    ~help:"Frontier pairs dropped on arrival as already visited"
    "posl_bmc_antichain_prunes_total"

type confidence = Verdict.confidence = Exact | Bounded of int

let pp_confidence = Verdict.pp_confidence

type 'a verdict = Holds of confidence | Refuted of 'a

let pp_verdict pp_refutation ppf = function
  | Holds c -> Format.fprintf ppf "holds [%a]" pp_confidence c
  | Refuted r -> Format.fprintf ppf "refuted: %a" pp_refutation r

(* An exhausted or refuted run is a lazy automata-theoretic inclusion
   decision — same claim, same canonical lex-least witness as the
   compiled-DFA route; only a budget/depth cut is a bounded search. *)
let procedure = function
  | Holds (Bounded _) -> Verdict.Bounded_search
  | Holds Exact | Refuted _ -> Verdict.Automata

(** {1 Self-certification}

    Every counterexample the exploration produces is replayed through
    the denotational reference semantics ([Tset.mem_naive]) before it
    is reported: a wrong monitor/product implementation cannot emit a
    plausible-looking witness. *)

(* h refutes [lhs ⊆ rhs ∘ proj] iff h ∈ lhs and h/proj ∉ rhs. *)
let certify_inclusion ctx ~lhs ~proj ~rhs h =
  Telemetry.with_span "verdict.certify"
    ~attrs:
      [ ("kind", "inclusion"); ("witness_len", string_of_int (Trace.length h)) ]
  @@ fun () ->
  if not (Tset.mem_naive ctx lhs h) then
    Verdict.uncertified
      "inclusion counterexample %a is not a trace of the refined side"
      Trace.pp h;
  if Tset.mem_naive ctx rhs (Eventset.restrict_trace proj h) then
    Verdict.uncertified
      "inclusion counterexample %a projects back into the abstract trace set"
      Trace.pp h;
  h

(* h witnesses a deadlock of t iff h is reachable (h ∈ t, or h = ε for
   the degenerate empty trace set) and no event of the alphabet extends
   it inside t. *)
let certify_deadlock ctx ~alphabet t h =
  Telemetry.with_span "verdict.certify"
    ~attrs:
      [ ("kind", "deadlock"); ("witness_len", string_of_int (Trace.length h)) ]
  @@ fun () ->
  if not (Trace.is_empty h || Tset.mem_naive ctx t h) then
    Verdict.uncertified "deadlock witness %a is not a trace of the spec"
      Trace.pp h;
  Array.iter
    (fun e ->
      if Tset.mem_naive ctx t (Trace.snoc h e) then
        Verdict.uncertified "deadlock witness %a can be extended by %a"
          Trace.pp h Event.pp e)
    alphabet;
  h

(** {1 Trace-set inclusion under projection}

    [check_inclusion ctx ~alphabet ~depth ~lhs ~proj ~rhs] decides
    whether every trace of [lhs] over the concrete [alphabet] satisfies
    [h/proj ∈ rhs].  This is clause 3 of Def. 2 with [lhs = T(Γ′)],
    [proj = α(Γ)], [rhs = T(Γ)].

    It is decided on the fly by exploring the product of the [lhs]
    monitor against the [rhs] monitor on interned small-int state ids
    with memoized successor rows.  Frontier pairs are de-duplicated by
    packed [(lhs, rhs)] id: interning is canonical (a [Product] state
    is its sorted composite set), so equal ids are equal pairs, and
    exhausting the frontier is [Exact].  Refutations are
    raised at the first rhs death in discovery order, which is the
    lexicographically-least shortest violating word — the same
    canonical witness the automata route produces.

    With [complete] (default), exploration continues past [depth]
    until exhaustion (reported [Exact]) or until more than [budget]
    pairs have been admitted (reported [Bounded depth]); with
    [~complete:false] it stops at [depth].  A closure overflow past
    the depth re-runs the explorer cut at the depth; one inside the
    bound propagates. *)
exception Cex of Trace.t

let explore ~complete ~budget (ctx : Tset.ctx) ~(alphabet : Event.t array)
    ~depth ~(lhs : Tset.t) ~(proj : Eventset.t) ~(rhs : Tset.t) :
    Trace.t verdict =
  match rhs with
  | Tset.All ->
      (* h/proj ∈ All for every h: clause 3 holds outright, with the
         same confidence and witness story as a full exploration
         (there is nothing to refute).  The unified checker simplifies
         algebraically before exploring — Example 1's Read ("no
         restrictions") is refined by everything, and the compiled
         route pays a whole lhs compilation to learn that. *)
      Holds Exact
  | _ -> (
  match Tset.start ctx lhs with
  | None -> Holds Exact (* T(Γ′) degenerate: even ε is outside it *)
  | Some lhs0 -> (
      match Tset.start ctx rhs with
      | None ->
          (* ε ∈ T(Γ′) but ε ∉ T(Γ) *)
          Refuted (certify_inclusion ctx ~lhs ~proj ~rhs Trace.empty)
      | Some rhs0 ->
          Telemetry.with_span "bmc.antichain" @@ fun () ->
          (* Running past the depth cut only pays off when revisited
             states de-duplicate; a [Pointwise] member mints a fresh
             state per path, so completion would enumerate paths
             exponentially.  Fall back to the plain depth-cut
             semantics for those monitors (matching what the automata
             route does: pointwise monitors never compile either). *)
          let complete = complete && Tset.finitary lhs && Tset.finitary rhs in
          let alphabet = Array.map (Tset.hashcons_event ctx) alphabet in
          let n = Array.length alphabet in
          let proj_mask = Array.map (fun e -> Eventset.mem e proj) alphabet in
          let all_mask = Array.make n true in
          let eids = Array.map (Tset.event_id ctx) alphabet in
          (* Memoized successor rows: interned state id -> per-symbol
             successor id, [-1] = dead, [-2] = not yet computed.  Cells
             are filled lazily — rhs states are only stepped at symbols
             where the lhs survives, and never outside the projection —
             and each fill goes through the context's persistent row
             cache ({!Tset.step_id}), so a monitor appearing in many
             refinement pairs — every corpus spec does — steps each
             state once per context, not once per pair; the per-call
             table only short-circuits the per-cell cache lookups. *)
          let ltid = Tset.tset_id ctx lhs and rtid = Tset.tset_id ctx rhs in
          let cell tbl tset tid mask =
            let lookup id s =
              let r =
                match Hashtbl.find_opt tbl id with
                | Some r -> r
                | None ->
                    let r = Array.make n (-2) in
                    Hashtbl.add tbl id r;
                    r
              in
              let v = r.(s) in
              if v <> -2 then v
              else
                let v =
                  if not mask.(s) then -1
                  else
                    Tset.step_id ctx tset ~tset_id:tid ~event_id:eids.(s) id
                      alphabet.(s)
                in
                r.(s) <- v;
                v
            in
            lookup
          in
          let lcell = cell (Hashtbl.create 256) lhs ltid all_mask in
          let rcell = cell (Hashtbl.create 256) rhs rtid proj_mask in
          let visited_pairs = Hashtbl.create 1024 in
          let admitted = ref 0 and duplicates = ref 0 in
          let admit l r =
            (* ids stay well under 2^31 in any feasible run *)
            let key = (l lsl 31) lor r in
            if Hashtbl.mem visited_pairs key then begin
              incr duplicates;
              false
            end
            else begin
              Hashtbl.add visited_pairs key ();
              incr admitted;
              true
            end
          in
          let l0 = Tset.intern_state ctx lhs0 in
          let r0 = Tset.intern_state ctx rhs0 in
          ignore (admit l0 r0);
          (* Frontier entries carry their prefix reversed, so extending
             one is a cons; a counterexample is reversed once. *)
          let expand (l, r, rev_h) next =
            for s = 0 to n - 1 do
              let l' = lcell l s in
              if l' >= 0 then
                if proj_mask.(s) then begin
                  let r' = rcell r s in
                  if r' < 0 then
                    raise (Cex (List.rev (alphabet.(s) :: rev_h)));
                  if admit l' r' then
                    next := (l', r', alphabet.(s) :: rev_h) :: !next
                end
                else if admit l' r then
                  next := (l', r, alphabet.(s) :: rev_h) :: !next
            done
          in
          let rec level d frontier =
            match frontier with
            | [] -> Holds Exact
            | _ when d >= depth && ((not complete) || !admitted > budget) ->
                Holds (Bounded depth)
            | _ ->
                let next = ref [] in
                List.iter (fun p -> expand p next) frontier;
                level (d + 1) (List.rev !next)
          in
          let result =
            try level 0 [ (l0, r0, []) ]
            with Cex h -> Refuted (certify_inclusion ctx ~lhs ~proj ~rhs h)
          in
          Metrics.add antichain_pairs_c !admitted;
          Metrics.add antichain_prunes_c !duplicates;
          if Telemetry.enabled () then
            Telemetry.set_attrs
              [ ("pairs", string_of_int !admitted);
                ("prunes", string_of_int !duplicates) ];
          result))

let check_inclusion ?(complete = true) ?(budget = 200_000) ctx ~alphabet
    ~depth ~lhs ~proj ~rhs =
  let run complete =
    explore ~complete ~budget ctx ~alphabet ~depth ~lhs ~proj ~rhs
  in
  if not complete then run false
  else try run true with Tset.Closure_overflow _ -> run false

(** {1 Trace-set equality}: mutual inclusion, left in right first. *)
let check_equal ctx ~alphabet ~depth ~(left : Tset.t) ~(right : Tset.t) :
    (Trace.t * [ `Left_only | `Right_only ]) verdict =
  let included lhs rhs =
    check_inclusion ctx ~alphabet ~depth ~lhs ~proj:Eventset.full ~rhs
  in
  match included left right with
  | Refuted h -> Refuted (h, `Left_only)
  | Holds c1 -> (
      match included right left with
      | Refuted h -> Refuted (h, `Right_only)
      | Holds c2 -> Holds (Verdict.meet c1 c2))

(** {1 Deadlock analysis}

    A reachable monitor state with no enabled event is a deadlock of the
    specification over the given alphabet (Examples 4 and 5 of the
    paper; total deadlock at the start corresponds to a trace set that
    is just {ε}). *)
let find_deadlock ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) :
    Trace.t option =
  match Tset.start ctx t with
  | None ->
      (* not even ε: degenerate, report as stuck *)
      Some (certify_deadlock ctx ~alphabet t Trace.empty)
  | Some st0 ->
      (* Interned-id BFS over memoized successor rows: a state whose
         whole row is dead is a deadlock.  Discovery order follows
         alphabet order, so the first dead state found carries the
         lexicographically-least shortest witness.  Prefixes are
         carried reversed, as in [explore]. *)
      let alphabet = Array.map (Tset.hashcons_event ctx) alphabet in
      let n = Array.length alphabet in
      let rows = Hashtbl.create 256 in
      let row id =
        match Hashtbl.find_opt rows id with
        | Some r -> r
        | None ->
            let st = Tset.state_of_id ctx id in
            let r =
              Array.init n (fun s ->
                  match Tset.step ctx t st alphabet.(s) with
                  | None -> -1
                  | Some st' -> Tset.intern_state ctx st')
            in
            Hashtbl.add rows id r;
            r
      in
      let visited = Hashtbl.create 1024 in
      let id0 = Tset.intern_state ctx st0 in
      Hashtbl.replace visited id0 ();
      let exception Stuck of Trace.t in
      let rec level d frontier =
        if frontier = [] || d >= depth then None
        else begin
          let next = ref [] in
          List.iter
            (fun (id, rev_h) ->
              let r = row id in
              let alive = ref false in
              for s = 0 to n - 1 do
                let id' = r.(s) in
                if id' >= 0 then begin
                  alive := true;
                  if not (Hashtbl.mem visited id') then begin
                    Hashtbl.replace visited id' ();
                    next := (id', alphabet.(s) :: rev_h) :: !next
                  end
                end
              done;
              if not !alive then raise (Stuck (List.rev rev_h)))
            frontier;
          level (d + 1) (List.rev !next)
        end
      in
      (try
         level 0 [ (id0, []) ]
       with Stuck witness -> Some (certify_deadlock ctx ~alphabet t witness))

(** The events enabled after [h] — the possible extensions within the
    trace set.  Used by example walkthroughs. *)
let enabled ctx ~(alphabet : Event.t array) (t : Tset.t) (h : Trace.t) :
    Event.t list =
  let rec replay st = function
    | [] -> Some st
    | e :: rest -> (
        match Tset.step ctx t st e with
        | Some st' -> replay st' rest
        | None -> None)
  in
  match Tset.start ctx t with
  | None -> []
  | Some st0 -> (
      match replay st0 (Trace.to_list h) with
      | None -> []
      | Some st ->
          Array.to_list alphabet
          |> List.filter (fun e -> Option.is_some (Tset.step ctx t st e)))

(** {1 Counting and enumeration} *)

(** Number of member traces of each length [0..depth], computed by
    dynamic programming over monitor states (no trace explosion). *)
let count_traces ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) :
    int array =
  let counts = Array.make (depth + 1) 0 in
  (match Tset.start ctx t with
  | None -> ()
  | Some st0 ->
      let module SM = Map.Make (struct
        type t = Tset.state

        let compare = Tset.compare_state
      end) in
      let level = ref (SM.singleton st0 1) in
      counts.(0) <- 1;
      for d = 1 to depth do
        let next = ref SM.empty in
        SM.iter
          (fun st n ->
            Array.iter
              (fun e ->
                match Tset.step ctx t st e with
                | Some st' ->
                    next :=
                      SM.update st'
                        (function None -> Some n | Some m -> Some (m + n))
                        !next
                | None -> ())
              alphabet)
          !level;
        level := !next;
        counts.(d) <- SM.fold (fun _ n acc -> acc + n) !level 0
      done);
  counts

(** All member traces up to [depth] — for tests and tiny examples only
    (exponential in general). *)
let enumerate ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) :
    Trace.t list =
  match Tset.start ctx t with
  | None -> []
  | Some st0 ->
      let out = ref [] in
      let rec go st h d =
        out := h :: !out;
        if d < depth then
          Array.iter
            (fun e ->
              match Tset.step ctx t st e with
              | Some st' -> go st' (Trace.snoc h e) (d + 1)
              | None -> ())
            alphabet
      in
      go st0 Trace.empty 0;
      List.rev !out

(** Reachable monitor states up to [depth]; the state-count metric of
    the performance experiments. *)
let count_states ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) : int =
  match Tset.start ctx t with
  | None -> 0
  | Some st0 ->
      let module SM = Set.Make (struct
        type t = Tset.state

        let compare = Tset.compare_state
      end) in
      let visited = ref (SM.singleton st0) in
      let rec level d frontier =
        if frontier <> [] && d < depth then begin
          let next = ref [] in
          List.iter
            (fun st ->
              Array.iter
                (fun e ->
                  match Tset.step ctx t st e with
                  | Some st' ->
                      if not (SM.mem st' !visited) then begin
                        visited := SM.add st' !visited;
                        next := st' :: !next
                      end
                  | None -> ())
                alphabet)
            frontier;
          level (d + 1) !next
        end
      in
      level 0 [ st0 ];
      SM.cardinal !visited
