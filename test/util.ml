(* Shared helpers for the test suite. *)

module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Alcotest testable for traces. *)
let trace = Alcotest.testable Trace.pp Trace.equal

let sc = Posl_gen.Gen.default_scenario
let ctx = Tset.ctx sc.Posl_gen.Gen.universe

(* A fixed tiny universe mirroring the paper's cast. *)
let paper_universe =
  Posl_core.Spec.adequate_universe Posl_core.Examples_paper.all_specs

let paper_ctx = Tset.ctx paper_universe

let ev ?arg caller callee m =
  Event.make ?arg
    ~caller:(Posl_ident.Oid.v caller)
    ~callee:(Posl_ident.Oid.v callee)
    (Posl_ident.Mth.v m)

let tr events = Trace.of_list events

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  nl = 0 || scan 0

(* Test-only depth-cut oracle for clause 3 of Def. 2, by brute force:
   every trace of [lhs] over [alphabet] up to [depth] ([Bmc.enumerate])
   whose projection on [proj] fails the reference semantics of [rhs]
   ([Tset.mem_naive]).  Returns the shortest such trace, lex-least by
   alphabet index — the canonical witness every inclusion route must
   report — or [None] when clause 3 holds up to [depth].  Exponential
   in [depth]: keep it small. *)
let depth_cut_oracle ctx ~alphabet ~depth ~lhs ~proj ~rhs =
  let index e =
    let rec go i = if Event.equal alphabet.(i) e then i else go (i + 1) in
    go 0
  in
  let key h = (Trace.length h, List.map index (Trace.to_list h)) in
  Posl_bmc.Bmc.enumerate ctx ~alphabet ~depth lhs
  |> List.filter (fun h ->
         not
           (Tset.mem_naive ctx rhs (Posl_sets.Eventset.restrict_trace proj h)))
  |> List.sort (fun a b -> compare (key a) (key b))
  |> function
  | [] -> None
  | h :: _ -> Some h
