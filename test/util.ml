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

(* Test-only exact oracle for trace-set equality: the compiled-DFA
   route production no longer takes.  Both monitors are compiled over
   [alphabet] ([Tset.compile]) and compared by DFA language inclusion
   both ways, left in right first.  [Some (Ok ())] when the trace sets
   are equal, [Some (Error (h, side))] with the canonical
   (lexicographically-least shortest) witness of the first failing
   direction otherwise, [None] when a monitor does not compile. *)
let equal_oracle ctx ~alphabet left right =
  match (Tset.compile ctx alphabet left, Tset.compile ctx alphabet right) with
  | Some dl, Some dr ->
      let trace w = Trace.of_list (List.map (fun s -> alphabet.(s)) w) in
      Some
        (match Posl_automata.Dfa.included dl dr with
        | Error w -> Error (trace w, `Left_only)
        | Ok () -> (
            match Posl_automata.Dfa.included dr dl with
            | Error w -> Error (trace w, `Right_only)
            | Ok () -> Ok ()))
  | _ -> None

(* Example 3-style counting fixture: two spec texts that differ only in
   the event classes Y's counting constraint counts.  X opens for
   writing twice in a row, so X ⋢ Y when Y bounds #OW - #CW and X ⊑ Y
   when it bounds #OR - #CR.  Both texts have the same adequate
   universe, so only Y's content key can tell them apart. *)
let counted_writes = "#OW - #CW <= 1"
let counted_reads = "#OR - #CR <= 1"

let counting_text counted =
  Printf.sprintf
    {|spec X {
  objects o;
  sort Env = all except { o };
  alphabet call Env -> o : OW, CW, OR, CR;
  traces prs (bind x in Env . (<x,o,OW> <x,o,OW>))*;
}

spec Y {
  objects o;
  sort Env = all except { o };
  alphabet call Env -> o : OW, CW, OR, CR;
  traces count %s;
}
|}
    counted

(* Specs and adequate universe of [counting_text counted], plus the
   [refine X Y] query over them. *)
let counting_query counted =
  match Posl_lang.Lang.specs_of_string (counting_text counted) with
  | Error e ->
      Alcotest.failf "counting fixture: %a" Posl_lang.Lang.pp_error e
  | Ok specs ->
      let get n = Option.get (Posl_lang.Lang.lookup specs n) in
      ( specs,
        Posl_core.Spec.adequate_universe ~extra_objects:2 specs,
        Posl_engine.Job.refine ~refined:(get "X") ~abstract:(get "Y") )

(* A shipped example file, from the test's build directory or the
   repository root. *)
let example_file name =
  let candidates =
    [
      Filename.concat "../examples/specs" name;
      Filename.concat "examples/specs" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some f -> f
  | None -> Alcotest.failf "example file %s not found" name

(* The composite corpus the planner is measured on: the fleet manifest
   (three systems sharing an upgraded gauge, a nested three-part system,
   commutativity and trace-equality rewrites, atomic compose/deadlock
   queries) plus six composite queries over the paper's cast — three
   Theorem-7 decompositions sharing the premise RW2 ⊑ RW, a
   zero-premise commutativity instance, and one refuted-premise query
   the planner must decline.  Depth 6. *)
let composite_corpus () =
  let module Ex = Posl_core.Examples_paper in
  let module Job = Posl_engine.Job in
  let fleet =
    match
      Posl_engine.Manifest.requests_of_file ~default_depth:6 ~extra_objects:2
        (example_file "fleet.manifest")
    with
    | Ok rs -> rs
    | Error e -> Alcotest.failf "fleet.manifest: %s" e
  in
  let ( || ) = Posl_core.Compose.compose_exn in
  let req q = Posl_engine.Engine.request ~depth:6 ~universe:paper_universe q in
  fleet
  @ [
      req
        (Job.refine ~refined:(Ex.rw2 || Ex.client)
           ~abstract:(Ex.rw || Ex.client));
      req
        (Job.refine ~refined:(Ex.rw2 || Ex.client2)
           ~abstract:(Ex.rw || Ex.client2));
      req
        (Job.refine ~refined:(Ex.read2 || Ex.client)
           ~abstract:(Ex.read || Ex.client));
      req
        (Job.refine ~refined:(Ex.rw || Ex.client)
           ~abstract:(Ex.write || Ex.client));
      req
        (Job.equal ~left:(Ex.client || Ex.write_acc)
           ~right:(Ex.write_acc || Ex.client));
      req
        (Job.refine ~refined:(Ex.rw || Ex.client)
           ~abstract:(Ex.read2 || Ex.client));
    ]
