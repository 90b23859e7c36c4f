(* The domain pool's dynamic work queue: equivalence with sequential
   map, exception propagation, degradation cases. *)

module Par = Posl_par.Par
module G = QCheck2.Gen

let test_small_input_sequential () =
  (* Inputs shorter than 2×domains run sequentially. *)
  Alcotest.(check (list int))
    "tiny" [ 2; 4 ]
    (Par.map_dyn ~domains:4 (fun x -> 2 * x) [ 1; 2 ])

(* The cases below keep the suite's original names; they run [map_dyn]
   on shapes the [map_dyn:] cases leave out: two domains, the default
   pool size, non-int results and several failing items. *)

let test_order_preserved () =
  let xs = List.init 1000 Fun.id in
  Alcotest.(check (list string))
    "order" (List.map string_of_int xs)
    (Par.map_dyn ~domains:2 string_of_int xs)

exception Item_failed of int

let test_exception_propagates () =
  (* Every item from 50 on fails: one of their exceptions reaches the
     caller, and no partial result does. *)
  let xs = List.init 200 Fun.id in
  match
    Par.map_dyn ~domains:3
      (fun x -> if x >= 50 then raise (Item_failed x) else x)
      xs
  with
  | exception Item_failed i ->
      Util.check_bool "a failing item's exception" true (i >= 50 && i < 200)
  | _ -> Alcotest.fail "expected a worker failure to propagate"

let test_empty () =
  Alcotest.(check (list int)) "default domains" [] (Par.map_dyn succ []);
  Alcotest.(check (list int)) "one domain" [] (Par.map_dyn ~domains:1 succ [])

let test_dyn_order_preserved () =
  let xs = List.init 1000 Fun.id in
  Alcotest.(check (list int))
    "order" (List.map succ xs)
    (Par.map_dyn ~domains:4 succ xs)

let test_dyn_exception_propagates () =
  let xs = List.init 100 Fun.id in
  match
    Par.map_dyn ~domains:4 (fun x -> if x = 63 then failwith "boom" else x) xs
  with
  | exception Failure m -> Alcotest.(check string) "message" "boom" m
  | _ -> Alcotest.fail "expected the worker failure to propagate"

let test_dyn_uneven_load () =
  (* A few heavy items at the front must not serialize the rest: the
     dynamic queue hands them to separate domains.  Checked for results
     only (timing is not asserted). *)
  let work x =
    if x < 2 then (
      let acc = ref 0 in
      for i = 0 to 200_000 do acc := !acc + (i mod 7) done;
      x + (!acc * 0))
    else x
  in
  let xs = List.init 64 Fun.id in
  Alcotest.(check (list int)) "uneven" xs (Par.map_dyn ~domains:4 work xs)

let test_dyn_empty () =
  Alcotest.(check (list int)) "empty" [] (Par.map_dyn ~domains:4 succ [])

let qsuite =
  [
    Util.qtest ~count:50 "map agrees with List.map"
      (G.pair (G.int_range (-1) 8) (G.list_size (G.int_bound 200) G.int))
      (fun (domains, xs) ->
        Par.map_dyn ~domains string_of_int xs = List.map string_of_int xs);
    Util.qtest ~count:50 "map_dyn agrees with List.map"
      (G.pair (G.int_range 1 6) (G.list_size (G.int_bound 200) G.int))
      (fun (domains, xs) ->
        Par.map_dyn ~domains (fun x -> (3 * x) + 1) xs
        = List.map (fun x -> (3 * x) + 1) xs);
  ]

let suite =
  [
    Alcotest.test_case "small inputs run sequentially" `Quick
      test_small_input_sequential;
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "worker exceptions propagate" `Quick
      test_exception_propagates;
    Alcotest.test_case "empty input" `Quick test_empty;
    Alcotest.test_case "map_dyn: order preserved" `Quick
      test_dyn_order_preserved;
    Alcotest.test_case "map_dyn: worker exceptions propagate" `Quick
      test_dyn_exception_propagates;
    Alcotest.test_case "map_dyn: uneven load" `Quick test_dyn_uneven_load;
    Alcotest.test_case "map_dyn: empty input" `Quick test_dyn_empty;
  ]
  @ qsuite
