(* Table rendering: alignment (including non-ASCII verdict glyphs),
   row order, section headers. *)

module Report = Posl_report.Report

let render t =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Report.print ~out:ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_basic_table () =
  let t = Report.create [ "a"; "b" ] in
  Report.add_row t [ "1"; "two" ];
  Report.add_row t [ "three"; "4" ];
  let s = render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  (* rule, header, rule, two rows, rule *)
  Util.check_int "six lines" 6 (List.length lines);
  (* all lines equally wide *)
  let widths = List.map Report.utf8_length lines in
  Util.check_int "uniform width" 1 (List.length (List.sort_uniq compare widths));
  (* rows appear in insertion order *)
  Util.check_bool "row order" true
    (Util.contains_substring ~needle:"| 1" (List.nth lines 3))

let test_unicode_alignment () =
  let t = Report.create [ "check"; "verdict" ] in
  Report.add_row t [ "Read2 ⊑ Read"; "refines" ];
  Report.add_row t [ "plain ascii"; "x" ];
  let s = render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map Report.utf8_length lines in
  Util.check_int "uniform width despite ⊑" 1
    (List.length (List.sort_uniq compare widths))

let test_utf8_length () =
  Util.check_int "ascii" 5 (Report.utf8_length "hello");
  Util.check_int "glyphs" 3 (Report.utf8_length "⊑‖ε")

let test_rowf () =
  let t = Report.create [ "only" ] in
  Report.add_rowf t "%d-%s" 7 "x";
  let s = render t in
  Util.check_bool "formatted row present" true
    (Util.contains_substring ~needle:"7-x" s)

let suite =
  [
    Alcotest.test_case "basic table" `Quick test_basic_table;
    Alcotest.test_case "unicode alignment" `Quick test_unicode_alignment;
    Alcotest.test_case "utf8 length" `Quick test_utf8_length;
    Alcotest.test_case "formatted rows" `Quick test_rowf;
  ]
