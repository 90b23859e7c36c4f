(* The repository benchmark.  Run from the repository root:

     python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

   which builds this program and posl-check, then runs
   bench.exe --posl-check PATH with the same arguments.  The last line
   of standard output is the JSON result; lines before it are notes.
   See perfbench/README.md. *)

let workdir = ".perfbench"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let posl_check = ref "" and make_reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME batch-cold | serve-fresh");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 measured run (0) or traced per-layer run (1)");
      ("--posl-check", Arg.Set_string posl_check, "PATH the posl-check executable");
      ("--make-reference", Arg.Set make_reference, " print reference.tsv and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --posl-check PATH";
  if not (Sys.file_exists Corpus.specs_dir && Sys.file_exists Corpus.reference_file) then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  if !make_reference then (Reference.print (); exit 0);
  (* a server that dies mid-run must show as failed requests, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 in
  let dir = Filename.concat workdir !workload in
  let run () =
    match !workload with
    | "batch-cold" -> Batch_cold.run ~dir ~seed:!seed ~seconds:!seconds ~trace
    | "serve-fresh" ->
        Serve_load.run_fresh ~dir ~posl_check:!posl_check ~seed:!seed ~seconds:!seconds ~trace
    | w -> failwith ("unknown workload " ^ w)
  in
  match run () with
  | exception e ->
      Serve_load.kill_children ();
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
  | r when not (List.for_all (fun x -> Float.is_finite x.Out.value && x.Out.value > 0.) r.Out.end_to_end) ->
      prerr_endline "perfbench: an end-to-end metric has no valid value (no samples?)";
      exit 1
  | r ->
      List.iter print_endline r.Out.notes;
      if trace then Out.print_table (!workload ^ " per-layer (traced run)") r.Out.per_layer
      else Out.print_table (!workload ^ " end-to-end") (Out.with_setup r);
      Printf.printf "failed_share %.6g (%d of %d)\n"
        (float_of_int r.Out.failed /. float_of_int (max 1 r.Out.attempted))
        r.Out.failed r.Out.attempted;
      print_endline (Out.result_line ~trace r)
