(* Peak resident memory from /proc/<pid>/status (VmHWM, in kB). *)

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (Corpus.read_file path))
  in
  match line with
  | None -> failwith (path ^ ": no VmHWM")
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
