(* The benchmark corpus: seeded α-renamed copies ("projects") of the
   example specifications, and the reference verdict table every copy
   must reproduce.

   A project is the union of three query sets over
   examples/specs/{paper,atm,fleet}.oun — the queries of batch.manifest,
   the queries of fleet.manifest, and all ordered refinement pairs of
   paper.oun — with every spec name and every object identifier
   suffixed by a per-project tag.  Distinct tags give distinct
   universes, so no verdict, compiled automaton or interned state of
   one project can serve another; renaming preserves verdicts, so each
   copy is checked against the same table. *)

module Spec = Posl_core.Spec
module Manifest = Posl_engine.Manifest
module Lang = Posl_lang.Lang

let specs_dir = "examples/specs"
let spec_files = [ "paper.oun"; "atm.oun"; "fleet.oun" ]
let manifests = [ "batch.manifest"; "fleet.manifest" ]
let reference_file = "perfbench/reference.tsv"

type query = {
  file : string;  (** original spec file base name *)
  depth : int;
  kind : string;
  names : string list;  (** original names; composition tokens allowed *)
}

let key q = String.concat " " (q.file :: q.kind :: q.names)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let fail fmt = Printf.ksprintf failwith fmt

(* ---------------------------------------------------------------- *)
(* α-renaming                                                        *)
(* ---------------------------------------------------------------- *)

(* Identifier lexing as OUN-lite does it. *)
let is_ident_start c = ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
let is_ident_char c = is_ident_start c || ('0' <= c && c <= '9') || c = '_' || c = '\''

let rename_words rename text =
  let n = String.length text in
  let b = Buffer.create (n + 512) in
  let rec go i =
    if i < n then
      if is_ident_start text.[i] && (i = 0 || not (is_ident_char text.[i - 1]))
      then begin
        let j = ref i in
        while !j < n && is_ident_char text.[!j] do incr j done;
        Buffer.add_string b (rename (String.sub text i (!j - i)));
        go !j
      end
      else begin
        Buffer.add_char b text.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let parse_specs ~what text =
  match Lang.specs_of_string text with
  | Ok specs -> specs
  | Error e -> fail "%s: %s" what (Format.asprintf "%a" Lang.pp_error e)

(* Every spec name and every object identifier a file mentions: the
   part of its adequate universe the text names (the universe also
   pads co-finite sorts with fresh objects). *)
let identifiers text =
  let specs = parse_specs ~what:"corpus" text in
  let words = Hashtbl.create 256 in
  ignore (rename_words (fun w -> Hashtbl.replace words w (); w) text);
  List.map Spec.name specs
  @ List.filter (Hashtbl.mem words)
      (List.map Posl_ident.Oid.to_string
         (Posl_ident.Universe.objects (Spec.adequate_universe ~extra_objects:0 specs)))

(* ---------------------------------------------------------------- *)
(* The source corpus and its reference table                         *)
(* ---------------------------------------------------------------- *)

type source = {
  texts : (string * string) list;  (** file → original text *)
  renamable : (string, unit) Hashtbl.t;
  queries : query array;  (** one project's queries, in order *)
  expected : bool array;  (** reference verdict of each query *)
}

let paper_pairs () =
  let names =
    List.map Spec.name
      (parse_specs ~what:"paper.oun" (read_file (Filename.concat specs_dir "paper.oun")))
  in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if a = b then None
          else Some { file = "paper.oun"; depth = 6; kind = "refine"; names = [ a; b ] })
        names)
    names

let manifest_queries m =
  let path = Filename.concat specs_dir m in
  match Manifest.entries ~path ~default_depth:6 (read_file path) with
  | Error e -> fail "%s" e
  | Ok entries ->
      List.map
        (fun (e : Manifest.entry) ->
          { file = Filename.basename e.Manifest.file; depth = e.Manifest.depth; kind = e.Manifest.kind;
            names = e.Manifest.names })
        entries

let all_queries () =
  List.concat_map manifest_queries manifests @ paper_pairs ()

(* reference.tsv: KEY <TAB> holds|fails <TAB> basis *)
let load_reference path =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char '\t' line with
        | k :: v :: _ -> Hashtbl.replace tbl k (v = "holds")
        | _ -> fail "%s: bad line %S" path line)
    (String.split_on_char '\n' (read_file path));
  tbl

(* ---------------------------------------------------------------- *)
(* Projects                                                          *)
(* ---------------------------------------------------------------- *)

type project = {
  tag : string;
  files : (string * string) list;  (** original base name → renamed text *)
  manifest : string;  (** every query, in order, as manifest text *)
}

let tag ~seed i = Printf.sprintf "_s%dp%d" (abs seed) i
let renamed_file tag f = Filename.remove_extension f ^ tag ^ ".oun"

let rename_name tag name =
  String.concat "||" (List.map (fun p -> p ^ tag) (Manifest.composition_parts name))

let project src ~seed i =
  let tag = tag ~seed i in
  let rename w = if Hashtbl.mem src.renamable w then w ^ tag else w in
  let files = List.map (fun (f, t) -> (f, rename_words rename t)) src.texts in
  let b = Buffer.create 4096 in
  let scope = ref ("", -1) in
  Array.iter
    (fun q ->
      if !scope <> (q.file, q.depth) then begin
        Printf.bprintf b "use %s\ndepth %d\n" (renamed_file tag q.file) q.depth;
        scope := (q.file, q.depth)
      end;
      Printf.bprintf b "%s %s\n" q.kind
        (String.concat " " (List.map (rename_name tag) q.names)))
    src.queries;
  { tag; files; manifest = Buffer.contents b }

(* Write a project's spec files and manifest under [dir]; returns the
   manifest path. *)
let write_project dir p =
  List.iter (fun (f, t) -> write_file (Filename.concat dir (renamed_file p.tag f)) t) p.files;
  let m = Filename.concat dir ("project" ^ p.tag ^ ".manifest") in
  write_file m p.manifest;
  m

(* The renaming must rename exactly the identifiers it was asked to:
   checked once per run, on one project. *)
let check_renaming src p =
  List.iter
    (fun (f, t) ->
      let original = identifiers (List.assoc f src.texts) in
      let renamed = identifiers t in
      let want = List.sort compare (List.map (fun w -> w ^ p.tag) original) in
      if List.sort compare renamed <> want then fail "renaming %s changed its identifiers" f)
    p.files

let load_source () =
  let texts = List.map (fun f -> (f, read_file (Filename.concat specs_dir f))) spec_files in
  let renamable = Hashtbl.create 64 in
  List.iter (fun (_, t) -> List.iter (fun w -> Hashtbl.replace renamable w ()) (identifiers t)) texts;
  let queries = Array.of_list (all_queries ()) in
  let reference = load_reference reference_file in
  let expected =
    Array.map
      (fun q ->
        match Hashtbl.find_opt reference (key q) with
        | Some v -> v
        | None -> fail "%s: no reference verdict for %S" reference_file (key q))
      queries
  in
  let src = { texts; renamable; queries; expected } in
  check_renaming src (project src ~seed:0 0);
  src

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  let rec mk p =
    if not (Sys.file_exists p) then begin
      mk (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  mk path
