(** Content-addressed keys for check jobs: MD5 over a canonical
    serialization of (query kind, spec bodies, universe, depth).

    The serialization is length-prefixed per field, so concatenated
    fields can never alias across field boundaries, and every
    constructor is tagged.  Verdicts are a pure function of the
    serialized data: the checkers consult specifications only through
    their object sets, alphabets and trace-set monitors, all of which
    are serialized below (with [Forall_obj] bodies expanded at every
    universe member of their sort — the only objects a monitor over the
    sampled alphabet can touch).

    A key is assembled from {e fragments}: one per specification body
    and one for the universe.  The pure functions below serialize every
    fragment afresh; {!Memo} caches them per (spec, universe), and both
    assemble keys with the same [assemble], so their bytes agree. *)

module Spec = Posl_core.Spec
module Tset = Posl_tset.Tset
module Counting = Posl_tset.Counting
module Regex = Posl_regex.Regex
module Eventset = Posl_sets.Eventset
module Oset = Posl_sets.Oset
module Metrics = Posl_telemetry.Metrics
open Posl_ident

type t = string

exception Opaque
(** A [Pointwise] trace set: an arbitrary OCaml function, no content
    address. *)

let field buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let fieldf buf fmt = Format.kasprintf (field buf) fmt

let ser_eventset buf es = fieldf buf "%a" Eventset.pp (Eventset.normalise es)

let rec ser_tset buf ~(universe : Universe.t) (t : Tset.t) =
  match t with
  | Tset.All -> field buf "all"
  | Tset.Prs r ->
      field buf "prs";
      fieldf buf "%a" Regex.pp r
  | Tset.Counting c ->
      (* [Counting.pp] names classes by index only (#c0, #c1), so the
         counted event classes are serialized after the formula. *)
      field buf "count";
      fieldf buf "%a" Counting.pp c;
      let classes = Counting.classes c in
      field buf (string_of_int (Array.length classes));
      Array.iter (ser_eventset buf) classes
  | Tset.Pointwise _ -> raise Opaque
  | Tset.Forall_obj (sort, body) ->
      field buf "forall";
      fieldf buf "%a" Oset.pp sort;
      List.iter
        (fun o ->
          if Oset.mem o sort then begin
            fieldf buf "%a" Oid.pp o;
            ser_tset buf ~universe (body o)
          end)
        (Universe.objects universe)
  | Tset.Conj ts ->
      field buf "conj";
      field buf (string_of_int (List.length ts));
      List.iter (ser_tset buf ~universe) ts
  | Tset.Restrict (es, t') ->
      field buf "restrict";
      ser_eventset buf es;
      ser_tset buf ~universe t'
  | Tset.Product (parts, vis) ->
      field buf "product";
      ser_eventset buf vis;
      field buf (string_of_int (List.length parts));
      List.iter
        (fun (p : Tset.part) ->
          ser_eventset buf p.Tset.part_alpha;
          ser_tset buf ~universe p.Tset.part_tset)
        parts

(* The name is included deliberately: verdict evidence embeds spec
   names (equality-witness sides, improper-context labels), so two
   same-bodied but differently-named specs must not share a cached
   verdict verbatim. *)
let ser_spec buf ~universe s =
  field buf (Spec.name s);
  fieldf buf "%a"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Oid.pp)
    (Oid.Set.elements (Spec.objs s));
  ser_eventset buf (Spec.alpha s);
  ser_tset buf ~universe (Spec.tset s)

let spec_key ~universe s =
  let buf = Buffer.create 256 in
  match ser_spec buf ~universe s with
  | () -> Some (Buffer.contents buf)
  | exception Opaque -> None

let universe_fragment universe =
  let buf = Buffer.create 128 in
  fieldf buf "%a" Universe.pp universe;
  Buffer.contents buf

(* One MD5 over (kind, depth?, universe, specs...).  [None] when some
   specification is opaque. *)
let assemble ~kind ?depth ~ufrag frags =
  if List.mem None frags then None
  else begin
    let buf = Buffer.create 1024 in
    field buf kind;
    Option.iter (fun d -> field buf (string_of_int d)) depth;
    Buffer.add_string buf ufrag;
    List.iter (fun f -> Buffer.add_string buf (Option.get f)) frags;
    Some (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf)))
  end

let key ~universe ?depth q =
  assemble ~kind:(Job.kind q) ?depth ~ufrag:(universe_fragment universe)
    (List.map (spec_key ~universe) (Job.specs q))

let query ~universe ~depth q = key ~universe ~depth q

(* The persistent store's key leaves the depth out: a depth-6 bounded
   verdict is a perfectly good answer to the same query at depth 4
   (and an exact one at any depth), so keying by depth would shatter
   reusable records.  The depth the verdict was computed at travels in
   the store record instead, where [Store.find]'s reuse rule can see
   it. *)
let query_base ~universe q = key ~universe q

let fragments_c =
  Metrics.counter
    ~help:"Specification key fragments serialized (key memo misses)"
    "posl_engine_key_fragments_total"

module Memo = struct
  (* Keyed by physical identity, hashed by name: a spec value is
     immutable, so its fragment under a fixed universe never changes.
     Ephemeron keys let an entry go when its spec value does (a watch
     loop re-parsing an edited file, a request elaborating a manifest
     afresh), so the memo is bounded by the live specs. *)
  module Specs = Ephemeron.K1.Make (struct
    type t = Spec.t

    let equal = ( == )
    let hash s = Hashtbl.hash (Spec.name s)
  end)

  type t = {
    universe : Universe.t;
    ufrag : string;
    udigest : string;
    lock : Mutex.t;
    specs : string option Specs.t;
  }

  let create universe =
    {
      universe;
      ufrag = universe_fragment universe;
      udigest = Job.universe_digest universe;
      lock = Mutex.create ();
      specs = Specs.create 16;
    }

  let universe_digest m = m.udigest

  (* Serialized under the lock, so each (spec, universe) pair is
     serialized exactly once however many domains ask for it. *)
  let spec_key m s =
    Mutex.protect m.lock (fun () ->
        match Specs.find_opt m.specs s with
        | Some f -> f
        | None ->
            Metrics.incr fragments_c;
            let f = spec_key ~universe:m.universe s in
            Specs.replace m.specs s f;
            f)

  let key m ?depth q =
    assemble ~kind:(Job.kind q) ?depth ~ufrag:m.ufrag
      (List.map (spec_key m) (Job.specs q))

  let query m ~depth q = key m ~depth q
  let query_base m q = key m q
end

let pp = Format.pp_print_string
