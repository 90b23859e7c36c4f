(** Content-addressed keys for check jobs.

    A digest is an MD5 over a canonical serialization of
    (query kind, specification bodies, universe sample, depth) — the
    complete input of {!Job.run} — so the verdict cache answers
    repeated and overlapping obligations by content, not by manifest
    position or file identity.

    Trace sets are serialized {e structurally}: [Forall_obj] bodies are
    expanded at every universe member of their sort (exactly the
    objects a monitor over the sampled alphabet can ever touch), so
    the key captures everything the verdict can depend on.
    [Pointwise] trace sets carry an opaque OCaml function and admit no
    content address; queries touching one are reported uncacheable
    ({!query} returns [None]) and the engine simply recomputes them. *)

module Spec = Posl_core.Spec
open Posl_ident

type t = string
(** Hex MD5. *)

val query : universe:Universe.t -> depth:int -> Job.query -> t option
(** [None] iff some specification's trace set contains an opaque
    [Pointwise] predicate. *)

val query_base : universe:Universe.t -> Job.query -> t option
(** The depth-{e independent} content address — same serialization as
    {!query} minus the depth field.  This is the persistent verdict
    store's key: the depth a stored verdict was computed at lives in
    the record, so one exact verdict (or a deep enough bounded one)
    answers the query at every requested depth.  [None] exactly when
    {!query} is [None]. *)

val spec_key : universe:Universe.t -> Spec.t -> string option
(** The canonical serialization of one specification body — the
    {e fragment} keys are assembled from; [None] on opaque trace sets.
    A [Counting] trace set contributes its formula and its counted
    event classes. *)

(** {1 Per-session memo}

    The pure functions above re-serialize every specification on every
    call.  A {!Memo.t} belongs to one universe of one
    [Engine.session]: it serializes each distinct specification value
    once and assembles keys from the cached fragments, byte-identical
    to the pure functions' keys.  Specifications are keyed by physical
    identity; an entry lives as long as its specification value.
    Thread- and domain-safe. *)
module Memo : sig
  type t

  val create : Universe.t -> t

  val universe_digest : t -> string
  (** {!Job.universe_digest} of the memo's universe, computed once. *)

  val spec_key : t -> Spec.t -> string option
  (** {!val-spec_key}, serialized on the first call for each
      specification value.  Each serialization counts one
      [posl_engine_key_fragments_total] in the metrics registry. *)

  val query : t -> depth:int -> Job.query -> string option
  (** Equal to {!query} over the memo's universe. *)

  val query_base : t -> Job.query -> string option
  (** Equal to {!query_base} over the memo's universe. *)
end

val pp : Format.formatter -> t -> unit
