(** Components and object models (Sections 6 and 7 of the paper).

    Every object [o] semantically has a unique alphabet αᵒ (all events
    involving [o]) and trace set Tᵒ.  A component encapsulates a set of
    objects directly: its observable alphabet is the union of object
    alphabets minus the internal events I(C), and its trace set T{^C}
    consists of projections of joint traces that project into every Tᵒ
    (Def. 9).  Specifications are judged {e sound} against these
    models. *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset

type model_object
(** The semantic ground truth for one object: its identity and its
    behaviour over αᵒ. *)

val model_object : oid:Oid.t -> Tset.t -> model_object

type t

val of_objects : model_object list -> t
(** Raises [Invalid_argument] on duplicate identities (objects are
    unique, Section 6). *)

val objects : t -> model_object list
val oid_set : t -> Oid.Set.t

val union : t -> t -> t
(** Component composition = union of object sets; commutative and
    associative by object uniqueness. *)

val alpha : t -> Eventset.t
(** α{^C} of Def. 9. *)

val tset : t -> Tset.t
(** T{^C} of Def. 9, as a product trace set with hiding. *)

val to_spec : ?name:string -> t -> Spec.t
(** The component's observable behaviour packaged as a specification —
    its most concrete description. *)

val sound :
  Tset.ctx ->
  depth:int ->
  Spec.t ->
  t ->
  Posl_trace.Trace.t Posl_bmc.Bmc.verdict
(** Soundness (Sections 2 and 7): every component trace, projected on
    the specification alphabet, belongs to the specification's trace
    set.  Refutations carry the offending component trace. *)
