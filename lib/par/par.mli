(** Minimal fork/join parallelism over OCaml 5 domains.

    One combinator — a deterministic parallel [map] over a dynamic work
    queue — used by the engine to fan batch jobs out over domains.
    Worker exceptions are re-raised in the caller after all domains
    have joined. *)

val default_domains : unit -> int
(** [POSL_DOMAINS] from the environment, else
    [min 4 (Domain.recommended_domain_count ())]. *)

val map_dyn : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_dyn ~domains f xs] = [List.map f xs], scheduled dynamically: a
    shared mutex-protected index queue feeds idle domains, so uneven
    per-item cost does not leave workers idle.  Order-stable; worker
    exceptions re-raised after join.  [domains <= 1] or a short input
    degrades to the sequential map.  [f] must be safe to run on
    multiple domains (pure, or racing only on its own state). *)
