(** Minimal fork/join parallelism over OCaml 5 domains.

    The verification engine fans independent jobs out over a handful of
    domains.  The sealed build environment has no domainslib, so this
    module provides the one combinator we need — a deterministic
    parallel [map] with a dynamic work queue — on stock [Domain]s.

    Exceptions raised by worker tasks are re-raised in the caller, after
    all domains have joined. *)

let default_domains () =
  match Sys.getenv_opt "POSL_DOMAINS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)
  | None -> min 4 (Domain.recommended_domain_count ())

(** [map_dyn ~domains f xs] = [List.map f xs], computed by [domains]
    domains pulling indices from a shared mutex-protected queue, so
    fast workers take over the stragglers' backlog and uneven per-item
    cost (verification jobs) does not leave domains idle.  A condition variable is unnecessary: the work
    list is fixed at the start, so an empty queue means done, never
    "wait for a producer".

    Results are order-stable; the first worker exception is re-raised
    in the caller after all domains have joined (remaining queue items
    are abandoned once an exception is recorded).  [domains <= 1], or
    a short input ([n < 2 * domains]), degrades to the sequential
    map. *)
let map_dyn ?domains f xs =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let input = Array.of_list xs in
  let n = Array.length input in
  if domains <= 1 || n < 2 * domains then List.map f xs
  else begin
    let output = Array.make n None in
    let error = Atomic.make None in
    let next = ref 0 in
    let queue_lock = Mutex.create () in
    let take () =
      Mutex.lock queue_lock;
      let i = !next in
      if i < n then incr next;
      Mutex.unlock queue_lock;
      if i < n then Some i else None
    in
    let rec worker () =
      if Atomic.get error = None then
        match take () with
        | None -> ()
        | Some i ->
            (try output.(i) <- Some (f input.(i))
             with exn ->
               ignore (Atomic.compare_and_set error None (Some exn)));
            worker ()
    in
    let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    (match Atomic.get error with Some exn -> raise exn | None -> ());
    Array.to_list
      (Array.map
         (function
           | Some y -> y
           | None -> invalid_arg "Par.map_dyn: missing result (worker died)")
         output)
  end
