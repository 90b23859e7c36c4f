(* Host-speed calibration.

   The benchmark shares a few cores of a host with other tenants, and
   the speed those cores give drifts by tens of percent over minutes.
   So each timed phase is paired with runs of a fixed calibration unit
   made right next to it, on the same pinned CPU, and its times are
   reported in ref-ms: milliseconds scaled to a host on which one
   calibration unit takes exactly [unit_ms].  A change to the program
   moves ref-ms as it moves ms; a slower phase of the host moves both
   the phase and its calibration, and cancels.

   The unit is the benchmark's own code, so a change to the program
   can move it only through the runtime they share in batch-cold (the
   size of the major heap the collector walks): balanced-tree inserts
   and hashing over short-lived small blocks, which allocate, chase
   pointers and run the minor collector as the decision procedures
   do. *)

module IS = Set.Make (Int)

let unit_ms = 10.
let rounds = 20

let work () =
  let acc = ref 0 in
  for r = 1 to rounds do
    let s = ref IS.empty and x = ref r in
    for _ = 1 to 2000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      s := IS.add (!x land 0xffff) !s
    done;
    acc := !acc + IS.cardinal !s + Hashtbl.hash (IS.elements !s)
  done;
  !acc

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type sample = { wall_ms : float; cpu_ms : float }

(* One run of the unit: its wall-clock and process CPU time. *)
let sample () =
  let w0 = Spans.now_ns () and c0 = cpu_s () in
  ignore (Sys.opaque_identity (work ()));
  { wall_ms = float_of_int (Spans.now_ns () - w0) /. 1e6; cpu_ms = (cpu_s () -. c0) *. 1e3 }

(* The factor that turns a time measured beside [samples] into ref-ms. *)
let factor clock samples = unit_ms /. Stat.median (List.map clock samples)
let wall s = s.wall_ms
let cpu s = s.cpu_ms
