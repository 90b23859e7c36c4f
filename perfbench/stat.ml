(* Order statistics over samples. *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      (* linear interpolation between closest ranks *)
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.

(* [chunks k xs] splits [xs] into [k] consecutive parts of near-equal
   length (fewer when [xs] is shorter than [k]). *)
let chunks k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = max 1 (min k n) in
  List.init k (fun j ->
      let lo = j * n / k and hi = (j + 1) * n / k in
      Array.to_list (Array.sub a lo (hi - lo)))

(* The median over windows of a per-window statistic. *)
let median_over windows f = median (List.map f windows)
