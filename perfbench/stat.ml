(* Order statistics over the benchmark's own samples. *)

(* Nearest-rank percentile, [p] in [0, 100]; nan on an empty list. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.0

(* The median, over [max 1 (n / size)] consecutive windows of equal length
   (at least [size] samples each when [n >= size]), of each window's
   percentile [p]. *)
let windowed_percentile ~size xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  let k = max 1 (n / size) in
  let window i =
    let lo = i * n / k and hi = (i + 1) * n / k in
    percentile (Array.to_list (Array.sub a lo (hi - lo))) p
  in
  median (List.init k window)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let max_list = List.fold_left Float.max 0.0
