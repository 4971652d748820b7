(* Order statistics over a sample, by the "exclusive" method Python's
   [statistics.quantiles] uses by default: the p-quantile sits at
   1-based position p * (n + 1), clamped to the sample and linearly
   interpolated. *)

let quantile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = Float.min (Float.max (p *. float_of_int (n + 1)) 1.) (float_of_int n) in
    let lo = truncate pos in
    let frac = pos -. float_of_int lo in
    if lo >= n then a.(n - 1) else a.(lo - 1) +. (frac *. (a.(lo) -. a.(lo - 1)))

let median = quantile 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ratio that reads 0 rather than nan/inf when the base is empty *)
let ratio a b = if b = 0. then 0. else a /. b

let summary xs =
  Printf.sprintf "median %.6g  [q1 %.6g, q3 %.6g]  n=%d" (median xs)
    (quantile 0.25 xs) (quantile 0.75 xs) (List.length xs)

(* the samples themselves, in run order, to 4 significant digits *)
let samples xs = String.concat " " (List.map (Printf.sprintf "%.4g") xs)
