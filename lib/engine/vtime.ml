type t = int

let zero = 0
let infinity = max_int

let us n = n
let ms n = n * 1_000
let sec n = n * 1_000_000
let minutes n = n * 60_000_000
let hours n = n * 3_600_000_000

let of_sec_f f = int_of_float (f *. 1e6)

let to_us t = Int64.of_int t
let to_ms_f t = float_of_int t /. 1e3
let to_sec_f t = float_of_int t /. 1e6

let add = ( + )
let sub = ( - )
let mul t n = t * n
let div t n = t / n
let min = Int.min
let max = Int.max
let compare = Int.compare
let ( < ) : t -> t -> bool = Stdlib.( < )
let ( <= ) : t -> t -> bool = Stdlib.( <= )
let ( > ) : t -> t -> bool = Stdlib.( > )
let ( >= ) : t -> t -> bool = Stdlib.( >= )
let equal = Int.equal

let clamp ~lo ~hi t = min hi (max lo t)

let round_up_to ~granule t =
  if granule <= 0 then t
  else
    let rem = t mod granule in
    if rem = 0 then t else add t (sub granule rem)

let pp ppf t =
  let abs = Stdlib.abs t in
  if t = max_int then Format.pp_print_string ppf "inf"
  else if Stdlib.( >= ) abs 1_000_000 then Format.fprintf ppf "%.3fs" (to_sec_f t)
  else if Stdlib.( >= ) abs 1_000 then Format.fprintf ppf "%.3fms" (to_ms_f t)
  else Format.fprintf ppf "%dus" t

let to_string t = Format.asprintf "%a" pp t
