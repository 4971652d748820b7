type t = int

let modulus = 1 lsl 32
let half = 1 lsl 31

let of_int v = v land (modulus - 1)

let add a n = of_int (a + n)

let diff a b =
  let d = of_int (a - b) in
  if d >= half then d - modulus else d

let lt a b = diff a b < 0
let le a b = diff a b <= 0
let gt a b = diff a b > 0
let ge a b = diff a b >= 0

let in_window t ~base ~size =
  size > 0 && of_int (t - base) < size
