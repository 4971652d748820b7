type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = seed }

(* splitmix64 finalizer: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators" (OOPSLA 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fnv1a64 s =
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L s

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = mix seed }

let int t bound =
  assert (bound > 0);
  (* Rejection sampling: [v mod bound] alone is biased whenever [bound]
     does not divide 2^62, so draws from the incomplete block at the top
     of the range are rejected.  [v - r + (bound - 1)] wraps negative
     exactly when [v] falls in that block; the rejection probability is
     at most [bound / 2^62], so retries are vanishingly rare. *)
  let rec draw () =
    (* keep 62 bits so the value fits OCaml's 63-bit native int non-negatively *)
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then draw () else r
  in
  draw ()

let float t bound =
  (* 53 random bits scaled into [0, 1), the double-precision mantissa width *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~p = float t 1.0 < p

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let normal t ~mean ~std =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (std *. z)

let exponential t ~mean =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.mean *. log (nonzero ())
