let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let log2_ceil n =
  assert (n >= 1);
  let rec go k p = if p >= n then k else go (k + 1) (p * 2) in
  go 0 1

(* a loop, not a closure, so a sum allocates nothing *)
let sum_array a =
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    let s' = !s + x in
    assert ((x >= 0 && s' >= !s) || (x < 0 && s' < !s));
    s := s'
  done;
  !s

let max_array a =
  if Array.length a = 0 then invalid_arg "Intmath.max_array: empty";
  Array.fold_left max a.(0) a

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

(* Overflow predicates. {!Rat} calls them on its fast path — they return
   an unboxed [bool], so a passing check allocates nothing.

   [add_fits]/[sub_fits] use the sign rule: a two's-complement sum can only
   wrap when both operands share a sign and the result does not.
   [mul_fits] divides the wrapped product back: with [a ∉ {0, -1}] the
   quotient [a * b / a] equals [b] iff the true product fits, because a
   wrapped product is off by [k * 2^63] with [k <> 0], which exceeds any
   remainder bound [|a| <= 2^62]. The [a = -1] row is split off so the
   division itself cannot trap on [min_int / -1]. *)

let add_fits a b =
  let s = a + b in
  not ((a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0))

let sub_fits a b =
  let d = a - b in
  not ((a >= 0) <> (b >= 0) && (d >= 0) <> (a >= 0))

let mul_fits a b =
  if a = 0 || b = 0 then true
  else if a = -1 then b <> min_int
  else if b = -1 then a <> min_int
  else a * b / a = b

exception Overflow

let mul_exn a b = if mul_fits a b then a * b else raise_notrace Overflow
let add_exn a b = if add_fits a b then a + b else raise_notrace Overflow
let sub_exn a b = if sub_fits a b then a - b else raise_notrace Overflow
