(* SplitMix64 (Steele, Lea, Flood 2014): tiny state, excellent statistical
   quality for simulation workloads. The state lives unboxed in 8 bytes
   and every draw inlines the step, so [int] and [bool] allocate nothing;
   [next_int64] and [float] box only the value they return. *)

type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let[@inline] step t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = step t

(* the top 62 bits of a step, as a non-negative native int *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits to avoid modulo bias. *)
  let limit = (max_int / bound) * bound in
  let v = ref (bits62 t) in
  while !v >= limit do
    v := bits62 t
  done;
  !v mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let bits = Int64.to_int (Int64.shift_right_logical (step t) 11) in
  float_of_int bits *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (step t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty";
  a.(int t (Array.length a))

let zipf t ~alpha ~n =
  if n < 1 then invalid_arg "Prng.zipf: n must be >= 1";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** alpha)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let u = float t *. total in
  let rec go i acc =
    if i >= n - 1 then n
    else begin
      let acc = acc +. weights.(i) in
      if u < acc then i + 1 else go (i + 1) acc
    end
  in
  go 0 0.0
