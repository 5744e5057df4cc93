(* Exact rationals in two tiers.

   Tier S holds numerator and denominator in native ints; every operation
   guards with the overflow predicates from {!Intmath} and recomputes on the
   Bigint-backed tier X at the first overflow, so results are always exact —
   the fast tier changes representation, never values.

   Invariants (both tiers): den > 0, gcd(|num|, den) = 1, zero is 0/1.
   Representation is canonical: a value is [S] exactly when both components
   fit a native int other than [min_int] (excluding [min_int] keeps [neg],
   [abs] and the division-based overflow checks total). Canonicity means two
   equal rationals built under the same force-exact setting are also
   structurally equal, so existing polymorphic-equality call sites keep
   working. [X] values whose components would fit tier S arise only under
   force-exact; the semantic [equal]/[compare] handle those mixed cases. *)

module B = Bigint

type t = S of { num : int; den : int } | X of { num : B.t; den : B.t }

let force_exact =
  ref
    (match Sys.getenv_opt "BSS_FORCE_EXACT" with
    | None | Some ("" | "0" | "false" | "no") -> false
    | Some _ -> true)

let force_exact_enabled () = !force_exact

let with_force_exact b f =
  let saved = !force_exact in
  force_exact := b;
  Fun.protect ~finally:(fun () -> force_exact := saved) f

let tier = function S _ -> `Small | X _ -> `Big

let small_num = function S { num; _ } -> num | X _ -> invalid_arg "Rat.small_num: a big-tier value"
let small_den = function S { den; _ } -> den | X _ -> invalid_arg "Rat.small_den: a big-tier value"

(* Constructors. [small] and [demote] take already-normalized components;
   both funnel through the force-exact switch, so under force every freshly
   built value lands on tier X and the whole pipeline exercises the exact
   path end to end. *)

let small num den =
  if !force_exact then X { num = B.of_int num; den = B.of_int den } else S { num; den }

let demote num den =
  if !force_exact then X { num; den }
  else
    match (B.to_int_opt num, B.to_int_opt den) with
    | Some n, Some d when n <> min_int -> S { num = n; den = d }
    | _ -> X { num; den }

let norm_big num den =
  let s = B.sign den in
  if s = 0 then raise Division_by_zero;
  let num, den = if s < 0 then (B.neg num, B.neg den) else (num, den) in
  if B.is_zero num then small 0 1
  else
    let g = B.gcd num den in
    if B.equal g B.one then demote num den else demote (B.div num g) (B.div den g)

let norm_small num den =
  if den = 0 then raise Division_by_zero
  else if num = min_int || den = min_int then norm_big (B.of_int num) (B.of_int den)
  else
    let num, den = if den < 0 then (-num, -den) else (num, den) in
    if num = 0 then small 0 1
    else
      let g = Intmath.gcd num den in
      if g = 1 then small num den else small (num / g) (den / g)

let zero = small 0 1
let one = small 1 1
let two = small 2 1
let of_int n = if n = min_int then demote (B.of_int n) B.one else small n 1
let of_ints p q = norm_small p q
let of_bigint n = demote n B.one
let make num den = norm_big num den

let bnum = function S { num; _ } -> B.of_int num | X { num; _ } -> num
let bden = function S { den; _ } -> B.of_int den | X { den; _ } -> den

(* Arithmetic. Each binary operation has a native fast path for S/S inputs
   (skipped under force-exact) and a Bigint slow path shared by everything
   else. Fast paths construct through [norm_small], which re-reduces, or
   through [small] when the result is known to stay coprime. *)

let add_big x y = norm_big (B.add (B.mul (bnum x) (bden y)) (B.mul (bnum y) (bden x))) (B.mul (bden x) (bden y))

let add x y =
  match (x, y) with
  | S { num = an; den = ad }, S { num = bn; den = bd } when not !force_exact ->
      if ad = bd then if Intmath.add_fits an bn then norm_small (an + bn) ad else add_big x y
      else if Intmath.mul_fits an bd && Intmath.mul_fits bn ad && Intmath.mul_fits ad bd then
        let p = an * bd and q = bn * ad in
        if Intmath.add_fits p q then norm_small (p + q) (ad * bd) else add_big x y
      else add_big x y
  | _ -> add_big x y

let sub_big x y = norm_big (B.sub (B.mul (bnum x) (bden y)) (B.mul (bnum y) (bden x))) (B.mul (bden x) (bden y))

let sub x y =
  match (x, y) with
  | S { num = an; den = ad }, S { num = bn; den = bd } when not !force_exact ->
      if ad = bd then if Intmath.sub_fits an bn then norm_small (an - bn) ad else sub_big x y
      else if Intmath.mul_fits an bd && Intmath.mul_fits bn ad && Intmath.mul_fits ad bd then
        let p = an * bd and q = bn * ad in
        if Intmath.sub_fits p q then norm_small (p - q) (ad * bd) else sub_big x y
      else sub_big x y
  | _ -> sub_big x y

let mul_big x y = norm_big (B.mul (bnum x) (bnum y)) (B.mul (bden x) (bden y))

let mul x y =
  match (x, y) with
  | S { num = an; den = ad }, S { num = bn; den = bd } when not !force_exact ->
      if Intmath.mul_fits an bn && Intmath.mul_fits ad bd then norm_small (an * bn) (ad * bd)
      else mul_big x y
  | _ -> mul_big x y

let div_big x y = norm_big (B.mul (bnum x) (bden y)) (B.mul (bden x) (bnum y))

let div x y =
  match (x, y) with
  | S { num = an; den = ad }, S { num = bn; den = bd } when not !force_exact ->
      if Intmath.mul_fits an bd && Intmath.mul_fits ad bn then norm_small (an * bd) (ad * bn)
      else div_big x y
  | _ -> div_big x y

let inv = function S { num; den } -> norm_small den num | X { num; den } -> norm_big den num

let neg = function
  | S { num; den } -> small (-num) den
  | X { num; den } -> X { num = B.neg num; den }

let abs x =
  match x with
  | S { num; den } -> if num < 0 then small (-num) den else x
  | X { num; den } -> if B.sign num < 0 then X { num = B.abs num; den } else x

let mul_int x k =
  match x with
  | S { num; den } when (not !force_exact) && Intmath.mul_fits num k -> norm_small (num * k) den
  | _ -> norm_big (B.mul_int (bnum x) k) (bden x)

let div_int x k =
  match x with
  | S { num; den } when (not !force_exact) && Intmath.mul_fits den k -> norm_small num (den * k)
  | _ -> norm_big (bnum x) (B.mul_int (bden x) k)

let add_int x k =
  match x with
  | S { num; den } when (not !force_exact) && Intmath.mul_fits k den && Intmath.add_fits num (k * den)
    ->
      (* gcd(num + k*den, den) = gcd(num, den) = 1: stays normalized *)
      small (num + (k * den)) den
  | _ -> demote (B.add (bnum x) (B.mul_int (bden x) k)) (bden x)

(* Rounding. Tier S needs explicit floor/ceil semantics for negative
   numerators; native [/] truncates toward zero. *)

let floor_int = function
  | S { num; den } -> if num >= 0 || num mod den = 0 then num / den else (num / den) - 1
  | X { num; den } -> B.to_int_exn (B.fdiv num den)

let ceil_int = function
  | S { num; den } -> if num <= 0 || num mod den = 0 then num / den else (num / den) + 1
  | X { num; den } -> B.to_int_exn (B.cdiv num den)

let floor = function
  | S _ as x -> B.of_int (floor_int x)
  | X { num; den } -> B.fdiv num den

let ceil = function
  | S _ as x -> B.of_int (ceil_int x)
  | X { num; den } -> B.cdiv num den

(* Comparisons. The S/S and [compare_int]/[compare_scaled] paths allocate
   nothing: the overflow guards return unboxed bools and the products stay
   in registers. Mixed tiers (force-exact leftovers) fall back to Bigint
   cross-multiplication. *)

let compare_big x y = B.compare (B.mul (bnum x) (bden y)) (B.mul (bnum y) (bden x))

let compare x y =
  match (x, y) with
  | S { num = an; den = ad }, S { num = bn; den = bd } ->
      if ad = bd then Int.compare an bn
      else if Intmath.mul_fits an bd && Intmath.mul_fits bn ad then
        Int.compare (an * bd) (bn * ad)
      else compare_big x y
  | _ -> compare_big x y

let compare_int x k =
  match x with
  | S { num; den } ->
      if den = 1 then Int.compare num k
      else if Intmath.mul_fits k den then Int.compare num (k * den)
      else if k > 0 then -1 (* k*den > max_int >= num *)
      else 1 (* k*den < min_int < num *)
  | X { num; den } -> B.compare num (B.mul_int den k)

let compare_scaled x s k =
  match x with
  | S { num; den } when Intmath.mul_fits s num && Intmath.mul_fits k den ->
      Int.compare (s * num) (k * den)
  | _ -> B.compare (B.mul_int (bnum x) s) (B.mul_int (bden x) k)

let equal x y =
  match (x, y) with
  | S { num = an; den = ad }, S { num = bn; den = bd } -> an = bn && ad = bd
  | X { num = an; den = ad }, X { num = bn; den = bd } -> B.equal an bn && B.equal ad bd
  | S { num = sn; den = sd }, X { num = xn; den = xd }
  | X { num = xn; den = xd }, S { num = sn; den = sd } ->
      (* both normalized, so equality is componentwise across tiers *)
      B.equal (B.of_int sn) xn && B.equal (B.of_int sd) xd

let min x y = if Stdlib.( <= ) (compare x y) 0 then x else y
let max x y = if Stdlib.( >= ) (compare x y) 0 then x else y
let ( < ) x y = Stdlib.( < ) (compare x y) 0
let ( <= ) x y = Stdlib.( <= ) (compare x y) 0
let ( > ) x y = Stdlib.( > ) (compare x y) 0
let ( >= ) x y = Stdlib.( >= ) (compare x y) 0
let ( = ) x y = equal x y
let sign = function S { num; _ } -> Stdlib.compare num 0 | X { num; _ } -> B.sign num
let is_zero = function S { num; _ } -> Stdlib.( = ) num 0 | X { num; _ } -> B.is_zero num

let is_integer = function
  | S { den; _ } -> Stdlib.( = ) den 1
  | X { den; _ } -> B.equal den B.one

let to_float = function
  | S { num; den } -> float_of_int num /. float_of_int den
  | X { num; den } -> B.to_float num /. B.to_float den

let to_int_opt = function
  | S { num; den } -> if Stdlib.( = ) den 1 then Some num else None
  | X { num; den } -> if B.equal den B.one then B.to_int_opt num else None

let to_string = function
  | S { num; den } ->
      if Stdlib.( = ) den 1 then string_of_int num
      else string_of_int num ^ "/" ^ string_of_int den
  | X { num; den } ->
      if B.equal den B.one then B.to_string num else B.to_string num ^ "/" ^ B.to_string den

let pp fmt x = Format.pp_print_string fmt (to_string x)

module Infix = struct
  let ( +/ ) = add
  let ( -/ ) = sub
  let ( */ ) = mul
  let ( // ) = div
end
