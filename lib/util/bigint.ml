(* Arbitrary-precision signed integers on base-2^30 limbs.

   Representation invariants:
   - [mag] is little-endian, has no trailing (most-significant) zero limb;
   - [sign] is 0 iff [mag] is empty, otherwise -1 or 1;
   - every limb is in [0, 2^30). *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* --- magnitude helpers ----------------------------------------------- *)

let mag_is_zero m = Array.length m = 0

let normalize_mag m =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length m then m else Array.sub m 0 !n

let make sign mag =
  let mag = normalize_mag mag in
  if mag_is_zero mag then zero else { sign; mag }

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let x = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- x land base_mask;
    carry := x lsr base_bits
  done;
  assert (!carry = 0);
  normalize_mag r

(* [sub_mag a b] assumes [a >= b]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let x = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if x < 0 then begin
      r.(i) <- x + base;
      borrow := 1
    end
    else begin
      r.(i) <- x;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize_mag r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let x = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- x land base_mask;
        carry := x lsr base_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize_mag r
  end

let shl_mag m k =
  if mag_is_zero m || k = 0 then m
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let lm = Array.length m in
    let r = Array.make (lm + limbs + 1) 0 in
    for i = 0 to lm - 1 do
      let x = m.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (x land base_mask);
      r.(i + limbs + 1) <- x lsr base_bits
    done;
    normalize_mag r
  end

let shr_mag m k =
  if mag_is_zero m || k = 0 then m
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let lm = Array.length m in
    if limbs >= lm then [||]
    else begin
      let lr = lm - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = m.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < lm then (m.(i + limbs + 1) lsl (base_bits - bits)) land base_mask else 0 in
        r.(i) <- if bits = 0 then m.(i + limbs) else lo lor hi
      done;
      normalize_mag r
    end
  end

let bit_length_mag m =
  let lm = Array.length m in
  if lm = 0 then 0
  else begin
    let top = m.(lm - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((lm - 1) * base_bits) + width 1
  end

let test_bit m i =
  let limb = i / base_bits and bit = i mod base_bits in
  if limb >= Array.length m then false else (m.(limb) lsr bit) land 1 = 1

(* Short division of a magnitude by a native int in (0, 2^30). *)
let divmod_mag_small m d =
  assert (d > 0 && d < base);
  let lm = Array.length m in
  let q = Array.make lm 0 in
  let r = ref 0 in
  for i = lm - 1 downto 0 do
    let cur = (!r lsl base_bits) lor m.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize_mag q, !r)

(* Schoolbook binary long division: O(bits(a) * limbs(b)).  The bignums in
   this library stay small (a handful of limbs), so simplicity wins over a
   Knuth-D implementation. *)
let divmod_mag a b =
  assert (not (mag_is_zero b));
  if cmp_mag a b < 0 then ([||], a)
  else if Array.length b = 1 then begin
    let q, r = divmod_mag_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end
  else begin
    let bits = bit_length_mag a in
    let q = Array.make (Array.length a) 0 in
    let r = ref [||] in
    for i = bits - 1 downto 0 do
      r := shl_mag !r 1;
      if test_bit a i then r := add_mag !r [| 1 |];
      if cmp_mag !r b >= 0 then begin
        r := sub_mag !r b;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (normalize_mag q, !r)
  end

(* --- signed operations ------------------------------------------------ *)

let one = { sign = 1; mag = [| 1 |] }

let of_int n =
  if n = 0 then zero
  else if n = min_int then begin
    (* |min_int| = 2^(int_size-1); negating would overflow, so build it
       directly. *)
    let k = Sys.int_size - 1 in
    let m = Array.make ((k / base_bits) + 1) 0 in
    m.(k / base_bits) <- 1 lsl (k mod base_bits);
    make (-1) m
  end
  else begin
    let sign = if n < 0 then -1 else 1 in
    let rec limbs acc n = if n = 0 then List.rev acc else limbs ((n land base_mask) :: acc) (n lsr base_bits) in
    make sign (Array.of_list (limbs [] (abs n)))
  end

let sign x = x.sign
let is_zero x = x.sign = 0
let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul_int a k = mul a (of_int k)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let qm, rm = divmod_mag a.mag b.mag in
  let q0 = make (a.sign * b.sign) qm and r0 = make 1 rm in
  if a.sign >= 0 then (q0, r0)
  else if is_zero r0 then (q0, zero)
  else
    (* Pull the remainder up into [0, |b|). *)
    (sub q0 (of_int b.sign), sub (abs b) r0)

let div a b = fst (divmod a b)

let fdiv = div

let cdiv a b =
  let q, r = divmod a b in
  if is_zero r then q else add q one

let gcd a b =
  (* Binary GCD on magnitudes. *)
  let rec twos m k = if mag_is_zero m || test_bit m 0 then (m, k) else twos (shr_mag m 1) (k + 1) in
  let rec go a b =
    if mag_is_zero a then b
    else if mag_is_zero b then a
    else begin
      let a, _ = twos a 0 and b, _ = twos b 0 in
      if cmp_mag a b >= 0 then go (sub_mag a b) b else go (sub_mag b a) a
    end
  in
  let a = a.mag and b = b.mag in
  if mag_is_zero a then make 1 b
  else if mag_is_zero b then make 1 a
  else begin
    let a', ka = twos a 0 and b', kb = twos b 0 in
    let g = go a' b' in
    make 1 (shl_mag g (Stdlib.min ka kb))
  end

let to_int_opt x =
  if x.sign = 0 then Some 0
  else if bit_length_mag x.mag >= Sys.int_size then None
  else begin
    let v = ref 0 in
    for i = Array.length x.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor x.mag.(i)
    done;
    Some (x.sign * !v)
  end

let to_int_exn x =
  match to_int_opt x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: out of native range"

let to_float x =
  let v = ref 0.0 in
  for i = Array.length x.mag - 1 downto 0 do
    v := (!v *. float_of_int base) +. float_of_int x.mag.(i)
  done;
  float_of_int x.sign *. !v

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let chunks = ref [] in
    let m = ref x.mag in
    while not (mag_is_zero !m) do
      let q, r = divmod_mag_small !m 1_000_000_000 in
      chunks := r :: !chunks;
      m := q
    done;
    let buf = Buffer.create 32 in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
    | [] -> assert false
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten9 = of_int 1_000_000_000 in
  let i = ref start in
  while !i < len do
    let stop = Stdlib.min len (!i + 9) in
    let chunk = String.sub s !i (stop - !i) in
    String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit") chunk;
    let scale = if stop - !i = 9 then ten9 else of_int (int_of_float (10. ** float_of_int (stop - !i))) in
    acc := add (mul !acc scale) (of_int (int_of_string chunk));
    i := stop
  done;
  if negative then neg !acc else !acc
