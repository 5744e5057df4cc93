let require_nonempty name a = if Array.length a = 0 then invalid_arg (name ^ ": empty")

let mean a =
  require_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  require_nonempty "Stats.median" a;
  let b = sorted a in
  let n = Array.length b in
  if n land 1 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

let percentile p a =
  require_nonempty "Stats.percentile" a;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let b = sorted a in
  let n = Array.length b in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  b.(Intmath.clamp 0 (n - 1) (rank - 1))

let max a =
  require_nonempty "Stats.max" a;
  Array.fold_left Stdlib.max a.(0) a

let loglog_slope pts =
  if Array.length pts < 2 then invalid_arg "Stats.loglog_slope: need >= 2 points";
  let logs =
    Array.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then invalid_arg "Stats.loglog_slope: non-positive point";
        (log x, log y))
      pts
  in
  let n = float_of_int (Array.length logs) in
  let sx = Array.fold_left (fun a (x, _) -> a +. x) 0.0 logs in
  let sy = Array.fold_left (fun a (_, y) -> a +. y) 0.0 logs in
  let sxx = Array.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 logs in
  let sxy = Array.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 logs in
  ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))
