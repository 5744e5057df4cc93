(* Unit and property tests for the bss_util substrate: bignums, rationals,
   integer helpers, PRNG, selection, statistics, tables. *)

open Bss_util
module B = Bigint

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* ---------------- Bigint unit tests ---------------- *)

let test_bigint_of_to_int () =
  List.iter
    (fun n -> check (Alcotest.option int_c) (string_of_int n) (Some n) (B.to_int_opt (B.of_int n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 45; max_int; -max_int ]

let test_bigint_add_sub () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "987654321098765432109876543210" in
  check string_c "add" "1111111110111111111011111111100" (B.to_string (B.add a b));
  check string_c "sub" "-864197532086419753208641975320" (B.to_string (B.sub a b));
  check string_c "sub rev" "864197532086419753208641975320" (B.to_string (B.sub b a));
  check bool_c "a + (-a) = 0" true (B.is_zero (B.add a (B.neg a)))

let test_bigint_mul () =
  let a = B.of_string "123456789012345678901234567890" in
  check string_c "square" "15241578753238836750495351562536198787501905199875019052100"
    (B.to_string (B.mul a a));
  check string_c "mul sign" "-246913578024691357802469135780" (B.to_string (B.mul a (B.of_int (-2))))

let test_bigint_divmod () =
  let a = B.of_string "15241578753238836750495351562536198787501905199875019052100" in
  let b = B.of_string "123456789012345678901234567890" in
  let q, r = B.divmod a b in
  check string_c "q" (B.to_string b) (B.to_string q);
  check bool_c "r=0" true (B.is_zero r);
  let q, r = B.divmod (B.add a B.one) b in
  check string_c "q2" (B.to_string b) (B.to_string q);
  check string_c "r2" "1" (B.to_string r);
  (* Euclidean: negative dividend. *)
  let q, r = B.divmod (B.of_int (-7)) (B.of_int 2) in
  check int_c "(-7)/2 floor" (-4) (B.to_int_exn q);
  check int_c "(-7) mod 2" 1 (B.to_int_exn r)

let test_bigint_cdiv () =
  check int_c "cdiv 7 2" 4 (B.to_int_exn (B.cdiv (B.of_int 7) (B.of_int 2)));
  check int_c "cdiv 8 2" 4 (B.to_int_exn (B.cdiv (B.of_int 8) (B.of_int 2)));
  check int_c "cdiv 0 5" 0 (B.to_int_exn (B.cdiv B.zero (B.of_int 5)))

let test_bigint_gcd () =
  check int_c "gcd 12 18" 6 (B.to_int_exn (B.gcd (B.of_int 12) (B.of_int 18)));
  check int_c "gcd 0 5" 5 (B.to_int_exn (B.gcd B.zero (B.of_int 5)));
  check int_c "gcd -12 18" 6 (B.to_int_exn (B.gcd (B.of_int (-12)) (B.of_int 18)));
  let a = B.of_string "2305843009213693952" (* 2^61 *) in
  let b = B.of_string "4611686018427387904" (* 2^62 *) in
  check string_c "gcd powers of two" "2305843009213693952" (B.to_string (B.gcd a b))

let test_bigint_string_roundtrip () =
  List.iter
    (fun s -> check string_c s s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "999999999"; "1000000000"; "123456789012345678901234567890"; "-42" ]

(* ---------------- Bigint property tests ---------------- *)

let int_small = QCheck2.Gen.int_range (-1_000_000_000) 1_000_000_000

let prop_add_matches_int =
  QCheck2.Test.make ~name:"bigint add matches native" ~count:500
    QCheck2.Gen.(pair int_small int_small)
    (fun (a, b) -> B.to_int_exn (B.add (B.of_int a) (B.of_int b)) = a + b)

let prop_mul_matches_int =
  QCheck2.Test.make ~name:"bigint mul matches native" ~count:500
    QCheck2.Gen.(pair int_small int_small)
    (fun (a, b) -> B.to_int_exn (B.mul (B.of_int a) (B.of_int b)) = a * b)

let prop_divmod_identity =
  QCheck2.Test.make ~name:"bigint divmod identity" ~count:500
    QCheck2.Gen.(pair int_small (int_range 1 1_000_000))
    (fun (a, b) ->
      let q, r = B.divmod (B.of_int a) (B.of_int b) in
      let back = B.add (B.mul q (B.of_int b)) r in
      B.to_int_exn back = a && B.sign r >= 0 && B.compare r (B.of_int b) < 0)

let prop_gcd_divides =
  QCheck2.Test.make ~name:"bigint gcd divides both" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000_000) (int_range 1 1_000_000_000))
    (fun (a, b) ->
      let g = B.gcd (B.of_int a) (B.of_int b) in
      let gi = B.to_int_exn g in
      gi > 0 && a mod gi = 0 && b mod gi = 0 && gi = Intmath.gcd a b)

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"bigint decimal roundtrip" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let s = if String.length s > 1 then String.concat "" [ "1"; s ] else s in
      B.to_string (B.of_string s) = s)

let test_bigint_division_by_zero () =
  check bool_c "divmod" true (try ignore (B.divmod B.one B.zero); false with Division_by_zero -> true);
  check bool_c "of_string empty" true
    (try ignore (B.of_string ""); false with Invalid_argument _ -> true);
  check bool_c "of_string junk" true
    (try ignore (B.of_string "12x4"); false with Invalid_argument _ -> true);
  check int_c "of_string plus" 5 (B.to_int_exn (B.of_string "+5"))

(* ---------------- Rat tests ---------------- *)

let rat_c = Alcotest.testable Rat.pp Rat.equal

let test_rat_basic () =
  let open Rat.Infix in
  let half = Rat.of_ints 1 2 and third = Rat.of_ints 1 3 in
  check rat_c "1/2+1/3" (Rat.of_ints 5 6) (half +/ third);
  check rat_c "1/2-1/3" (Rat.of_ints 1 6) (half -/ third);
  check rat_c "1/2*1/3" (Rat.of_ints 1 6) (half */ third);
  check rat_c "(1/2)/(1/3)" (Rat.of_ints 3 2) (half // third);
  check rat_c "normalize" (Rat.of_ints 1 2) (Rat.of_ints (-3) (-6));
  check rat_c "negative den" (Rat.of_ints (-1) 2) (Rat.of_ints 3 (-6))

let test_rat_floor_ceil () =
  check int_c "floor 7/2" 3 (Rat.floor_int (Rat.of_ints 7 2));
  check int_c "ceil 7/2" 4 (Rat.ceil_int (Rat.of_ints 7 2));
  check int_c "floor -7/2" (-4) (Rat.floor_int (Rat.of_ints (-7) 2));
  check int_c "ceil -7/2" (-3) (Rat.ceil_int (Rat.of_ints (-7) 2));
  check int_c "floor 4" 4 (Rat.floor_int (Rat.of_int 4));
  check int_c "ceil 4" 4 (Rat.ceil_int (Rat.of_int 4))

let test_rat_errors () =
  check bool_c "zero denominator" true
    (try ignore (Rat.of_ints 1 0); false with Division_by_zero -> true);
  check bool_c "div by zero" true
    (try ignore (Rat.div Rat.one Rat.zero); false with Division_by_zero -> true);
  check bool_c "inv zero" true (try ignore (Rat.inv Rat.zero); false with Division_by_zero -> true)

let test_rat_compare () =
  check bool_c "1/3 < 1/2" true Rat.(of_ints 1 3 < of_ints 1 2);
  check bool_c "2/4 = 1/2" true (Rat.equal (Rat.of_ints 2 4) (Rat.of_ints 1 2));
  check rat_c "min" (Rat.of_ints 1 3) (Rat.min (Rat.of_ints 1 3) (Rat.of_ints 1 2));
  check bool_c "to_int_opt 6/3" true (Rat.to_int_opt (Rat.of_ints 6 3) = Some 2);
  check bool_c "to_int_opt 1/2" true (Rat.to_int_opt (Rat.of_ints 1 2) = None)

let prop_rat_field =
  QCheck2.Test.make ~name:"rat field laws on samples" ~count:500
    QCheck2.Gen.(
      quad (int_range (-1000) 1000) (int_range 1 1000) (int_range (-1000) 1000) (int_range 1 1000))
    (fun (a, b, c, d) ->
      let open Rat.Infix in
      let x = Rat.of_ints a b and y = Rat.of_ints c d in
      Rat.equal (x +/ y) (y +/ x)
      && Rat.equal (x */ y) (y */ x)
      && Rat.equal (x -/ y) (Rat.neg (y -/ x))
      && Rat.equal ((x +/ y) */ Rat.two) ((Rat.two */ x) +/ (Rat.two */ y))
      && (Rat.is_zero y || Rat.equal (x // y */ y) x))

let prop_rat_floor_ceil =
  QCheck2.Test.make ~name:"rat floor/ceil sandwich" ~count:500
    QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range 1 1000))
    (fun (p, q) ->
      let x = Rat.of_ints p q in
      let f = Rat.of_bigint (Rat.floor x) and c = Rat.of_bigint (Rat.ceil x) in
      Rat.( <= ) f x && Rat.( <= ) x c
      && Rat.( < ) x (Rat.add f Rat.one)
      && Rat.( > ) x (Rat.sub c Rat.one)
      && (Rat.is_integer x = Rat.equal f c))

(* ---------------- Intmath ---------------- *)

let test_intmath () =
  check int_c "gcd" 6 (Intmath.gcd 12 18);
  check int_c "log2_ceil 1" 0 (Intmath.log2_ceil 1);
  check int_c "log2_ceil 1024" 10 (Intmath.log2_ceil 1024);
  check int_c "log2_ceil 1025" 11 (Intmath.log2_ceil 1025);
  check int_c "sum" 10 (Intmath.sum_array [| 1; 2; 3; 4 |]);
  check int_c "max" 9 (Intmath.max_array [| 3; 9; 1 |]);
  check int_c "clamp lo" 2 (Intmath.clamp 2 5 0);
  check int_c "clamp hi" 5 (Intmath.clamp 2 5 9);
  check int_c "clamp in" 3 (Intmath.clamp 2 5 3)

(* ---------------- Prng ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check bool_c "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    check bool_c "in range" true (v >= 0 && v < 10);
    let w = Prng.int_in rng 5 9 in
    check bool_c "int_in range" true (w >= 5 && w <= 9);
    let f = Prng.float rng in
    check bool_c "float range" true (f >= 0.0 && f < 1.0)
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool_c "permutation" true (sorted = Array.init 50 (fun i -> i))

(* The first draws of three seeds, as the boxed-state SplitMix64 returned
   them: two raw values, int 1000, int max_int, a float, three bools and
   int_in (-5) 5, in that order from one generator. *)
let test_prng_pinned_stream () =
  List.iter
    (fun (seed, r1, r2, i1, i2, f, bools, d) ->
      let rng = Prng.create seed in
      let what = Printf.sprintf "seed %d" seed in
      check Alcotest.int64 (what ^ " next_int64") r1 (Prng.next_int64 rng);
      check Alcotest.int64 (what ^ " next_int64") r2 (Prng.next_int64 rng);
      check Alcotest.int (what ^ " int 1000") i1 (Prng.int rng 1000);
      check Alcotest.int (what ^ " int max_int") i2 (Prng.int rng max_int);
      check (Alcotest.float 0.0) (what ^ " float") f (Prng.float rng);
      List.iter (fun b -> check bool_c (what ^ " bool") b (Prng.bool rng)) bools;
      check Alcotest.int (what ^ " int_in") d (Prng.int_in rng (-5) 5))
    [
      (0, -2152535657050944081L, 7960286522194355700L, 419, 4477402844195135611, 0x1.b39896a51a87p-4,
       [ false; true; false ], 2);
      (1, -7995527694508729151L, -4689498862643123097L, 647, 2049245188455445058, 0x1.c6ed53634406cp-2,
       [ false; true; true ], -5);
      (42, -4767286540954276203L, 2949826092126892291L, 964, 1587299515064563941, 0x1.378b0b448904p-5,
       [ false; true; false ], 0);
    ]

let test_prng_int_allocates_nothing () =
  let rng = Prng.create 1 in
  ignore (Prng.int rng 10);
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Prng.int rng 1000));
    ignore (Sys.opaque_identity (Prng.bool rng))
  done;
  check (Alcotest.float 0.0) "minor words of 1000 int and bool draws" 0.0 (Gc.minor_words () -. before)

let test_prng_zipf () =
  let rng = Prng.create 3 in
  for _ = 1 to 200 do
    let v = Prng.zipf rng ~alpha:1.2 ~n:10 in
    check bool_c "zipf range" true (v >= 1 && v <= 10)
  done

(* ---------------- Select ---------------- *)

let prop_select_matches_sort =
  QCheck2.Test.make ~name:"select = sorted.(k)" ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 100))
    (fun l ->
      let a = Array.of_list l in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      let ok = ref true in
      for k = 0 to Array.length a - 1 do
        if Select.select ~cmp:Int.compare ~lo:0 ~hi:(Array.length a - 1) (Array.copy a) k <> sorted.(k) then
          ok := false
      done;
      !ok)

(* ---------------- Stats ---------------- *)

let test_stats () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean a);
  check (Alcotest.float 1e-9) "median even" 2.5 (Stats.median a);
  check (Alcotest.float 1e-9) "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max a)

let test_loglog_slope () =
  (* y = 3 x^2 exactly -> slope 2 *)
  let pts = Array.init 5 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 3.0 *. (x ** 2.0)))
  in
  check (Alcotest.float 1e-9) "slope" 2.0 (Stats.loglog_slope pts)

(* ---------------- Parallel ---------------- *)

(* unwrap a sweep that is expected to be all-Ok *)
let oks rs = List.map (function Ok y -> y | Error (f : Parallel.failure) -> raise f.Parallel.exn) rs

let test_parallel_map_order () =
  let xs = List.init 100 (fun i -> i) in
  check bool_c "order preserved" true
    (oks (Parallel.map_results (fun x -> x * x) xs) = List.map (fun x -> x * x) xs);
  check bool_c "empty" true (Parallel.map_results (fun x -> x) [] = ([] : (int, Parallel.failure) result list));
  check bool_c "singleton" true (oks (Parallel.map_results (fun x -> x + 1) [ 41 ]) = [ 42 ])

let test_parallel_actually_concurrent () =
  (* with 2+ domains, both halves make progress; we just assert the
     result is right under a domain count > 1 *)
  let xs = List.init 64 (fun i -> i) in
  check bool_c "domains=4" true
    (oks (Parallel.map_results ~domains:4 (fun x -> x * 2) xs) = List.map (fun x -> x * 2) xs);
  check int_c "recommended >= 1" 1 (min 1 (Parallel.recommended ()))

let test_parallel_uneven_work_order () =
  (* items cost wildly different amounts; the shared work queue must not
     leak completion order into the result *)
  let busy k =
    let acc = ref 0 in
    for i = 1 to 1 + ((k * 7919) mod 5000) do
      acc := !acc + (i mod 7)
    done;
    !acc + (k * 2)
  in
  let xs = List.init 150 (fun i -> i) in
  check bool_c "uneven order preserved" true
    (oks (Parallel.map_results ~domains:4 busy xs) = List.map busy xs)

let test_parallel_single_domain_degenerate () =
  (* domains:1 runs items in order on the caller; a failure is captured
     in place and the sweep goes on *)
  let seen = ref [] in
  check bool_c "map matches" true
    (oks (Parallel.map_results ~domains:1 (fun x -> x * 3) (List.init 20 (fun i -> i)))
    = List.map (fun x -> x * 3) (List.init 20 (fun i -> i)));
  let r =
    Parallel.map_results ~domains:1
      (fun x ->
        if x = 5 then failwith "boom";
        seen := x :: !seen)
      (List.init 10 (fun i -> i))
  in
  check (Alcotest.list int_c) "only item 5 failed" [ 5 ]
    (List.concat (List.mapi (fun i r -> if Result.is_error r then [ i ] else []) r));
  check bool_c "ran in order past the failure" true
    (List.rev !seen = [ 0; 1; 2; 3; 4; 6; 7; 8; 9 ])

let test_parallel_select_under_domains () =
  (* quickselect uses domain-local pivot PRNGs: concurrent selects agree
     with sorting *)
  let ok =
    oks
      (Parallel.map_results ~domains:4
         (fun seed ->
           let rng = Prng.create seed in
           let a = Array.init 200 (fun _ -> Prng.int rng 1000) in
           let sorted = Array.copy a in
           Array.sort compare sorted;
           Select.select ~cmp:Int.compare ~lo:0 ~hi:199 a 100 = sorted.(100))
         (List.init 32 (fun i -> i)))
  in
  check bool_c "all agree" true (List.for_all (fun b -> b) ok)

(* ---------------- Parallel.map_results: crash containment ---------------- *)

let test_map_results_all_ok () =
  let r = Parallel.map_results ~domains:4 (fun x -> x * x) (List.init 50 (fun i -> i)) in
  check bool_c "all ok in order" true
    (r = List.init 50 (fun i -> Ok (i * i)));
  check bool_c "empty" true (Parallel.map_results (fun x -> x) [] = ([] : (int, Parallel.failure) result list));
  check bool_c "singleton" true (Parallel.map_results (fun x -> x + 1) [ 41 ] = [ Ok 42 ])

(* several items fail at once on different domains; the sweep still
   evaluates everything, keeps order, and attributes each failure to the
   right index with the right exception *)
let test_map_results_multi_failure () =
  let bad x = x mod 7 = 3 in
  let r =
    Parallel.map_results ~domains:4
      (fun x -> if bad x then failwith (string_of_int x) else x * 10)
      (List.init 60 (fun i -> i))
  in
  check int_c "length" 60 (List.length r);
  List.iteri
    (fun i o ->
      match o with
      | Ok y ->
        check bool_c (Printf.sprintf "item %d ok" i) false (bad i);
        check int_c (Printf.sprintf "item %d value" i) (i * 10) y
      | Error { Parallel.index; exn } ->
        check bool_c (Printf.sprintf "item %d failed" i) true (bad i);
        check int_c "index attribution" i index;
        check bool_c "exn attribution" true (exn = Failure (string_of_int i)))
    r

(* unlike [map], a failure must not abort the items after it *)
let test_map_results_no_early_abort () =
  let evaluated = Atomic.make 0 in
  let r =
    Parallel.map_results ~domains:1
      (fun x ->
        Atomic.incr evaluated;
        if x = 0 then failwith "first";
        x)
      (List.init 10 (fun i -> i))
  in
  check int_c "every item evaluated" 10 (Atomic.get evaluated);
  check int_c "one failure" 1
    (List.length (List.filter (function Error _ -> true | Ok _ -> false) r))

(* ---------------- Table ---------------- *)

let test_table_render () =
  let s = Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "long-name"; "22" ] ] in
  check bool_c "contains header" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> l = "| name      | value |"));
  (* Ragged rows are padded/truncated. *)
  let s2 = Table.render ~header:[ "a"; "b" ] [ [ "x" ]; [ "1"; "2"; "3" ] ] in
  check bool_c "ragged handled" true (String.length s2 > 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bss_util"
    [
      ( "bigint",
        [
          Alcotest.test_case "of/to int" `Quick test_bigint_of_to_int;
          Alcotest.test_case "add/sub" `Quick test_bigint_add_sub;
          Alcotest.test_case "mul" `Quick test_bigint_mul;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "cdiv" `Quick test_bigint_cdiv;
          Alcotest.test_case "gcd" `Quick test_bigint_gcd;
          Alcotest.test_case "string roundtrip" `Quick test_bigint_string_roundtrip;
          Alcotest.test_case "division errors" `Quick test_bigint_division_by_zero;
        ] );
      qsuite "bigint-props"
        [ prop_add_matches_int; prop_mul_matches_int; prop_divmod_identity; prop_gcd_divides; prop_string_roundtrip ];
      ( "rat",
        [
          Alcotest.test_case "basic ops" `Quick test_rat_basic;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "errors" `Quick test_rat_errors;
        ] );
      qsuite "rat-props" [ prop_rat_field; prop_rat_floor_ceil ];
      ("intmath", [ Alcotest.test_case "all" `Quick test_intmath ]);
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "zipf" `Quick test_prng_zipf;
          Alcotest.test_case "pinned stream" `Quick test_prng_pinned_stream;
          Alcotest.test_case "int allocates nothing" `Quick test_prng_int_allocates_nothing;
        ] );
      qsuite "select-props" [ prop_select_matches_sort ];
      ( "stats",
        [
          Alcotest.test_case "descriptive" `Quick test_stats;
          Alcotest.test_case "loglog slope" `Quick test_loglog_slope;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map order" `Quick test_parallel_map_order;
          Alcotest.test_case "concurrent" `Quick test_parallel_actually_concurrent;
          Alcotest.test_case "uneven work order" `Quick test_parallel_uneven_work_order;
          Alcotest.test_case "single domain" `Quick test_parallel_single_domain_degenerate;
          Alcotest.test_case "select under domains" `Quick test_parallel_select_under_domains;
          Alcotest.test_case "map_results all ok" `Quick test_map_results_all_ok;
          Alcotest.test_case "map_results multi failure" `Quick test_map_results_multi_failure;
          Alcotest.test_case "map_results no early abort" `Quick test_map_results_no_early_abort;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
    ]
