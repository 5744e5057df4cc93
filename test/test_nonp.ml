(* Tests for the non-preemptive 3/2 machinery: Theorem 9 dual (Algorithm 6)
   and Theorem 8 integer binary search. *)

open Bss_util
open Bss_instances
open Bss_core

let check = Alcotest.check
let bool_c = Alcotest.bool

let fixture () =
  Instance.make ~m:3 ~setups:[| 4; 2 |] ~jobs:[| (0, 5); (1, 7); (0, 3); (1, 1); (1, 1) |]

let test_dual_accepts_n () =
  let inst = fixture () in
  let tee = Rat.of_int inst.Instance.total in
  match Nonp_dual.run inst tee with
  | Dual.Accepted s -> Helpers.check_feasible_within ~variant:Variant.Nonpreemptive ~num:3 ~den:2 inst s tee
  | Dual.Rejected r -> Alcotest.failf "rejected N: %a" Dual.pp_rejection r

let test_dual_rejects_below_trivial () =
  let inst = fixture () in
  (* max(s_i + tmax_i) = 9 *)
  match Nonp_dual.run inst (Rat.of_int 8) with
  | Dual.Rejected (Dual.Below_trivial_bound _) -> ()
  | Dual.Rejected r -> Alcotest.failf "wrong rejection: %a" Dual.pp_rejection r
  | Dual.Accepted _ -> Alcotest.fail "accepted below trivial bound"

let test_dual_machine_rejection () =
  (* Three mutually exclusive big jobs, two machines. *)
  let inst = Instance.make ~m:2 ~setups:[| 2; 2; 2 |] ~jobs:[| (0, 9); (1, 9); (2, 9) |] in
  match Nonp_dual.run inst (Rat.of_int 11) with
  | Dual.Rejected _ -> ()
  | Dual.Accepted _ -> Alcotest.fail "accepted: 3 exclusive jobs on 2 machines"

(* The paper's Figure 10-13 shape: one expensive class, one cheap class
   with J+ and K jobs, several leftover cheap classes. *)
let figure10_instance () =
  Instance.make ~m:12
    ~setups:[| 11; 3; 2; 2; 2 |]
    ~jobs:
      [|
        (* class 0: expensive (s=11 > T/2 for T ~= 20) *)
        (0, 8); (0, 8); (0, 7); (0, 5);
        (* class 1: cheap with big jobs (t > 10) and K jobs (3+t > 10) *)
        (1, 12); (1, 11); (1, 9); (1, 8); (1, 4);
        (* classes 2-4: small leftovers *)
        (2, 5); (2, 4); (3, 6); (4, 3); (4, 2);
      |]

let test_dual_figure10_shape () =
  let inst = figure10_instance () in
  let rec go tee n =
    if n > 40 then Alcotest.fail "no accepted T"
    else begin
      match Nonp_dual.run inst tee with
      | Dual.Accepted s -> (tee, s)
      | Dual.Rejected _ -> go (Rat.add_int tee 1) (n + 1)
    end
  in
  let tee, s = go (Lower_bounds.t_min Variant.Nonpreemptive inst) 0 in
  Helpers.check_feasible_within ~variant:Variant.Nonpreemptive ~num:3 ~den:2 inst s tee

let test_search_fixture () =
  let inst = fixture () in
  let r = Nonp_search.solve inst in
  Helpers.check_feasible_within ~variant:Variant.Nonpreemptive ~num:3 ~den:2 inst r.Nonp_search.schedule
    r.Nonp_search.accepted;
  check bool_c "T* integral" true (Rat.is_integer r.Nonp_search.accepted);
  check bool_c "T* >= Tmin" true
    (Rat.( >= ) r.Nonp_search.accepted (Lower_bounds.t_min Variant.Nonpreemptive inst))

let test_search_single_machine () =
  let inst = Instance.make ~m:1 ~setups:[| 2; 3 |] ~jobs:[| (0, 4); (1, 5) |] in
  let r = Nonp_search.solve inst in
  (* OPT = N = 14; T* <= OPT *)
  check bool_c "T* <= N" true (Rat.( <= ) r.Nonp_search.accepted (Rat.of_int 14));
  Checker.check_exn Variant.Nonpreemptive inst r.Nonp_search.schedule

let test_search_logarithmic_calls () =
  let inst = figure10_instance () in
  let r = Nonp_search.solve inst in
  let tmin = Rat.ceil_int (Lower_bounds.t_min Variant.Nonpreemptive inst) in
  check bool_c "calls bounded" true (r.Nonp_search.dual_calls <= Intmath.log2_ceil (tmin + 2) + 3)

(* ---------------- native test = Rat test ---------------- *)

let check_native_is_exact what inst tee =
  if not (Helpers.same_outcome (Nonp_dual.test inst tee) (Nonp_dual.test_exact inst tee)) then
    Alcotest.failf "%s: the native and the Rat test differ at T = %s" what (Rat.to_string tee)

(* the guesses Nonp_search.solve probes, and those Theorem 2's ε-search
   probes at ε = 1/8 and 1/10, read from their events *)
let probed_guesses inst =
  let r, guesses = Helpers.probed_guesses ~source:"nonp_search" (fun () -> Nonp_search.solve inst) in
  let eps e =
    snd
      (Helpers.probed_guesses ~source:"dual_search" (fun () ->
           Solver.solve ~algorithm:(Solver.Approx3_2_eps (Rat.of_ints 1 e)) Variant.Nonpreemptive inst))
  in
  (r.Nonp_search.accepted, guesses, eps 8 @ eps 10)

let test_native_matches_exact () =
  List.iter
    (fun (spec : Bss_workloads.Generator.spec) ->
      List.iter
        (fun (m, n, seed) ->
          let inst = spec.generate (Prng.create seed) ~m ~n in
          let what = Printf.sprintf "%s m=%d n=%d seed=%d" spec.name m n seed in
          let t_star, guesses, eps_guesses = probed_guesses inst in
          check bool_c (what ^ ": guesses probed") true (guesses <> [] && eps_guesses <> []);
          List.iter (check_native_is_exact what inst) ((Rat.add_int t_star (-1) :: guesses) @ eps_guesses))
        [ (1, 10, 1); (3, 40, 2); (16, 200, 3); (64, 100, 4) ])
    Bss_workloads.Generator.all

(* s = max_int/32 with 64 unit jobs (N is under the max_int/16 cap): at
   T = s + 1 the class is expensive with m_i = 64, so m_i·s and L_nonp
   pass max_int, and with m = 64 so does m·T. The native test must hand
   these guesses to the Rat test. *)
let test_overflow_takes_exact_path () =
  let s = max_int / 32 in
  List.iter
    (fun (m, t_star) ->
      let inst = Instance.make ~m ~setups:[| s |] ~jobs:(Array.make 64 (0, 1)) in
      let what = Printf.sprintf "m=%d" m in
      List.iter
        (fun d -> check_native_is_exact what inst (Rat.of_int (s + d)))
        [ 0; 1; 2; 31; 32; 33; 64; s ];
      let r = Nonp_search.solve inst in
      check bool_c (what ^ ": T*") true (Rat.equal r.Nonp_search.accepted (Rat.of_int t_star));
      Helpers.check_feasible_within ~variant:Variant.Nonpreemptive ~num:3 ~den:2 inst r.Nonp_search.schedule
        r.Nonp_search.accepted)
    [ (2, s + 32); (64, s + 1) ];
  (* at m = 2 the Rat test rejects T = s + 1 on load 64(s + 1), a
     big-tier value *)
  let inst = Instance.make ~m:2 ~setups:[| s |] ~jobs:(Array.make 64 (0, 1)) in
  match Nonp_dual.test inst (Rat.of_int (s + 1)) with
  | Error (Dual.Load_exceeds { required; _ }) ->
    check bool_c "required = 64(s + 1)" true
      (Rat.equal required (Rat.mul_int (Rat.of_int (s + 1)) 64))
  | _ -> Alcotest.fail "T = s + 1 not rejected on load"

(* An accepted guess allocates nothing on the native path, at any n. *)
let test_native_allocates_nothing () =
  Rat.with_force_exact false @@ fun () ->
  let words n =
    let inst = Bss_workloads.Generator.uniform.generate (Prng.create 1) ~m:16 ~n in
    let tee = Rat.of_int (Rat.ceil_int (Lower_bounds.t_min Variant.Nonpreemptive inst) * 2) in
    check bool_c "accepted" true (Result.is_ok (Nonp_dual.test inst tee));
    Gc.minor ();
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (Nonp_dual.test inst tee))
    done;
    Gc.minor_words () -. before
  in
  let small = words 100 and large = words 10_000 in
  check (Alcotest.float 0.0) "n=100 and n=10000 allocate alike" small large;
  check (Alcotest.float 0.0) "minor words of 100 tests" 0.0 small

(* ---------------- properties ---------------- *)

let prop_dual_dichotomy =
  QCheck2.Test.make ~name:"dual accepts with 3/2 bound or rejects certifiably" ~count:400
    QCheck2.Gen.(pair (Helpers.gen_instance ()) (int_range 1 400))
    (fun (inst, t) ->
      let tee = Rat.of_int t in
      match Nonp_dual.run inst tee with
      | Dual.Accepted s ->
        Checker.is_feasible Variant.Nonpreemptive inst s && Helpers.within_factor ~num:3 ~den:2 s tee
      | Dual.Rejected _ ->
        (* rejection implies T < N (very weak sanity; exactness is checked
           via the search tests against brute force) *)
        t < inst.Instance.total)

let prop_search_feasible =
  QCheck2.Test.make ~name:"search: feasible, <= 3/2 T*, T*-1 rejected" ~count:300
    (Helpers.gen_instance ~max_m:10 ())
    (fun inst ->
      let r = Nonp_search.solve inst in
      let t_star = r.Nonp_search.accepted in
      Checker.is_feasible Variant.Nonpreemptive inst r.Nonp_search.schedule
      && Helpers.within_factor ~num:3 ~den:2 r.Nonp_search.schedule t_star
      &&
      let below = Rat.add_int t_star (-1) in
      Rat.( < ) below (Lower_bounds.t_min Variant.Nonpreemptive inst)
      || not (Dual.is_accepted (Nonp_dual.run inst below)))

let prop_native_matches_exact =
  QCheck2.Test.make ~name:"native test = Rat test at every integral guess up to 2 T_min" ~count:100
    (Helpers.gen_instance ())
    (fun inst ->
      let hi = Rat.ceil_int (Rat.mul_int (Lower_bounds.t_min Variant.Nonpreemptive inst) 2) in
      List.for_all
        (fun t ->
          let tee = Rat.of_int t in
          Helpers.same_outcome (Nonp_dual.test inst tee) (Nonp_dual.test_exact inst tee))
        (List.init (hi + 1) Fun.id))

let prop_native_matches_exact_fraction =
  QCheck2.Test.make ~name:"native test = Rat test at random guesses p/q" ~count:300
    QCheck2.Gen.(
      let* inst = Helpers.gen_instance () in
      let* q = int_range 1 12 in
      let* p = int_range 1 (3 * inst.Instance.total * q) in
      return (inst, p, q))
    (fun (inst, p, q) ->
      let tee = Rat.of_ints p q in
      Helpers.same_outcome (Nonp_dual.test inst tee) (Nonp_dual.test_exact inst tee))

let prop_search_extreme_shapes =
  QCheck2.Test.make ~name:"search on extreme shapes" ~count:150
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* shape = int_range 0 3 in
      return (seed, shape))
    (fun (seed, shape) ->
      let rng = Prng.create seed in
      let inst =
        match shape with
        | 0 -> Helpers.random_instance ~max_m:32 ~max_c:2 ~max_extra_jobs:2 rng
        | 1 -> Helpers.random_instance ~max_m:2 ~max_c:8 ~max_extra_jobs:50 rng
        | 2 -> Helpers.random_instance ~max_setup:100 ~max_time:3 rng
        | _ -> Helpers.random_instance ~max_setup:2 ~max_time:100 rng
      in
      let r = Nonp_search.solve inst in
      Checker.is_feasible Variant.Nonpreemptive inst r.Nonp_search.schedule
      && Helpers.within_factor ~num:3 ~den:2 r.Nonp_search.schedule r.Nonp_search.accepted)

let () =
  Alcotest.run "nonpreemptive"
    [
      ( "dual",
        [
          Alcotest.test_case "accepts N" `Quick test_dual_accepts_n;
          Alcotest.test_case "rejects below trivial" `Quick test_dual_rejects_below_trivial;
          Alcotest.test_case "machine rejection" `Quick test_dual_machine_rejection;
          Alcotest.test_case "figure 10 shape" `Quick test_dual_figure10_shape;
        ] );
      ( "search",
        [
          Alcotest.test_case "fixture" `Quick test_search_fixture;
          Alcotest.test_case "single machine" `Quick test_search_single_machine;
          Alcotest.test_case "log calls" `Quick test_search_logarithmic_calls;
        ] );
      ( "native",
        [
          Alcotest.test_case "native = Rat test" `Quick test_native_matches_exact;
          Alcotest.test_case "overflow takes the exact path" `Quick test_overflow_takes_exact_path;
          Alcotest.test_case "allocation-free" `Quick test_native_allocates_nothing;
        ] );
      Helpers.qsuite "props"
        [
          prop_dual_dichotomy;
          prop_search_feasible;
          prop_search_extreme_shapes;
          prop_native_matches_exact;
          prop_native_matches_exact_fraction;
        ];
    ]
