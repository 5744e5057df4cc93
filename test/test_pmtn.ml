(* Tests for the preemptive 3/2 machinery: Theorem 4 (nice instances),
   Theorem 5 (Algorithm 3 with the knapsack reduction), and Theorem 6
   (class jumping, γ-mode). *)

open Bss_util
open Bss_instances
open Bss_core

let check = Alcotest.check
let bool_c = Alcotest.bool

(* A nice fixture at T = 16: one I+exp class, two I-exp classes, cheap
   classes; no I0exp. *)
let nice_fixture () =
  Instance.make ~m:6
    ~setups:[| 10; 9; 9; 4; 1 |]
    ~jobs:
      [|
        (0, 6); (0, 5); (0, 4) (* s+P = 25 >= 16: I+exp *);
        (1, 3) (* s+P = 12 <= 12: I-exp *);
        (2, 2) (* s+P = 11 <= 12: I-exp *);
        (3, 6); (3, 2) (* cheap *);
        (4, 8); (4, 1) (* cheap *);
      |]

let test_nice_structure () =
  let inst = nice_fixture () in
  let tee = Rat.of_int 16 in
  match Pmtn_nice.run_instance inst tee with
  | Dual.Accepted s ->
    Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 inst s tee
  | Dual.Rejected r -> Alcotest.failf "rejected: %a" Dual.pp_rejection r

let test_nice_rejects_not_nice () =
  (* I0exp non-empty: 3T/4 < s+P < T *)
  let inst = Instance.make ~m:2 ~setups:[| 9 |] ~jobs:[| (0, 4) |] in
  check bool_c "raises" true
    (try
       ignore (Pmtn_nice.run_instance inst (Rat.of_int 16));
       false
     with Invalid_argument _ -> true)

let test_nice_gamma_mode () =
  let inst = nice_fixture () in
  let tee = Rat.of_int 16 in
  match Pmtn_nice.run_instance ~mode:Pmtn_nice.Gamma inst tee with
  | Dual.Accepted s ->
    Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 inst s tee
  | Dual.Rejected _ -> () (* γ-mode may reject guesses α'-mode accepts *)

let test_nice_machine_numbers () =
  let inst = nice_fixture () in
  let tee = Rat.of_int 16 in
  let batches = List.init (Instance.c inst) (Pmtn_nice.batch_of_class inst) in
  (* α'_0 = ⌊15/6⌋ = 2; m_nice = 2 + ⌈2/2⌉ = 3 *)
  check Alcotest.int "m_nice" 3 (Pmtn_nice.m_nice inst tee batches);
  (* L_nice = P(J) + 2*10 + (9 + 9 + 4 + 1) = 37 + 20 + 23 = 80 *)
  check bool_c "l_nice" true (Rat.equal (Pmtn_nice.l_nice inst tee batches) (Rat.of_int 80))

(* General fixture: large machines (I0exp), I*chp with big jobs, forcing
   the knapsack path for suitable T. *)
let general_fixture () =
  Instance.make ~m:4
    ~setups:[| 13; 3; 2; 1 |]
    ~jobs:
      [|
        (0, 2) (* s+P = 15: I0exp for T = 16 *);
        (1, 7); (1, 6) (* cheap, s+t: 10, 9 > 8: C* jobs *);
        (2, 7); (2, 2) (* 9 > 8 big, 4 small *);
        (3, 5); (3, 4); (3, 3) (* 6, 5, 4 <= 8: plain cheap *);
      |]

let test_general_dual_accepts () =
  let inst = general_fixture () in
  let tee = Rat.of_int 16 in
  match Pmtn_dual.run inst tee with
  | Dual.Accepted s ->
    Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 inst s tee
  | Dual.Rejected r -> Alcotest.failf "rejected: %a" Dual.pp_rejection r

let test_general_dual_rejects_small () =
  let inst = general_fixture () in
  match Pmtn_dual.run inst (Rat.of_int 5) with
  | Dual.Rejected _ -> ()
  | Dual.Accepted _ -> Alcotest.fail "accepted T=5"

let test_y_guard () =
  (* The instance from the development scan where mT >= L_pmtn holds but
     the cheap class cannot fit outside the large machine: the Y-guard
     must reject (the paper's tests alone would accept and then fail to
     construct). m=2, s0=9 P0=6 (large at T=16), s1=4 P1=13 (I+chp). *)
  let inst = Instance.make ~m:2 ~setups:[| 9; 4 |] ~jobs:[| (0, 4); (0, 2); (1, 3); (1, 5); (1, 5) |] in
  (match Pmtn_dual.run inst (Rat.of_int 16) with
  | Dual.Rejected _ -> ()
  | Dual.Accepted _ -> Alcotest.fail "accepted T=16 despite Y < 0");
  (* and T = 17 is accepted (class 1 fits alone on machine 1) *)
  match Pmtn_dual.run inst (Rat.of_int 17) with
  | Dual.Accepted s ->
    Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 inst s (Rat.of_int 17)
  | Dual.Rejected r -> Alcotest.failf "rejected 17: %a" Dual.pp_rejection r

let test_dual_accepts_n () =
  let rng = Prng.create 5 in
  for _ = 1 to 50 do
    let inst = Helpers.random_instance rng in
    let tee = Rat.of_int inst.Instance.total in
    match Pmtn_dual.run inst tee with
    | Dual.Accepted s ->
      Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 inst s tee
    | Dual.Rejected r -> Alcotest.failf "rejected N: %a" Dual.pp_rejection r
  done

(* ---------------- native test = Rat test ---------------- *)

(* [f ()] under recording: its result, counters and rendered events *)
let recorded f =
  let r, report = Bss_obs.Probe.with_recording f in
  ( r,
    report.Bss_obs.Report.counters,
    List.map
      (fun (e : Bss_obs.Report.event_entry) -> Bss_obs.Event.to_json e.event)
      report.Bss_obs.Report.events )

(* [Pmtn_dual.test] and [test_exact] agree at [tee] in both modes: verdict
   and payload, and the counters and events they record *)
let native_is_exact inst tee =
  List.for_all
    (fun mode ->
      let native, native_counters, native_events = recorded (fun () -> Pmtn_dual.test ~mode inst tee) in
      let exact, exact_counters, exact_events = recorded (fun () -> Pmtn_dual.test_exact ~mode inst tee) in
      Helpers.same_outcome native exact && native_counters = exact_counters && native_events = exact_events)
    [ Pmtn_nice.Alpha_prime; Pmtn_nice.Gamma ]

let check_native_is_exact what inst tee =
  if not (native_is_exact inst tee) then
    Alcotest.failf "%s: the native and the Rat test differ at T = %s" what (Rat.to_string tee)

(* The guesses the preemptive searches probe. Pmtn_cj's stages 1-4 probe
   only stage-1 breakpoints and jump points (kappa <= m + 2), all listed
   here; its final interval comes from its event, with the frontier's
   base, T* and the frontier. Theorem 2's epsilon-search's probes at
   epsilon = 1/8 and 1/10 come from its events. Each point is also
   perturbed by +-1/7 and -1/5. *)
let probed_guesses inst =
  let m = inst.Instance.m in
  let points = ref [] in
  let add t = if Rat.sign t > 0 then points := t :: !points in
  add (Rat.of_int (Lower_bounds.setup_plus_tmax inst));
  add (Rat.of_int (2 * inst.Instance.total));
  for i = 0 to Instance.c inst - 1 do
    let s = inst.Instance.setups.(i) and p = inst.Instance.class_load.(i) in
    List.iter (fun t -> add (Rat.of_ints t 3)) [ 6 * s; 12 * s; 3 * (s + p); 4 * (s + p) ];
    Instance.iter_class_jobs (fun j -> add (Rat.of_int (2 * (s + inst.Instance.job_time.(j))))) inst i;
    for kappa = 1 to m + 2 do
      add (Rat.of_ints (2 * (s + p)) (kappa + 2));
      add (Rat.of_ints (2 * p) kappa)
    done
  done;
  let r, report = Bss_obs.Probe.with_recording (fun () -> Pmtn_cj.solve inst) in
  List.iter
    (fun (e : Bss_obs.Report.event_entry) ->
      match e.event with
      | Bss_obs.Event.Interval_exit { source = "pmtn_cj"; lo; hi } ->
        let mid = Search.midpoint (lo, hi) in
        let b = Pmtn_dual.bounds ~mode:Pmtn_nice.Gamma inst mid in
        List.iter add [ lo; hi; mid; Rat.of_ints b.Pmtn_dual.l_low m ]
      | _ -> ())
    report.Bss_obs.Report.events;
  add r.Pmtn_cj.accepted;
  add r.Pmtn_cj.frontier;
  let perturbed =
    List.concat_map
      (fun t -> [ t; Rat.add t (Rat.of_ints 1 7); Rat.sub t (Rat.of_ints 1 7); Rat.sub t (Rat.of_ints 1 5) ])
      !points
  in
  let eps e =
    snd
      (Helpers.probed_guesses ~source:"dual_search" (fun () ->
           Solver.solve ~algorithm:(Solver.Approx3_2_eps (Rat.of_ints 1 e)) Variant.Preemptive inst))
  in
  List.filter (fun t -> Rat.sign t > 0) perturbed @ eps 8 @ eps 10

let test_native_matches_exact () =
  List.iter
    (fun (spec : Bss_workloads.Generator.spec) ->
      List.iter
        (fun (m, n, seed) ->
          let inst = spec.generate (Prng.create seed) ~m ~n in
          let what = Printf.sprintf "%s m=%d n=%d seed=%d" spec.name m n seed in
          List.iter (check_native_is_exact what inst) (probed_guesses inst))
        [ (1, 10, 1); (3, 40, 2); (16, 200, 3); (64, 100, 4) ])
    Bss_workloads.Generator.all

(* Four I*chp classes in case 3.a at T = 100, next to six I0exp classes
   (s = 60, one job of 20) on large machines. Classes 0 and 1 tie at
   density 1/24 (s = 2, w = 48 and s = 4, w = 96); classes 2 and 3 are
   denser and fit whole, leaving 26 of the capacity Y = 104. The
   median-partition greedy reaches the tie one level down and fills class
   1 first: it is split and class 0 left out, so L_pmtn = N + 2 = 800 = mT
   and T = 100 is accepted. Filling the tie in class order, as the sorted
   knapsack does, splits class 0 and leaves out class 1: L_pmtn = 802. *)
let test_tie_order_decides () =
  let inst =
    Instance.make ~m:8
      ~setups:[| 2; 4; 10; 12; 60; 60; 60; 60; 60; 60 |]
      ~jobs:
        (Array.append
           [| (0, 60); (1, 60); (1, 25); (1, 25); (2, 60); (3, 60) |]
           (Array.init 6 (fun k -> (4 + k, 20))))
  in
  let tee = Rat.of_int 100 in
  let part = Partition.make inst tee in
  check (Alcotest.list Alcotest.int) "I*chp" [ 0; 1; 2; 3 ] part.Partition.chp_star;
  check Alcotest.int "I0exp" 6 (List.length part.Partition.exp_zero);
  (* the knapsack of case 3.a at T = 100: (s_i, P(C_i) − L*_i) per class *)
  let items =
    Array.mapi
      (fun i (s, w) -> { Bss_knapsack.Knapsack.id = i; profit = Rat.of_int s; weight = Rat.of_int w })
      [| (2, 48); (4, 96); (10, 40); (12, 38) |]
  in
  let capacity = Rat.of_int 104 in
  check (Alcotest.option Alcotest.int) "linear splits class 1" (Some 1)
    (Bss_knapsack.Knapsack.solve_linear items ~capacity).Bss_knapsack.Knapsack.split;
  check (Alcotest.option Alcotest.int) "class order splits class 0" (Some 0)
    (Bss_knapsack.Knapsack.solve_sorted items ~capacity).Bss_knapsack.Knapsack.split;
  List.iter
    (fun mode ->
      check bool_c "native accepts" true (Result.is_ok (Pmtn_dual.test ~mode inst tee));
      check bool_c "exact accepts" true (Result.is_ok (Pmtn_dual.test_exact ~mode inst tee));
      check Alcotest.int "unselected" 2 (Pmtn_dual.bounds ~mode inst tee).Pmtn_dual.unselected)
    [ Pmtn_nice.Alpha_prime; Pmtn_nice.Gamma ];
  match Pmtn_dual.run inst tee with
  | Dual.Accepted sched ->
    Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 inst sched tee
  | Dual.Rejected r -> Alcotest.failf "run rejected T = 100: %a" Dual.pp_rejection r

(* the ticks a guard charges for one [Pmtn_dual.test] *)
let ticks inst tee =
  let g = Bss_resilience.Guard.make ~fuel:1000 () in
  ignore (Bss_resilience.Guard.run g (fun () -> Pmtn_dual.test inst tee));
  Bss_resilience.Guard.spent g

(* Guesses whose native products leave the int range: (m − l)·T with s =
   max_int/32 and m = 64, and k_i·s_i at m = 1 (alpha'_i = 64 at
   T = s + 1); and the knapsack's cross products s_a·w_b, near 12 S^2 for
   setups S and S + 1, where S is picked so that the wrapped products
   would order the two densities the wrong way. Each takes the exact path
   with the verdict, payload, counters and events of the Rat test, and
   ticks its guard site once. *)
let test_overflow_takes_exact_path () =
  let s = max_int / 32 in
  List.iter
    (fun m ->
      let wide = Instance.make ~m ~setups:[| s |] ~jobs:(Array.make 64 (0, 1)) in
      let what = Printf.sprintf "s = max_int/32, m = %d" m in
      List.iter
        (fun d ->
          let tee = Rat.of_int (s + d) in
          check_native_is_exact what wide tee;
          check Alcotest.int (what ^ ": one tick") 1 (ticks wide tee))
        [ 1; 2; 33; 64 ];
      let r = Pmtn_cj.solve wide in
      Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 wide r.Pmtn_cj.schedule
        r.Pmtn_cj.accepted)
    [ 1; 64 ];
  let wide = Instance.make ~m:64 ~setups:[| s |] ~jobs:(Array.make 64 (0, 1)) in
  check bool_c "accepted at s + 1" true (Result.is_ok (Pmtn_dual.test wide (Rat.of_int (s + 1))));
  (* T = 5S, m = 2: two I*chp classes (s = S and S + 1, a big job of 3S
     and three of 1.5S − 1 each), case 3.a with Y below either weight, so
     the denser class is split and the other left out *)
  let big = 1_000_000_000_000_344 in
  let small = (3 * big / 2) - 1 in
  let knap =
    Instance.make ~m:2 ~setups:[| big; big + 1 |]
      ~jobs:
        [|
          (0, 3 * big); (0, small); (0, small); (0, small); (1, 3 * big); (1, small); (1, small); (1, small);
        |]
  in
  let tee = Rat.of_int (5 * big) in
  let verdict, report = Bss_obs.Probe.with_recording (fun () -> Pmtn_dual.test knap tee) in
  check Alcotest.int "s·w: case 3.a" 1 (Bss_obs.Report.counter report "pmtn_dual.case_a");
  check Alcotest.int "s·w: knapsack ran" 1 (Bss_obs.Report.counter report "knapsack.linear_calls");
  (match verdict with
  | Error (Dual.Load_exceeds { required; _ }) ->
    (* N = 17S − 5, and class 0 (s = S) is left out *)
    check bool_c "s·w: L_pmtn = 18S − 5" true (Rat.equal required (Rat.of_int ((18 * big) - 5)))
  | _ -> Alcotest.fail "s·w: T = 5S not rejected on load");
  List.iter
    (fun t ->
      check_native_is_exact "s·w" knap t;
      check Alcotest.int "s·w: one tick" 1 (ticks knap t))
    [ tee; Rat.add_int tee 1; Rat.of_ints ((10 * big) + 1) 2 ]

(* The Y-guard decides at T = s_0 + P_0 = 15, where the expensive class 0
   still counts as I+exp (one machine, k_0 = 1) and not as a large
   machine; six I0exp classes (s = 9, P = 3) leave mT = L_pmtn = 105, and
   the I*chp class 7 needs 10.5 outside F = 0. *)
let test_y_guard_at_s_plus_p () =
  let inst =
    Instance.make ~m:7
      ~setups:[| 9; 9; 9; 9; 9; 9; 9; 3 |]
      ~jobs:(Array.append [| (0, 6); (7, 12) |] (Array.init 6 (fun k -> (1 + k, 3))))
  in
  let tee = Rat.of_int 15 in
  check_native_is_exact "s + P" inst tee;
  match Pmtn_dual.test inst tee with
  | Error (Dual.Load_exceeds { required; available }) ->
    check bool_c "required L* + fixed" true (Rat.equal required (Rat.of_ints 51 2));
    check bool_c "available T (m − l)" true (Rat.equal available tee)
  | _ -> Alcotest.fail "T = 15 not rejected by the Y-guard"

(* An accepted case-3.b guess allocates nothing on the native path, at
   any n, from a Rat guess or from stage 1's (t, 3). *)
let test_native_allocates_nothing () =
  Rat.with_force_exact false @@ fun () ->
  let words n =
    let inst = Bss_workloads.Generator.uniform.generate (Prng.create 1) ~m:16 ~n in
    let t = Rat.ceil_int (Lower_bounds.t_min Variant.Preemptive inst) * 2 in
    let tee = Rat.of_int t in
    let verdict, report = Bss_obs.Probe.with_recording (fun () -> Pmtn_dual.test inst tee) in
    check bool_c "accepted" true (Result.is_ok verdict);
    check Alcotest.int "case 3.b" 1 (Bss_obs.Report.counter report "pmtn_dual.case_b");
    Gc.minor ();
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (Pmtn_dual.test inst tee));
      ignore (Sys.opaque_identity (Pmtn_dual.test_fraction ~mode:Pmtn_nice.Gamma inst (3 * t) 3))
    done;
    Gc.minor_words () -. before
  in
  let small = words 100 and large = words 10_000 in
  check (Alcotest.float 0.0) "n=100 and n=10000 allocate alike" small large;
  check (Alcotest.float 0.0) "minor words of 200 tests" 0.0 small

(* ---------------- class jumping ---------------- *)

let test_cj_fixture () =
  let inst = general_fixture () in
  let r = Pmtn_cj.solve inst in
  Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 inst r.Pmtn_cj.schedule
    r.Pmtn_cj.accepted;
  let tmin = Lower_bounds.t_min Variant.Preemptive inst in
  check bool_c "T* in [Tmin, 2Tmin]" true
    (Rat.( >= ) r.Pmtn_cj.accepted tmin && Rat.( <= ) r.Pmtn_cj.accepted (Rat.mul_int tmin 2))

let test_cj_single_class () =
  let inst = Instance.make ~m:3 ~setups:[| 4 |] ~jobs:(Array.init 9 (fun _ -> (0, 5))) in
  let r = Pmtn_cj.solve inst in
  Helpers.check_feasible_within ~variant:Variant.Preemptive ~num:3 ~den:2 inst r.Pmtn_cj.schedule
    r.Pmtn_cj.accepted

(* The exact frontier: [accepted] passes the test; an attained [T*] is the
   [frontier] with a rejected guess just below it, an unattained one lies
   at most [2N/2^40] above a rejected [frontier] with every guess between
   them accepted (the midpoint stands in for them). *)
let pmtn_accepts inst tee =
  Rat.sign tee > 0 && Result.is_ok (Pmtn_dual.test ~mode:Pmtn_nice.Gamma inst tee)

let exact_witness inst (r : Pmtn_cj.result) =
  let t_star = r.Pmtn_cj.accepted and theta = r.Pmtn_cj.frontier in
  pmtn_accepts inst t_star
  &&
  if Rat.equal theta t_star then not (pmtn_accepts inst (Rat.sub t_star (Rat.of_ints 1 (1 lsl 40))))
  else
    Rat.( < ) theta t_star
    && (not (pmtn_accepts inst theta))
    && pmtn_accepts inst (Search.midpoint (theta, t_star))
    && Rat.( <= ) (Rat.sub t_star theta) (Rat.of_ints (2 * inst.Instance.total) (1 lsl 40))

(* One instance per kind of frontier: [(name, m, setups, jobs, θ, attained)]. *)
let pinned_frontiers =
  [
    (* the Y-guard rejects the closed form and T* is the guard's root,
       where the 40-round bisection stopped 2^-40 of its interval above *)
    ( "attained at 549/2", 4, [| 179; 176; 144; 125; 166 |],
      [| (4, 10); (3, 20); (3, 32); (2, 47); (2, 44); (1, 20); (0, 21); (0, 45) |], Rat.of_ints 549 2, true );
    ( "attained at 203", 4, [| 136; 130; 135; 171; 173 |],
      [| (4, 1); (3, 1); (3, 1); (2, 1); (2, 1); (1, 1); (1, 1); (0, 1) |], Rat.of_int 203, true );
    (* three copies of each class: T* lies where the capacity holds more
       than one tied I*chp item but less than two *)
    ( "attained at a weight prefix", 6, [| 14; 2; 18; 14; 2; 18; 14; 2; 18 |],
      [| (0, 2); (1, 17); (2, 7); (3, 2); (4, 17); (5, 7); (6, 2); (7, 17); (8, 7) |],
      Rat.of_ints 91 3, true );
    (* classes 6 and 7 have the density 2/(T − 2) at every T but different
       weights; the knapsack fills the tie in descending class order here *)
    ( "attained in a density tie", 7, [| 9; 8; 7; 6; 2; 2; 1; 2 |],
      [|
        (0, 1); (1, 2); (2, 1); (2, 4); (3, 4); (3, 1); (3, 1); (4, 6); (5, 6); (6, 9); (7, 10); (7, 5);
        (7, 1); (7, 1);
      |],
      Rat.of_ints 90 7, true );
    (* DESIGN.md §7.1: 16 = 4 s_1 is rejected by the Y-guard, every guess
       just above it is accepted *)
    ( "unattained at 4 s_1", 2, [| 9; 4 |], [| (0, 4); (0, 2); (1, 3); (1, 5); (1, 5) |],
      Rat.of_int 16, false );
    (* at Y = 0 the class is unselected, just above it is split *)
    ( "unattained at a knapsack point", 3, [| 10; 6; 11; 4 |], [| (0, 5); (1, 7); (2, 6); (3, 7) |],
      Rat.of_ints 56 3, false );
    (* the densities 4/(T − 7) and 6/T cross at 21: below it the first
       item is split and the second unselected, above it the second fits *)
    ( "unattained at a density crossing", 5, [| 13; 12; 7; 13; 4; 3 |],
      [| (0, 3); (0, 1); (1, 2); (1, 2); (2, 5); (2, 4); (3, 4); (4, 10); (4, 9); (4, 1); (5, 8); (5, 3) |],
      Rat.of_int 21, false );
  ]

let test_pinned_frontier (_, m, setups, jobs, theta, attained) () =
  let inst = Instance.make ~m ~setups ~jobs in
  let r = Pmtn_cj.solve inst in
  check bool_c "frontier" true (Rat.equal r.Pmtn_cj.frontier theta);
  check bool_c "attained" attained (Rat.equal r.Pmtn_cj.frontier r.Pmtn_cj.accepted);
  check bool_c "exact witness" true (exact_witness inst r)

let prop_dual_dichotomy =
  QCheck2.Test.make ~name:"pmtn dual: accepted -> feasible within 3/2" ~count:300
    QCheck2.Gen.(pair (Helpers.gen_instance ()) (pair (int_range 1 400) (int_range 1 4)))
    (fun (inst, (num, den)) ->
      let tee = Rat.of_ints num den in
      match Pmtn_dual.run inst tee with
      | Dual.Accepted s ->
        Checker.is_feasible Variant.Preemptive inst s && Helpers.within_factor ~num:3 ~den:2 s tee
      | Dual.Rejected _ -> true)

let prop_dual_gamma_dichotomy =
  QCheck2.Test.make ~name:"pmtn dual (gamma): accepted -> feasible within 3/2" ~count:300
    QCheck2.Gen.(pair (Helpers.gen_instance ()) (pair (int_range 1 400) (int_range 1 4)))
    (fun (inst, (num, den)) ->
      let tee = Rat.of_ints num den in
      match Pmtn_dual.run ~mode:Pmtn_nice.Gamma inst tee with
      | Dual.Accepted s ->
        Checker.is_feasible Variant.Preemptive inst s && Helpers.within_factor ~num:3 ~den:2 s tee
      | Dual.Rejected _ -> true)

let prop_cj_feasible =
  QCheck2.Test.make ~name:"pmtn CJ: feasible, <= 3/2 T*, T* in [Tmin, 2Tmin]" ~count:300
    (Helpers.gen_instance ~max_m:10 ())
    (fun inst ->
      let r = Pmtn_cj.solve inst in
      let tmin = Lower_bounds.t_min Variant.Preemptive inst in
      Checker.is_feasible Variant.Preemptive inst r.Pmtn_cj.schedule
      && Helpers.within_factor ~num:3 ~den:2 r.Pmtn_cj.schedule r.Pmtn_cj.accepted
      && Rat.( >= ) r.Pmtn_cj.accepted tmin
      && Rat.( <= ) r.Pmtn_cj.accepted (Rat.mul_int tmin 2))

let prop_cj_near_frontier =
  QCheck2.Test.make ~name:"pmtn CJ: a certified-rejected guess witnesses T* exactly" ~count:120
    (Helpers.gen_instance ~max_m:5 ~max_c:4 ~max_extra_jobs:8 ~max_setup:12 ~max_time:12 ())
    (fun inst -> exact_witness inst (Pmtn_cj.solve inst))

(* quarter-integral guesses hit the partition boundaries (s_i = T/4,
   s_i = T/2, s_i + P = 3T/4) with exact equality *)
let prop_dual_quarter_grid =
  QCheck2.Test.make ~name:"pmtn dual sound on the quarter grid" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let inst = Helpers.random_instance ~max_m:4 ~max_c:3 ~max_extra_jobs:6 ~max_setup:8 ~max_time:8 rng in
      let tmax = 4 * (2 * Rat.ceil_int (Lower_bounds.t_min Variant.Preemptive inst)) in
      let ok = ref true in
      for q = 1 to tmax do
        let tee = Rat.of_ints q 4 in
        List.iter
          (fun mode ->
            match Pmtn_dual.run ~mode inst tee with
            | Dual.Accepted s ->
              if
                not
                  (Checker.is_feasible Variant.Preemptive inst s
                  && Helpers.within_factor ~num:3 ~den:2 s tee)
              then ok := false
            | Dual.Rejected _ -> ())
          [ Pmtn_nice.Alpha_prime; Pmtn_nice.Gamma ]
      done;
      !ok)

let prop_native_matches_exact =
  QCheck2.Test.make ~name:"native pmtn test = Rat test at random guesses p/q" ~count:300
    QCheck2.Gen.(
      let* inst = Helpers.gen_instance () in
      let* q = int_range 1 12 in
      let* p = int_range 1 (3 * inst.Instance.total * q) in
      return (inst, p, q))
    (fun (inst, p, q) -> native_is_exact inst (Rat.of_ints p q))

let prop_cj_test_count_logarithmic =
  QCheck2.Test.make ~name:"pmtn CJ uses O(log) bound tests" ~count:100
    (Helpers.gen_instance ~max_m:32 ~max_c:6 ~max_extra_jobs:30 ())
    (fun inst ->
      let r = Pmtn_cj.solve inst in
      (* four binary searches over O(n+m) points, then the frontier's two
         over O(m^2) breakpoints *)
      let n = Instance.n inst and m = inst.Instance.m in
      r.Pmtn_cj.bound_tests <= (4 * (Intmath.log2_ceil (n + m + 4) + 2)) + 16)

(* Stage 1 as it was before the candidates became native ints: every
   breakpoint boxed, sorted, and bisected in order. Pmtn_cj must probe
   as many of them (its region_steps counter) as this reference. *)
let sorted_stage1_probes inst =
  let accept t = Rat.sign t > 0 && Result.is_ok (Pmtn_dual.test ~mode:Pmtn_nice.Gamma inst t) in
  let points =
    ref [ Rat.zero; Rat.of_int (2 * inst.Instance.total); Rat.of_int (Lower_bounds.setup_plus_tmax inst) ]
  in
  for i = 0 to Instance.c inst - 1 do
    let s = inst.Instance.setups.(i) and p = inst.Instance.class_load.(i) in
    points :=
      Rat.of_int (2 * s) :: Rat.of_int (4 * s) :: Rat.of_int (s + p) :: Rat.of_ints (4 * (s + p)) 3 :: !points;
    Instance.iter_class_jobs (fun j -> points := Rat.of_int (2 * (s + inst.Instance.job_time.(j))) :: !points) inst i
  done;
  let sorted = Array.of_list (List.sort Rat.compare !points) in
  let probes = ref 0 in
  ignore
    (Search.bisect 0 (Array.length sorted - 1) (fun k ->
         incr probes;
         accept sorted.(k)));
  !probes

let prop_cj_stage1_matches_sorted =
  QCheck2.Test.make ~name:"pmtn CJ stage 1 probes as the sorted boxed bisection did" ~count:200
    (Helpers.gen_instance ~max_setup:60 ())
    (fun inst ->
      let _, report = Bss_obs.Probe.with_recording (fun () -> Pmtn_cj.solve inst) in
      Bss_obs.Report.counter report "pmtn_cj.region_steps" = sorted_stage1_probes inst)

let () =
  Alcotest.run "preemptive"
    [
      ( "nice",
        [
          Alcotest.test_case "structure" `Quick test_nice_structure;
          Alcotest.test_case "rejects not nice" `Quick test_nice_rejects_not_nice;
          Alcotest.test_case "gamma mode" `Quick test_nice_gamma_mode;
          Alcotest.test_case "machine numbers" `Quick test_nice_machine_numbers;
        ] );
      ( "general-dual",
        [
          Alcotest.test_case "accepts fixture" `Quick test_general_dual_accepts;
          Alcotest.test_case "rejects small T" `Quick test_general_dual_rejects_small;
          Alcotest.test_case "Y guard" `Quick test_y_guard;
          Alcotest.test_case "accepts N" `Slow test_dual_accepts_n;
        ] );
      ( "native",
        [
          Alcotest.test_case "native = Rat test" `Quick test_native_matches_exact;
          Alcotest.test_case "tie order decides" `Quick test_tie_order_decides;
          Alcotest.test_case "overflow takes the exact path" `Quick test_overflow_takes_exact_path;
          Alcotest.test_case "Y guard at s + P" `Quick test_y_guard_at_s_plus_p;
          Alcotest.test_case "allocation-free" `Quick test_native_allocates_nothing;
        ] );
      ( "class-jumping",
        [
          Alcotest.test_case "fixture" `Quick test_cj_fixture;
          Alcotest.test_case "single class" `Quick test_cj_single_class;
        ]
        @ List.map
            (fun ((name, _, _, _, _, _) as case) ->
              Alcotest.test_case name `Quick (test_pinned_frontier case))
            pinned_frontiers );
      Helpers.qsuite "props"
        [
          prop_dual_dichotomy;
          prop_dual_gamma_dichotomy;
          prop_cj_feasible;
          prop_cj_near_frontier;
          prop_dual_quarter_grid;
          prop_cj_test_count_logarithmic;
          prop_cj_stage1_matches_sorted;
          prop_native_matches_exact;
        ];
    ]
