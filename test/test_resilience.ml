(* Tests for the resilience layer: the disabled guard path must be free
   (no allocation), budgets and deadlines must convert to typed errors,
   chaos plans must be deterministic, and — the acceptance criterion of
   the layer — every injected fault must drive the degradation ladder to
   the expected rung while still producing a checker-feasible schedule. *)

open Bss_util
open Bss_instances
open Bss_core
open Bss_resilience
module Probe = Bss_obs.Probe

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* a deterministic instance small enough to be fast but big enough that
   the 3/2 searches need several dual/bound evaluations *)
let inst =
  Instance.make ~m:4
    ~setups:[| 3; 1; 4; 2; 5; 1 |]
    ~jobs:(Array.init 24 (fun j -> (j mod 6, 1 + (j * 7 mod 13))))

let eps = Rat.of_ints 1 4
let three_half = Rat.of_ints 3 2

(* ---------------- disabled path ---------------- *)

(* With no guard installed and no chaos armed, tick/point/fire read one
   domain-local slot each and return — same zero-cost discipline as the
   probe layer. *)
let test_disabled_no_alloc () =
  assert (not (Guard.active ()));
  assert (not (Chaos.armed ()));
  for _ = 1 to 128 do
    Guard.tick "warmup";
    Guard.point "warmup"
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Guard.tick "noop.site";
    Guard.point "noop.site";
    Chaos.fire "noop.site"
  done;
  let delta = Gc.minor_words () -. before in
  check (Alcotest.float 0.0) "minor words allocated while unguarded" 0.0 delta

(* ---------------- guard semantics ---------------- *)

let test_guard_fuel () =
  let g = Guard.make ~fuel:2 () in
  check bool_c "limited" true (Guard.limited g);
  let r =
    Guard.run g (fun () ->
        for _ = 1 to 10 do
          Guard.tick "site.a"
        done)
  in
  (match r with
  | Error (Error.Budget_exhausted { phase; spent }) ->
    check string_c "phase" "site.a" phase;
    check int_c "spent at raise" 3 spent
  | _ -> Alcotest.fail "expected Budget_exhausted");
  check int_c "spent persists" 3 (Guard.spent g);
  (* the same guard stays exhausted in a later scope: fuel is shared *)
  match Guard.run g (fun () -> Guard.tick "site.b") with
  | Error (Error.Budget_exhausted { phase; spent }) ->
    check string_c "later phase" "site.b" phase;
    check int_c "later spent" 4 spent
  | _ -> Alcotest.fail "expected Budget_exhausted in second scope"

let test_guard_deadline_zero () =
  let g = Guard.make ~deadline_ms:0 () in
  match Guard.run g (fun () -> Guard.tick "site.d") with
  | Error (Error.Deadline_exceeded { phase; elapsed_ns }) ->
    check string_c "phase" "site.d" phase;
    check bool_c "elapsed >= 0" true (Int64.compare elapsed_ns 0L >= 0)
  | _ -> Alcotest.fail "deadline_ms=0 must trip on the first tick"

let test_guard_unlimited () =
  let g = Guard.make () in
  check bool_c "unlimited" false (Guard.limited g);
  match
    Guard.run g (fun () ->
        for _ = 1 to 1000 do
          Guard.tick "site.free"
        done;
        42)
  with
  | Ok v ->
    check int_c "value" 42 v;
    check int_c "spent counted" 1000 (Guard.spent g)
  | Error _ -> Alcotest.fail "unlimited guard must not trip"

let test_guard_contains_raises () =
  let g = Guard.make () in
  (match Guard.run g (fun () -> failwith "boom") with
  | Error (Error.Internal (Failure m)) -> check string_c "payload" "boom" m
  | _ -> Alcotest.fail "arbitrary raise must become Internal");
  check bool_c "uninstalled after raise" false (Guard.active ())

let test_guard_active_scoping () =
  check bool_c "inactive outside" false (Guard.active ());
  let g = Guard.make ~fuel:10 () in
  (match Guard.run g (fun () -> Guard.active ()) with
  | Ok b -> check bool_c "active inside" true b
  | Error _ -> Alcotest.fail "no budget consumed");
  check bool_c "inactive after" false (Guard.active ())

(* ---------------- chaos semantics ---------------- *)

let test_chaos_plan_deterministic () =
  List.iter
    (fun seed ->
      let p1 = Chaos.plan_of_seed seed and p2 = Chaos.plan_of_seed seed in
      check string_c
        (Printf.sprintf "seed %d stable" seed)
        (Chaos.describe_plan p1) (Chaos.describe_plan p2);
      let n = List.length p1 in
      check bool_c "1-2 entries" true (n >= 1 && n <= 2);
      List.iter
        (fun (site, hit, _) ->
          check bool_c "site in catalogue" true (List.mem site Chaos.sites);
          check bool_c "hit in range" true (hit >= 0 && hit < 12))
        p1)
    [ 0; 1; 2; 42; 1000; -7 ]

let test_chaos_fire_at_hit () =
  Chaos.with_plan
    [ ("s", 2, Chaos.Raise) ]
    (fun () ->
      check bool_c "armed" true (Chaos.armed ());
      Chaos.fire "s";
      Chaos.fire "s";
      Chaos.fire "other";
      match Chaos.fire "s" with
      | () -> Alcotest.fail "third fire must raise"
      | exception Chaos.Injected { site; hit } ->
        check string_c "site" "s" site;
        check int_c "hit" 2 hit);
  check bool_c "disarmed after scope" false (Chaos.armed ())

(* A plan lives in the arming domain's own slot: another domain runs
   disarmed, and its fires neither raise nor use up the armed hit. *)
let test_chaos_domain_local () =
  Chaos.with_plan
    [ ("s", 0, Chaos.Raise) ]
    (fun () ->
      let other =
        Domain.join
          (Domain.spawn (fun () ->
               let armed = Chaos.armed () in
               match Chaos.fire "s" with
               | () -> Ok armed
               | exception e -> Error (Printexc.to_string e)))
      in
      check bool_c "spawned domain fires nothing" true (other = Ok false);
      match Chaos.fire "s" with
      | () -> Alcotest.fail "hit 0 must still be armed on the arming domain"
      | exception Chaos.Injected { site; hit } ->
        check string_c "site" "s" site;
        check int_c "hit" 0 hit)

(* An injected fault is NOT a typed error: Guard.run must contain it via
   the Internal catch-all, exactly like a genuine crash. *)
let test_chaos_contained_as_internal () =
  let g = Guard.make () in
  Chaos.with_plan
    [ ("s", 0, Chaos.Raise) ]
    (fun () ->
      match Guard.run g (fun () -> Guard.tick "s") with
      | Error (Error.Internal (Chaos.Injected _)) -> ()
      | _ -> Alcotest.fail "Injected must surface as Internal")

(* A stall long enough to push past an armed deadline turns into
   Deadline_exceeded on the same tick that fired it. *)
let test_chaos_stall_trips_deadline () =
  let g = Guard.make ~deadline_ms:1 () in
  Chaos.with_plan
    [ ("s", 0, Chaos.Stall 2_000) ]
    (fun () ->
      match Guard.run g (fun () -> Guard.tick "s") with
      | Error (Error.Deadline_exceeded { phase; _ }) -> check string_c "phase" "s" phase
      | _ -> Alcotest.fail "2ms stall must trip a 1ms deadline")

(* ---------------- error taxonomy ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_error_rendering () =
  let e = Error.Invalid_input { line = Some 3; field = "time"; reason = "job time < 1" } in
  check string_c "to_string" "invalid input (line 3, field time): job time < 1" (Error.to_string e);
  let j = Error.to_json e in
  check bool_c "json object" true (String.length j > 0 && j.[0] = '{');
  check bool_c "json kind" true (contains j "invalid_input");
  check bool_c "json line" true (contains j "3")

(* ---------------- the degradation ladder ---------------- *)

let rat_opt_c =
  Alcotest.testable
    (fun ppf -> function
      | None -> Format.pp_print_string ppf "None"
      | Some r -> Rat.pp ppf r)
    (fun a b ->
      match (a, b) with
      | Some x, Some y -> Rat.equal x y
      | None, None -> true
      | _ -> false)

(* With no limits and no armed chaos, solve_robust is solve. *)
let test_robust_clean_run () =
  List.iter
    (fun variant ->
      let r = Solver.solve_robust ~algorithm:Solver.Approx3_2 variant inst in
      check string_c "rung" "requested" r.Solver.rung;
      check int_c "no attempts" 0 (List.length r.Solver.attempts);
      check rat_opt_c "guarantee 3/2" (Some three_half) r.Solver.guarantee;
      check bool_c "certificate present" true (r.Solver.certificate <> None);
      check bool_c "feasible" true (Checker.is_feasible variant inst r.Solver.schedule))
    Variant.all

(* Budget exhaustion on the requested rung lands on the certified
   two-approx rung; the guarantee reported is the rung's, not the
   request's. *)
let test_robust_fuel_degrades () =
  let r = Solver.solve_robust ~fuel:2 ~algorithm:Solver.Approx3_2 Variant.Nonpreemptive inst in
  check string_c "rung" "two-approx" r.Solver.rung;
  check rat_opt_c "guarantee 2" (Some Rat.two) r.Solver.guarantee;
  check bool_c "fuel spent recorded" true (r.Solver.fuel_spent >= 2);
  (match r.Solver.attempts with
  | [ { Solver.rung = "requested"; error = Error.Budget_exhausted { phase; _ } } ] ->
    check string_c "phase is the armed site" "nonp_search.guess" phase
  | _ -> Alcotest.fail "expected one Budget_exhausted attempt");
  check bool_c "feasible" true (Checker.is_feasible Variant.Nonpreemptive inst r.Solver.schedule)

let test_robust_deadline_zero_degrades () =
  List.iter
    (fun variant ->
      let r = Solver.solve_robust ~deadline_ms:0 ~algorithm:Solver.Approx3_2 variant inst in
      check string_c "rung" "two-approx" r.Solver.rung;
      check rat_opt_c "guarantee 2" (Some Rat.two) r.Solver.guarantee;
      (match r.Solver.attempts with
      | [ { Solver.rung = "requested"; error = Error.Deadline_exceeded _ } ] -> ()
      | _ -> Alcotest.fail "expected one Deadline_exceeded attempt");
      check bool_c "feasible" true (Checker.is_feasible variant inst r.Solver.schedule))
    Variant.all

(* The fault-injection matrix: for every chaos site, arming Raise at hit 0
   on an algorithm that reaches the site must leave the requested rung,
   land on the expected fallback, report that rung's guarantee, and still
   return a checker-feasible schedule — with nothing escaping. *)
let matrix =
  [
    ("nonp_search.guess", Variant.Nonpreemptive, Solver.Approx3_2);
    ("pmtn_cj.bound_test", Variant.Preemptive, Solver.Approx3_2);
    ("pmtn_dual.test", Variant.Preemptive, Solver.Approx3_2);
    ("splittable_cj.bound_test", Variant.Splittable, Solver.Approx3_2);
    ("dual_search.guess", Variant.Nonpreemptive, Solver.Approx3_2_eps eps);
    ("dual_search.guess", Variant.Preemptive, Solver.Approx3_2_eps eps);
    ("dual_search.guess", Variant.Splittable, Solver.Approx3_2_eps eps);
  ]

let test_fault_matrix_to_two_approx () =
  (* every site is exercised by some matrix row *)
  List.iter
    (fun site ->
      check bool_c (site ^ " covered") true
        (site = "two_approx.solve" || List.exists (fun (s, _, _) -> s = site) matrix))
    Chaos.sites;
  List.iter
    (fun (site, variant, algorithm) ->
      let r =
        Chaos.with_plan
          [ (site, 0, Chaos.Raise) ]
          (fun () -> Solver.solve_robust ~algorithm variant inst)
      in
      let label = site ^ "/" ^ Variant.to_string variant in
      check string_c (label ^ " rung") "two-approx" r.Solver.rung;
      check rat_opt_c (label ^ " guarantee") (Some Rat.two) r.Solver.guarantee;
      (match r.Solver.attempts with
      | [ { Solver.rung = "requested"; error = Error.Internal (Chaos.Injected i) } ] ->
        check string_c (label ^ " fault site") site i.site
      | _ -> Alcotest.fail (label ^ ": expected one Internal(Injected) attempt"));
      check bool_c (label ^ " feasible") true
        (Checker.is_feasible variant inst r.Solver.schedule))
    matrix

(* Crashing the fallback too reaches the uncertified terminal rung. *)
let test_fault_matrix_to_terminal () =
  let r =
    Chaos.with_plan
      [ ("nonp_search.guess", 0, Chaos.Raise); ("two_approx.solve", 0, Chaos.Raise) ]
      (fun () -> Solver.solve_robust ~algorithm:Solver.Approx3_2 Variant.Nonpreemptive inst)
  in
  check string_c "rung" "list-scheduling" r.Solver.rung;
  check rat_opt_c "no guarantee" None r.Solver.guarantee;
  check rat_opt_c "no certificate" None r.Solver.certificate;
  check int_c "two failed rungs" 2 (List.length r.Solver.attempts);
  check bool_c "rung order" true
    (List.map (fun (a : Solver.attempt) -> a.rung) r.Solver.attempts
    = [ "requested"; "two-approx" ]);
  check bool_c "feasible" true (Checker.is_feasible Variant.Nonpreemptive inst r.Solver.schedule)

(* Requested = Approx2 has no middle rung: a faulted two-approx drops
   straight to the terminal rung. *)
let test_fault_approx2_to_terminal () =
  let r =
    Chaos.with_plan
      [ ("two_approx.solve", 0, Chaos.Raise) ]
      (fun () -> Solver.solve_robust ~algorithm:Solver.Approx2 Variant.Splittable inst)
  in
  check string_c "rung" "list-scheduling" r.Solver.rung;
  check int_c "one attempt" 1 (List.length r.Solver.attempts);
  check bool_c "feasible" true (Checker.is_feasible Variant.Splittable inst r.Solver.schedule)

(* Degradations surface in the telemetry layer. *)
let test_robust_obs_counters () =
  let r, report =
    Probe.with_recording (fun () ->
        Solver.solve_robust ~deadline_ms:0 ~algorithm:Solver.Approx3_2 Variant.Splittable inst)
  in
  check string_c "rung" "two-approx" r.Solver.rung;
  check int_c "rung counter" 1 (Bss_obs.Report.counter report "resilience.rung.two-approx");
  check int_c "degraded counter" 1 (Bss_obs.Report.counter report "resilience.degraded");
  check int_c "failed counter" 1 (Bss_obs.Report.counter report "resilience.rung_failed")

(* ---------------- chaos sweep contract ---------------- *)

(* A seeded chaos sweep over generated instances: whatever the plans
   inject, no exception escapes and every run's schedule passes the exact
   checker. *)
let test_chaos_sweep_contract () =
  let config = { Bss_oracle.Harness.default_config with cases = 6; max_m = 4; max_n = 16 } in
  List.iter
    (fun chaos ->
      let r = Bss_oracle.Harness.chaos_sweep config ~chaos in
      check int_c (Printf.sprintf "chaos=%d crashes" chaos) 0
        (List.length r.Bss_oracle.Harness.chaos_crashes);
      check int_c (Printf.sprintf "chaos=%d infeasible" chaos) 0
        (List.length r.Bss_oracle.Harness.chaos_infeasible);
      check bool_c "sweeps counted" true (r.Bss_oracle.Harness.sweeps > 0);
      let total = List.fold_left (fun acc (_, k) -> acc + k) 0 r.Bss_oracle.Harness.rung_counts in
      check int_c "every run lands on a rung" r.Bss_oracle.Harness.sweeps total)
    [ 1; 2; 3 ]

let () =
  Alcotest.run "bss_resilience"
    [
      ( "guard",
        [
          Alcotest.test_case "disabled path allocation-free" `Quick test_disabled_no_alloc;
          Alcotest.test_case "fuel" `Quick test_guard_fuel;
          Alcotest.test_case "deadline zero" `Quick test_guard_deadline_zero;
          Alcotest.test_case "unlimited" `Quick test_guard_unlimited;
          Alcotest.test_case "contains raises" `Quick test_guard_contains_raises;
          Alcotest.test_case "scoping" `Quick test_guard_active_scoping;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan determinism" `Quick test_chaos_plan_deterministic;
          Alcotest.test_case "fire at hit" `Quick test_chaos_fire_at_hit;
          Alcotest.test_case "plan is domain-local" `Quick test_chaos_domain_local;
          Alcotest.test_case "contained as internal" `Quick test_chaos_contained_as_internal;
          Alcotest.test_case "stall trips deadline" `Quick test_chaos_stall_trips_deadline;
        ] );
      ("error", [ Alcotest.test_case "rendering" `Quick test_error_rendering ]);
      ( "ladder",
        [
          Alcotest.test_case "clean run" `Quick test_robust_clean_run;
          Alcotest.test_case "fuel degrades" `Quick test_robust_fuel_degrades;
          Alcotest.test_case "deadline degrades" `Quick test_robust_deadline_zero_degrades;
          Alcotest.test_case "fault matrix to two-approx" `Quick test_fault_matrix_to_two_approx;
          Alcotest.test_case "fault matrix to terminal" `Quick test_fault_matrix_to_terminal;
          Alcotest.test_case "approx2 to terminal" `Quick test_fault_approx2_to_terminal;
          Alcotest.test_case "obs counters" `Quick test_robust_obs_counters;
        ] );
      ( "chaos-sweep",
        [ Alcotest.test_case "contract over seeds" `Quick test_chaos_sweep_contract ] );
    ]
