(* Tests for the baselines: the Monma-Potts-style wrap, list scheduling,
   and the exact tiny-instance oracles. *)

open Bss_util
open Bss_instances
open Bss_baselines

let check = Alcotest.check
let bool_c = Alcotest.bool
let rat_c = Alcotest.testable Rat.pp Rat.equal

(* ---------------- Monma-Potts wrap ---------------- *)

let prop_mp_feasible_within_level =
  QCheck2.Test.make ~name:"MP wrap: pmtn-feasible, makespan <= level <= 2 Tmin" ~count:400
    (Helpers.gen_instance ())
    (fun inst ->
      let s = Monma_potts.schedule inst in
      let level = Monma_potts.level inst in
      Checker.is_feasible Variant.Preemptive inst s
      && Rat.( <= ) (Schedule.makespan s) level
      && Rat.( <= ) level (Rat.mul_int (Lower_bounds.t_min Variant.Preemptive inst) 2))

let test_mp_pays_setup_over_volume () =
  (* anti-wrap shape: MP's level is ~ N/m + s_max while OPT stays near
     N/m; this is the gap the paper's 3/2 algorithms close. *)
  let inst =
    Instance.make ~m:4
      ~setups:[| 50; 50; 50; 50 |]
      ~jobs:[| (0, 50); (1, 50); (2, 50); (3, 50) |]
  in
  (* OPT = 100 (one class per machine); MP level = N/m + smax = 150 *)
  let s = Monma_potts.schedule inst in
  Checker.check_exn Variant.Preemptive inst s;
  check rat_c "level" (Rat.of_int 150) (Monma_potts.level inst);
  check bool_c "exact opt is 100" true (Exact.nonpreemptive_opt inst = 100)

(* ---------------- list scheduling ---------------- *)

let prop_list_feasible_all_variants =
  QCheck2.Test.make ~name:"list scheduling feasible for all variants" ~count:300
    (Helpers.gen_instance ())
    (fun inst ->
      let g = List_scheduling.greedy inst and l = List_scheduling.lpt inst in
      List.for_all
        (fun v -> Checker.is_feasible v inst g && Checker.is_feasible v inst l)
        Variant.all)

let test_list_unbounded_ratio () =
  (* One giant splittable class: list scheduling cannot split it, the
     paper's algorithms can. *)
  let inst = Instance.make ~m:4 ~setups:[| 1 |] ~jobs:(Array.init 8 (fun _ -> (0, 25))) in
  let lpt = List_scheduling.lpt inst in
  (* whole class on one machine: makespan 201 *)
  check rat_c "lpt stuck" (Rat.of_int 201) (Schedule.makespan lpt);
  let r = Bss_core.Splittable_cj.solve inst in
  check bool_c "CJ splits far better" true
    Rat.(Schedule.makespan r.Bss_core.Splittable_cj.schedule < of_int 100)

(* ---------------- batch splitting (MP's second approach) ---------------- *)

let prop_batch_split_feasible_and_dominates_lpt =
  QCheck2.Test.make ~name:"batch-split: pmtn-feasible, never worse than batch LPT" ~count:300
    (Helpers.gen_instance ())
    (fun inst ->
      let split = Batch_split.schedule inst in
      let lpt = List_scheduling.lpt inst in
      Checker.is_feasible Variant.Preemptive inst split
      && Rat.( <= ) (Schedule.makespan split) (Schedule.makespan lpt))

let test_batch_split_relieves_giant_batch () =
  (* one heavy class on 2 machines: LPT = 1 + 40; splitting balances *)
  let inst = Instance.make ~m:2 ~setups:[| 1 |] ~jobs:[| (0, 20); (0, 20) |] in
  let lpt = List_scheduling.lpt inst in
  check rat_c "lpt stuck" (Rat.of_int 41) (Schedule.makespan lpt);
  let split = Batch_split.schedule inst in
  Checker.check_exn Variant.Preemptive inst split;
  (* balanced: (40 + 2)/2 = 21 *)
  check rat_c "balanced" (Rat.of_int 21) (Schedule.makespan split)

let test_batch_split_small_batches_regime () =
  (* the Monma-Potts small-batch regime: many light classes; the split
     heuristic should track the volume bound closely *)
  let rng = Prng.create 17 in
  let inst =
    Bss_workloads.Generator.small_batches.Bss_workloads.Generator.generate rng ~m:6 ~n:60
  in
  let split = Batch_split.schedule inst in
  Checker.check_exn Variant.Preemptive inst split;
  let lb = Lower_bounds.lower_bound Variant.Preemptive inst in
  check bool_c "within 3/2 of LB on small batches" true
    (Rat.( <= ) (Rat.mul_int (Schedule.makespan split) 2) (Rat.mul_int lb 3))

(* ---------------- exact oracles ---------------- *)

let test_exact_nonp_known () =
  (* 2 machines, 2 classes: best split puts each class on its own machine *)
  let inst = Instance.make ~m:2 ~setups:[| 3; 3 |] ~jobs:[| (0, 5); (0, 5); (1, 5); (1, 5) |] in
  check Alcotest.int "opt" 13 (Exact.nonpreemptive_opt inst);
  let inst1 = Instance.make ~m:1 ~setups:[| 2 |] ~jobs:[| (0, 7) |] in
  check Alcotest.int "single" 9 (Exact.nonpreemptive_opt inst1)

let test_exact_split_known () =
  (* one class, huge load: splitting wins: m=2, s=2, P=20:
     OPT = (20 + 2*2)/2 = 12 using both machines *)
  let inst = Instance.make ~m:2 ~setups:[| 2 |] ~jobs:[| (0, 10); (0, 10) |] in
  check rat_c "split opt" (Rat.of_int 12) (Exact.splittable_opt_small inst);
  (* expensive setup, tiny load: parallelizing still wins, since the job
     may run on both machines at once: (4 + 2*10)/2 = 12 < 14 *)
  let inst2 = Instance.make ~m:2 ~setups:[| 10 |] ~jobs:[| (0, 4) |] in
  check rat_c "parallel split" (Rat.of_int 12) (Exact.splittable_opt_small inst2);
  (* even s=10, P=1 splits: (1+20)/2 = 21/2 < 11 — with parallelism a
     second setup pays as soon as it halves the tail *)
  let inst3 = Instance.make ~m:2 ~setups:[| 10 |] ~jobs:[| (0, 1) |] in
  check rat_c "still splits" (Rat.of_ints 21 2) (Exact.splittable_opt_small inst3);
  (* the no-split case needs a load smaller than the setup gap: m=2,
     s=10, P=1 with only ONE machine: trivially 11 *)
  let inst4 = Instance.make ~m:1 ~setups:[| 10 |] ~jobs:[| (0, 1) |] in
  check rat_c "single machine" (Rat.of_int 11) (Exact.splittable_opt_small inst4)

let prop_exact_brackets =
  QCheck2.Test.make ~name:"LB <= OPT_split <= OPT_nonp <= N" ~count:150
    (Helpers.gen_instance ~max_m:3 ~max_c:3 ~max_extra_jobs:5 ~max_setup:10 ~max_time:12 ())
    (fun inst ->
      let opt_nonp = Exact.nonpreemptive_opt inst in
      let opt_split = Exact.splittable_opt_small inst in
      let lb_split = Lower_bounds.lower_bound Variant.Splittable inst in
      let lb_nonp = Lower_bounds.lower_bound Variant.Nonpreemptive inst in
      Rat.( <= ) lb_split opt_split
      && Rat.( <= ) opt_split (Rat.of_int opt_nonp)
      && Rat.( <= ) lb_nonp (Rat.of_int opt_nonp)
      && opt_nonp <= inst.Instance.total)

(* The headline ratio checks against true optima on tiny instances. *)
let prop_true_ratios_tiny =
  QCheck2.Test.make ~name:"3/2 algorithms beat 3/2 of the true optimum (tiny)" ~count:150
    (Helpers.gen_instance ~max_m:3 ~max_c:3 ~max_extra_jobs:5 ~max_setup:10 ~max_time:12 ())
    (fun inst ->
      let opt_nonp = Exact.nonpreemptive_opt inst in
      let opt_split = Exact.splittable_opt_small inst in
      let nonp = Bss_core.Nonp_search.solve inst in
      let split = Bss_core.Splittable_cj.solve inst in
      let pmtn = Bss_core.Pmtn_cj.solve inst in
      (* makespan <= 3/2 OPT for each variant; preemptive compares against
         OPT_nonp >= OPT_pmtn *)
      Rat.( <= )
        (Rat.mul_int (Schedule.makespan nonp.Bss_core.Nonp_search.schedule) 2)
        (Rat.of_int (3 * opt_nonp))
      && Rat.( <= )
           (Rat.mul_int (Schedule.makespan split.Bss_core.Splittable_cj.schedule) 2)
           (Rat.mul_int opt_split 3)
      && Rat.( <= )
           (Rat.mul_int (Schedule.makespan pmtn.Bss_core.Pmtn_cj.schedule) 2)
           (Rat.of_int (3 * opt_nonp)))

(* T* of each search is at most the corresponding exact optimum. *)
let prop_t_star_below_opt_tiny =
  QCheck2.Test.make ~name:"accepted T* <= exact OPT (tiny)" ~count:150
    (Helpers.gen_instance ~max_m:3 ~max_c:3 ~max_extra_jobs:5 ~max_setup:10 ~max_time:12 ())
    (fun inst ->
      let opt_nonp = Exact.nonpreemptive_opt inst in
      let opt_split = Exact.splittable_opt_small inst in
      let nonp = Bss_core.Nonp_search.solve inst in
      let split = Bss_core.Splittable_cj.solve inst in
      let pmtn = Bss_core.Pmtn_cj.solve inst in
      Rat.( <= ) nonp.Bss_core.Nonp_search.accepted (Rat.of_int opt_nonp)
      && Rat.( <= ) split.Bss_core.Splittable_cj.accepted opt_split
      && Rat.( <= ) pmtn.Bss_core.Pmtn_cj.accepted (Rat.of_int opt_nonp))

let () =
  Alcotest.run "baselines"
    [
      ("monma-potts", [ Alcotest.test_case "pays setup over volume" `Quick test_mp_pays_setup_over_volume ]);
      ("list", [ Alcotest.test_case "unbounded ratio example" `Quick test_list_unbounded_ratio ]);
      ( "batch-split",
        [
          Alcotest.test_case "relieves giant batch" `Quick test_batch_split_relieves_giant_batch;
          Alcotest.test_case "small-batch regime" `Quick test_batch_split_small_batches_regime;
        ] );
      ( "exact",
        [
          Alcotest.test_case "nonp known" `Quick test_exact_nonp_known;
          Alcotest.test_case "split known" `Quick test_exact_split_known;
        ] );
      Helpers.qsuite "props"
        [
          prop_mp_feasible_within_level;
          prop_list_feasible_all_variants;
          prop_batch_split_feasible_and_dominates_lpt;
          prop_exact_brackets;
          prop_true_ratios_tiny;
          prop_t_star_below_opt_tiny;
        ];
    ]
