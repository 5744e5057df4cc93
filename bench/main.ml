(* Bechamel micro-benchmarks: one Test group per table/figure-level claim.

   - table1/*      : every algorithm of the paper's Table 1 row set on a
                     fixed mid-sized instance (who costs what).
   - scaling/*     : the near-linear running-time claims — each algorithm
                     at n = 1k/4k/16k; linear growth shows as ~4x steps.
   - ablation/*    : design choices called out in DESIGN.md §6 — knapsack
                     solvers, class jumping vs plain binary search, rat
                     arithmetic fast paths.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
module Variant = Bss_instances.Variant
open Bss_util
open Bss_core
open Bss_workloads

let instance_of ~m ~n seed = Generator.uniform.Generator.generate (Prng.create seed) ~m ~n

let mid = instance_of ~m:16 ~n:2_000 7

let table1_tests =
  let t name f = Test.make ~name (Staged.stage f) in
  Test.make_grouped ~name:"table1"
    [
      t "2approx-nonp" (fun () -> Two_approx.nonpreemptive mid);
      t "2approx-split" (fun () -> Two_approx.splittable mid);
      t "3/2eps-nonp" (fun () ->
          Solver.solve ~algorithm:(Solver.Approx3_2_eps (Rat.of_ints 1 10)) Variant.Nonpreemptive mid);
      t "3/2eps-pmtn" (fun () ->
          Solver.solve ~algorithm:(Solver.Approx3_2_eps (Rat.of_ints 1 10)) Variant.Preemptive mid);
      t "3/2eps-split" (fun () ->
          Solver.solve ~algorithm:(Solver.Approx3_2_eps (Rat.of_ints 1 10)) Variant.Splittable mid);
      t "3/2-nonp-bs" (fun () -> Nonp_search.solve mid);
      t "3/2-pmtn-cj" (fun () -> Pmtn_cj.solve mid);
      t "3/2-split-cj" (fun () -> Splittable_cj.solve mid);
      t "mp-wrap" (fun () -> Bss_baselines.Monma_potts.schedule mid);
      t "batch-lpt" (fun () -> Bss_baselines.List_scheduling.lpt mid);
    ]

let scaling_tests =
  let sizes = [ 1_000; 4_000; 16_000 ] in
  let insts = List.map (fun n -> (n, instance_of ~m:16 ~n (100 + n))) sizes in
  let group name f =
    Test.make_grouped ~name
      (List.map
         (fun (n, inst) -> Test.make ~name:(Printf.sprintf "n=%d" n) (Staged.stage (fun () -> f inst)))
         insts)
  in
  Test.make_grouped ~name:"scaling"
    [
      group "2approx-nonp" Two_approx.nonpreemptive;
      group "split-cj" Splittable_cj.solve;
      group "nonp-bs" Nonp_search.solve;
      group "pmtn-cj" Pmtn_cj.solve;
    ]

let ablation_tests =
  (* knapsack: sorted O(k log k) vs selection-based O(k) *)
  let rng = Prng.create 99 in
  let items =
    Array.init 4_000 (fun i ->
        {
          Bss_knapsack.Knapsack.id = i;
          profit = Rat.of_int (1 + Prng.int rng 1000);
          weight = Rat.of_int (1 + Prng.int rng 1000);
        })
  in
  let capacity = Rat.of_int 500_000 in
  (* class jumping vs fine binary search at eps = 1/1024 (same dual) *)
  let cj_inst = instance_of ~m:64 ~n:8_000 11 in
  let eps = Rat.of_ints 1 1024 in
  (* rationals: single-limb vs multi-limb arithmetic *)
  let small_a = Rat.of_ints 355 113 and small_b = Rat.of_ints 22 7 in
  let big_a =
    Rat.make (Bigint.of_string "123456789012345678901234567") (Bigint.of_string "987654321098765432109")
  and big_b =
    Rat.make (Bigint.of_string "314159265358979323846264338") (Bigint.of_string "271828182845904523536")
  in
  Test.make_grouped ~name:"ablation"
    [
      Test.make ~name:"knapsack-sorted"
        (Staged.stage (fun () -> Bss_knapsack.Knapsack.solve_sorted items ~capacity));
      Test.make ~name:"knapsack-linear"
        (Staged.stage (fun () -> Bss_knapsack.Knapsack.solve_linear items ~capacity));
      Test.make ~name:"search-class-jumping" (Staged.stage (fun () -> Splittable_cj.solve cj_inst));
      Test.make ~name:"search-binary-eps"
        (Staged.stage
           (let { Dual.test; run } = Solver.dual_for Variant.Splittable in
            fun () ->
              Dual_search.search ~test ~run ~epsilon:eps
                ~t_min:(Bss_instances.Lower_bounds.t_min Variant.Splittable cj_inst)
                cj_inst));
      Test.make ~name:"compact-split-m1e6"
        (Staged.stage
           (let inst =
              Bss_instances.Instance.make ~m:1_000_000 ~setups:[| 3; 5 |]
                ~jobs:[| (0, 40_000_000); (0, 7); (1, 9_000_000); (1, 11) |]
            in
            fun () -> Splittable_compact.solve inst));
      Test.make ~name:"explicit-split-m100k"
        (Staged.stage
           (let inst =
              Bss_instances.Instance.make ~m:100_000 ~setups:[| 3; 5 |]
                ~jobs:[| (0, 4_000_000); (0, 7); (1, 900_000); (1, 11) |]
            in
            fun () -> Splittable_cj.solve inst));
      Test.make ~name:"rat-add-small" (Staged.stage (fun () -> Rat.add small_a small_b));
      Test.make ~name:"rat-add-big" (Staged.stage (fun () -> Rat.add big_a big_b));
      Test.make ~name:"rat-mul-small" (Staged.stage (fun () -> Rat.mul small_a small_b));
      Test.make ~name:"rat-mul-big" (Staged.stage (fun () -> Rat.mul big_a big_b));
    ]

let benchmark tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  Benchmark.all cfg instances tests

(* One instrumented run per algorithm: where inside the solver the time
   goes (bechamel answers how much in total; the spans answer where). *)
let span_profile () =
  let algorithms =
    [
      ("3/2-split-cj", Solver.Approx3_2, Variant.Splittable);
      ("3/2-pmtn-cj", Solver.Approx3_2, Variant.Preemptive);
      ("3/2-nonp-bs", Solver.Approx3_2, Variant.Nonpreemptive);
      ("3/2+1/10-nonp", Solver.Approx3_2_eps (Rat.of_ints 1 10), Variant.Nonpreemptive);
    ]
  in
  print_endline "";
  print_endline "per-phase span totals (one instrumented run each, n=2000 m=16):";
  List.iter
    (fun (name, algorithm, variant) ->
      let _, report =
        Bss_obs.Probe.with_recording (fun () -> Solver.solve ~algorithm variant mid)
      in
      Printf.printf "  %s\n" name;
      List.iter
        (fun (path, { Bss_obs.Report.calls; ns }) ->
          Printf.printf "    %-24s %5d call(s) %10.3f ms\n" path calls (Int64.to_float ns /. 1e6))
        report.Bss_obs.Report.spans)
    algorithms

let () =
  let all = Test.make_grouped ~name:"bss" [ table1_tests; scaling_tests; ablation_tests ] in
  let raw = benchmark all in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "benchmark results (monotonic clock, estimated time per run):";
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, o) ->
      let estimate =
        match Analyze.OLS.estimates o with
        | Some [ e ] ->
          if e > 1e6 then Printf.sprintf "%10.3f ms" (e /. 1e6) else Printf.sprintf "%10.1f ns" e
        | Some _ | None -> "        n/a"
      in
      Printf.printf "  %-40s %s\n" name estimate)
    rows;
  span_profile ()
