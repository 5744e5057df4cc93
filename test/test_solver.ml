(* Tests for the (3/2+eps) binary search (Theorem 2), the unified solver
   facade, and the workload generators. *)

open Bss_util
open Bss_instances
open Bss_core
open Bss_workloads

let check = Alcotest.check
let bool_c = Alcotest.bool

let fixture () =
  Instance.make ~m:3 ~setups:[| 4; 2 |] ~jobs:[| (0, 5); (1, 7); (0, 3); (1, 1); (1, 1) |]

(* ---------------- dual_search ---------------- *)

let dual_search v ~epsilon inst =
  let { Dual.test; run } = Solver.dual_for v in
  Dual_search.search ~test ~run ~epsilon ~t_min:(Lower_bounds.t_min v inst) inst

let test_search_all_variants () =
  let inst = fixture () in
  let eps = Rat.of_ints 1 10 in
  List.iter
    (fun v ->
      let r = dual_search v ~epsilon:eps inst in
      Checker.check_exn v inst r.Dual_search.schedule;
      (* makespan <= 3/2 accepted, accepted <= (1 + 2eps/3)(lowest rejected) *)
      check bool_c "within 3/2 accepted" true
        (Helpers.within_factor ~num:3 ~den:2 r.Dual_search.schedule r.Dual_search.accepted))
    Variant.all

let test_search_call_budget () =
  let inst = fixture () in
  let eps = Rat.of_ints 1 1000 in
  let r = dual_search Variant.Splittable ~epsilon:eps inst in
  (* log2(3/(2*eps)) + 2 calls *)
  check bool_c "O(log 1/eps) calls" true (r.Dual_search.dual_calls <= 11 + 3)

let test_search_invalid_epsilon () =
  let inst = fixture () in
  check bool_c "raises" true
    (try
       ignore (dual_search Variant.Splittable ~epsilon:Rat.zero inst);
       false
     with Invalid_argument _ -> true)

let prop_search_guarantee =
  QCheck2.Test.make ~name:"(3/2+eps) search: feasible; accepted within eps' of a rejected guess"
    ~count:200 (Helpers.gen_instance ())
    (fun inst ->
      let eps = Rat.of_ints 1 7 in
      List.for_all
        (fun v ->
          let r = dual_search v ~epsilon:eps inst in
          Checker.is_feasible v inst r.Dual_search.schedule
          && Helpers.within_factor ~num:3 ~den:2 r.Dual_search.schedule r.Dual_search.accepted)
        Variant.all)

(* ---------------- search combinators ---------------- *)

(* [p] with its probes recorded, and a reader of them in probe order *)
let recording p =
  let probes = ref [] in
  let probe k =
    probes := k :: !probes;
    p k
  in
  (probe, fun () -> List.rev !probes)

let prop_search_matches_scan =
  QCheck2.Test.make ~name:"bisect and first_true match a linear scan at every threshold" ~count:200
    QCheck2.Gen.(pair (int_range (-50) 50) (int_range 0 40))
    (fun (a, len) ->
      let b = a + len in
      (* thresholds a .. b + 1: "all" true at a, "none" at b + 1 *)
      List.for_all
        (fun t ->
          let p k = k >= t in
          let scan = List.find_opt p (List.init (len + 1) (fun k -> a + k)) in
          (* bisect over (lo, hi] = (a - 1, b + 1]: the endpoints are
             assumed, never probed, and hi stands in for "none inside" *)
          let probe, probes = recording p in
          let k = Search.bisect (a - 1) (b + 1) probe in
          Search.first_true a b p = scan
          && k = Option.value scan ~default:(b + 1)
          && List.for_all (fun k -> a <= k && k <= b) (probes ()))
        (List.init (len + 2) (fun k -> a + k)))

let test_first_true_probe_order () =
  let probe, probes = recording (fun k -> k >= 11) in
  check (Alcotest.option Alcotest.int) "first true" (Some 11) (Search.first_true 3 20 probe);
  (match probes () with
  | 3 :: 20 :: _ -> ()
  | ks -> Alcotest.failf "probe order %s" (String.concat " " (List.map string_of_int ks)));
  (* a one-point range is probed twice when its point is false *)
  let probe, probes = recording (fun k -> k >= 6) in
  check (Alcotest.option Alcotest.int) "none" None (Search.first_true 5 5 probe);
  check (Alcotest.list Alcotest.int) "probed twice" [ 5; 5 ] (probes ());
  let probe, probes = recording (fun k -> k >= 5) in
  check (Alcotest.option Alcotest.int) "all" (Some 5) (Search.first_true 5 5 probe);
  check (Alcotest.list Alcotest.int) "probed once" [ 5 ] (probes ());
  (* bisect between adjacent known endpoints probes nothing *)
  check Alcotest.int "adjacent" 5 (Search.bisect 4 5 (fun _ -> Alcotest.fail "probed"))

let test_bisect_rat_stop_rule () =
  let third = Rat.of_ints 1 3 in
  let probe, probes = recording (fun t -> Rat.( >= ) t third) in
  let lo, hi = Search.bisect_rat ~stop:(fun ~rounds _ _ -> rounds >= 40) probe Rat.zero Rat.one in
  check Alcotest.int "exactly 40 rounds" 40 (List.length (probes ()));
  check bool_c "bracket kept" true (Rat.( < ) lo third && Rat.( <= ) third hi);
  check bool_c "width 2^-40" true (Rat.equal (Rat.sub hi lo) (Rat.of_ints 1 (1 lsl 40)));
  let tolerance = Rat.of_ints 1 8 in
  let probe, probes = recording (fun t -> Rat.( >= ) t third) in
  let stop ~rounds:_ lo hi = Rat.( <= ) (Rat.sub hi lo) tolerance in
  let lo, hi = Search.bisect_rat ~stop probe Rat.zero Rat.one in
  check Alcotest.int "halved to the tolerance" 3 (List.length (probes ()));
  check bool_c "tolerance met" true (Rat.equal (Rat.sub hi lo) tolerance);
  (* a rule that holds at once probes nothing *)
  ignore (Search.bisect_rat ~stop:(fun ~rounds:_ _ _ -> true) (fun _ -> Alcotest.fail "probed") lo hi)

let test_dual_search_constructs_once () =
  let inst = fixture () in
  List.iter
    (fun v ->
      List.iter
        (fun epsilon ->
          let { Dual.test; run } = Solver.dual_for v in
          let tests = ref 0 and runs = ref 0 in
          let test i t =
            incr tests;
            test i t
          and run i t =
            incr runs;
            run i t
          in
          let r = Dual_search.search ~test ~run ~epsilon ~t_min:(Lower_bounds.t_min v inst) inst in
          let what = Variant.to_string v ^ " eps=" ^ Rat.to_string epsilon in
          check Alcotest.int (what ^ ": one run") 1 !runs;
          check Alcotest.int (what ^ ": dual_calls tests") r.Dual_search.dual_calls !tests)
        [ Rat.of_ints 1 8; Rat.of_ints 1 100 ])
    Variant.all

(* ---------------- solver facade ---------------- *)

let prop_solver_certificates =
  QCheck2.Test.make ~name:"solver: schedules feasible and within certificates" ~count:150
    (Helpers.gen_instance ())
    (fun inst ->
      List.for_all
        (fun v ->
          List.for_all
            (fun algorithm ->
              let r = Solver.solve ~algorithm v inst in
              Checker.is_feasible v inst r.Solver.schedule
              && Rat.( <= ) (Schedule.makespan r.Solver.schedule) r.Solver.certificate
              && String.length (Solver.algorithm_name ~algorithm v) > 0)
            [ Solver.Approx2; Solver.Approx3_2_eps (Rat.of_ints 1 4); Solver.Approx3_2 ])
        Variant.all)

let test_solver_guarantees () =
  let inst = fixture () in
  let r2 = Solver.solve ~algorithm:Solver.Approx2 Variant.Splittable inst in
  check bool_c "2" true (Rat.equal r2.Solver.guarantee Rat.two);
  let r32 = Solver.solve ~algorithm:Solver.Approx3_2 Variant.Preemptive inst in
  check bool_c "3/2" true (Rat.equal r32.Solver.guarantee (Rat.of_ints 3 2));
  let re = Solver.solve ~algorithm:(Solver.Approx3_2_eps (Rat.of_ints 1 2)) Variant.Nonpreemptive inst in
  check bool_c "2 = 3/2+1/2" true (Rat.equal re.Solver.guarantee Rat.two)

(* ---------------- dual outcome API ---------------- *)

let test_dual_printers_and_accessors () =
  let inst = fixture () in
  let acc = Splittable_dual.run inst (Rat.of_int inst.Instance.total) in
  check bool_c "is_accepted" true (Dual.is_accepted acc);
  check bool_c "accepted some" true (Dual.accepted acc <> None);
  check bool_c "accepted prints" true
    (String.length (Format.asprintf "%a" Dual.pp_outcome acc) > 0);
  let rej = Splittable_dual.run inst Rat.one in
  check bool_c "not accepted" false (Dual.is_accepted rej);
  check bool_c "rejected none" true (Dual.accepted rej = None);
  check bool_c "rejection prints" true
    (String.length (Format.asprintf "%a" Dual.pp_outcome rej) > 0);
  (* all three rejection constructors print *)
  List.iter
    (fun r -> check bool_c "prints" true (String.length (Format.asprintf "%a" Dual.pp_rejection r) > 0))
    [
      Dual.Below_trivial_bound { bound = Rat.one };
      Dual.Load_exceeds { required = Rat.two; available = Rat.one };
      Dual.Machines_exceed { required = 3; available = 1 };
    ]

let test_algorithm_names_distinct () =
  let names =
    List.concat_map
      (fun v ->
        List.map
          (fun a -> Solver.algorithm_name ~algorithm:a v)
          [ Solver.Approx2; Solver.Approx3_2_eps (Rat.of_ints 1 8); Solver.Approx3_2 ])
      Variant.all
  in
  (* 2-approx and 3/2+eps names are variant-independent; the exact 3/2
     names differ per variant *)
  check bool_c "some distinct" true (List.length (List.sort_uniq compare names) >= 5)

(* ---------------- workloads ---------------- *)

let test_generators_produce_valid_instances () =
  List.iter
    (fun (spec : Generator.spec) ->
      let rng = Prng.create 42 in
      let inst = spec.Generator.generate rng ~m:8 ~n:64 in
      check bool_c (spec.Generator.name ^ " nonempty") true (Instance.n inst >= 1);
      check bool_c (spec.Generator.name ^ " classes nonempty") true
        (List.for_all (fun i -> Instance.class_size inst i >= 1) (List.init (Instance.c inst) (fun i -> i))))
    Generator.all

let test_generators_deterministic () =
  List.iter
    (fun (spec : Generator.spec) ->
      let a = spec.Generator.generate (Prng.create 7) ~m:4 ~n:30 in
      let b = spec.Generator.generate (Prng.create 7) ~m:4 ~n:30 in
      check bool_c spec.Generator.name true (Instance.equal a b))
    Generator.all

let test_generator_job_counts () =
  List.iter
    (fun (spec : Generator.spec) ->
      let inst = spec.Generator.generate (Prng.create 1) ~m:4 ~n:100 in
      let n = Instance.n inst in
      (* within a factor-ish of the target (families round to their shape) *)
      (* tiny clamps to <= 9 jobs; anti-wrap is one tiny job per class by
         design *)
      check bool_c
        (Printf.sprintf "%s count %d" spec.Generator.name n)
        true
        (n >= 8 || spec.Generator.name = "tiny" || spec.Generator.name = "anti-wrap"))
    Generator.all

let test_suites () =
  let t1 = Suite.table1 () in
  check bool_c "table1 nonempty" true (List.length t1 >= 16);
  let tiny = Suite.tiny_exact () in
  check bool_c "tiny" true (List.length tiny = 40);
  let sc = Suite.scaling ~family:Generator.uniform ~m:8 [ 100; 200 ] in
  check bool_c "scaling sizes" true (List.length sc = 2);
  (* deterministic: regenerating gives equal instances *)
  let t1' = Suite.table1 () in
  check bool_c "reproducible" true
    (List.for_all2 (fun a b -> Instance.equal a.Suite.instance b.Suite.instance) t1 t1')

let test_by_name () =
  check bool_c "found" true (Generator.by_name "uniform" == Generator.uniform);
  check bool_c "not found" true (try ignore (Generator.by_name "nope"); false with Not_found -> true)

let () =
  Alcotest.run "solver"
    [
      ( "dual-search",
        [
          Alcotest.test_case "all variants" `Quick test_search_all_variants;
          Alcotest.test_case "call budget" `Quick test_search_call_budget;
          Alcotest.test_case "invalid epsilon" `Quick test_search_invalid_epsilon;
        ] );
      ( "search",
        [
          Alcotest.test_case "first_true probe order" `Quick test_first_true_probe_order;
          Alcotest.test_case "bisect_rat stop rule" `Quick test_bisect_rat_stop_rule;
          Alcotest.test_case "dual search constructs once" `Quick test_dual_search_constructs_once;
        ] );
      ( "facade",
        [
          Alcotest.test_case "guarantees" `Quick test_solver_guarantees;
          Alcotest.test_case "dual printers" `Quick test_dual_printers_and_accessors;
          Alcotest.test_case "algorithm names" `Quick test_algorithm_names_distinct;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "valid instances" `Quick test_generators_produce_valid_instances;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
          Alcotest.test_case "job counts" `Quick test_generator_job_counts;
          Alcotest.test_case "suites" `Quick test_suites;
          Alcotest.test_case "by name" `Quick test_by_name;
        ] );
      Helpers.qsuite "props" [ prop_search_guarantee; prop_solver_certificates; prop_search_matches_scan ];
    ]
