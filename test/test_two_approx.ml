(* Tests for Theorem 1: the O(n) 2-approximations. *)

open Bss_util
open Bss_instances
open Bss_core

let check = Alcotest.check
let bool_c = Alcotest.bool

let fixture () =
  Instance.make ~m:3 ~setups:[| 4; 2 |] ~jobs:[| (0, 5); (1, 7); (0, 3); (1, 1); (1, 1) |]

let test_splittable_fixture () =
  let inst = fixture () in
  let s = Two_approx.splittable inst in
  let tmin = Lower_bounds.t_min Variant.Splittable inst in
  Helpers.check_feasible_within ~variant:Variant.Splittable ~num:2 ~den:1 inst s tmin

let test_nonpreemptive_fixture () =
  let inst = fixture () in
  let s = Two_approx.nonpreemptive inst in
  let tmin = Lower_bounds.t_min Variant.Nonpreemptive inst in
  Helpers.check_feasible_within ~variant:Variant.Nonpreemptive ~num:2 ~den:1 inst s tmin

let test_single_machine () =
  (* m = 1: everything runs on one machine; makespan is exactly N. *)
  let inst = Instance.make ~m:1 ~setups:[| 2; 3 |] ~jobs:[| (0, 4); (1, 5); (0, 1) |] in
  let s = Two_approx.nonpreemptive inst in
  Checker.check_exn Variant.Nonpreemptive inst s;
  check bool_c "makespan = N" true (Rat.equal (Schedule.makespan s) (Rat.of_int inst.Instance.total));
  let s = Two_approx.splittable inst in
  Checker.check_exn Variant.Splittable inst s

let test_one_class_many_machines () =
  let inst = Instance.make ~m:6 ~setups:[| 5 |] ~jobs:(Array.init 12 (fun _ -> (0, 3))) in
  List.iter
    (fun v ->
      let s = Two_approx.solve v inst in
      let tmin = Lower_bounds.t_min v inst in
      Helpers.check_feasible_within ~variant:v ~num:2 ~den:1 inst s tmin)
    Variant.all

let test_many_machines_few_jobs () =
  (* m >> n: splittable may use all machines; next-fit uses few. *)
  let inst = Instance.make ~m:40 ~setups:[| 3; 1 |] ~jobs:[| (0, 9); (1, 2) |] in
  List.iter
    (fun v ->
      let s = Two_approx.solve v inst in
      let tmin = Lower_bounds.t_min v inst in
      Helpers.check_feasible_within ~variant:v ~num:2 ~den:1 inst s tmin)
    Variant.all

let test_huge_setups () =
  let inst = Instance.make ~m:3 ~setups:[| 100; 90; 80 |] ~jobs:[| (0, 1); (1, 1); (2, 1) |] in
  List.iter
    (fun v ->
      let s = Two_approx.solve v inst in
      let tmin = Lower_bounds.t_min v inst in
      Helpers.check_feasible_within ~variant:v ~num:2 ~den:1 inst s tmin)
    Variant.all

(* The next-fit layout, segment by segment, on three hand-worked
   instances: a job that crosses T_min opens the next machine behind a
   fresh setup, a setup that crosses opens it alone, and a setup whose
   first job crosses is dropped from the machine it was left last on. *)
let test_nonpreemptive_layout () =
  let layout sched =
    List.concat_map
      (fun u ->
        List.map
          (fun (g : Schedule.seg) ->
            Printf.sprintf "%d:%s@%s+%s" u
              (match g.Schedule.content with
              | Schedule.Setup i -> "S" ^ string_of_int i
              | Schedule.Work j -> "J" ^ string_of_int j)
              (Rat.to_string g.Schedule.start) (Rat.to_string g.Schedule.dur))
          (Schedule.segments sched u))
      (List.init (Schedule.machines sched) Fun.id)
  in
  let case name ~m ~setups ~jobs expected =
    let inst = Instance.make ~m ~setups ~jobs in
    let s = Two_approx.nonpreemptive inst in
    Checker.check_exn Variant.Nonpreemptive inst s;
    check (Alcotest.list Alcotest.string) name expected (layout s)
  in
  (* T_min = 8: J1 crosses on machine 0, J3 on machine 1 *)
  case "job crosses" ~m:3 ~setups:[| 2; 3 |] ~jobs:[| (0, 4); (0, 4); (1, 5); (1, 1) |]
    [ "0:S0@0+2"; "0:J0@2+4"; "1:S0@0+2"; "1:J1@2+4"; "1:S1@6+3"; "1:J2@9+5"; "2:S1@0+3"; "2:J3@3+1" ];
  (* T_min = 5: S1 crosses on machine 0 *)
  case "setup crosses" ~m:2 ~setups:[| 1; 4 |] ~jobs:[| (0, 2); (0, 2); (1, 1) |]
    [ "0:S0@0+1"; "0:J0@1+2"; "0:J1@3+2"; "1:S1@0+4"; "1:J2@4+1" ];
  (* T_min = 4: S1 fits on machine 0, its job J1 crosses *)
  case "trailing setup dropped" ~m:2 ~setups:[| 1; 1 |] ~jobs:[| (0, 2); (1, 3) |]
    [ "0:S0@0+1"; "0:J0@1+2"; "1:S1@0+1"; "1:J1@1+3" ]

(* The next-fit streams into the schedule with no per-machine item lists:
   on the native-int tier it allocates at most 20 words per job, the
   schedule's own segments included. *)
let test_nonpreemptive_words_per_job () =
  Rat.with_force_exact false @@ fun () ->
  let inst =
    Bss_workloads.Generator.uniform.Bss_workloads.Generator.generate (Prng.create 1) ~m:16 ~n:20_000
  in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Two_approx.nonpreemptive inst));
  let per_job = (Gc.minor_words () -. before) /. float_of_int (Instance.n inst) in
  if per_job > 20.0 then Alcotest.failf "%.1f words per job > 20" per_job

let prop_all_variants =
  QCheck2.Test.make ~name:"2-approx feasible and within 2*Tmin" ~count:500 (Helpers.gen_instance ())
    (fun inst ->
      List.for_all
        (fun v ->
          let s = Two_approx.solve v inst in
          let tmin = Lower_bounds.t_min v inst in
          Checker.is_feasible v inst s && Helpers.within_factor ~num:2 ~den:1 s tmin)
        Variant.all)

let prop_stress_shapes =
  QCheck2.Test.make ~name:"2-approx on extreme shapes" ~count:200
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* shape = int_range 0 2 in
      return (seed, shape))
    (fun (seed, shape) ->
      let rng = Prng.create seed in
      let inst =
        match shape with
        | 0 -> Helpers.random_instance ~max_m:64 ~max_c:2 ~max_extra_jobs:3 rng (* m >> n *)
        | 1 -> Helpers.random_instance ~max_m:2 ~max_c:8 ~max_extra_jobs:60 rng (* n >> m *)
        | _ -> Helpers.random_instance ~max_setup:200 ~max_time:2 rng (* setup-dominated *)
      in
      List.for_all
        (fun v ->
          let s = Two_approx.solve v inst in
          Checker.is_feasible v inst s
          && Helpers.within_factor ~num:2 ~den:1 s (Lower_bounds.t_min v inst))
        Variant.all)

let () =
  Alcotest.run "two_approx"
    [
      ( "unit",
        [
          Alcotest.test_case "splittable fixture" `Quick test_splittable_fixture;
          Alcotest.test_case "nonpreemptive fixture" `Quick test_nonpreemptive_fixture;
          Alcotest.test_case "single machine" `Quick test_single_machine;
          Alcotest.test_case "one class many machines" `Quick test_one_class_many_machines;
          Alcotest.test_case "many machines few jobs" `Quick test_many_machines_few_jobs;
          Alcotest.test_case "huge setups" `Quick test_huge_setups;
          Alcotest.test_case "nonpreemptive layout" `Quick test_nonpreemptive_layout;
          Alcotest.test_case "nonpreemptive words per job" `Quick test_nonpreemptive_words_per_job;
        ] );
      Helpers.qsuite "props" [ prop_all_variants; prop_stress_shapes ];
    ]
