(* Tests for schedule compaction: feasibility preservation, monotone
   makespan, and the practical improvement it buys on the dual
   constructions. *)

open Bss_util
open Bss_instances
open Bss_core

let check = Alcotest.check
let rat_c = Alcotest.testable Rat.pp Rat.equal

let test_closes_gaps () =
  let inst = Instance.make ~m:1 ~setups:[| 2 |] ~jobs:[| (0, 3); (0, 4) |] in
  let s = Schedule.create 1 in
  let r = Rat.of_int in
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 5) ~dur:(r 2);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 10) ~dur:(r 3);
  Schedule.add_work s ~machine:0 ~job:1 ~start:(r 20) ~dur:(r 4);
  let c = Compaction.compact Variant.Nonpreemptive inst s in
  Checker.check_exn Variant.Nonpreemptive inst c;
  check rat_c "gapless" (r 9) (Schedule.makespan c)

let test_respects_job_sequentiality () =
  (* job 0 preempted across two machines; its later piece must not be
     pulled before the earlier one ends *)
  let inst = Instance.make ~m:2 ~setups:[| 1 |] ~jobs:[| (0, 10); (0, 2) |] in
  let s = Schedule.create 2 in
  let r = Rat.of_int in
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 0) ~dur:(r 1);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 1) ~dur:(r 6);
  Schedule.add_setup s ~machine:1 ~cls:0 ~start:(r 0) ~dur:(r 1);
  Schedule.add_work s ~machine:1 ~job:1 ~start:(r 1) ~dur:(r 2);
  (* second piece of job 0 far in the future on machine 1 *)
  Schedule.add_work s ~machine:1 ~job:0 ~start:(r 20) ~dur:(r 4);
  Checker.check_exn Variant.Preemptive inst s;
  let c = Compaction.compact Variant.Preemptive inst s in
  Checker.check_exn Variant.Preemptive inst c;
  (* the piece lands exactly when its first piece ends: at 7, not at 3 *)
  let pieces = List.sort compare (Schedule.job_index ~n:(Instance.n inst) c).(0) in
  (match pieces with
  | [ (0, s1, _); (1, s2, _) ] ->
    check rat_c "first piece" (r 1) s1;
    check rat_c "second piece waits" (r 7) s2
  | _ -> Alcotest.fail "unexpected piece layout");
  check rat_c "makespan improved" (r 11) (Schedule.makespan c)

let prop_preserves_feasibility_never_longer =
  QCheck2.Test.make ~name:"compaction: feasible, never longer, idempotent" ~count:300
    (Helpers.gen_instance ())
    (fun inst ->
      List.for_all
        (fun v ->
          let raw =
            match v with
            | Variant.Splittable -> (Splittable_cj.solve inst).Splittable_cj.schedule
            | Variant.Preemptive -> (Pmtn_cj.solve inst).Pmtn_cj.schedule
            | Variant.Nonpreemptive -> (Nonp_search.solve inst).Nonp_search.schedule
          in
          let once = Compaction.compact v inst raw in
          let twice = Compaction.compact v inst once in
          Checker.is_feasible v inst once
          && Rat.( <= ) (Schedule.makespan once) (Schedule.makespan raw)
          && Rat.equal (Schedule.makespan twice) (Schedule.makespan once))
        Variant.all)

let prop_improves_dual_constructions =
  QCheck2.Test.make ~name:"solver with compaction at least matches raw duals" ~count:150
    (Helpers.gen_instance ())
    (fun inst ->
      List.for_all
        (fun v ->
          let raw =
            match v with
            | Variant.Splittable -> (Splittable_cj.solve inst).Splittable_cj.schedule
            | Variant.Preemptive -> (Pmtn_cj.solve inst).Pmtn_cj.schedule
            | Variant.Nonpreemptive -> (Nonp_search.solve inst).Nonp_search.schedule
          in
          let polished = (Solver.solve ~algorithm:Solver.Approx3_2 v inst).Solver.schedule in
          Rat.( <= ) (Schedule.makespan polished) (Schedule.makespan raw))
        Variant.all)

let () =
  Alcotest.run "compaction"
    [
      ( "unit",
        [
          Alcotest.test_case "closes gaps" `Quick test_closes_gaps;
          Alcotest.test_case "job sequentiality" `Quick test_respects_job_sequentiality;
        ] );
      Helpers.qsuite "props" [ prop_preserves_feasibility_never_longer; prop_improves_dual_constructions ];
    ]
