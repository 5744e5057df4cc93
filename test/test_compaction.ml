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

(* The reference: the global replay compaction used to run, one sort of
   every segment by (start, machine) and one pass in that order. *)
let reference variant inst sched =
  let m = Schedule.machines sched in
  let out = Schedule.create m in
  let machine_front = Array.make m Rat.zero in
  let job_front = Array.make (Instance.n inst) Rat.zero in
  let segments = Array.of_list (Schedule.all_segments sched) in
  Array.sort
    (fun (u1, (s1 : Schedule.seg)) (u2, (s2 : Schedule.seg)) ->
      let c = Rat.compare s1.Schedule.start s2.Schedule.start in
      if c <> 0 then c else compare u1 u2)
    segments;
  Array.iter
    (fun (u, (seg : Schedule.seg)) ->
      let start =
        match (seg.Schedule.content, variant) with
        | Schedule.Work j, (Variant.Preemptive | Variant.Nonpreemptive) ->
          Rat.max machine_front.(u) job_front.(j)
        | Schedule.Work _, Variant.Splittable | Schedule.Setup _, _ -> machine_front.(u)
      in
      (match seg.Schedule.content with
      | Schedule.Setup cls -> Schedule.add_setup out ~machine:u ~cls ~start ~dur:seg.Schedule.dur
      | Schedule.Work j ->
        Schedule.add_work out ~machine:u ~job:j ~start ~dur:seg.Schedule.dur;
        job_front.(j) <- Rat.add start seg.Schedule.dur);
      machine_front.(u) <- Rat.add start seg.Schedule.dur)
    segments;
  out

(* A feasible preemptive schedule built by hand: each job is cut into
   random pieces on random machines, each piece starting after its
   machine's front and its job's previous piece, with gaps of 0-2 so
   that pieces on different machines often share a start; a setup goes
   before each piece whose machine last ran another class. The segments
   are appended in a shuffled order. *)
let crossing_schedule rng inst =
  let m = inst.Instance.m in
  let front = Array.make m 0 and last_class = Array.make m (-1) in
  let segs = ref [] in
  let place u start dur content =
    segs := (u, { Schedule.start = Rat.of_int start; dur = Rat.of_int dur; content }) :: !segs;
    front.(u) <- start + dur
  in
  for i = 0 to Instance.c inst - 1 do
    Instance.iter_class_jobs
      (fun j ->
        let left = ref inst.Instance.job_time.(j) and job_end = ref 0 in
        while !left > 0 do
          let piece = if !left = 1 then 1 else 1 + Prng.int rng !left in
          let u = Prng.int rng m in
          let at = max front.(u) !job_end + Prng.int rng 3 in
          let at =
            if last_class.(u) = i then at
            else begin
              place u at inst.Instance.setups.(i) (Schedule.Setup i);
              last_class.(u) <- i;
              front.(u)
            end
          in
          let at = max at !job_end in
          place u at piece (Schedule.Work j);
          job_end := at + piece;
          left := !left - piece
        done)
      inst i
  done;
  let all = Array.of_list !segs in
  Prng.shuffle rng all;
  let s = Schedule.create m in
  Array.iter (fun (u, seg) -> Schedule.add s ~machine:u seg) all;
  s

let prop_matches_reference =
  QCheck2.Test.make ~name:"compaction equals the global replay; makespan reads it unbuilt" ~count:200
    QCheck2.Gen.(pair (Helpers.gen_instance ()) (int_range 0 1_000_000))
    (fun (inst, seed) ->
      let rng = Prng.create seed in
      let hand = crossing_schedule rng inst in
      Checker.check_exn Variant.Preemptive inst hand;
      let inputs = function
        | Variant.Nonpreemptive -> [ (Nonp_search.solve inst).Nonp_search.schedule ]
        | Variant.Preemptive -> [ (Pmtn_cj.solve inst).Pmtn_cj.schedule; hand ]
        | Variant.Splittable -> [ (Splittable_cj.solve inst).Splittable_cj.schedule; hand ]
      in
      List.for_all
        (fun v ->
          List.for_all
            (fun sched ->
              let c = Compaction.compact v inst sched in
              Schedule.equal c (reference v inst sched)
              && Rat.equal (Compaction.makespan v inst sched) (Schedule.makespan c))
            (Two_approx.solve v inst :: inputs v))
        Variant.all)

let () =
  Alcotest.run "compaction"
    [
      ( "unit",
        [
          Alcotest.test_case "closes gaps" `Quick test_closes_gaps;
          Alcotest.test_case "job sequentiality" `Quick test_respects_job_sequentiality;
        ] );
      Helpers.qsuite "props"
        [ prop_preserves_feasibility_never_longer; prop_improves_dual_constructions; prop_matches_reference ];
    ]
