(* Tests for the instance/schedule model, partitions, checkers, bounds. *)

open Bss_util
open Bss_instances

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let rat_c = Alcotest.testable Rat.pp Rat.equal

(* A small shared fixture: 2 classes, 3 machines.
   class 0: setup 4, jobs 5, 3;  class 1: setup 2, jobs 7, 1, 1. *)
let fixture () =
  Instance.make ~m:3 ~setups:[| 4; 2 |] ~jobs:[| (0, 5); (1, 7); (0, 3); (1, 1); (1, 1) |]

(* ---------------- Instance ---------------- *)

let test_instance_derived () =
  let inst = fixture () in
  check int_c "n" 5 (Instance.n inst);
  check int_c "c" 2 (Instance.c inst);
  check int_c "N" (4 + 2 + 5 + 3 + 7 + 1 + 1) inst.Instance.total;
  check int_c "P(C0)" 8 inst.Instance.class_load.(0);
  check int_c "P(C1)" 9 inst.Instance.class_load.(1);
  check int_c "tmax0" 5 inst.Instance.class_tmax.(0);
  check int_c "tmax1" 7 inst.Instance.class_tmax.(1);
  check int_c "smax" 4 inst.Instance.s_max;
  check int_c "tmax" 7 inst.Instance.t_max;
  check int_c "delta" 7 (Instance.delta inst);
  check int_c "class size 1" 3 (Instance.class_size inst 1);
  check bool_c "class jobs" true (Instance.jobs_of_class inst 0 = [| 0; 2 |])

module Rerror = Bss_resilience.Error

(* [make]/[of_string] report malformed input through the typed taxonomy:
   always [Invalid_input], with the field (and, for [of_string], the line)
   that identifies the offending datum. *)
let invalid_field f =
  match f () with
  | _ -> None
  | exception Rerror.Error (Rerror.Invalid_input { field; _ }) -> Some field

let invalid_loc f =
  match f () with
  | _ -> None
  | exception Rerror.Error (Rerror.Invalid_input { line; field; _ }) -> Some (line, field)

let str_opt_c = Alcotest.(option string)

let test_instance_validation () =
  let field f = invalid_field f in
  check str_opt_c "m=0" (Some "m") (field (fun () -> Instance.make ~m:0 ~setups:[| 1 |] ~jobs:[| (0, 1) |]));
  check str_opt_c "setup=0" (Some "setup")
    (field (fun () -> Instance.make ~m:1 ~setups:[| 0 |] ~jobs:[| (0, 1) |]));
  check str_opt_c "time=0" (Some "time")
    (field (fun () -> Instance.make ~m:1 ~setups:[| 1 |] ~jobs:[| (0, 0) |]));
  check str_opt_c "bad class" (Some "class")
    (field (fun () -> Instance.make ~m:1 ~setups:[| 1 |] ~jobs:[| (1, 1) |]));
  check str_opt_c "empty class" (Some "class")
    (field (fun () -> Instance.make ~m:1 ~setups:[| 1; 1 |] ~jobs:[| (0, 1) |]));
  check str_opt_c "no jobs" (Some "jobs") (field (fun () -> Instance.make ~m:1 ~setups:[| 1 |] ~jobs:[||]))

(* overflow-adjacent values: the searches need arithmetic headroom
   (breakpoints like 2N and 4(s_i+P_i)/3), so construction caps N *)
let test_instance_overflow_guard () =
  check str_opt_c "single near-max setup" (Some "total")
    (invalid_field (fun () -> Instance.make ~m:2 ~setups:[| max_int - 1 |] ~jobs:[| (0, 1) |]));
  check str_opt_c "sum wraps max_int" (Some "total")
    (invalid_field (fun () ->
         Instance.make ~m:2
           ~setups:[| max_int / 3; 1 |]
           ~jobs:[| (0, max_int / 3); (1, max_int / 3) |]));
  check str_opt_c "just over the cap" (Some "total")
    (invalid_field (fun () -> Instance.make ~m:2 ~setups:[| max_int / 16 |] ~jobs:[| (0, 1) |]));
  (* 1e12-scale values stay accepted: the huge-value robustness suite
     depends on this headroom *)
  let big = 1_000_000_000_000 in
  let inst = Instance.make ~m:3 ~setups:[| big |] ~jobs:[| (0, big); (0, big) |] in
  check bool_c "1e12 accepted" true (inst.Instance.total = 3 * big)

let test_of_string_hardening () =
  check (Alcotest.option (Alcotest.pair (Alcotest.option int_c) Alcotest.string))
    "overflowing literal carries line+field"
    (Some (Some 3, "time"))
    (invalid_loc (fun () -> Instance.of_string "m 2\nsetups 3\njob 0 123456789012345678901234567890\n"));
  check (Alcotest.option (Alcotest.pair (Alcotest.option int_c) Alcotest.string)) "duplicate m line"
    (Some (Some 3, "m"))
    (invalid_loc (fun () -> Instance.of_string "m 2\nsetups 3\nm 4\njob 0 5\n"));
  check (Alcotest.option (Alcotest.pair (Alcotest.option int_c) Alcotest.string)) "duplicate setups line"
    (Some (Some 3, "setups"))
    (invalid_loc (fun () -> Instance.of_string "m 2\nsetups 3\nsetups 4\njob 0 5\n"));
  check (Alcotest.option (Alcotest.pair (Alcotest.option int_c) Alcotest.string)) "trailing garbage"
    (Some (Some 3, "line"))
    (invalid_loc (fun () -> Instance.of_string "m 2\nsetups 3\njob 0 5 9\n"));
  check (Alcotest.option (Alcotest.pair (Alcotest.option int_c) Alcotest.string)) "empty setups"
    (Some (Some 2, "setups"))
    (invalid_loc (fun () -> Instance.of_string "m 2\nsetups\njob 0 5\n"));
  check (Alcotest.option (Alcotest.pair (Alcotest.option int_c) Alcotest.string)) "bad number in m"
    (Some (Some 1, "m"))
    (invalid_loc (fun () -> Instance.of_string "m x\nsetups 3\njob 0 5\n"));
  check str_opt_c "missing m" (Some "m") (invalid_field (fun () -> Instance.of_string "setups 3\njob 0 5\n"));
  check str_opt_c "missing setups" (Some "setups")
    (invalid_field (fun () -> Instance.of_string "m 2\njob 0 5\n"));
  (* near-max values that parse but trip the headroom cap still carry the
     typed taxonomy end to end through of_string *)
  check str_opt_c "near-max value via of_string" (Some "total")
    (invalid_field (fun () ->
         Instance.of_string (Printf.sprintf "m 2\nsetups %d\njob 0 1\n" (max_int - 1))))

let test_instance_serialize_roundtrip () =
  let inst = fixture () in
  let inst' = Instance.of_string (Instance.to_string inst) in
  check bool_c "roundtrip" true (Instance.equal inst inst')

let test_instance_of_string_comments () =
  let inst = Instance.of_string "# a comment\nm 2\n\nsetups 3 4\njob 0 5\njob 1 6\n" in
  check int_c "m" 2 inst.Instance.m;
  check int_c "n" 2 (Instance.n inst)

(* ---------------- Schedule ---------------- *)

let test_schedule_accumulators () =
  let s = Schedule.create 2 in
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:Rat.zero ~dur:(Rat.of_int 4);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(Rat.of_int 4) ~dur:(Rat.of_int 5);
  Schedule.add_work s ~machine:1 ~job:1 ~start:(Rat.of_int 2) ~dur:(Rat.of_int 7);
  check rat_c "machine_end 0" (Rat.of_int 9) (Schedule.machine_end s 0);
  check rat_c "machine_end 1 (idle counts)" (Rat.of_int 9) (Schedule.machine_end s 1);
  check rat_c "machine_load 1 (busy only)" (Rat.of_int 7) (Schedule.machine_load s 1);
  check rat_c "makespan" (Rat.of_int 9) (Schedule.makespan s);
  check rat_c "total_load" (Rat.of_int 16) (Schedule.total_load s);
  let setups =
    List.filter_map
      (fun (_, (g : Schedule.seg)) -> match g.content with Schedule.Setup i -> Some i | Work _ -> None)
      (Schedule.all_segments s)
  in
  check int_c "setup_count" 1 (List.length (List.filter (( = ) 0) setups));
  check int_c "total setups" 1 (List.length setups);
  check bool_c "work_of_job" true (List.length (Schedule.job_index ~n:2 s).(0) = 1)

let test_schedule_zero_dur_dropped () =
  let s = Schedule.create 1 in
  Schedule.add_work s ~machine:0 ~job:0 ~start:Rat.zero ~dur:Rat.zero;
  check bool_c "dropped" true (Schedule.segments s 0 = [])

let test_schedule_sorted_segments () =
  let s = Schedule.create 1 in
  Schedule.add_work s ~machine:0 ~job:1 ~start:(Rat.of_int 5) ~dur:Rat.one;
  Schedule.add_work s ~machine:0 ~job:0 ~start:Rat.zero ~dur:Rat.one;
  match Schedule.segments s 0 with
  | [ a; b ] ->
    check rat_c "first" Rat.zero a.Schedule.start;
    check rat_c "second" (Rat.of_int 5) b.Schedule.start
  | _ -> Alcotest.fail "expected two segments"

(* [Schedule.segments] returns what a stable sort by start of the stored
   (latest-appended-first) list returns, whether the machine's segments
   were appended in start order (no sort needed), out of order, or with
   equal starts. The records come back physically, so identity compares
   them on either Rat tier. *)
let test_schedule_segments_stable_sort () =
  let r = Rat.of_int in
  let seg start j = { Schedule.start = r start; dur = Rat.one; content = Schedule.Work j } in
  let check_order name starts =
    let s = Schedule.create 1 in
    let appended = List.mapi (fun j start -> seg start j) starts in
    List.iter (Schedule.add s ~machine:0) appended;
    let by_start (a : Schedule.seg) (b : Schedule.seg) = Rat.compare a.Schedule.start b.Schedule.start in
    let expected = List.stable_sort by_start (List.rev appended) in
    check bool_c name true (List.equal ( == ) (Schedule.segments s 0) expected)
  in
  check_order "in order" [ 0; 1; 3; 7; 8 ];
  check_order "out of order" [ 5; 0; 9; 2; 7 ];
  check_order "in order, then one earlier" [ 0; 2; 4; 1 ];
  check_order "equal starts" [ 0; 3; 3; 6; 3 ];
  check_order "equal starts only" [ 2; 2; 2 ];
  (* a machine stays unsorted once an append broke the order, even if
     later appends are in order again *)
  check_order "broken then in order" [ 4; 1; 5; 6 ]

(* ---------------- Checker ---------------- *)

(* A feasible non-preemptive schedule for the fixture. *)
let feasible_schedule inst =
  let s = Schedule.create inst.Instance.m in
  let r = Rat.of_int in
  (* machine 0: setup0, job0, job2 *)
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 0) ~dur:(r 4);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 4) ~dur:(r 5);
  Schedule.add_work s ~machine:0 ~job:2 ~start:(r 9) ~dur:(r 3);
  (* machine 1: setup1, job1 *)
  Schedule.add_setup s ~machine:1 ~cls:1 ~start:(r 0) ~dur:(r 2);
  Schedule.add_work s ~machine:1 ~job:1 ~start:(r 2) ~dur:(r 7);
  (* machine 2: setup1, job3, job4 *)
  Schedule.add_setup s ~machine:2 ~cls:1 ~start:(r 0) ~dur:(r 2);
  Schedule.add_work s ~machine:2 ~job:3 ~start:(r 2) ~dur:(r 1);
  Schedule.add_work s ~machine:2 ~job:4 ~start:(r 3) ~dur:(r 1);
  s

let test_checker_accepts_feasible () =
  let inst = fixture () in
  let s = feasible_schedule inst in
  List.iter (fun v -> check bool_c (Variant.to_string v) true (Checker.is_feasible v inst s)) Variant.all

let violations variant inst s =
  match Checker.check variant inst s with
  | Ok () -> []
  | Error vs -> vs

let test_checker_overlap () =
  let inst = fixture () in
  let s = feasible_schedule inst in
  (* Add an overlapping rogue piece of job 0 on machine 0. *)
  Schedule.add_work s ~machine:0 ~job:0 ~start:(Rat.of_int 8) ~dur:Rat.one;
  let vs = violations Variant.Splittable inst s in
  check bool_c "overlap reported" true
    (List.exists (function Checker.Overlap _ -> true | _ -> false) vs);
  check bool_c "volume reported" true
    (List.exists (function Checker.Wrong_volume _ -> true | _ -> false) vs)

let test_checker_missing_setup () =
  let inst = fixture () in
  let s = Schedule.create inst.Instance.m in
  let r = Rat.of_int in
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 0) ~dur:(r 5);
  let vs = violations Variant.Splittable inst s in
  check bool_c "missing setup" true
    (List.exists (function Checker.Missing_setup { job = 0; _ } -> true | _ -> false) vs)

let test_checker_switch_needs_setup () =
  let inst = fixture () in
  let s = Schedule.create inst.Instance.m in
  let r = Rat.of_int in
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 0) ~dur:(r 4);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 4) ~dur:(r 5);
  (* class switch without setup: job 1 is class 1 *)
  Schedule.add_work s ~machine:0 ~job:1 ~start:(r 9) ~dur:(r 7);
  let vs = violations Variant.Splittable inst s in
  check bool_c "switch flagged" true
    (List.exists (function Checker.Missing_setup { job = 1; _ } -> true | _ -> false) vs)

let test_checker_same_class_idle_ok () =
  let inst = fixture () in
  let s = Schedule.create inst.Instance.m in
  let r = Rat.of_int in
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 0) ~dur:(r 4);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 4) ~dur:(r 5);
  (* idle gap, then more class-0 work without a new setup: allowed *)
  Schedule.add_work s ~machine:0 ~job:2 ~start:(r 20) ~dur:(r 3);
  Schedule.add_setup s ~machine:1 ~cls:1 ~start:(r 0) ~dur:(r 2);
  Schedule.add_work s ~machine:1 ~job:1 ~start:(r 2) ~dur:(r 7);
  Schedule.add_work s ~machine:1 ~job:3 ~start:(r 9) ~dur:(r 1);
  Schedule.add_work s ~machine:1 ~job:4 ~start:(r 10) ~dur:(r 1);
  check bool_c "feasible" true (Checker.is_feasible Variant.Nonpreemptive inst s)

let test_checker_setup_duration () =
  let inst = fixture () in
  let s = Schedule.create inst.Instance.m in
  let r = Rat.of_int in
  Schedule.add_setup s ~machine:0 ~cls:0 ~start:(r 0) ~dur:(r 3) (* should be 4 *);
  Schedule.add_work s ~machine:0 ~job:0 ~start:(r 3) ~dur:(r 5);
  let vs = violations Variant.Splittable inst s in
  check bool_c "bad setup duration" true
    (List.exists (function Checker.Bad_setup_duration { cls = 0; _ } -> true | _ -> false) vs)

let test_checker_self_parallel () =
  let inst = fixture () in
  let s = Schedule.create inst.Instance.m in
  let r = Rat.of_int in
  (* job 1 (t=7) split across two machines in overlapping time *)
  Schedule.add_setup s ~machine:0 ~cls:1 ~start:(r 0) ~dur:(r 2);
  Schedule.add_work s ~machine:0 ~job:1 ~start:(r 2) ~dur:(r 4);
  Schedule.add_setup s ~machine:1 ~cls:1 ~start:(r 0) ~dur:(r 2);
  Schedule.add_work s ~machine:1 ~job:1 ~start:(r 2) ~dur:(r 3);
  (* other jobs placed feasibly far away on machine 2 *)
  Schedule.add_setup s ~machine:2 ~cls:0 ~start:(r 0) ~dur:(r 4);
  Schedule.add_work s ~machine:2 ~job:0 ~start:(r 4) ~dur:(r 5);
  Schedule.add_work s ~machine:2 ~job:2 ~start:(r 9) ~dur:(r 3);
  Schedule.add_setup s ~machine:2 ~cls:1 ~start:(r 12) ~dur:(r 2);
  Schedule.add_work s ~machine:2 ~job:3 ~start:(r 14) ~dur:(r 1);
  Schedule.add_work s ~machine:2 ~job:4 ~start:(r 15) ~dur:(r 1);
  let vs_pmtn = violations Variant.Preemptive inst s in
  check bool_c "self-parallel flagged for pmtn" true
    (List.exists (function Checker.Self_parallel { job = 1; _ } -> true | _ -> false) vs_pmtn);
  check bool_c "fine for splittable" true (Checker.is_feasible Variant.Splittable inst s)

let test_checker_preemption_rules () =
  let inst = fixture () in
  let s = Schedule.create inst.Instance.m in
  let r = Rat.of_int in
  (* job 1 preempted on one machine with a gap: ok for pmtn, not for nonp *)
  Schedule.add_setup s ~machine:0 ~cls:1 ~start:(r 0) ~dur:(r 2);
  Schedule.add_work s ~machine:0 ~job:1 ~start:(r 2) ~dur:(r 3);
  Schedule.add_work s ~machine:0 ~job:1 ~start:(r 6) ~dur:(r 4);
  Schedule.add_work s ~machine:0 ~job:3 ~start:(r 10) ~dur:(r 1);
  Schedule.add_work s ~machine:0 ~job:4 ~start:(r 11) ~dur:(r 1);
  Schedule.add_setup s ~machine:1 ~cls:0 ~start:(r 0) ~dur:(r 4);
  Schedule.add_work s ~machine:1 ~job:0 ~start:(r 4) ~dur:(r 5);
  Schedule.add_work s ~machine:1 ~job:2 ~start:(r 9) ~dur:(r 3);
  check bool_c "pmtn ok" true (Checker.is_feasible Variant.Preemptive inst s);
  let vs = violations Variant.Nonpreemptive inst s in
  check bool_c "nonp flags" true
    (List.exists (function Checker.Not_contiguous { job = 1; _ } -> true | _ -> false) vs)

let test_checker_makespan_bound () =
  let inst = fixture () in
  let s = feasible_schedule inst in
  check bool_c "within 12" true
    (Checker.is_feasible ~makespan_bound:(Rat.of_int 12) Variant.Nonpreemptive inst s);
  let vs =
    match Checker.check ~makespan_bound:(Rat.of_int 11) Variant.Nonpreemptive inst s with
    | Ok () -> []
    | Error vs -> vs
  in
  check bool_c "exceeds 11" true
    (List.exists (function Checker.Makespan_exceeded _ -> true | _ -> false) vs)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* every violation message locates itself: machine index + exact time *)
let test_checker_message_coordinates () =
  let inst = fixture () in
  let s = Schedule.create inst.Instance.m in
  (* setup-less work at a non-integral time on machine 1 *)
  Schedule.add_work s ~machine:1 ~job:0 ~start:(Rat.of_ints 7 2) ~dur:(Rat.of_int 5);
  let vs = violations Variant.Splittable inst s in
  let msg = String.concat "; " (List.map Checker.violation_to_string vs) in
  check bool_c "missing-setup names machine" true (contains msg "machine 1");
  check bool_c "missing-setup names time" true (contains msg "t=7/2");
  (* non-contiguous job: message points at the piece breaking contiguity *)
  let s = Schedule.create inst.Instance.m in
  let r = Rat.of_int in
  Schedule.add_setup s ~machine:0 ~cls:1 ~start:(r 0) ~dur:(r 2);
  Schedule.add_work s ~machine:0 ~job:1 ~start:(r 2) ~dur:(r 3);
  Schedule.add_setup s ~machine:2 ~cls:1 ~start:(r 0) ~dur:(r 2);
  Schedule.add_work s ~machine:2 ~job:1 ~start:(r 9) ~dur:(r 4);
  let vs = violations Variant.Nonpreemptive inst s in
  let nc =
    List.find_map
      (function Checker.Not_contiguous _ as v -> Some (Checker.violation_to_string v) | _ -> None)
      vs
  in
  match nc with
  | None -> Alcotest.fail "expected Not_contiguous"
  | Some msg ->
    check bool_c "not-contiguous names machine" true (contains msg "machine 2");
    check bool_c "not-contiguous names time" true (contains msg "t=9")

(* ---------------- Partition ---------------- *)

(* Partition fixture: setups 10, 6, 2, 1; loads arranged. T = 16. *)
let partition_fixture () =
  Instance.make ~m:4
    ~setups:[| 10; 9; 4; 1 |]
    ~jobs:
      [|
        (0, 10); (0, 2) (* P(C0)=12, s0=10: expensive, s+P=22 >= T: I+exp *);
        (1, 3) (* P(C1)=3, s1=9: expensive, s+P=12 in (3T/4=12, T)? 12 is not > 12: I-exp *);
        (2, 6); (2, 2) (* s2=4: cheap, T/4=4 <= 4 <= 8: I+chp *);
        (3, 8); (3, 1) (* s3=1 < 4: I-chp; big jobs: 1+8=9 > 8: yes job5 *);
      |]

let test_partition_sets () =
  let inst = partition_fixture () in
  let tee = Rat.of_int 16 in
  let p = Partition.make inst tee in
  check bool_c "exp" true (p.Partition.exp = [ 0; 1 ]);
  check bool_c "chp" true (p.Partition.chp = [ 2; 3 ]);
  check bool_c "exp_plus" true (p.Partition.exp_plus = [ 0 ]);
  check bool_c "exp_zero" true (p.Partition.exp_zero = []);
  check bool_c "exp_minus" true (p.Partition.exp_minus = [ 1 ]);
  check bool_c "chp_plus" true (p.Partition.chp_plus = [ 2 ]);
  check bool_c "chp_minus" true (p.Partition.chp_minus = [ 3 ]);
  check bool_c "chp_star" true (p.Partition.chp_star = [ 3 ]);
  check bool_c "big jobs of 3" true (p.Partition.big_jobs.(3) = [| 5 |])

let test_partition_zero_case () =
  (* s + P strictly between 3T/4 and T -> I0exp *)
  let inst = Instance.make ~m:2 ~setups:[| 9 |] ~jobs:[| (0, 4) |] in
  let p = Partition.make inst (Rat.of_int 16) in
  check bool_c "exp_zero" true (p.Partition.exp_zero = [ 0 ])

let test_partition_machine_numbers () =
  let inst = partition_fixture () in
  let tee = Rat.of_int 16 in
  (* class 0: P=12, T-s=6: alpha=2, alpha'=2; beta=ceil(24/16)=2, beta'=1 *)
  check int_c "alpha0" 2 (Partition.alpha inst tee 0);
  check int_c "alpha'0" 2 (Partition.alpha' inst tee 0);
  check int_c "beta0" 2 (Partition.beta inst tee 0);
  check int_c "beta'0" 1 (Partition.beta' inst tee 0);
  (* gamma for class 0: P - beta' T/2 = 12-8 = 4 <= T - s = 6 -> max(beta',1)=1 *)
  check int_c "gamma0" 1 (Partition.gamma inst tee 0);
  (* class 3: alpha = ceil(9/15) = 1 *)
  check int_c "alpha3" 1 (Partition.alpha inst tee 3);
  check int_c "alpha'3" 0 (Partition.alpha' inst tee 3)

let test_partition_jplus_kset () =
  let inst = partition_fixture () in
  let tee = Rat.of_int 16 in
  (* J+ = { t_j > 8 } = { job0? t=10 yes } *)
  check bool_c "J+" true (Partition.j_plus inst tee = [| 0 |]);
  (* K: cheap classes, t_j <= 8 and s_i + t_j > 8:
     class2 (s=4): jobs 6 (4+6=10>8 yes), 2 (4+2=6 no); class3 (s=1): 8 (9>8 yes), 1 no *)
  check bool_c "K" true (Partition.k_set inst tee = [| 3; 5 |])

let test_partition_m_i () =
  let inst = partition_fixture () in
  let tee = Rat.of_int 16 in
  (* class 0 expensive: m_0 = alpha = 2 *)
  check int_c "m_0" 2 (Partition.m_i inst tee 0);
  (* class 2 cheap: |C2 ∩ J+| = 0, K load = 6, T-s = 12 -> ceil(6/12)=1 *)
  check int_c "m_2" 1 (Partition.m_i inst tee 2);
  (* class 3 cheap: no J+, K load 8, T-s=15 -> 1 *)
  check int_c "m_3" 1 (Partition.m_i inst tee 3);
  List.iter
    (fun i -> check int_c "m_i_int = m_i" (Partition.m_i inst tee i) (Partition.m_i_int inst 16 1 i))
    [ 0; 2; 3 ]

let test_partition_expensive_threshold () =
  let inst = Instance.make ~m:1 ~setups:[| 5 |] ~jobs:[| (0, 1) |] in
  (* s=5: expensive iff s > T/2, i.e. T < 10 *)
  check bool_c "T=9 expensive" true (Partition.is_expensive inst (Rat.of_int 9) 0);
  check bool_c "T=10 cheap" false (Partition.is_expensive inst (Rat.of_int 10) 0);
  check bool_c "T=19/2 expensive" true (Partition.is_expensive inst (Rat.of_ints 19 2) 0)

(* ---------------- Lower bounds ---------------- *)

let test_lower_bounds () =
  let inst = fixture () in
  (* N = 23, m = 3 -> 23/3; setup+tmax: max(4+5, 2+7) = 9 *)
  check rat_c "volume" (Rat.of_ints 23 3) (Lower_bounds.volume_bound inst);
  check int_c "setup+tmax" 9 (Lower_bounds.setup_plus_tmax inst);
  check rat_c "tmin pmtn" (Rat.of_int 9) (Lower_bounds.t_min Variant.Preemptive inst);
  check rat_c "tmin nonp" (Rat.of_int 9) (Lower_bounds.t_min Variant.Nonpreemptive inst);
  check rat_c "tmin split" (Rat.of_ints 23 3) (Lower_bounds.t_min Variant.Splittable inst)

(* ---------------- Render / metrics ---------------- *)

let test_render_nonempty () =
  let inst = fixture () in
  let s = feasible_schedule inst in
  let g = Render.gantt ~width:40 ~guides:[ ("T", Rat.of_int 12) ] inst s in
  check bool_c "has rows" true (List.length (String.split_on_char '\n' g) >= 4)

let test_svg_render () =
  let inst = fixture () in
  let s = feasible_schedule inst in
  let doc = Render.svg ~guides:[ ("T", Rat.of_int 12) ] inst s in
  check bool_c "starts svg" true (String.length doc > 10 && String.sub doc 0 4 = "<svg");
  check bool_c "ends svg" true
    (let t = String.trim doc in
     String.sub t (String.length t - 6) 6 = "</svg>");
  (* 8 segments -> at least 8 rects; 3 setups hatched -> 3 more *)
  let count sub =
    let rec go i acc =
      match String.index_from_opt doc i sub.[0] with
      | None -> acc
      | Some j ->
        if j + String.length sub <= String.length doc && String.sub doc j (String.length sub) = sub then
          go (j + 1) (acc + 1)
        else go (j + 1) acc
    in
    go 0 0
  in
  check bool_c "rect count" true (count "<rect" >= 11);
  check bool_c "guide line" true (count "stroke-dasharray" = 1);
  (* deterministic *)
  check bool_c "deterministic" true (String.equal doc (Render.svg ~guides:[ ("T", Rat.of_int 12) ] inst s))

let test_csv_render () =
  let inst = fixture () in
  let s = feasible_schedule inst in
  let csv = Render.csv inst s in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  check int_c "header + 8 segments" 9 (List.length lines);
  check bool_c "header" true (List.hd lines = "machine,start,duration,kind,id,class");
  check bool_c "has setup row" true (List.exists (fun l -> l = "0,0,4,setup,0,0") lines);
  check bool_c "has work row" true (List.exists (fun l -> l = "0,4,5,work,0,0") lines)

let test_metrics () =
  let inst = fixture () in
  let s = feasible_schedule inst in
  let m = Metrics.compute inst s in
  check rat_c "makespan" (Rat.of_int 12) m.Metrics.makespan;
  check int_c "setups" 3 m.Metrics.setup_count;
  check rat_c "setup time" (Rat.of_int 8) m.Metrics.total_setup_time;
  check int_c "preemptions" 0 m.Metrics.preemption_count;
  check int_c "machines used" 3 m.Metrics.machines_used;
  check bool_c "ratio vs lb >= 1" true (Metrics.ratio_vs (Lower_bounds.lower_bound Variant.Nonpreemptive inst) m >= 1.0)

(* ---------------- Property tests ---------------- *)

(* Random instances generator for property tests. *)
let gen_instance =
  QCheck2.Gen.(
    let* c = int_range 1 5 in
    let* m = int_range 1 6 in
    let* setups = array_size (return c) (int_range 1 20) in
    let* extra = list_size (int_range 0 15) (pair (int_range 0 (c - 1)) (int_range 1 25)) in
    (* ensure every class non-empty *)
    let* base = array_size (return c) (int_range 1 25) in
    let jobs = Array.to_list (Array.mapi (fun i t -> (i, t)) base) @ extra in
    return (Instance.make ~m ~setups ~jobs:(Array.of_list jobs)))

let prop_lower_bound_sane =
  QCheck2.Test.make ~name:"Tmin <= N and Tmin >= smax-ish" ~count:200 gen_instance (fun inst ->
      List.for_all
        (fun v ->
          let tmin = Lower_bounds.t_min v inst in
          Rat.( <= ) tmin (Rat.of_int inst.Instance.total)
          && Rat.( >= ) tmin (Rat.of_ints inst.Instance.total inst.Instance.m))
        Variant.all)

let prop_partition_is_partition =
  QCheck2.Test.make ~name:"partition covers classes exactly once" ~count:200
    QCheck2.Gen.(pair gen_instance (int_range 5 60))
    (fun (inst, t) ->
      let tee = Rat.of_int t in
      let p = Partition.make inst tee in
      let all = List.sort compare (p.Partition.exp @ p.Partition.chp) in
      let refined =
        List.sort compare
          (p.Partition.exp_plus @ p.Partition.exp_zero @ p.Partition.exp_minus @ p.Partition.chp_plus
         @ p.Partition.chp_minus)
      in
      all = List.init (Instance.c inst) (fun i -> i) && refined = all)

let prop_alpha_beta_relations =
  QCheck2.Test.make ~name:"Lemma 1: alpha >= beta for expensive, alpha >= alpha'" ~count:200
    QCheck2.Gen.(pair gen_instance (int_range 2 60))
    (fun (inst, t) ->
      let tee = Rat.of_int t in
      List.for_all
        (fun i ->
          if inst.Instance.setups.(i) >= t then true
          else begin
            let a = Partition.alpha inst tee i and a' = Partition.alpha' inst tee i in
            let b = Partition.beta inst tee i and b' = Partition.beta' inst tee i in
            a >= a' && b >= b' && a >= 1 && b >= 1
            && ((not (Partition.is_expensive inst tee i)) || a >= b)
            && Partition.gamma inst tee i <= b
          end)
        (List.init (Instance.c inst) (fun i -> i)))

let prop_m_i_int =
  QCheck2.Test.make ~name:"m_i_int = m_i at every integral T above s_i" ~count:200
    QCheck2.Gen.(pair gen_instance (int_range 1 120))
    (fun (inst, t) ->
      List.for_all
        (fun i ->
          inst.Instance.setups.(i) >= t
          || Partition.m_i_int inst t 1 i = Partition.m_i inst (Rat.of_int t) i)
        (List.init (Instance.c inst) (fun i -> i)))

(* fractional guesses, in and out of lowest terms: the thresholds
   [2 t_j q > p] and [2 (s_i + t_j) q > p] and both ceilings meet their
   ties at multiples of 1/2 and 1/q *)
let prop_m_i_int_fraction =
  QCheck2.Test.make ~name:"m_i_int = m_i at every guess p/q above s_i" ~count:200
    QCheck2.Gen.(triple gen_instance (int_range 1 480) (int_range 1 12))
    (fun (inst, p, q) ->
      let tee = Rat.of_ints p q in
      List.for_all
        (fun i ->
          Rat.compare_int tee inst.Instance.setups.(i) <= 0
          || (not (Partition.native_guess inst p q))
          || Partition.m_i_int inst p q i = Partition.m_i inst tee i)
        (List.init (Instance.c inst) (fun i -> i)))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bss_instances"
    [
      ( "instance",
        [
          Alcotest.test_case "derived" `Quick test_instance_derived;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "serialize roundtrip" `Quick test_instance_serialize_roundtrip;
          Alcotest.test_case "parse comments" `Quick test_instance_of_string_comments;
          Alcotest.test_case "overflow guard" `Quick test_instance_overflow_guard;
          Alcotest.test_case "of_string hardening" `Quick test_of_string_hardening;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "accumulators" `Quick test_schedule_accumulators;
          Alcotest.test_case "zero dur dropped" `Quick test_schedule_zero_dur_dropped;
          Alcotest.test_case "sorted segments" `Quick test_schedule_sorted_segments;
          Alcotest.test_case "segments: a stable sort" `Quick test_schedule_segments_stable_sort;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts feasible" `Quick test_checker_accepts_feasible;
          Alcotest.test_case "overlap" `Quick test_checker_overlap;
          Alcotest.test_case "missing setup" `Quick test_checker_missing_setup;
          Alcotest.test_case "switch needs setup" `Quick test_checker_switch_needs_setup;
          Alcotest.test_case "same class after idle ok" `Quick test_checker_same_class_idle_ok;
          Alcotest.test_case "setup duration" `Quick test_checker_setup_duration;
          Alcotest.test_case "self parallel" `Quick test_checker_self_parallel;
          Alcotest.test_case "preemption rules" `Quick test_checker_preemption_rules;
          Alcotest.test_case "makespan bound" `Quick test_checker_makespan_bound;
          Alcotest.test_case "message coordinates" `Quick test_checker_message_coordinates;
        ] );
      ( "partition",
        [
          Alcotest.test_case "sets" `Quick test_partition_sets;
          Alcotest.test_case "zero case" `Quick test_partition_zero_case;
          Alcotest.test_case "machine numbers" `Quick test_partition_machine_numbers;
          Alcotest.test_case "J+/K" `Quick test_partition_jplus_kset;
          Alcotest.test_case "m_i" `Quick test_partition_m_i;
          Alcotest.test_case "expensive threshold" `Quick test_partition_expensive_threshold;
        ] );
      ("lower-bounds", [ Alcotest.test_case "fixture" `Quick test_lower_bounds ]);
      ( "render-metrics",
        [
          Alcotest.test_case "render" `Quick test_render_nonempty;
          Alcotest.test_case "svg" `Quick test_svg_render;
          Alcotest.test_case "csv" `Quick test_csv_render;
          Alcotest.test_case "metrics" `Quick test_metrics;
        ] );
      qsuite "props"
        [ prop_lower_bound_sane; prop_partition_is_partition; prop_alpha_beta_relations; prop_m_i_int; prop_m_i_int_fraction ];
    ]
