(* Tests for Batch Wrapping: templates, sequences, and the Wrap/Split
   placement algorithm of Appendix A.1. *)

open Bss_util
open Bss_instances
open Bss_wrap

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let rat_c = Alcotest.testable Rat.pp Rat.equal

let r = Rat.of_int

(* Setup segments of class [cls], over all machines. *)
let setup_count sched cls =
  List.length
    (List.filter
       (fun (_, (g : Schedule.seg)) -> g.content = Schedule.Setup cls)
       (Schedule.all_segments sched))

(* ---------------- Template ---------------- *)

let test_template_validation () =
  let expect_invalid gaps = try ignore (Template.make gaps); false with Invalid_argument _ -> true in
  check bool_c "machines must increase" true
    (expect_invalid
       [ { Template.machine = 1; lo = r 0; hi = r 5 }; { Template.machine = 1; lo = r 0; hi = r 5 } ]);
  check bool_c "lo < hi" true (expect_invalid [ { Template.machine = 0; lo = r 5; hi = r 5 } ]);
  check bool_c "lo >= 0" true (expect_invalid [ { Template.machine = 0; lo = Rat.of_int (-1); hi = r 5 } ])

let test_template_span () =
  let t =
    Template.make
      [ { Template.machine = 0; lo = r 0; hi = r 5 }; { Template.machine = 2; lo = r 3; hi = r 7 } ]
  in
  check rat_c "span" (r 9) (Template.span t);
  check int_c "length" 2 (Template.length t)

let test_template_uniform_run () =
  let gaps = Template.uniform_run ~first_machine:3 ~count:4 ~lo:(r 1) ~hi:(r 2) in
  check int_c "count" 4 (List.length gaps);
  let t = Template.concat [ gaps ] in
  check rat_c "span" (r 4) (Template.span t)

(* ---------------- Sequence ---------------- *)

let fixture () =
  Instance.make ~m:4 ~setups:[| 4; 2 |] ~jobs:[| (0, 5); (1, 7); (0, 3); (1, 1); (1, 1) |]

let test_sequence_of_classes () =
  let inst = fixture () in
  let q = Sequence.of_classes inst [ 0; 1 ] in
  check int_c "|Q| = c + n" 7 (Sequence.length q);
  check rat_c "L(Q) = N" (r inst.Instance.total) (Sequence.load inst q);
  check int_c "max setup" 4 (Sequence.max_setup inst q);
  (* starts with setup of class 0 *)
  match q with
  | Sequence.Setup 0 :: _ -> ()
  | _ -> Alcotest.fail "expected leading setup"

let test_sequence_of_batches () =
  let inst = fixture () in
  let q = Sequence.of_batches inst [ (1, [ (1, r 3) ]); (0, []) ] in
  (* empty batch emits nothing, non-empty emits setup + pieces *)
  check int_c "length" 2 (Sequence.length q);
  check rat_c "load" (r 5) (Sequence.load inst q)

(* ---------------- Wrap ---------------- *)

(* Wrap all jobs into one big gap: everything lands sequentially. *)
let test_wrap_single_gap () =
  let inst = fixture () in
  let q = Sequence.of_classes inst [ 0; 1 ] in
  let omega = Template.make [ { Template.machine = 0; lo = r 0; hi = r inst.Instance.total } ] in
  let sched = Schedule.create inst.Instance.m in
  let gap_idx, t_end = Wrap.wrap inst sched q omega in
  check int_c "last gap" 0 gap_idx;
  check rat_c "fill front" (r inst.Instance.total) t_end;
  Checker.check_exn Variant.Nonpreemptive inst sched;
  check rat_c "makespan" (r inst.Instance.total) (Schedule.makespan sched)

(* A job crossing a border is split and gets a fresh setup below the next
   gap (McNaughton-style). *)
let test_wrap_splits_at_border () =
  let inst = Instance.make ~m:2 ~setups:[| 2 |] ~jobs:[| (0, 10) |] in
  (* gaps [2,8) on m0 and [2,10) on m1; setup fits below second gap *)
  let omega =
    Template.make
      [ { Template.machine = 0; lo = r 2; hi = r 8 }; { Template.machine = 1; lo = r 2; hi = r 10 } ]
  in
  let sched = Schedule.create 2 in
  let q = Sequence.of_classes inst [ 0 ] in
  let _ = Wrap.wrap inst sched q omega in
  Checker.check_exn Variant.Splittable inst sched;
  (* job volume split: 4 on m0 (2..8 minus setup 2..4 -> work 4..8), 6 on m1 *)
  check int_c "two pieces" 2 (List.length (Schedule.job_index ~n:(Instance.n inst) sched).(0));
  check int_c "two setups" 2 (setup_count sched 0);
  (* the second setup sits directly below the second gap *)
  match Schedule.segments sched 1 with
  | { Schedule.start; dur; content = Schedule.Setup 0 } :: _ ->
    check rat_c "setup start" (r 0) start;
    check rat_c "setup dur" (r 2) dur
  | _ -> Alcotest.fail "expected setup at bottom of machine 1"

(* A long job spanning three gaps splits twice; pieces never overlap in
   time when gaps are stacked like the algorithms build them. *)
let test_wrap_multi_gap_split () =
  let inst = Instance.make ~m:3 ~setups:[| 1 |] ~jobs:[| (0, 12) |] in
  let omega =
    Template.make
      [
        { Template.machine = 0; lo = r 1; hi = r 6 };
        { Template.machine = 1; lo = r 6; hi = r 11 };
        { Template.machine = 2; lo = r 11; hi = r 16 };
      ]
  in
  let sched = Schedule.create 3 in
  let _ = Wrap.wrap inst sched (Sequence.of_classes inst [ 0 ]) omega in
  (* pmtn-feasible: pieces are [1,6),[6,11),[11,13) — no self-overlap *)
  Checker.check_exn Variant.Preemptive inst sched;
  check int_c "three pieces" 3 (List.length (Schedule.job_index ~n:(Instance.n inst) sched).(0))

(* A setup crossing the border moves below the next gap; the current gap's
   tail is abandoned. *)
let test_wrap_setup_crosses () =
  let inst = Instance.make ~m:2 ~setups:[| 1; 3 |] ~jobs:[| (0, 2); (1, 4) |] in
  let omega =
    Template.make
      [ { Template.machine = 0; lo = r 0; hi = r 4 }; { Template.machine = 1; lo = r 3; hi = r 8 } ]
  in
  let sched = Schedule.create 2 in
  (* class 0: setup(1)+job(2) = [0,3); then setup of class 1 (3) would end
     at 6 > 4 -> moved below gap 2 at [0,3) on m1; job 1 runs [3,7). *)
  let _ = Wrap.wrap inst sched (Sequence.of_classes inst [ 0; 1 ]) omega in
  Checker.check_exn Variant.Nonpreemptive inst sched;
  check int_c "one setup each" 1 (setup_count sched 1);
  match Schedule.segments sched 1 with
  | [ { Schedule.content = Schedule.Setup 1; start; _ }; { Schedule.content = Schedule.Work 1; start = wstart; _ } ] ->
    check rat_c "setup at 0" (r 0) start;
    check rat_c "work at 3" (r 3) wstart
  | _ -> Alcotest.fail "unexpected machine 1 layout"

let test_wrap_template_exhausted () =
  let inst = Instance.make ~m:1 ~setups:[| 1 |] ~jobs:[| (0, 100) |] in
  let omega = Template.make [ { Template.machine = 0; lo = r 0; hi = r 10 } ] in
  let sched = Schedule.create 1 in
  check bool_c "raises" true
    (try
       let _ = Wrap.wrap inst sched (Sequence.of_classes inst [ 0 ]) omega in
       false
     with Wrap.Template_exhausted -> true)

let test_wrap_empty_sequence () =
  let inst = fixture () in
  let sched = Schedule.create 1 in
  let omega = Template.make [ { Template.machine = 0; lo = r 0; hi = r 1 } ] in
  let gap_idx, t_end = Wrap.wrap inst sched [] omega in
  check int_c "gap 0" 0 gap_idx;
  check rat_c "at lo" (r 0) t_end

(* Property: wrapping random classes into a sufficient single-machine-run
   template always yields a splittable-feasible schedule whose total load
   matches, and every piece lies inside some gap. *)
let gen_case =
  QCheck2.Gen.(
    let* c = int_range 1 4 in
    let* setups = array_size (return c) (int_range 1 8) in
    let* base = array_size (return c) (int_range 1 12) in
    let* extra = list_size (int_range 0 8) (pair (int_range 0 (c - 1)) (int_range 1 12)) in
    let jobs = Array.to_list (Array.mapi (fun i t -> (i, t)) base) @ extra in
    let* gap_height = int_range 4 12 in
    return (setups, Array.of_list jobs, gap_height))

let prop_wrap_feasible =
  QCheck2.Test.make ~name:"wrap into tall-enough uniform gaps is feasible" ~count:300 gen_case
    (fun (setups, jobs, gap_height) ->
      let smax = Array.fold_left max 1 setups in
      let inst = Instance.make ~m:64 ~setups ~jobs in
      let q = Sequence.of_classes inst (List.init (Array.length setups) (fun i -> i)) in
      let load = Sequence.load inst q in
      (* enough gaps of height gap_height starting at smax *)
      let count = 1 + Rat.ceil_int (Rat.div load (r gap_height)) in
      let count = min count 64 in
      let gaps =
        Template.uniform_run ~first_machine:0 ~count ~lo:(r smax) ~hi:(r (smax + gap_height))
      in
      let omega = Template.concat [ gaps ] in
      if Rat.( < ) (Template.span omega) load then QCheck2.assume_fail ()
      else begin
        let sched = Schedule.create 64 in
        let _ = Wrap.wrap inst sched q omega in
        (* The checker verifies volumes, setup rules, and non-overlap; the
           extra setups Wrap places below gaps only ever add load. *)
        Checker.is_feasible Variant.Splittable inst sched
        && Rat.( >= ) (Schedule.total_load sched) load
      end)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bss_wrap"
    [
      ( "template",
        [
          Alcotest.test_case "validation" `Quick test_template_validation;
          Alcotest.test_case "span" `Quick test_template_span;
          Alcotest.test_case "uniform run" `Quick test_template_uniform_run;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "of_classes" `Quick test_sequence_of_classes;
          Alcotest.test_case "of_batches" `Quick test_sequence_of_batches;
        ] );
      ( "wrap",
        [
          Alcotest.test_case "single gap" `Quick test_wrap_single_gap;
          Alcotest.test_case "split at border" `Quick test_wrap_splits_at_border;
          Alcotest.test_case "multi-gap split" `Quick test_wrap_multi_gap_split;
          Alcotest.test_case "setup crosses" `Quick test_wrap_setup_crosses;
          Alcotest.test_case "template exhausted" `Quick test_wrap_template_exhausted;
          Alcotest.test_case "empty sequence" `Quick test_wrap_empty_sequence;
        ] );
      qsuite "wrap-props" [ prop_wrap_feasible ];
    ]
