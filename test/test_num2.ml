(* Differential and boundary tests for the two-tier rational layer (Rat)
   and the flat CSR instance layout.

   The contract under test: the native fast tier changes representation,
   never values. Overflow-adjacent operations must promote to the Bigint
   tier (not wrap), forced-exact solves must be bit-identical to two-tier
   solves across every workload family, and the comparison fast paths must
   allocate nothing. *)

open Bss_util
open Bss_instances
open Bss_core
open Bss_workloads
open Bss_oracle
module B = Bigint
module Rerror = Bss_resilience.Error

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let int_opt_c = Alcotest.(option int)
let rat_c = Alcotest.testable Rat.pp Rat.equal

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x2b17 |])) tests)

(* ---------------- Intmath overflow predicates ---------------- *)

(* The option view of a [_fits] predicate: [Some (op a b)] when exact. *)
let checked fits op a b = if fits a b then Some (op a b) else None
let add_checked = checked Intmath.add_fits ( + )
let sub_checked = checked Intmath.sub_fits ( - )
let mul_checked = checked Intmath.mul_fits ( * )

let test_checked_boundaries () =
  check int_opt_c "add at max" (Some max_int) (add_checked (max_int - 1) 1);
  check int_opt_c "add over max" None (add_checked max_int 1);
  check int_opt_c "add at min" (Some min_int) (add_checked (min_int + 1) (-1));
  check int_opt_c "add under min" None (add_checked min_int (-1));
  check int_opt_c "sub under min" None (sub_checked min_int 1);
  check int_opt_c "sub to max" (Some max_int) (sub_checked (-1) min_int);
  check int_opt_c "sub over max" None (sub_checked 0 min_int);
  let q = max_int / 8 in
  check int_opt_c "mul at cap multiple" (Some (q * 8)) (mul_checked q 8);
  check int_opt_c "mul past cap multiple" None (mul_checked (q + 1) 8);
  check int_opt_c "mul min by one" (Some min_int) (mul_checked min_int 1);
  check int_opt_c "mul min by minus one" None (mul_checked min_int (-1));
  check int_opt_c "mul minus one by min" None (mul_checked (-1) min_int);
  check int_opt_c "mul exact min" (Some min_int) (mul_checked (min_int / 2) 2)

(* Reference semantics: an op fits iff the Bigint result converts back. *)
let prop_checked_vs_bigint =
  QCheck.Test.make ~name:"checked ops agree with the Bigint reference" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      let via_big f = B.to_int_opt (f (B.of_int a) (B.of_int b)) in
      add_checked a b = via_big B.add
      && sub_checked a b = via_big B.sub
      && mul_checked a b = via_big B.mul)

(* ---------------- Rat promotion at max_int/8-adjacent magnitudes ------- *)

(* Tier-shape assertions describe the *fast* tier, so pin the switch off
   for their duration — the suite must also pass under BSS_FORCE_EXACT=1
   (CI runs it both ways). *)
let test_promotion_boundary () =
  Rat.with_force_exact false @@ fun () ->
  let q = max_int / 8 in
  (* a product beyond max_int promotes and matches the Bigint value *)
  let x = Rat.mul_int (Rat.of_int q) 16 in
  check bool_c "product promoted" true (Rat.tier x = `Big);
  check Alcotest.string "product exact" (B.to_string (B.mul_int (B.of_int q) 16)) (Rat.to_string x);
  (* a sum crossing max_int promotes and matches the Bigint value *)
  let y = Rat.add (Rat.of_int (q * 7)) (Rat.of_int (q * 7)) in
  check bool_c "sum promoted" true (Rat.tier y = `Big);
  check Alcotest.string "sum exact" (B.to_string (B.mul_int (B.of_int (q * 7)) 2)) (Rat.to_string y);
  (* promoted intermediates demote back once the value fits again *)
  let z = Rat.div_int x 16 in
  check bool_c "quotient demoted" true (Rat.tier z = `Small);
  check rat_c "roundtrip through the big tier" (Rat.of_int q) z;
  (* min_int never lives on the fast tier (its negation cannot) *)
  check bool_c "min_int on big tier" true (Rat.tier (Rat.of_int min_int) = `Big);
  check bool_c "min_int+1 on fast tier" true (Rat.tier (Rat.of_int (min_int + 1)) = `Small);
  check Alcotest.string "neg min_int exact" (B.to_string (B.neg (B.of_int min_int)))
    (Rat.to_string (Rat.neg (Rat.of_int min_int)));
  (* comparisons against scaled integers survive guard overflow *)
  check int_c "compare_int overflowing positive k" (-1)
    (Rat.compare_int (Rat.of_ints 1 3) max_int);
  check int_c "compare_int overflowing negative k" 1
    (Rat.compare_int (Rat.of_ints 1 3) (min_int / 2));
  check int_c "compare_scaled via big fallback" 0
    (Rat.compare_scaled (Rat.of_ints max_int 3) 3 max_int)

(* Random near-cap arithmetic: two-tier results equal forced-exact results
   operation by operation. *)
let prop_ops_match_forced_exact =
  QCheck.Test.make ~name:"two-tier ops = forced-exact ops near the cap" ~count:300
    QCheck.(quad int int int int)
    (fun (a, b, c, d) ->
      Rat.with_force_exact false @@ fun () ->
      let nz v = if v = 0 then 1 else v in
      let x = Rat.of_ints a (nz b) and y = Rat.of_ints c (nz d) in
      let both op =
        let fast = op () in
        let exact = Rat.with_force_exact true op in
        Rat.equal fast exact && Rat.compare fast exact = 0
      in
      both (fun () -> Rat.add x y)
      && both (fun () -> Rat.sub x y)
      && both (fun () -> Rat.mul x y)
      && (Rat.is_zero y || both (fun () -> Rat.div x y))
      && both (fun () -> Rat.add_int x d)
      && both (fun () -> Rat.mul_int x c)
      && Rat.compare x y = Rat.with_force_exact true (fun () -> Rat.compare x y))

let test_force_exact_switch () =
  Rat.with_force_exact false @@ fun () ->
  let a = Rat.of_ints 3 4 in
  let b = Rat.with_force_exact true (fun () -> Rat.of_ints 3 4) in
  check bool_c "fast tier by default" true (Rat.tier a = `Small);
  check bool_c "forced to big tier" true (Rat.tier b = `Big);
  check bool_c "switch restored" false (Rat.force_exact_enabled ());
  check rat_c "equal across tiers" a b;
  check int_c "compare across tiers" 0 (Rat.compare a b);
  check bool_c "mixed-tier ordering" true (Rat.( < ) b (Rat.of_int 1))

(* ---------------- Instance.make cap interaction ---------------- *)

let test_instance_cap () =
  let cap = max_int / 16 in
  let inst = Instance.make ~m:2 ~setups:[| 1 |] ~jobs:[| (0, cap - 1) |] in
  check int_c "N at the cap" cap inst.Instance.total;
  (* the preemptive search's greatest breakpoints, in thirds, still fit
     a native int: 6N, and 12·s_max of a setup that takes all of N but
     one *)
  check bool_c "6N fits" true (Intmath.mul_fits 6 inst.Instance.total);
  let setup_heavy = Instance.make ~m:2 ~setups:[| cap - 1 |] ~jobs:[| (0, 1) |] in
  check bool_c "12 s_max fits" true (Intmath.mul_fits 12 setup_heavy.Instance.s_max);
  (* one unit over the cap is the typed rejection, not a wrap *)
  let field =
    match Instance.make ~m:2 ~setups:[| 1 |] ~jobs:[| (0, cap) |] with
    | _ -> None
    | exception Rerror.Error (Rerror.Invalid_input { field; _ }) -> Some field
  in
  check Alcotest.(option string) "over the cap rejected" (Some "total") field;
  (* the at-cap instance solves and certifies on both tiers *)
  let r = Solver.solve ~algorithm:Solver.Approx3_2 Variant.Nonpreemptive inst in
  check bool_c "at-cap schedule feasible" true
    (Checker.is_feasible Variant.Nonpreemptive inst r.Solver.schedule);
  let r' =
    Rat.with_force_exact true (fun () ->
        Solver.solve ~algorithm:Solver.Approx3_2 Variant.Nonpreemptive inst)
  in
  check rat_c "at-cap makespan matches forced-exact" (Schedule.makespan r.Solver.schedule)
    (Schedule.makespan r'.Solver.schedule)

let test_near_overflow_family () =
  for seed = 1 to 5 do
    let rng = Prng.create seed in
    let inst = Generator.near_overflow.Generator.generate rng ~m:4 ~n:8 in
    check bool_c "delta is promotion-sized" true (Instance.delta inst > 1_000_000_000);
    (* headroom for the fuzz mutations that double a class twice (×4),
       then the scale-equivariance property's ×3 *)
    check bool_c "12N under the cap" true (inst.Instance.total <= max_int / 16 / 12)
  done

(* ---------------- differential: solves across every family ------------- *)

let two_tier_exact = Property.find "two-tier-exact"

let run_differential fam_name inst =
  match Property.check_instance two_tier_exact inst with
  | Property.Pass -> ()
  | Property.Skip msg -> Alcotest.failf "%s: two-tier-exact skipped: %s" fam_name msg
  | Property.Fail msg -> Alcotest.failf "%s: %s" fam_name msg

let test_differential_all_families () =
  List.iter
    (fun (fam : Generator.spec) ->
      List.iter
        (fun seed ->
          let rng = Prng.create (0x7ee + seed) in
          let m = 1 + Prng.int rng 4 in
          let inst = fam.Generator.generate rng ~m ~n:16 in
          run_differential fam.Generator.name inst)
        [ 1; 2; 3 ])
    Generator.all

let prop_differential_random =
  QCheck.Test.make ~name:"random two-tier solve = forced-exact solve" ~count:15
    QCheck.small_nat
    (fun seed ->
      let fams = Array.of_list Generator.all in
      let fam = fams.(seed mod Array.length fams) in
      let rng = Prng.create (0xd1ff + seed) in
      let inst = fam.Generator.generate rng ~m:(1 + Prng.int rng 6) ~n:(4 + Prng.int rng 24) in
      match Property.check_instance two_tier_exact inst with
      | Property.Pass -> true
      | Property.Skip msg | Property.Fail msg -> QCheck.Test.fail_report msg)

(* ---------------- flat CSR layout vs the per-class record view --------- *)

let random_instance seed =
  let fams = Array.of_list Generator.all in
  let fam = fams.(seed mod Array.length fams) in
  let rng = Prng.create (0xc5a + seed) in
  (fam, fam.Generator.generate rng ~m:(1 + Prng.int rng 6) ~n:(4 + Prng.int rng 30))

(* The pre-CSR view: job ids grouped by class, read straight off job_class
   in job order — exactly what the old [class_jobs] arrays held. *)
let reference_groups inst =
  let c = Instance.c inst and n = Instance.n inst in
  let groups = Array.make c [] in
  for j = n - 1 downto 0 do
    groups.(inst.Instance.job_class.(j)) <- j :: groups.(inst.Instance.job_class.(j))
  done;
  Array.map Array.of_list groups

let prop_flat_layout_equiv =
  QCheck.Test.make ~name:"CSR accessors match the record view" ~count:50 QCheck.small_nat
    (fun seed ->
      let _, inst = random_instance seed in
      let reference = reference_groups inst in
      let ok = ref true in
      for i = 0 to Instance.c inst - 1 do
        let want = reference.(i) in
        ok := !ok && Instance.jobs_of_class inst i = want;
        ok := !ok && Instance.class_size inst i = Array.length want;
        Array.iteri (fun k j -> ok := !ok && Instance.class_job inst i k = j) want;
        let seen = ref [] in
        Instance.iter_class_jobs (fun j -> seen := j :: !seen) inst i;
        ok := !ok && Array.of_list (List.rev !seen) = want;
        let folded = Instance.fold_class_jobs (fun acc j -> j :: acc) [] inst i in
        ok := !ok && Array.of_list (List.rev folded) = want
      done;
      (* offsets are a proper partition of the job ids *)
      ok := !ok && inst.Instance.class_off.(0) = 0;
      ok := !ok && inst.Instance.class_off.(Instance.c inst) = Instance.n inst;
      let all = List.sort compare (Array.to_list inst.Instance.class_job_ids) in
      ok := !ok && all = List.init (Instance.n inst) (fun j -> j);
      !ok)

(* Partition's fast comparisons vs the plain-Rat formulations they replace. *)
let prop_partition_equiv =
  QCheck.Test.make ~name:"Partition fast comparisons match the Rat reference" ~count:40
    QCheck.small_nat
    (fun seed ->
      let _, inst = random_instance seed in
      let t_min = Lower_bounds.t_min Variant.Nonpreemptive inst in
      let ok = ref true in
      List.iter
        (fun k ->
          let tee = Rat.mul (Rat.of_ints k 8) t_min in
          for i = 0 to Instance.c inst - 1 do
            let s = inst.Instance.setups.(i) in
            let ref_exp = Rat.( > ) (Rat.of_int (2 * s)) tee in
            ok := !ok && Partition.is_expensive inst tee i = ref_exp;
            (* m_i needs T > s_i, guaranteed by tee >= T_min >= s_i + 1 *)
            if k >= 8 then begin
              let slack = Rat.sub tee (Rat.of_int s) in
              let ref_mi =
                if ref_exp then
                  Rat.ceil_int (Rat.div (Rat.of_int inst.Instance.class_load.(i)) slack)
                else begin
                  let big = ref 0 and k_load = ref 0 in
                  Array.iter
                    (fun j ->
                      let tj = inst.Instance.job_time.(j) in
                      if Rat.( > ) (Rat.of_int (2 * tj)) tee then incr big
                      else if Rat.( > ) (Rat.of_int (2 * (s + tj))) tee then k_load := !k_load + tj)
                    (Instance.jobs_of_class inst i);
                  !big + Rat.ceil_int (Rat.div (Rat.of_int !k_load) slack)
                end
              in
              ok := !ok && Partition.m_i inst tee i = ref_mi
            end
          done;
          let ref_jplus =
            Array.of_list
              (List.filter
                 (fun j -> Rat.( > ) (Rat.of_int (2 * inst.Instance.job_time.(j))) tee)
                 (List.init (Instance.n inst) (fun j -> j)))
          in
          ok := !ok && Partition.j_plus inst tee = ref_jplus;
          let ref_kset =
            Array.of_list
              (List.filter
                 (fun j ->
                   let i = inst.Instance.job_class.(j) in
                   let tj = inst.Instance.job_time.(j) in
                   Rat.( <= ) (Rat.of_int (2 * tj)) tee
                   && Rat.( > ) (Rat.of_int (2 * (inst.Instance.setups.(i) + tj))) tee
                   && not (Rat.( > ) (Rat.of_int (2 * inst.Instance.setups.(i))) tee))
                 (List.init (Instance.n inst) (fun j -> j)))
          in
          ok := !ok && Partition.k_set inst tee = ref_kset)
        [ 5; 8; 9; 12 ];
      !ok)

(* ---------------- Gc: the comparison fast paths allocate nothing ------- *)

let test_zero_alloc_fast_paths () =
  Rat.with_force_exact false @@ fun () ->
  let a = Rat.of_ints 355 113 and b = Rat.of_ints 22 7 in
  let t = Rat.of_int 123_456_789 in
  let inst = Instance.make ~m:2 ~setups:[| 4; 2 |] ~jobs:[| (0, 5); (1, 7); (0, 3); (1, 2) |] in
  let sink = ref 0 in
  let visit = fun j -> sink := !sink + j in
  (* warm up any lazy initialization before counting *)
  ignore (Sys.opaque_identity (Rat.compare a b));
  Instance.iter_class_jobs visit inst 0;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Sys.opaque_identity (Rat.compare a b));
    ignore (Sys.opaque_identity (Rat.compare_int t 17));
    ignore (Sys.opaque_identity (Rat.compare_int a 2));
    ignore (Sys.opaque_identity (Rat.compare_scaled a 3 10));
    ignore (Sys.opaque_identity (Rat.sign a));
    ignore (Sys.opaque_identity (Rat.is_zero b));
    ignore (Sys.opaque_identity (Rat.is_integer t));
    ignore (Sys.opaque_identity (Rat.equal a b));
    Instance.iter_class_jobs visit inst 0;
    Instance.iter_class_jobs visit inst 1
  done;
  let delta = Gc.minor_words () -. before in
  check (Alcotest.float 0.0) "minor words on comparison/iteration fast paths" 0.0 delta

let () =
  Alcotest.run "num2"
    [
      ( "overflow",
        [
          Alcotest.test_case "checked boundaries" `Quick test_checked_boundaries;
          Alcotest.test_case "promotion boundary" `Quick test_promotion_boundary;
          Alcotest.test_case "force-exact switch" `Quick test_force_exact_switch;
          Alcotest.test_case "instance cap" `Quick test_instance_cap;
          Alcotest.test_case "near-overflow family" `Quick test_near_overflow_family;
        ] );
      ( "differential",
        [ Alcotest.test_case "all families" `Quick test_differential_all_families ] );
      ("gc", [ Alcotest.test_case "zero-alloc fast paths" `Quick test_zero_alloc_fast_paths ]);
      qsuite "props"
        [
          prop_checked_vs_bigint;
          prop_ops_match_forced_exact;
          prop_differential_random;
          prop_flat_layout_equiv;
          prop_partition_equiv;
        ];
    ]
