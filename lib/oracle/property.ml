open Bss_util
open Bss_instances
open Bss_core

type outcome = Pass | Skip of string | Fail of string

type t = { name : string; theorem : string; check : Context.t -> outcome }

(* Fold a check over every (variant, algorithm) pair, stopping at the
   first failure. *)
let over_solves ctx f =
  let rec go = function
    | [] -> Pass
    | (v, a) :: rest -> ( match f v a with Pass -> go rest | o -> o)
  in
  go
    (List.concat_map
       (fun v -> List.map (fun a -> (v, a)) (Context.algorithms ctx))
       (Context.variants ctx))

let tag v (name, _) = Printf.sprintf "[%s/%s]" (Variant.to_string v) name

let feasibility =
  {
    name = "feasibility";
    theorem = "Thm 1-9";
    check =
      (fun ctx ->
        over_solves ctx (fun v a ->
            let r = Context.solve ctx v a in
            match Checker.check v (Context.instance ctx) r.Solver.schedule with
            | Ok () -> Pass
            | Error vs ->
              Fail
                (Printf.sprintf "%s infeasible: %s" (tag v a)
                   (String.concat "; " (List.map Checker.violation_to_string vs)))));
  }

let certificate =
  {
    name = "certificate";
    theorem = "Thm 1-3";
    check =
      (fun ctx ->
        over_solves ctx (fun v a ->
            let r = Context.solve ctx v a in
            let mk = Schedule.makespan r.Solver.schedule in
            let t_min = Context.t_min ctx v in
            let fail fmt_msg = Fail (tag v a ^ " " ^ fmt_msg) in
            if Rat.( < ) mk t_min then
              fail (Printf.sprintf "makespan %s below T_min %s" (Rat.to_string mk) (Rat.to_string t_min))
            else if Rat.( > ) mk r.Solver.certificate then
              fail
                (Printf.sprintf "makespan %s exceeds certificate %s" (Rat.to_string mk)
                   (Rat.to_string r.Solver.certificate))
            else if Rat.( > ) mk (Rat.mul_int t_min 2) then
              fail (Printf.sprintf "makespan %s exceeds 2*T_min" (Rat.to_string mk))
            else if Rat.( > ) r.Solver.certificate (Rat.mul (Rat.mul_int t_min 2) r.Solver.guarantee)
            then
              fail
                (Printf.sprintf "certificate %s exceeds 2*guarantee*T_min"
                   (Rat.to_string r.Solver.certificate))
            else Pass));
  }

let ratio_exact =
  {
    name = "ratio-exact";
    theorem = "Thm 1,3,6,8";
    check =
      (fun ctx ->
        let nonp = Context.exact_nonp ctx and split = Context.exact_split ctx in
        if nonp = None && split = None then Skip "instance too large for the exact oracles"
        else
          over_solves ctx (fun v a ->
              let r = Context.solve ctx v a in
              let mk = Schedule.makespan r.Solver.schedule in
              let ratio_ok opt = Rat.( <= ) mk (Rat.mul r.Solver.guarantee opt) in
              let fail opt =
                Fail
                  (Printf.sprintf "%s makespan %s vs OPT %s breaks guarantee %s" (tag v a)
                     (Rat.to_string mk) (Rat.to_string opt) (Rat.to_string r.Solver.guarantee))
              in
              match (v, nonp, split) with
              | Variant.Nonpreemptive, Some opt, _ ->
                let opt = Rat.of_int opt in
                if Rat.( < ) mk opt then
                  Fail (tag v a ^ " makespan below the exact non-preemptive optimum")
                else if ratio_ok opt then Pass
                else fail opt
              | Variant.Splittable, _, Some opt ->
                if Rat.( < ) mk opt then
                  Fail (tag v a ^ " makespan below the exact splittable optimum")
                else if ratio_ok opt then Pass
                else fail opt
              | Variant.Preemptive, nonp, split ->
                (* OPT_split <= OPT_pmtn <= OPT_nonp sandwiches the run *)
                let lower_ok =
                  match split with Some o -> Rat.( >= ) mk o | None -> true
                in
                let upper_ok =
                  match nonp with Some o -> ratio_ok (Rat.of_int o) | None -> true
                in
                if not lower_ok then
                  Fail (tag v a ^ " preemptive makespan below the exact splittable optimum")
                else if not upper_ok then
                  Fail (tag v a ^ " preemptive makespan exceeds guarantee * OPT_nonp")
                else Pass
              | _ -> Pass));
  }

let opt_dominance =
  {
    name = "opt-dominance";
    theorem = "Sec 1";
    check =
      (fun ctx ->
        let inst = Context.instance ctx in
        let ts = Lower_bounds.t_min Variant.Splittable inst
        and tp = Lower_bounds.t_min Variant.Preemptive inst
        and tn = Lower_bounds.t_min Variant.Nonpreemptive inst in
        if not (Rat.( <= ) ts tp && Rat.( <= ) tp tn) then
          Fail "T_min chain split <= pmtn <= nonp broken"
        else
          match (Context.exact_split ctx, Context.exact_nonp ctx) with
          | Some os, Some on when Rat.( > ) os (Rat.of_int on) ->
            Fail
              (Printf.sprintf "OPT_split %s > OPT_nonp %d" (Rat.to_string os) on)
          | Some os, _ ->
            (* any feasible schedule of any variant is splittable-feasible,
               so its makespan dominates OPT_split *)
            over_solves ctx (fun v a ->
                let r = Context.solve ctx v a in
                if Rat.( < ) (Schedule.makespan r.Solver.schedule) os then
                  Fail (tag v a ^ " makespan below OPT_split")
                else Pass)
          | None, _ -> Skip "exact splittable optimum unaffordable");
  }

let cross_feasibility =
  {
    name = "cross-feasibility";
    theorem = "Sec 1";
    check =
      (fun ctx ->
        let inst = Context.instance ctx in
        let relaxations = function
          | Variant.Nonpreemptive -> [ Variant.Preemptive; Variant.Splittable ]
          | Variant.Preemptive -> [ Variant.Splittable ]
          | Variant.Splittable -> []
        in
        over_solves ctx (fun v a ->
            let r = Context.solve ctx v a in
            let rec relax = function
              | [] -> Pass
              | v' :: rest ->
                if Checker.is_feasible v' inst r.Solver.schedule then relax rest
                else
                  Fail
                    (Printf.sprintf "%s schedule rejected by the %s checker" (tag v a)
                       (Variant.to_string v'))
            in
            relax (relaxations v)));
  }

let same_rejection a b =
  match (a, b) with
  | Dual.Below_trivial_bound a, Dual.Below_trivial_bound b -> Rat.equal a.bound b.bound
  | Dual.Load_exceeds a, Dual.Load_exceeds b ->
    Rat.equal a.required b.required && Rat.equal a.available b.available
  | Dual.Machines_exceed a, Dual.Machines_exceed b -> a.required = b.required && a.available = b.available
  | _ -> false

let dual_monotone =
  {
    name = "dual-monotone";
    theorem = "Thm 4,5,7,9";
    check =
      (fun ctx ->
        let inst = Context.instance ctx in
        let three_half = Rat.of_ints 3 2 in
        let rec per_variant = function
          | [] -> Pass
          | v :: rest -> (
            let dual = Solver.dual_for v in
            let t_min = Context.t_min ctx v in
            let rec ladder k seen_accept =
              if k > 24 then Pass
              else
                let t = Rat.mul (Rat.of_ints k 8) t_min in
                let outcome = dual.Dual.run inst t in
                (* the searches probe with [test] and construct once with
                   [run]: the two must agree on verdict and reason *)
                let agree =
                  match (dual.Dual.test inst t, outcome) with
                  | Ok (), Dual.Accepted _ -> true
                  | Error a, Dual.Rejected b -> same_rejection a b
                  | Ok (), Dual.Rejected _ | Error _, Dual.Accepted _ -> false
                in
                match outcome with
                | _ when not agree ->
                  Fail
                    (Printf.sprintf "[%s] dual test and run disagree at %d/8*T_min" (Variant.to_string v) k)
                | Dual.Rejected _ when seen_accept ->
                  Fail
                    (Printf.sprintf "[%s] dual rejected %s/8*T_min after accepting a smaller guess"
                       (Variant.to_string v) (string_of_int k))
                | Dual.Rejected _ -> ladder (k + 1) false
                | Dual.Accepted sched -> (
                  match
                    Checker.check ~makespan_bound:(Rat.mul three_half t) v inst sched
                  with
                  | Ok () -> ladder (k + 1) true
                  | Error vs ->
                    Fail
                      (Printf.sprintf "[%s] accepted schedule at %d/8*T_min invalid: %s"
                         (Variant.to_string v) k
                         (String.concat "; " (List.map Checker.violation_to_string vs))))
            in
            match ladder 1 false with Pass -> per_variant rest | o -> o)
        in
        per_variant (Context.variants ctx));
  }

let two_tier_exact =
  {
    name = "two-tier-exact";
    theorem = "Num2" (* the label fuzz reports pin; the layer is Rat *);
    check =
      (fun ctx ->
        (* Re-solve with every construction forced onto the Bigint-backed
           exact tier and demand bit-identical results: same schedule (per
           {!Schedule.equal}, which compares rationals by value across
           tiers), same makespan/certificate, same checker verdict. This is
           the certification that the fast tier changes representation,
           never values. *)
        let inst = Context.instance ctx in
        over_solves ctx (fun v ((_, algorithm) as a) ->
            let fast = Context.solve ctx v a in
            let exact =
              Rat.with_force_exact true (fun () -> Solver.solve ~algorithm v inst)
            in
            let fail what =
              Fail
                (Printf.sprintf "%s two-tier vs forced-exact solve differ: %s" (tag v a) what)
            in
            if not (Rat.equal (Schedule.makespan fast.Solver.schedule) (Schedule.makespan exact.Solver.schedule))
            then fail "makespan"
            else if not (Rat.equal fast.Solver.certificate exact.Solver.certificate) then
              fail "certificate"
            else if not (Schedule.equal fast.Solver.schedule exact.Solver.schedule) then
              fail "schedule"
            else if
              Checker.is_feasible v inst fast.Solver.schedule
              <> Checker.is_feasible v inst exact.Solver.schedule
            then fail "checker verdict"
            else Pass));
  }

let all =
  [
    feasibility;
    certificate;
    ratio_exact;
    opt_dominance;
    cross_feasibility;
    dual_monotone;
    two_tier_exact;
  ]

let find name = List.find (fun p -> p.name = name) all

let check_instance ?variants ?algorithms prop inst =
  let ctx = Context.create ?variants ?algorithms inst in
  try prop.check ctx with e -> Fail ("exception: " ^ Printexc.to_string e)
