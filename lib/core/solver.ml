open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event

type algorithm =
  | Approx2
  | Approx3_2_eps of Rat.t
  | Approx3_2

type result = { schedule : Schedule.t; guarantee : Rat.t; certificate : Rat.t; dual_calls : int }

let three_half = Rat.of_ints 3 2

(* The dual constructions intentionally spread load up to (3/2)T*, so on
   easy instances the plain 2-approximation can produce a shorter
   schedule. Returning the better of the two keeps every certificate valid
   (both schedules are feasible and the bound [makespan <= certificate]
   only improves); EXPERIMENTS.md reports the raw constructions
   separately. *)
let prefer_shorter primary fallback =
  let mp = Schedule.makespan primary and mf = Schedule.makespan fallback in
  let won = Rat.( <= ) mf mp in
  if Probe.enabled () then begin
    Probe.count (if won then "solver.won_two_approx" else "solver.won_construction");
    let name = if won then "two-approx" else "construction" in
    let winner = if won then mf else mp in
    Probe.event
      (Event.Candidate_won { name; makespan = winner; margin = Rat.abs (Rat.sub mp mf) })
  end;
  if won then fallback else primary

(* compacted best-of: close idle gaps in both candidates, keep the
   shorter *)
let polish variant inst primary =
  Probe.span "polish" (fun () ->
      let primary = Compaction.compact variant inst primary in
      let fallback = Compaction.compact variant inst (Two_approx.solve variant inst) in
      prefer_shorter primary fallback)

let dual_for = function
  | Variant.Splittable -> { Dual.test = Splittable_dual.test; run = Splittable_dual.run }
  | Variant.Preemptive ->
    { Dual.test = (fun inst tee -> Pmtn_dual.test inst tee); run = (fun inst tee -> Pmtn_dual.run inst tee) }
  | Variant.Nonpreemptive -> { Dual.test = Nonp_dual.test; run = Nonp_dual.run }

let solve ~algorithm variant inst =
  Probe.span "solve" (fun () ->
      match algorithm with
      | Approx2 ->
        let schedule =
          Probe.span "two_approx" (fun () ->
              Compaction.compact variant inst (Two_approx.solve variant inst))
        in
        let t_min = Lower_bounds.t_min variant inst in
        { schedule; guarantee = Rat.two; certificate = Rat.mul_int t_min 2; dual_calls = 0 }
      | Approx3_2_eps epsilon ->
        let t_min = Lower_bounds.t_min variant inst in
        let { Dual.test; run } = dual_for variant in
        let r = Probe.span "search" (fun () -> Dual_search.search ~test ~run ~epsilon ~t_min inst) in
        {
          schedule = polish variant inst r.Dual_search.schedule;
          guarantee = Rat.add three_half epsilon;
          certificate = Rat.mul three_half r.Dual_search.accepted;
          dual_calls = r.Dual_search.dual_calls;
        }
      | Approx3_2 -> (
        match variant with
        | Variant.Splittable ->
          let r = Probe.span "search" (fun () -> Splittable_cj.solve inst) in
          {
            schedule = polish variant inst r.Splittable_cj.schedule;
            guarantee = three_half;
            certificate = Rat.mul three_half r.Splittable_cj.accepted;
            dual_calls = r.Splittable_cj.bound_tests;
          }
        | Variant.Preemptive ->
          let r = Probe.span "search" (fun () -> Pmtn_cj.solve inst) in
          {
            schedule = polish variant inst r.Pmtn_cj.schedule;
            guarantee = three_half;
            certificate = Rat.mul three_half r.Pmtn_cj.accepted;
            dual_calls = r.Pmtn_cj.bound_tests;
          }
        | Variant.Nonpreemptive ->
          let r = Probe.span "search" (fun () -> Nonp_search.solve inst) in
          {
            schedule = polish variant inst r.Nonp_search.schedule;
            guarantee = three_half;
            certificate = Rat.mul three_half r.Nonp_search.accepted;
            dual_calls = r.Nonp_search.dual_calls;
          }))

(* ---------------- resilient solving: the degradation ladder ---------------- *)

module Rerror = Bss_resilience.Error
module Guard = Bss_resilience.Guard

type attempt = { rung : string; error : Rerror.t }

type robust = {
  schedule : Schedule.t;
  rung : string;
  guarantee : Rat.t option;
  certificate : Rat.t option;
  dual_calls : int;
  attempts : attempt list;
  fuel_spent : int;
}

(* Terminal rung: whole-batch list scheduling onto the least-loaded
   machine. Every class stays contiguous on one machine, so the schedule
   is feasible for all three variants; plain array walking with no search,
   no guard charge and no chaos site — it cannot be cut short. No
   approximation guarantee (see lib/baselines/list_scheduling.mli for why
   none exists). *)
let last_resort inst =
  let m = inst.Instance.m in
  let sched = Schedule.create m in
  let ends = Array.make m Rat.zero in
  for i = 0 to Instance.c inst - 1 do
    let u = ref 0 in
    for v = 1 to m - 1 do
      if Rat.( < ) ends.(v) ends.(!u) then u := v
    done;
    let t = ref ends.(!u) in
    let s = Rat.of_int inst.Instance.setups.(i) in
    Schedule.add_setup sched ~machine:!u ~cls:i ~start:!t ~dur:s;
    t := Rat.add !t s;
    Array.iter
      (fun j ->
        let d = Rat.of_int inst.Instance.job_time.(j) in
        Schedule.add_work sched ~machine:!u ~job:j ~start:!t ~dur:d;
        t := Rat.add !t d)
      (Instance.jobs_of_class inst i);
    ends.(!u) <- !t
  done;
  sched

let solve_robust ?deadline_ms ?fuel ~algorithm variant inst =
  let guard = Guard.make ?deadline_ms ?fuel () in
  let of_result (r : result) = (r.schedule, Some r.guarantee, Some r.certificate, r.dual_calls) in
  let rungs =
    ("requested", fun () -> of_result (solve ~algorithm variant inst))
    ::
    (match algorithm with
    | Approx2 -> []
    | Approx3_2 | Approx3_2_eps _ ->
      [ ("two-approx", fun () -> of_result (solve ~algorithm:Approx2 variant inst)) ])
  in
  let finish rung (schedule, guarantee, certificate, dual_calls) attempts =
    if Probe.enabled () then begin
      Probe.count ("resilience.rung." ^ rung);
      if attempts <> [] then Probe.count "resilience.degraded"
    end;
    {
      schedule;
      rung;
      guarantee;
      certificate;
      dual_calls;
      attempts = List.rev attempts;
      fuel_spent = Guard.spent guard;
    }
  in
  let rec go attempts = function
    | [] -> finish "list-scheduling" (last_resort inst, None, None, 0) attempts
    | (name, f) :: rest -> (
      let outcome =
        Guard.run guard (fun () ->
            let ((schedule, _, _, _) as out) = f () in
            (* a rung that survives its guard must still hand back a
               checker-feasible schedule, or it degrades like any fault *)
            if not (Checker.is_feasible variant inst schedule) then
              raise (Rerror.Error (Rerror.Internal (Failure (name ^ " rung: infeasible schedule"))));
            out)
      in
      match outcome with
      | Ok out -> finish name out attempts
      | Error error ->
        if Probe.enabled () then begin
          Probe.count "resilience.rung_failed";
          Probe.event
            (Event.Note { source = "resilience"; key = "rung_failed:" ^ name; value = Rerror.to_string error })
        end;
        go ({ rung = name; error } :: attempts) rest)
  in
  go [] rungs

let algorithm_name ~algorithm variant =
  match (algorithm, variant) with
  | Approx2, _ -> "2-approx (Thm 1)"
  | Approx3_2_eps eps, _ -> Printf.sprintf "3/2+%s (Thm 2)" (Rat.to_string eps)
  | Approx3_2, Variant.Splittable -> "3/2 class-jumping (Thm 3)"
  | Approx3_2, Variant.Preemptive -> "3/2 class-jumping (Thm 6)"
  | Approx3_2, Variant.Nonpreemptive -> "3/2 binary-search (Thm 8)"
