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
   separately. The candidates are compared by their compacted makespans,
   read without compacting; the 2-approximation wins ties, and only the
   winner is compacted. *)
let polish variant inst primary =
  Probe.span "polish" (fun () ->
      let fallback = Two_approx.solve variant inst in
      let mp = Compaction.makespan variant inst primary
      and mf = Compaction.makespan variant inst fallback in
      let won = Rat.( <= ) mf mp in
      if Probe.enabled () then begin
        Probe.count (if won then "solver.won_two_approx" else "solver.won_construction");
        let name = if won then "two-approx" else "construction" in
        let winner = if won then mf else mp in
        Probe.event
          (Event.Candidate_won { name; makespan = winner; margin = Rat.abs (Rat.sub mp mf) })
      end;
      Compaction.compact variant inst (if won then fallback else primary))

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
    | [] ->
      (* the terminal rung: whole-batch list scheduling, feasible for all
         three variants, with no search, guard charge or chaos site, so
         it cannot be cut short; it carries no guarantee *)
      finish "list-scheduling" (Bss_baselines.List_scheduling.greedy inst, None, None, 0) attempts
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
