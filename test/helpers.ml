(* Shared helpers for the algorithm test suites: random instance
   generators and ratio assertions. *)

open Bss_util
open Bss_instances

(* Generate a random instance from a seeded PRNG with tunable shape. *)
let random_instance ?(max_m = 8) ?(max_c = 6) ?(max_extra_jobs = 20) ?(max_setup = 30) ?(max_time = 30)
    rng =
  let c = 1 + Prng.int rng max_c in
  let m = 1 + Prng.int rng max_m in
  let setups = Array.init c (fun _ -> 1 + Prng.int rng max_setup) in
  let base = Array.init c (fun i -> (i, 1 + Prng.int rng max_time)) in
  let extra =
    Array.init (Prng.int rng (max_extra_jobs + 1)) (fun _ -> (Prng.int rng c, 1 + Prng.int rng max_time))
  in
  Instance.make ~m ~setups ~jobs:(Array.append base extra)

(* QCheck generator wrapping the PRNG for reproducible shrink-free cases. *)
let gen_instance ?max_m ?max_c ?max_extra_jobs ?max_setup ?max_time () =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    return (random_instance ?max_m ?max_c ?max_extra_jobs ?max_setup ?max_time (Prng.create seed)))

(* makespan <= factor * bound, exact rational comparison *)
let within_factor ~num ~den schedule bound =
  Rat.( <= ) (Rat.mul_int (Schedule.makespan schedule) den) (Rat.mul_int bound num)

let check_feasible_within ~variant ~num ~den inst schedule bound =
  Checker.check_exn variant inst schedule;
  if not (within_factor ~num ~den schedule bound) then
    failwith
      (Printf.sprintf "makespan %s exceeds %d/%d * %s"
         (Rat.to_string (Schedule.makespan schedule))
         num den (Rat.to_string bound))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* Two dual verdicts agree, payload included (by [Rat.equal]). *)
let same_outcome a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error (Bss_core.Dual.Below_trivial_bound a), Error (Bss_core.Dual.Below_trivial_bound b) ->
    Rat.equal a.bound b.bound
  | Error (Bss_core.Dual.Load_exceeds a), Error (Bss_core.Dual.Load_exceeds b) ->
    Rat.equal a.required b.required && Rat.equal a.available b.available
  | Error (Bss_core.Dual.Machines_exceed a), Error (Bss_core.Dual.Machines_exceed b) ->
    a.required = b.required && a.available = b.available
  | _ -> false

(* [f ()] under recording, with the guesses the search [source] probed,
   read from its events *)
let probed_guesses ~source f =
  let r, report = Bss_obs.Probe.with_recording f in
  let guesses =
    List.filter_map
      (fun (e : Bss_obs.Report.event_entry) ->
        match e.event with
        | Bss_obs.Event.Guess_accepted { source = s; t } | Bss_obs.Event.Guess_rejected { source = s; t; _ }
          when s = source ->
          Some t
        | _ -> None)
      report.Bss_obs.Report.events
  in
  (r, guesses)
