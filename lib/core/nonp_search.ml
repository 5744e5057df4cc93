open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event

type result = { schedule : Schedule.t; accepted : Rat.t; dual_calls : int }

let probe = Search.probe "nonp_search"

let solve inst =
  let calls = ref 0 in
  let test = Nonp_dual.test inst in
  let guess t =
    incr calls;
    Search.guess probe test (Rat.of_int t)
  in
  let t_min = Lower_bounds.t_min Variant.Nonpreemptive inst in
  (* lo < OPT without testing: lo = ⌈T_min⌉ − 1 < T_min <= OPT. *)
  let lo = Rat.ceil_int t_min - 1 in
  let hi = Rat.ceil_int (Rat.mul_int t_min 2) in
  (match guess hi with
  | Error r -> failwith (Format.asprintf "dual rejected 2*T_min >= OPT: %a" Dual.pp_rejection r)
  | Ok () -> ());
  (* The least accepted integer; the one below it is rejected (or below
     T_min), so by integrality of OPT, T* <= OPT. *)
  let t_star = Search.bisect lo hi (fun t -> Result.is_ok (guess t)) in
  let accepted = Rat.of_int t_star in
  if Probe.enabled () then
    Probe.event (Event.Interval_exit { source = "nonp_search"; lo = Rat.of_int (t_star - 1); hi = accepted });
  let schedule = Search.construct ~source:"nonp_search" Nonp_dual.run inst accepted in
  { schedule; accepted; dual_calls = !calls }
