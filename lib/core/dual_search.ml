open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event

type result = { schedule : Schedule.t; accepted : Rat.t; dual_calls : int }

let probe = Search.probe "dual_search"

let search ~test ~run ~epsilon ~t_min inst =
  if Rat.sign epsilon <= 0 then invalid_arg "Dual_search.search: epsilon must be positive";
  let calls = ref 0 in
  let test = test inst in
  let guess tee =
    incr calls;
    Search.guess probe test tee
  in
  let finish lo hi =
    if Probe.enabled () then Probe.event (Event.Interval_exit { source = "dual_search"; lo; hi });
    let schedule = Search.construct ~source:"dual_search" run inst hi in
    { schedule; accepted = hi; dual_calls = !calls }
  in
  (* ε' = 2ε/3 makes the final ratio exactly 3/2 + ε. *)
  let tolerance = Rat.mul t_min (Rat.mul_int (Rat.div_int epsilon 3) 2) in
  match guess t_min with
  | Ok () -> finish t_min t_min
  | Error _ -> (
    let hi = Rat.mul_int t_min 2 in
    match guess hi with
    | Error r -> failwith (Format.asprintf "dual rejected 2*T_min >= OPT: %a" Dual.pp_rejection r)
    | Ok () ->
      let lo, hi =
        Search.bisect_rat
          ~stop:(fun ~rounds:_ lo hi -> Rat.( <= ) (Rat.sub hi lo) tolerance)
          (fun tee -> Result.is_ok (guess tee))
          t_min hi
      in
      finish lo hi)
