open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

type result = { schedule : Schedule.t; accepted : Rat.t; bound_tests : int }

(* The search half of Theorem 3: locate T* = min accepted guess without
   constructing a schedule. *)
let find_t_star inst =
  let m = inst.Instance.m in
  let tests = ref 0 in
  (* The O(c) acceptance test of Theorem 7 with the left-closed s_max
     clamp; monotone in [tee]. *)
  let accept tee =
    incr tests;
    Guard.tick "splittable_cj.bound_test";
    Probe.count "splittable_cj.bound_tests";
    Result.is_ok (Splittable_dual.test inst tee)
  in
  (* [accept] on a region breakpoint vs. on a class-jump point: same test,
     separate counters, so a profile attributes the O(log c) region phase
     and the O(log m) jump phases individually (Theorem 3's accounting). *)
  let accept_region t =
    Probe.count "splittable_cj.region_steps";
    accept t
  in
  let accept_jump t =
    Probe.count "splittable_cj.jump_steps";
    accept t
  in
  (* Step 1-2: region search over partition breakpoints {0, 2 s_i, 2N}:
     T = 0 is rejected, T = 2N >= 2·OPT accepted. *)
  let candidates =
    Array.append [| 0; 2 * inst.Instance.total |] (Array.map (fun s -> 2 * s) inst.Instance.setups)
  in
  let region =
    let lo, hi =
      Search.region ~accept:(fun t -> accept_region (Rat.of_int t)) candidates
    in
    (Rat.of_int lo, Rat.of_int hi)
  in
  (* Expensive set on the region's interior (constant there). *)
  let expensive_interior =
    let mid = Search.midpoint region in
    List.filter (fun i -> Partition.is_expensive inst mid i) (List.init (Instance.c inst) (fun i -> i))
  in
  (* Jumps of class [i] are 2 P_i / κ; κ is capped at m+1 because
     β_i > m rejects. *)
  let jumps i = { Search.num = 2 * inst.Instance.class_load.(i); shift = 0 } in
  let cap = m + 1 in
  let lo, hi =
    match expensive_interior with
    | [] -> region
    | _ :: _ ->
      let f = Search.fastest (fun i -> inst.Instance.class_load.(i)) expensive_interior in
      (* Step 5-6: binary search over the fastest class's jumps; step 7-8:
         every class now jumps at most once inside (lo, hi) (Lemma 3), so
         collect and binary search those jumps. *)
      Search.narrow ~accept:accept_jump ~cap (jumps f) region
      |> Search.single_jumps ~counter:"splittable_cj.jump_candidates" ~accept:accept_jump ~cap
           (List.map jumps expensive_interior)
  in
  if Probe.enabled () then Probe.event (Event.Interval_exit { source = "splittable_cj"; lo; hi });
  (* Step 9: inside (lo, hi) no quantity jumps, so acceptance is
     T >= max(s_max, L_split/m) — or never, when the machine test binds. *)
  let t_star =
    (* bounds are right-continuous step functions with no jump inside
       (lo, hi), hence constant there — also at points below s_max, where
       only the clamp rejects. *)
    let l_split, m_exp = Splittable_dual.bounds inst (Search.midpoint (lo, hi)) in
    if m_exp > m then hi
    else begin
      let t_crit = Rat.max (Rat.of_int inst.Instance.s_max) (Rat.div_int l_split m) in
      if Rat.( < ) t_crit hi then begin
        assert (Rat.( > ) t_crit lo);
        t_crit
      end
      else hi
    end
  in
  if Probe.enabled () then
    Probe.event (Event.Note { source = "splittable_cj"; key = "t_star"; value = Rat.to_string t_star });
  (t_star, !tests)

let solve inst =
  let t_star, tests = find_t_star inst in
  let schedule = Search.construct ~source:"splittable_cj" Splittable_dual.run inst t_star in
  { schedule; accepted = t_star; bound_tests = tests }
