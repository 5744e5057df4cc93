open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

type result = { schedule : Schedule.t; accepted : Rat.t; bound_tests : int }

let mode = Pmtn_nice.Gamma

let solve inst =
  let m = inst.Instance.m in
  let c = Instance.c inst in
  let trivial = Rat.of_int (Lower_bounds.setup_plus_tmax inst) in
  let tests = ref 0 in
  let accept tee =
    incr tests;
    Guard.tick "pmtn_cj.bound_test";
    Probe.count "pmtn_cj.bound_tests";
    Rat.sign tee > 0 && Result.is_ok (Pmtn_dual.test ~mode inst tee)
  in
  (* Same test, phase-specific counters: region search (Theorem 6 stage 1)
     vs. the jump families of Lemmas 3/5 vs. the frontier bisection of
     DESIGN.md §7.5. *)
  let accept_region t =
    Probe.count "pmtn_cj.region_steps";
    accept t
  in
  let accept_jump t =
    Probe.count "pmtn_cj.jump_steps";
    accept t
  in
  (* ---- stage 1: region search over all partition breakpoints ---- *)
  (* candidates.(0) = 0 rejected; the largest (2N) accepted *)
  let candidates =
    let acc = ref [ Rat.zero; Rat.of_int (2 * inst.Instance.total); trivial ] in
    for i = 0 to c - 1 do
      let s = inst.Instance.setups.(i) and p = inst.Instance.class_load.(i) in
      acc := Rat.of_int (2 * s) :: Rat.of_int (4 * s) :: Rat.of_int (s + p)
             :: Rat.of_ints (4 * (s + p)) 3 :: !acc;
      Instance.iter_class_jobs
        (fun j -> acc := Rat.of_int (2 * (s + inst.Instance.job_time.(j))) :: !acc)
        inst i
    done;
    let arr = Array.of_list !acc in
    Array.sort Rat.compare arr;
    arr
  in
  let region = Search.region ~accept:accept_region candidates in
  let weight i = inst.Instance.setups.(i) + inst.Instance.class_load.(i) in
  let plus =
    let mid = Search.midpoint region in
    List.filter
      (fun i -> Partition.is_expensive inst mid i && Rat.( <= ) mid (Rat.of_int (weight i)))
      (List.init c (fun i -> i))
  in
  (* jump families, κ capped at m+2: γ-jumps 2(s_i+P_i)/(κ+2) and
     β-jumps 2P_i/κ *)
  let gamma i = { Search.num = 2 * weight i; shift = 2 } in
  let beta i = { Search.num = 2 * inst.Instance.class_load.(i); shift = 0 } in
  let cap = m + 2 in
  let lo, hi =
    match plus with
    | [] -> region
    | _ :: _ ->
      (* stage 2: γ-jumps of the fastest (s+P) class, Lemma 5; stage 3:
         β-jumps of the fastest P class, Lemma 3; stage 4: single jumps
         of every class, both families *)
      let f = Search.fastest weight plus in
      let g = Search.fastest (fun i -> inst.Instance.class_load.(i)) plus in
      region
      |> Search.narrow ~accept:accept_jump ~cap (gamma f)
      |> Search.narrow ~accept:accept_jump ~cap (beta g)
      |> Search.single_jumps ~counter:"pmtn_cj.jump_candidates" ~accept:accept_jump ~cap
           (List.concat_map (fun i -> [ gamma i; beta i ]) plus)
  in
  if Probe.enabled () then Probe.event (Event.Interval_exit { source = "pmtn_cj"; lo; hi });
  (* ---- final: resolve the crossover inside the jump-free interval ---- *)
  let t_star =
    let mid = Search.midpoint (lo, hi) in
    let a = Pmtn_dual.analyze ~mode inst mid in
    let l_low, m', l_large, case_a, y, star_count = Pmtn_dual.search_quantities inst mid a in
    if m' > m then hi
    else begin
      (* piecewise-constant floor of the acceptance threshold *)
      let base = Rat.max trivial (Rat.div_int l_low m) in
      let base =
        if case_a && Rat.sign y < 0 then begin
          Probe.count "pmtn_cj.deviation1";
          (* Y(T) is affine increasing with slope (m − l) + star_count/2 *)
          let slope = Rat.add (Rat.of_int (m - l_large)) (Rat.of_ints star_count 2) in
          if Rat.sign slope <= 0 then hi
          else Rat.max base (Rat.add mid (Rat.div (Rat.neg y) slope))
        end
        else base
      in
      (* The acceptance threshold inside the piece is [base] except for the
         knapsack's unselected-setup term (and the Y-guard, our patch over
         Theorem 5's implicit assumption, whose infimum may be
         unattained). Seed the bracket with [base], then bisect it for
         exactly 40 rounds: exact midpoints never close it, not even when
         [base] is the threshold. The accepted end is within
         (hi−lo)/2^40 of a certified rejected point, so the ratio stays
         3/2 up to a vanishing term. *)
      let rej, acc =
        if Rat.( < ) lo base && Rat.( < ) base hi then
          if accept base then (lo, base) else (base, hi)
        else (lo, hi)
      in
      let frontier t =
        Probe.count "pmtn_cj.frontier_rounds";
        accept t
      in
      snd (Search.bisect_rat ~stop:(fun ~rounds _ _ -> rounds >= 40) frontier rej acc)
    end
  in
  if Probe.enabled () then
    Probe.event (Event.Note { source = "pmtn_cj"; key = "t_star"; value = Rat.to_string t_star });
  let schedule = Search.construct ~source:"pmtn_cj" (Pmtn_dual.run ~mode) inst t_star in
  { schedule; accepted = t_star; bound_tests = !tests }
