open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

type result = { schedule : Schedule.t; accepted : Rat.t; frontier : Rat.t; bound_tests : int }

let mode = Pmtn_nice.Gamma

(* ---- the frontier of a jump-free interval (DESIGN.md §7.5) ---- *)

(* arithmetic on the affine maps [T ↦ at0 + slope·T] of Pmtn_dual *)
let eval (f : Pmtn_dual.line) t = Rat.add f.at0 (Rat.mul f.slope t)
let constant c : Pmtn_dual.line = { at0 = c; slope = Rat.zero }

let add (f : Pmtn_dual.line) (g : Pmtn_dual.line) : Pmtn_dual.line =
  { at0 = Rat.add f.at0 g.at0; slope = Rat.add f.slope g.slope }

let scale k (f : Pmtn_dual.line) : Pmtn_dual.line =
  { at0 = Rat.mul_int f.at0 k; slope = Rat.mul_int f.slope k }

(* the guess where [f = g], unless they run parallel *)
let meet (f : Pmtn_dual.line) (g : Pmtn_dual.line) =
  let slope = Rat.sub f.slope g.slope in
  if Rat.is_zero slope then None else Some (Rat.div (Rat.sub g.at0 f.at0) slope)

(* [(lo, hi)], [lo] rejected and [hi] accepted, narrowed by bisection to
   two consecutive points of the [points] inside it and its ends *)
let refine ~accept points (lo, hi) =
  let inside = List.filter (fun t -> Rat.( < ) lo t && Rat.( < ) t hi) points in
  let sorted = Array.of_list ((lo :: List.sort_uniq Rat.compare inside) @ [ hi ]) in
  let k = Search.bisect 0 (Array.length sorted - 1) (fun k -> accept sorted.(k)) in
  (sorted.(k - 1), sorted.(k))

(* The dual's verdict inside the interval changes only where the
   knapsack's choice does: where two densities [s_i / w_i(T)] cross, or
   where the capacity [Y] meets a prefix sum of the weights in density
   order. The empty prefix is the Y-guard's root [Y = 0], and the full
   one is the switch of case 3.a, since [F − star_load = Y − Σ w_i].
   Between these points the verdict is [T >= θ] for one constant [θ].
   Bisect the crossings first; in the crossing-free part, bisect the
   prefix points — those of a density tie in both id orders, since the
   knapsack fills a tie in either — and solve the piece left for θ. *)
let frontier_in_pieces ~accept ~trivial ~l_low inst (q : Pmtn_dual.quantities) interval =
  let items = q.items in
  let k = Array.length items in
  (* [s_i w_j − s_j w_i] has the sign of density i minus density j *)
  let lead i j =
    add (scale items.(i).profit items.(j).weight) (scale (-items.(j).profit) items.(i).weight)
  in
  let crossings = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      Option.iter (fun t -> crossings := t :: !crossings) (meet (lead i j) (constant Rat.zero))
    done
  done;
  let uncrossed = refine ~accept !crossings interval in
  let points = ref (Option.to_list (meet q.capacity (constant Rat.zero))) in
  let prefixes before group =
    List.fold_left
      (fun filled i ->
        let filled = add filled items.(i).weight in
        Option.iter (fun t -> points := t :: !points) (meet q.capacity filled);
        filled)
      before group
  in
  let mid = Search.midpoint uncrossed in
  let order = Array.init k Fun.id in
  Array.stable_sort (fun i j -> - Rat.sign (eval (lead i j) mid)) order;
  let rec groups before pos =
    if pos < k then begin
      let next = ref (pos + 1) in
      while !next < k && Rat.is_zero (eval (lead order.(pos) order.(!next)) mid) do
        incr next
      done;
      let group = List.init (!next - pos) (fun d -> order.(pos + d)) in
      ignore (prefixes before (List.rev group));
      groups (prefixes before group) !next
    end
  in
  groups (constant Rat.zero) 0;
  let a, b = refine ~accept !points uncrossed in
  (* the open piece (a, b): one knapsack choice, one case, one sign of
     Y — and Y < 0 implies case 3.a, so the Y-guard rejects it all *)
  let mid = Search.midpoint (a, b) in
  let guarded = Rat.sign (eval q.capacity mid) < 0 in
  let unselected = (Pmtn_dual.bounds ~mode inst mid).unselected in
  let load = Rat.of_ints (l_low + unselected) inst.Instance.m in
  let theta = Rat.max a (Rat.max trivial load) in
  if guarded || Rat.( >= ) theta b then (b, b)
  else if Rat.( > ) theta a && accept theta then (theta, theta)
  else (theta, Rat.add theta (Rat.div_int (Rat.sub b theta) (1 lsl 40)))

let solve inst =
  let m = inst.Instance.m in
  let c = Instance.c inst in
  let trivial_int = Lower_bounds.setup_plus_tmax inst in
  let trivial = Rat.of_int trivial_int in
  let tests = ref 0 in
  let bound_test () =
    incr tests;
    Guard.tick "pmtn_cj.bound_test";
    Probe.count "pmtn_cj.bound_tests"
  in
  let accept tee =
    bound_test ();
    Rat.sign tee > 0 && Result.is_ok (Pmtn_dual.test ~mode inst tee)
  in
  (* Same test, phase-specific counters: region search (Theorem 6 stage 1,
     at the guess t/3, which it builds no Rat for) vs. the jump families
     of Lemmas 3/5. *)
  let accept_region t =
    Probe.count "pmtn_cj.region_steps";
    bound_test ();
    t > 0 && Result.is_ok (Pmtn_dual.test_fraction ~mode inst t 3)
  in
  let accept_jump t =
    Probe.count "pmtn_cj.jump_steps";
    accept t
  in
  (* ---- stage 1: region search over all partition breakpoints ---- *)
  (* In thirds every breakpoint is an integer: 6s_i, 12s_i, 3(s_i+P_i),
     4(s_i+P_i) and 6(s_i+t_j), with 3·trivial, 0 (the least, rejected)
     and 6N (2N, accepted, so the greatest is too). Instance.make's cap
     keeps 12·s_max a native int. *)
  let candidates =
    let a = Array.make (Instance.n inst + (4 * c) + 3) 0 in
    let next = ref 0 in
    let push v =
      a.(!next) <- v;
      incr next
    in
    push 0;
    push (6 * inst.Instance.total);
    push (3 * trivial_int);
    for i = 0 to c - 1 do
      let s = inst.Instance.setups.(i) and p = inst.Instance.class_load.(i) in
      push (6 * s);
      push (12 * s);
      push (3 * (s + p));
      push (4 * (s + p));
      Instance.iter_class_jobs (fun j -> push (6 * (s + inst.Instance.job_time.(j)))) inst i
    done;
    a
  in
  let region =
    let lo, hi = Search.region ~accept:accept_region candidates in
    (Rat.of_ints lo 3, Rat.of_ints hi 3)
  in
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
  (* ---- final: the frontier inside the jump-free interval (DESIGN.md §7.5) ---- *)
  let frontier, t_star =
    let mid = Search.midpoint (lo, hi) in
    let b = Pmtn_dual.bounds ~mode inst mid in
    (* the closed form: the knapsack term is >= 0, so no guess below
       [base] is accepted *)
    let base = Rat.max trivial (Rat.of_ints b.l_low m) in
    if b.m' > m || Rat.( >= ) base hi then (hi, hi)
    else if Rat.( < ) lo base && accept base then (base, base)
    else
      frontier_in_pieces ~accept ~trivial ~l_low:b.l_low inst (Pmtn_dual.quantities ~mode inst mid)
        (Rat.max lo base, hi)
  in
  if Probe.enabled () then
    Probe.event (Event.Note { source = "pmtn_cj"; key = "t_star"; value = Rat.to_string t_star });
  let schedule = Search.construct ~source:"pmtn_cj" (Pmtn_dual.run ~mode) inst t_star in
  { schedule; accepted = t_star; frontier; bound_tests = !tests }
