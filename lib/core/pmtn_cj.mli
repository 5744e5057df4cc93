(** Theorem 6: 3/2-approximation for preemptive scheduling via Class
    Jumping (Algorithm 4), in [O(n log n)].

    The search runs against the γ-mode dual of Theorem 5 (Section 4.4),
    whose [I+exp] jumps have the form [2(s_i + P_i)/(κ + 2)] — the shape
    Lemma 5 needs so that between two consecutive jumps of a fastest class
    every other class jumps at most once. The search narrows a right
    interval through four stages:

    + binary search over all partition breakpoints ([2s_i], [s_i + P_i],
      [4(s_i+P_i)/3], [4s_i], and the big-job thresholds [2(s_i + t_j)]);
    + binary search over the γ-jumps [2(s_f+P_f)/(κ+2)] of the class
      maximizing [s_f + P_f] (Lemma 5);
    + binary search over the β-jumps [2P_g/κ] of the class maximizing
      [P_g] (Lemma 3) — these drive [β'_i/β_i] and hence [γ_i];
    + collect the [O(c)] single jumps of both families inside the final
      interval and binary search them.

    Inside the final jump-free interval the piecewise-constant part of the
    acceptance threshold is [max(trivial, L_low/m, Y-root)]; the remaining
    variation (the knapsack's unselected-setup term, which the paper keeps
    constant per right interval) is resolved by a bisection of exact dual
    tests seeded with that threshold, which runs exactly 40 rounds — every
    returned guess is verified accepted and lies at most [2^-40] times the
    interval's width above a rejected guess, and the property suite checks
    minimality against grid scans.

    Every bisection and class-jumping step runs in {!Search}; the
    schedule is built once, at [T*]. *)

open Bss_util
open Bss_instances

type result = {
  schedule : Schedule.t;
  accepted : Rat.t;  (** [T*]; the schedule's makespan is [<= (3/2)·T*] *)
  bound_tests : int;  (** number of construction-free dual tests *)
}

val solve : Instance.t -> result
