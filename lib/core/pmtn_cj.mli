(** Theorem 6: 3/2-approximation for preemptive scheduling via Class
    Jumping (Algorithm 4), in [O(n log n)]: [O(log n)] stage-1 tests of
    [O(n)] each. The paper's [O(n log(c + m))] needs [O(c)]-cost tests.

    The search runs against the γ-mode dual of Theorem 5 (Section 4.4),
    whose [I+exp] jumps have the form [2(s_i + P_i)/(κ + 2)] — the shape
    Lemma 5 needs so that between two consecutive jumps of a fastest class
    every other class jumps at most once. The search narrows a right
    interval through four stages:

    + binary search over all partition breakpoints ([2s_i], [s_i + P_i],
      [4(s_i+P_i)/3], [4s_i], and the big-job thresholds [2(s_i + t_j)]).
      They are kept as native ints in thirds and not sorted:
      {!Search.region} reads each probed rank by selection, in [O(n)]
      expected time overall, and each probe [t] runs Theorem 5's test at
      [t/3] on native ints ({!Pmtn_dual.test_fraction}), building no
      {!Bss_util.Rat};
    + binary search over the γ-jumps [2(s_f+P_f)/(κ+2)] of the class
      maximizing [s_f + P_f] (Lemma 5);
    + binary search over the β-jumps [2P_g/κ] of the class maximizing
      [P_g] (Lemma 3) — these drive [β'_i/β_i] and hence [γ_i];
    + collect the [O(c)] single jumps of both families inside the final
      interval and binary search them.

    Inside the final jump-free interval the partition, the γ counts,
    [L_low] and [m'] are constant ({!Pmtn_dual.bounds}, read natively at
    the interval's midpoint), and the knapsack capacity [Y] and every
    knapsack weight are affine in [T] ({!Pmtn_dual.quantities}). The
    closed form [max(trivial, L_low/m)] is a lower bound on every
    accepted guess and is [T*] when one exact test accepts it. Otherwise
    the interval is cut at the density crossings of the [I*chp] items
    and where the capacity meets a weight prefix (the empty prefix is the
    Y-guard root, the full one the switch of case 3.a); two bisections of
    exact tests find the piece holding the frontier, and
    [m·T = L_low + U] is solved on it for [θ]. When [θ] is
    accepted it is [T*]; otherwise [θ] is a certified-rejected guess at
    the piece's left end, every guess of the piece above it is accepted,
    and [T*] is [θ + (r − θ)/2^40] for the piece's right end [r].
    Enumerating the crossings costs [O(k²)] for the [k < 4m] classes of
    [I*chp], and only when the closed form is rejected.

    Every bisection and class-jumping step runs in {!Search}; the
    schedule is built once, at [T*]. *)

open Bss_util
open Bss_instances

type result = {
  schedule : Schedule.t;
  accepted : Rat.t;  (** [T*]; the schedule's makespan is [<= (3/2)·T*] *)
  frontier : Rat.t;
      (** the infimum [θ] of the accepted guesses: [accepted] itself when
          attained, otherwise a rejected guess (so [θ < OPT]) with
          [accepted − θ <= (hi − lo)/2^40] for the final interval
          [(lo, hi) ⊆ (0, 2N\]] and every guess in [(θ, accepted\]]
          accepted *)
  bound_tests : int;  (** number of construction-free dual tests *)
}

val solve : Instance.t -> result
