(** Theorem 3: 3/2-approximation for splittable scheduling via Class
    Jumping (Algorithm 1), in [O(n + c log(c + m))].

    The dual acceptance test of Theorem 7 is monotone in [T] (both
    [L_split] and [m_exp] only shrink as [T] grows while [mT] grows), and
    its acceptance set is left-closed, so
    [T* = min { T : accepted(T) } <= OPT] exists. Class Jumping locates
    [T*] exactly with [O(log(c+m))] bound evaluations of [O(c)] each:

    + binary search over the partition breakpoints [2·s̃_k] (plus [0] and
      [2N]) for the region whose interior has a fixed expensive set;
    + binary search over the jumps [2 P_f / κ] of a fastest-jumping class
      [f] ([P_f] maximal) — [κ] never exceeds [m + 1], since [m_exp > m]
      rejects;
    + between two consecutive jumps of [f], every other class jumps at most
      once (Lemma 3): collect and binary search those [O(c)] jumps;
    + inside the final jump-free interval the bounds are constant, so
      [T* = max(s_max, L_split/m)] (or the interval's right end when the
      machine test binds).

    The bisections and class-jumping steps run in {!Search}, with
    {!Splittable_dual.test} as the bound test; the returned schedule is
    the dual's schedule at [T*], built once: feasible with makespan
    [<= (3/2)·T* <= (3/2)·OPT]. *)

open Bss_util
open Bss_instances

type result = {
  schedule : Schedule.t;
  accepted : Rat.t;  (** [T*]; the schedule's makespan is [<= (3/2)·T*] *)
  bound_tests : int;  (** number of O(c) acceptance tests performed *)
}

val solve : Instance.t -> result

(** [find_t_star inst] is the search half only: the minimal accepted guess
    and the number of bound tests, without building a schedule. Used by
    the compact (Appendix C.1) construction. *)
val find_t_star : Instance.t -> Rat.t * int
