(** Theorem 2: binary search over makespan guesses with a 3/2-dual
    algorithm, yielding a (3/2 + ε)-approximation in [O(n log 1/ε)].

    [OPT ∈ [T_min, 2 T_min]] (Theorem 1), and every dual in this library
    accepts any [T >= OPT]. The search keeps an interval [(lo, hi]] with
    [lo] rejected (hence [lo < OPT]) and [hi] accepted, halving until
    [hi − lo <= ε'·T_min] with [ε' = 2ε/3]; then the accepted schedule has
    makespan [<= (3/2)·hi <= (3/2)(1 + ε')·OPT = (3/2 + ε)·OPT]. *)

open Bss_util
open Bss_instances

type result = {
  schedule : Schedule.t;
  accepted : Rat.t;  (** the accepted guess; makespan [<= (3/2)·accepted] *)
  dual_calls : int;  (** number of [test] invocations (for ablations) *)
}

(** [search ~test ~run ~epsilon ~t_min inst] runs the search: it probes
    every guess with the dual's [test] and calls its [run] once, at the
    accepted guess. [epsilon] must be positive; [t_min] is the variant's
    {!Bss_instances.Lower_bounds.t_min}.
    @raise Invalid_argument on non-positive [epsilon].
    @raise Failure if the dual rejects [2·t_min], or if [run] rejects a
    guess [test] accepted (dual-contract violations — cannot happen for
    the duals in this library). *)
val search :
  test:Dual.test -> run:Dual.algorithm -> epsilon:Rat.t -> t_min:Rat.t -> Instance.t -> result
