(** Unified entry point: pick a problem variant and an algorithm, get a
    checked schedule with its quality certificate.

    This is the API the examples and the experiment harness use; each
    algorithm corresponds to one theorem of the paper. *)

open Bss_util
open Bss_instances

type algorithm =
  | Approx2  (** Theorem 1: 2-approximation, [O(n)] *)
  | Approx3_2_eps of Rat.t  (** Theorem 2: (3/2+ε)-approximation, [O(n log 1/ε)] *)
  | Approx3_2
      (** the exact 3/2-approximations: Theorem 3 (splittable, class
          jumping), Theorem 6 (preemptive, class jumping), Theorem 8
          (non-preemptive, integer binary search) *)

type result = {
  schedule : Schedule.t;
  guarantee : Rat.t;
      (** proven upper bound on [makespan / OPT] for this run: [2] for
          {!Approx2}, [3/2 + ε] for {!Approx3_2_eps}, [3/2] for
          {!Approx3_2} *)
  certificate : Rat.t;
      (** a value [X <= guarantee·OPT] with [makespan <= X]: [2·T_min] for
          {!Approx2}, [(3/2)·T_accepted] otherwise *)
  dual_calls : int;  (** dual/bound evaluations performed (0 for Approx2) *)
}

(** [solve ~algorithm variant inst] runs the requested algorithm. The
    returned schedule is feasible for [variant] (exercised by the test
    suite via the exact checker on every path). *)
val solve : algorithm:algorithm -> Variant.t -> Instance.t -> result

(** [dual_for variant] is the variant's 3/2-dual (Theorems 5, 7, 9): the
    one {!Approx3_2_eps} searches with. The preemptive dual is
    {!Pmtn_dual}'s default [Alpha_prime] mode. *)
val dual_for : Variant.t -> Dual.t

(** [algorithm_name ~algorithm variant] is a short display name, e.g.
    ["3/2 class-jumping (split)"] . *)
val algorithm_name : algorithm:algorithm -> Variant.t -> string

(** {1 Resilient solving}

    [solve_robust] runs the requested algorithm under a
    {!Bss_resilience.Guard} and, when the run is cut short — budget
    exhausted, deadline passed, an internal raise, or an injected
    {!Bss_resilience.Chaos} fault — walks down a degradation ladder:

    {v requested algorithm → 2-approx (Thm 1) → list scheduling v}

    Every rung's output is re-validated with the exact checker before it is
    returned, and each rung it descends past is recorded in [attempts]. The
    terminal rung is {!Bss_baselines.List_scheduling.greedy}: unguarded
    straight-line code that always succeeds, so [solve_robust] never
    raises. *)

type attempt = { rung : string; error : Bss_resilience.Error.t }

type robust = {
  schedule : Schedule.t;  (** feasible for the variant (checker-verified) *)
  rung : string;
      (** the rung that produced [schedule]: ["requested"], ["two-approx"]
          or ["list-scheduling"] *)
  guarantee : Rat.t option;
      (** certified approximation ratio of the rung actually used; [None]
          for the uncertified terminal rung *)
  certificate : Rat.t option;  (** as in {!result}; [None] for the terminal rung *)
  dual_calls : int;  (** dual/bound evaluations of the successful rung *)
  attempts : attempt list;  (** rungs that failed before it, in ladder order *)
  fuel_spent : int;  (** guard ticks charged across all guarded rungs *)
}

(** [solve_robust ?deadline_ms ?fuel ~algorithm variant inst] solves under
    a budget. The deadline and fuel are shared by the guarded rungs (fuel
    spent on a failed rung stays spent); the 2-approx rung charges no
    ticks, so it completes even on an exhausted budget — the paper's
    Theorem 1 guarantee is what the ladder degrades {e to}, not through.
    With no limits and no armed chaos this is {!solve} plus one
    feasibility check. *)
val solve_robust :
  ?deadline_ms:int -> ?fuel:int -> algorithm:algorithm -> Variant.t -> Instance.t -> robust
