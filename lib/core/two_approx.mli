(** Theorem 1: linear-time 2-approximations for all three variants
    (Appendix A.2, Lemmas 8 and 9).

    - Splittable: wrap the single sequence [[s_i, C_i]] into one gap
      [(r, s_max, s_max + N/m)] per machine; makespan
      [<= s_max + N/m <= 2 T_min].
    - Non-preemptive and preemptive: next-fit with threshold [T_min],
      then move every border-crossing item to the start of the next
      machine (with a fresh setup when the item is a job) and drop setups
      left trailing; makespan [<= 2 T_min].

    Every returned schedule is feasible for its variant and has makespan at
    most [2·T_min(variant) <= 2·OPT]. *)

open Bss_instances

val splittable : Instance.t -> Schedule.t
val nonpreemptive : Instance.t -> Schedule.t

(** [solve variant inst] dispatches on the variant. *)
val solve : Variant.t -> Instance.t -> Schedule.t
