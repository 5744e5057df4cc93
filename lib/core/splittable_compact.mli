(** The splittable 3/2-dual emitting machine configurations
    (Appendix C.1) — output size [O(n + c)] independent of [m].

    {!Splittable_dual} materializes one timetable per machine, which is
    the right interface for mid-sized fleets but costs [Ω(m)] when a few
    jobs are split across millions of machines. The paper's remedy: when a
    long job wraps across a run of {e identical} gaps, all middle machines
    carry the same layout — a setup at 0 and one piece filling the gap —
    and can be emitted as a single configuration with a multiplicity
    computed in constant time.

    This module rebuilds the Theorem 7 construction in that compact form.
    It accepts and rejects exactly like {!Splittable_dual.run} (it
    decides with {!Splittable_dual.test}), and on acceptance returns a {!Bss_instances.Config_schedule.t}
    whose expansion is splittable-feasible with makespan at most [3T/2]
    (property-tested against the explicit construction). *)

open Bss_util
open Bss_instances

type outcome =
  | Accepted of Config_schedule.t
  | Rejected of Dual.rejection

(** [run inst tee] is the compact dual. *)
val run : Instance.t -> Rat.t -> outcome

(** [solve inst] is class jumping (Theorem 3) on top of the compact
    construction: the accepted [T*] equals {!Splittable_cj.solve}'s, and
    the schedule is returned compactly. *)
val solve : Instance.t -> Config_schedule.t * Rat.t
