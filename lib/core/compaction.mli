(** Schedule compaction: close idle gaps without breaking feasibility.

    The paper's dual constructions place load deliberately high (cheap
    wraps between [T/2] and [3T/2], large-machine content parked at
    [T/2]), so their schedules contain idle time a practitioner would
    reclaim. Compaction replays every segment in original (start,
    machine) order and starts it as early as its machine — and, in the
    preemptive variant, its job's earlier pieces — allow:

    [new_start = max(machine_front, job_front)].

    By induction no segment starts later than before, so the makespan
    never increases, relative orders are preserved (setup-before-class
    stays intact), and pieces of one job stay sequential. The result is
    feasible whenever the input is (property-tested via the exact
    checker).

    The replay runs in one of two ways, with the same result:
    - {b Per machine} (non-preemptive and splittable): [job_front] never
      binds, because a splittable piece never waits for its job and a
      non-preemptive job's pieces share one machine, whose front is past
      them already. Each machine's segments are laid back to back from 0
      in its own start order: [O(S)] for [S] segments when they were
      appended in start order (see {!Bss_instances.Schedule.segments}),
      [O(S log S)] at worst.
    - {b Merged} (preemptive): only a job with pieces on two machines can
      wait for its own earlier piece. Each machine lays its other
      segments at its front as it reaches them, and the spanning jobs'
      pieces are taken in (start, machine) order by merging the
      machines' next such pieces through a binary heap of the [m] machine
      heads: [O(S + K log m)] for [K] spanning pieces, [O(S log m)] at
      worst. A preemptive schedule that keeps each job on one machine
      merges nothing.

    {!makespan} reads the compacted makespan without building the
    schedule: the largest machine load for the per-machine variants, and
    a merged pass that only advances the fronts for the preemptive one. The
    solver's best-of compares its two candidates by it and compacts only
    the winner. *)

open Bss_util
open Bss_instances

(** [compact variant inst sched] is the repacked schedule. A
    non-preemptive [sched] must keep each job on one machine, as every
    feasible one does. *)
val compact : Variant.t -> Instance.t -> Schedule.t -> Schedule.t

(** [makespan variant inst sched] is [Schedule.makespan (compact variant
    inst sched)], computed without building the schedule and without
    counting a compaction run. *)
val makespan : Variant.t -> Instance.t -> Schedule.t -> Rat.t
