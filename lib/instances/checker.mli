(** Exact feasibility checking of schedules, per problem variant.

    The checker enforces the paper's model: machines are single-threaded, a
    setup of class [i] precedes class-[i] processing whenever the machine
    starts or switches to class [i], setups are never preempted (always a
    single full-length segment), and every job is processed for exactly its
    processing time. Variant-specific rules: non-preemptive jobs run as one
    contiguous block on one machine; preemptive jobs never overlap
    themselves in time; splittable jobs are unconstrained.

    All checks are exact rational arithmetic — no tolerance. *)

open Bss_util

type violation =
  | Bad_machine_index of { machine : int }
      (** a non-empty machine with index [>= m] (more machines used than
          the instance has) *)
  | Overlap of { machine : int; at : Rat.t }
      (** two segments on one machine intersect in time *)
  | Bad_setup_duration of { machine : int; cls : int; at : Rat.t; got : Rat.t }
      (** a setup segment shorter/longer than [s_i] (setups are
          unpreemptable); [at] is the segment's start *)
  | Missing_setup of { machine : int; job : int; at : Rat.t }
      (** class-[i] work starting at [at] not preceded by a class-[i] setup
          or class-[i] work *)
  | Wrong_volume of { job : int; got : Rat.t; expected : Rat.t }
      (** total processed time differs from [t_j = expected] *)
  | Self_parallel of { machine : int; job : int; at : Rat.t }
      (** (preemptive) two pieces of one job overlap in time; [machine]
          runs the later-starting piece *)
  | Not_contiguous of { machine : int; job : int; at : Rat.t }
      (** (non-preemptive) job is preempted or split across machines;
          [(machine, at)] locate the first piece that breaks contiguity *)
  | Makespan_exceeded of { machine : int; got : Rat.t; bound : Rat.t }

val violation_to_string : violation -> string

(** [check variant instance schedule] validates the schedule; with
    [?makespan_bound] also checks every machine finishes by the bound.
    Returns all violations found (not just the first). *)
val check : ?makespan_bound:Rat.t -> Variant.t -> Instance.t -> Schedule.t -> (unit, violation list) result

(** [check_exn] raises [Failure] with a readable message on violations. *)
val check_exn : ?makespan_bound:Rat.t -> Variant.t -> Instance.t -> Schedule.t -> unit

(** [is_feasible] is [check] collapsed to a boolean. *)
val is_feasible : ?makespan_bound:Rat.t -> Variant.t -> Instance.t -> Schedule.t -> bool
