(** Shared vocabulary of dual approximation algorithms (Hochbaum–Shmoys).

    A ρ-dual approximation receives the input and a makespan guess [T] and
    either computes a feasible schedule of makespan at most [ρT], or rejects
    [T], certifying [T < OPT]. The paper's 3/2-duals (Theorems 4, 5, 7, 9)
    reject through one of the load/machine-count inequalities below. *)

open Bss_util
open Bss_instances

(** Why a guess [T] was rejected; each constructor certifies [T < OPT]. *)
type rejection =
  | Below_trivial_bound of { bound : Rat.t }
      (** [T] is under a per-variant trivial lower bound ([s_max] for
          splittable, [max_i (s_i + t^(i)_max)] otherwise). *)
  | Load_exceeds of { required : Rat.t; available : Rat.t }
      (** the paper's [mT < L_x] test fired: total obligatory load beats
          [m·T] *)
  | Machines_exceed of { required : int; available : int }
      (** the paper's [m < m_x] test fired: obligatory machine count beats
          [m] *)

type outcome =
  | Accepted of Schedule.t  (** feasible, makespan [<= ρT] *)
  | Rejected of rejection  (** certified [T < OPT] *)

(** A dual algorithm: instance and guess to outcome. *)
type algorithm = Instance.t -> Rat.t -> outcome

(** A dual's decision procedure: every rejection check of the matching
    {!algorithm}, without building the schedule. [Ok ()] exactly when the
    algorithm accepts, and [Error r] carries the algorithm's own
    rejection. The searches probe many guesses with it and construct
    once, at the accepted guess. *)
type test = Instance.t -> Rat.t -> (unit, rejection) result

(** A dual: its decision procedure and its construction. *)
type t = { test : test; run : algorithm }

val pp_rejection : Format.formatter -> rejection -> unit
val pp_outcome : Format.formatter -> outcome -> unit

(** [accepted o] extracts the schedule of an [Accepted] outcome. *)
val accepted : outcome -> Schedule.t option

(** [is_accepted o]. *)
val is_accepted : outcome -> bool
