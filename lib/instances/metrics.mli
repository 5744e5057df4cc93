(** Schedule quality metrics used by experiments and tests. *)

open Bss_util

type t = {
  makespan : Rat.t;
  total_load : Rat.t;  (** busy time summed over machines *)
  total_setup_time : Rat.t;  (** time spent in setups *)
  setup_count : int;
  preemption_count : int;  (** work segments beyond one per job *)
  machines_used : int;  (** machines with at least one segment *)
  idle_within_makespan : Rat.t;  (** [m·makespan − total busy] *)
}

val compute : Instance.t -> Schedule.t -> t

(** [ratio_vs lb metrics] is [makespan / lb] as a float (for reports). *)
val ratio_vs : Rat.t -> t -> float
