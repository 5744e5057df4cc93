(** The three problem flavours studied by the paper. *)

type t =
  | Nonpreemptive  (** [P|setup=s_i|Cmax]: jobs run contiguously on one machine. *)
  | Preemptive  (** [P|pmtn,setup=s_i|Cmax]: preemption allowed, no self-parallelism. *)
  | Splittable  (** [P|split,setup=s_i|Cmax]: arbitrary splitting and parallelism. *)

let all = [ Nonpreemptive; Preemptive; Splittable ]

let to_string = function
  | Nonpreemptive -> "non-preemptive"
  | Preemptive -> "preemptive"
  | Splittable -> "splittable"
