(** The three problem flavours studied by the paper. *)

type t =
  | Nonpreemptive  (** [P|setup=s_i|Cmax]: jobs run contiguously on one machine. *)
  | Preemptive  (** [P|pmtn,setup=s_i|Cmax]: preemption allowed, no self-parallelism. *)
  | Splittable  (** [P|split,setup=s_i|Cmax]: arbitrary splitting and parallelism. *)

(** All variants, in the fixed order non-preemptive, preemptive,
    splittable. *)
val all : t list

val to_string : t -> string
