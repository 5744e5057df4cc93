(** Deterministic fuzz cases.

    A case is a name — a workload family plus an index under a master
    seed — that realizes to an {!Bss_instances.Instance.t} through a PRNG
    derived purely from [(master, family, index)]. Realization is therefore
    bit-reproducible regardless of evaluation order (the fuzz driver runs
    cases on several domains) and replayable from the id printed in a
    failure report.

    Roughly a third of the cases additionally pass the family's output
    through one or two adversarial mutations (value spikes, degenerate
    machine counts, class duplication, huge uniform scales) so the oracle
    also sees shapes no generator family produces on its own. *)

open Bss_instances

type t = {
  master : int;  (** the sweep's master seed *)
  family : string;  (** a {!Bss_workloads.Generator} family name *)
  index : int;  (** position in the sweep, [>= 0] *)
}

(** [make ~master ~family ~index] names a case.
    @raise Not_found when [family] is unknown. *)
val make : master:int -> family:string -> index:int -> t

(** ["family:index"], the replay id printed in reports. *)
val id : t -> string

(** [of_id ~master s] parses {!id} output.
    @raise Invalid_argument on malformed input or an unknown family. *)
val of_id : master:int -> string -> t

(** [seed t] is the SplitMix-style avalanche of [(master, family, index)]
    seeding this case's private PRNG. *)
val seed : t -> int

(** [instance ?max_m ?max_n t] realizes the case: draws [m] in
    [\[1, max_m\]] (default 8) and a target job count in [\[4, max_n\]]
    (default 48) from the case PRNG, generates from the family, and
    possibly mutates. Equal cases give equal instances. *)
val instance : ?max_m:int -> ?max_n:int -> t -> Instance.t
