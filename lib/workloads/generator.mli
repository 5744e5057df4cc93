(** Synthetic workload families.

    The paper has no benchmark data sets (it is a theory paper), so the
    experiment harness measures its claims — ratio shapes and running-time
    growth — on these generators. Every family takes an explicit
    {!Bss_util.Prng.t}, making all experiments reproducible from a seed. *)

open Bss_util
open Bss_instances

type spec = {
  name : string;
  description : string;
  generate : Prng.t -> m:int -> n:int -> Instance.t;
      (** [n] is a target job count; families keep the actual count within
          a small constant of it (every class must be non-empty). *)
}

(** Uniform setups in [\[1, 50\]], times in [\[1, 100\]], [c ≈ n/8] classes
    of balanced sizes. *)
val uniform : spec

(** Small batches (Monma–Potts regime): many classes, each class's
    [s_i + P(C_i)] well under the average machine load. *)
val small_batches : spec

(** Adversarial for the Monma–Potts wrap: setups close to the machine
    share so the wrap pays nearly [s_max] over the volume bound. *)
val anti_wrap : spec

(** Tiny instances solvable by the exact oracles ([m <= 3], [n <= 9]). *)
val tiny : spec

(** Near-overflow magnitudes: few jobs whose setups and times sit close to
    the [max_int/16] construction cap, so every cross-multiplied comparison
    promotes to the exact {!Bss_util.Rat} tier. *)
val near_overflow : spec

(** All nine families in a stable order: the ones above and
    [single-job], [expensive], [zipf] and [anti-list], which are reached
    only through this list or {!by_name}. Each [description] says what
    the family draws. *)
val all : spec list

(** [by_name name] finds a family.
    @raise Not_found when unknown. *)
val by_name : string -> spec
