(** Theorem 4: the 3/2-dual approximation for {e nice} preemptive
    instances (Algorithm 2), generalized to batches of rational job pieces
    so that the general algorithm (Algorithm 3) can schedule its derived
    instance [I^(new)] through the same code.

    A batch is one class with a set of job pieces. For a makespan [T] the
    batches split into [I+exp] ([T <= s_i + P_i]), [I0exp]
    ([3T/4 < s_i + P_i < T]), [I-exp] ([s_i + P_i <= 3T/4]) and cheap
    ([s_i <= T/2]); the instance is nice when [I0exp] is empty.

    Construction:
    + every [I+exp] batch fills [α'_i = ⌊P_i/(T−s_i)⌋] machines — the
      first [α'_i − 1] exactly to [T], the last takes the remainder and
      ends below [3T/2] (each job obeys [s_i + t_j <= T], so wrapped pieces
      never self-overlap);
    + [I-exp] batches are paired two per machine (load [<= 3T/2]); an odd
      leftover sits alone on machine [µ];
    + cheap batches wrap into [(µ, T, 3T/2)] (odd case) and
      [(u, T/2, 3T/2)] gaps on the remaining machines — all cheap job
      pieces run at or above [T/2], which the general algorithm exploits to
      keep them clear of their sibling pieces below [T/2] on the large
      machines. *)

open Bss_util
open Bss_instances

type batch = { cls : int; pieces : (int * Rat.t) list (* (job, time), each > 0 *) }

(** How many machines an [I+exp] batch occupies, and the step-1 layout.

    [Alpha_prime] is Algorithm 2: [α'_i = ⌊P_i/(T−s_i)⌋] machines filled to
    [T] (the last takes the remainder, ending under [3T/2]).

    [Gamma] is the Section 4.4 modification used by preemptive class
    jumping: [γ_i] machines, each a gap of height [T/2] above the setup
    (so the class's jumps [2(s_i+P_i)/(γ+2)] depend less on [s_i]); the
    last machine absorbs up to [T − s_i] beyond its gap. *)
type mode =
  | Alpha_prime
  | Gamma

(** [batch_of_class inst i] is class [i] with all of its jobs whole. *)
val batch_of_class : Instance.t -> int -> batch

(** [l_nice inst tee batches] and [m_nice inst tee batches] are the
    rejection quantities of Theorem 4. *)
val l_nice : ?mode:mode -> Instance.t -> Rat.t -> batch list -> Rat.t

val m_nice : ?mode:mode -> Instance.t -> Rat.t -> batch list -> int

(** [place inst sched ~tee ~first_machine ~machines batches] schedules the
    batches onto machines [first_machine .. first_machine+machines-1] of
    [sched] with makespan at most [3T/2] per machine. The caller must have
    verified the Theorem 4 acceptance conditions; [Error] reports a
    construction overflow (a contract violation).
    @raise Invalid_argument when a batch is in [I0exp] (not nice). *)
val place :
  ?mode:mode -> Instance.t -> Schedule.t -> tee:Rat.t -> first_machine:int -> machines:int ->
  batch list -> (unit, string) result

(** [run_instance inst tee] is the standalone Theorem 4 dual for a whole
    instance that is nice for [tee].
    @raise Invalid_argument when the instance is not nice for [tee]. *)
val run_instance : ?mode:mode -> Instance.t -> Rat.t -> Dual.outcome
