(** Class partitions and minimal machine numbers for a makespan guess [T].

    For a threshold [T] the paper classifies classes as {e expensive}
    ([s_i > T/2]) or {e cheap} ([s_i <= T/2]) and refines both sides
    (Sections 2, 3.3, 4.1, 4.4):

    - [I+exp]: expensive with [T <= s_i + P(C_i)]
    - [I0exp]: expensive with [3T/4 < s_i + P(C_i) < T]
    - [I-exp]: expensive with [s_i + P(C_i) <= 3T/4]
    - [I+chp]: cheap with [T/4 <= s_i <= T/2]
    - [I-chp]: cheap with [s_i < T/4]
    - [C*_i] (for [i ∈ I-chp]): big jobs [{ j ∈ C_i | s_i + t_j > T/2 }]
    - [I*chp]: classes of [I-chp] with [C*_i] non-empty.

    It also defines the machine-count functions [α_i = ⌈P(C_i)/(T-s_i)⌉],
    [α'_i = ⌊P(C_i)/(T-s_i)⌋], [β_i = ⌈2P(C_i)/T⌉], [β'_i = ⌊2P(C_i)/T⌋],
    the preemptive-class-jumping [γ_i], and the non-preemptive [m_i]. *)

open Bss_util

type t = {
  tee : Rat.t;
  exp : int list;  (** [Iexp], ascending class ids *)
  chp : int list;  (** [Ichp] *)
  exp_plus : int list;  (** [I+exp] *)
  exp_zero : int list;  (** [I0exp] *)
  exp_minus : int list;  (** [I-exp] *)
  chp_plus : int list;  (** [I+chp] *)
  chp_minus : int list;  (** [I-chp] *)
  chp_star : int list;  (** [I*chp] *)
  big_jobs : int array array;  (** [C*_i] per class; empty unless [i ∈ I-chp] *)
}

(** [is_expensive inst tee i] is [s_i > T/2]. *)
val is_expensive : Instance.t -> Rat.t -> int -> bool

(** [make inst tee] computes the full partition in [O(n)]. *)
val make : Instance.t -> Rat.t -> t

(** [alpha inst tee i] is [⌈P(C_i)/(T - s_i)⌉].
    @raise Invalid_argument when [T <= s_i]. *)
val alpha : Instance.t -> Rat.t -> int -> int

(** [alpha' inst tee i] is [⌊P(C_i)/(T - s_i)⌋].
    @raise Invalid_argument when [T <= s_i]. *)
val alpha' : Instance.t -> Rat.t -> int -> int

(** [beta inst tee i] is [⌈2 P(C_i)/T⌉]. *)
val beta : Instance.t -> Rat.t -> int -> int

(** [beta' inst tee i] is [⌊2 P(C_i)/T⌋]. *)
val beta' : Instance.t -> Rat.t -> int -> int

(** [gamma inst tee i] is the preemptive class-jumping machine number of
    Section 4.4: [max(β'_i, 1)] when [P(C_i) - β'_i·T/2 <= T - s_i],
    else [β_i]. *)
val gamma : Instance.t -> Rat.t -> int -> int

(** [j_plus inst tee] is the set of big jobs [J+ = { j | t_j > T/2 }]. *)
val j_plus : Instance.t -> Rat.t -> int array

(** [k_set inst tee] is
    [K = ⋃_{i ∈ Ichp} { j ∈ C_i ∩ J− | s_i + t_j > T/2 }] (Section 3.3). *)
val k_set : Instance.t -> Rat.t -> int array

(** [m_i inst tee i] is the non-preemptive minimum machine count:
    [α_i] for expensive [i]; [|C_i ∩ J+| + ⌈P(C_i ∩ K)/(T−s_i)⌉] for cheap
    [i].
    @raise Invalid_argument when [T <= s_i]. *)
val m_i : Instance.t -> Rat.t -> int -> int

(** [native_guess inst p q] is true when the native dual tests can run at
    the guess [p/q] ([q >= 1], not necessarily in lowest terms): [p] is in
    [(0, 4Nq\]] and [16Nq] is a native int, so every product of a
    threshold, of [m_i_int], of [α'_i] or [γ_i] with [q] stays native. *)
val native_guess : Instance.t -> int -> int -> bool

(** [m_i_int inst p q i] is [m_i inst (Rat.of_ints p q) i] on native ints,
    with no allocation, for a guess with {!native_guess}: the count the
    non-preemptive test makes at a fast-tier guess.
    @raise Invalid_argument when [p/q <= s_i]. *)
val m_i_int : Instance.t -> int -> int -> int -> int
