(** Theorem 5: the 3/2-dual approximation for general preemptive
    scheduling (Algorithm 3).

    For a guess [T]:

    + every class of [I0exp] ([3T/4 < s_i + P(C_i) < T]) gets its own
      {e large machine}, its load placed from [T/2] upward — sound by
      Lemma 10;
    + the free time [F] on the other [m − l] machines must host
      [J(I+exp ∪ I-exp ∪ I+chp)] entirely; big jobs of [I-chp] classes
      ([s_i + t_j > T/2], the set [C*_i]) cannot live on large machines
      alone (Lemma 4), so each contributes an obligatory piece
      [t^(2)_j = s_i + t_j − T/2] outside;
    + when [F] cannot host all of [I*chp], a {e continuous knapsack}
      (profits [s_i], weights [P(C_i) − L*_i], capacity [F − L*]) decides
      which classes live entirely outside; the fractional split item [e]
      is divided per Eq. (6);
    + the selected load forms a {e nice} instance placed by Algorithm 2 on
      the non-large machines (all cheap pieces at or above [T/2]); the
      leftovers [K] go below the large machines' loads: big leftovers
      ([t > T/4]) one per machine at the bottom, small ones wrapped into
      [(0, T/2)] and [(T/4, T/2)] gaps. Sibling pieces stay on opposite
      sides of the [T/2] line, so no job ever runs parallel to itself.

    Rejection (certifying [T < OPT]) happens on the trivial bound
    [max_i (s_i + t^(i)_max)], on [mT < L_pmtn], on [m < m'], or when the
    obligatory outside load exceeds [F]. *)

open Bss_util
open Bss_instances

(** [run inst tee] is the dual algorithm. [mode] selects how many
    machines an [I+exp] class occupies: [Alpha_prime] (default, Algorithm
    3) or [Gamma] (Section 4.4, used by class jumping). Both are valid
    3/2-duals. It analyses the guess in {!Rat}, as {!test_exact} does. *)
val run : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> Dual.outcome

(** [test inst tee] runs every rejection check of {!run} without building
    the schedule ([Ok ()] means {!run} would accept). Used by the searches,
    which probe many guesses and construct only once.

    At a fast-tier guess [p/q] with {!Partition.native_guess} it runs the
    whole analysis on native ints, in units of [1/(2q)]: the partition
    thresholds, [α'_i] or [γ_i], [F], [L*_i], the case-3.a switch, the
    Y-guard, the knapsack's selection (the greedy of
    {!Bss_knapsack.Knapsack.solve_linear}, on scaled ints), [L_pmtn] and
    [m']. The products the headroom cannot bound — [k_i·s_i], the
    [(m − l)·T] of [F] and the knapsack's cross products [s_a·w_b] — are
    guarded, and bound [m·T] and [L_pmtn] in turn; it builds a
    {!Rat} only for a rejection's payload, and an accepted case-3.b guess
    allocates nothing. It runs {!test_exact}'s analysis instead at a
    big-tier guess, outside the headroom, when a guard fails, and under
    [BSS_FORCE_EXACT]. Either way it ticks the [pmtn_dual.test] guard site
    once and moves [pmtn_dual.case_a]/[case_b], [pmtn_dual.y_guard] and
    [knapsack.linear_calls], with their events, once: a failed guard
    fails before any of them moves. Verdict and payload equal
    {!test_exact}'s. *)
val test : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> (unit, Dual.rejection) result

(** [test_fraction inst p q] is [test inst (Rat.of_ints p q)] for
    [q >= 1], without building the guess unless it takes the {!Rat}
    path: class jumping's stage 1 probes its breakpoints as [(t, 3)]. *)
val test_fraction : ?mode:Pmtn_nice.mode -> Instance.t -> int -> int -> (unit, Dual.rejection) result

(** [test_exact inst tee] is {!test} in {!Rat} arithmetic throughout: the
    exact reference, with the same guard tick, counters and events. The
    Y-guard's unselected term is every [I*chp] setup, as no class is
    selected there. *)
val test_exact : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> (unit, Dual.rejection) result

(** What the frontier of class jumping reads of one guess [T]: [L_pmtn]
    in two parts and [m']. *)
type bounds = {
  l_low : int;
      (** [L_pmtn] without its knapsack term: [N + Σ_{I+exp} (k_i − 1) s_i]
          for [k_i] machines per [I+exp] class *)
  m' : int;  (** the machine demand [m'] *)
  unselected : int;
      (** the knapsack term at [T]: [Σ s_i] over the unselected [I*chp]
          classes, so [L_pmtn = l_low + unselected] *)
}

(** [bounds inst tee] analyses [tee] as {!test} does — natively when it
    can, with the same counters and events — without its trivial-bound
    check.
    @raise Failure when [l_low] exceeds a native int (possible only in
    [Alpha_prime] mode). *)
val bounds : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> bounds

(** An affine function of the guess: [T ↦ at0 + slope·T]. *)
type line = { at0 : Rat.t; slope : Rat.t }

(** The knapsack item of an [I*chp] class in case 3.a: profit [s_i] and
    weight [P(C_i) − L*_i], where [L*_i = P(C*_i) − |C*_i| (T/2 − s_i)]. *)
type item = { profit : int; weight : line }

(** What class jumping reads of a guess [T] to cut its final interval.
    Inside a jump-free interval around [T] the partition and the γ
    machine counts are fixed, so the {!bounds}' [l_low] and [m'] are
    constant there and the [line]s hold for every guess of the
    interval. *)
type quantities = {
  capacity : line;
      (** [Y = F − L*], the knapsack capacity. Case 3.a holds iff [Y] is
          below the weights' sum (that is, [F < Σ_{I*chp} (s_i + P(C_i))]),
          so [Y < 0] implies it, and then the Y-guard rejects. *)
  items : item array;  (** one per [I*chp] class, in ascending class order *)
}

(** [quantities inst tee] builds the {!Rat} analysis of [tee] and reads
    its lines. It moves no counter: the caller has counted the analysis
    of [tee] through {!bounds}. *)
val quantities : ?mode:Pmtn_nice.mode -> Instance.t -> Rat.t -> quantities
