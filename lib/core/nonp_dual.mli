(** Theorem 9: the 3/2-dual approximation for non-preemptive scheduling
    (Algorithm 6, Appendix D).

    For a guess [T], the jobs
    [L = ⋃_i { j ∈ C_i | s_i + t_j > T/2 }] pairwise exclude each other
    across classes (Note 5), giving per-class machine minima [m_i] and the
    rejection quantities [L_nonp = P(J) + Σ m_i s_i + Σ_{x_i>0} s_i] and
    [m' = Σ m_i] where [x_i = P(C_i) − m_i (T − s_i)].

    Otherwise the schedule is built in four steps:
    + schedule [L] (expensive classes whole; cheap big jobs [J+] one per
      machine; cheap [K]-jobs wrapped) on [m_i] machines per class,
      preemptively for now;
    + fill the remaining jobs of each cheap class onto its own machines
      (no new setups), splitting at the border [T];
    + greedily stack the leftover classes' chunks ([s_i] then jobs) across
      machines with load [< T], never splitting, moving on whenever an item
      crosses [T];
    + repair: replace each split job's first piece by the whole job
      (removing its sibling pieces), and move every step-3 border-crossing
      item below the item placed next on the following machine, adding the
      missing setups.

    The result is non-preemptively feasible with makespan at most [3T/2].
    [T < max_i (s_i + t^(i)_max)] rejects immediately (Note 2). *)

(** [test inst tee] runs every rejection check of {!run} — the trivial
    bound, [mT < L_nonp] and [m < m'] — without building the schedule.
    At a fast-tier guess [p/q] with {!Partition.native_guess} it counts
    [m_i], [L_nonp] and [m'] on native ints scaled by [q], with the
    products and sums that can overflow guarded by {!Intmath}'s [_exn]
    operations, and builds a {!Rat} only for a rejection's payload; an
    accepted guess allocates nothing. Theorem 8's integral guesses and
    Theorem 2's fractional ones both take this path. It runs
    {!test_exact} instead at a big-tier guess, outside the headroom, when
    a guard fails, and under [BSS_FORCE_EXACT], as {!Rat}'s own fast
    paths do. Both give the same verdict and payload. *)
val test : Dual.test

(** [test_exact inst tee] is {!test} in {!Rat} arithmetic throughout: the
    exact reference. *)
val test_exact : Dual.test

(** [run inst tee] is the dual algorithm: {!test}, then the four-step
    construction. *)
val run : Dual.algorithm
