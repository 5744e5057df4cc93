(** Theorem 7: the 3/2-dual approximation for splittable scheduling
    (Appendix C).

    For a guess [T], let [β_i = ⌈2 P(C_i)/T⌉],
    [L_split = P(J) + Σ_{chp} s_i + Σ_{exp} β_i s_i] and
    [m_exp = Σ_{exp} β_i]. If [mT < L_split] or [m < m_exp] then [T < OPT];
    otherwise a feasible schedule of makespan at most [3T/2] is built in
    linear time:

    + each expensive class [i] is wrapped into [β_i] gaps of height [T/2]
      sitting on top of its own setup;
    + the cheap classes are wrapped into the leftovers of the last machines
      of step 1 (above [L(ū_i) + T/2]) and into gaps [(T/2, 3T/2)] on the
      unused machines, with room for one cheap setup below every gap.

    Additionally, [T < s_max] rejects immediately (OPT > s_max); [T = s_max]
    is allowed — every gap top [s_i + T/2] then still fits under [3T/2] —
    which keeps the acceptance set left-closed, a property the
    class-jumping search relies on. *)

open Bss_util
open Bss_instances

(** [test inst tee] runs every rejection check of {!run} — [T < s_max],
    [mT < L_split] and [m < m_exp] — in [O(c)], without building the
    schedule. The only copy of the acceptance inequalities: class jumping
    and {!Splittable_compact} decide with it too. *)
val test : Dual.test

(** [run inst tee] is the dual algorithm: {!test}, then the two wrapping
    steps. *)
val run : Dual.algorithm

(** [bounds inst tee] is [(L_split, m_exp)] — the rejection quantities,
    exposed for the class-jumping search, which also reads them at and
    below [s_max]. Requires [tee > 0]. *)
val bounds : Instance.t -> Rat.t -> Rat.t * int
