(** Checkable laws of the paper, run against one instance.

    Every property is a pure function of the instance (through a
    memoizing {!Context}), so a failure reproduces deterministically and
    the shrinker can re-evaluate it on smaller instances. All comparisons
    are exact in {!Bss_util.Rat} — no floats, no tolerances.

    The laws, and the theorem each one checks:

    - [feasibility] — Theorems 1–9: every solver schedule passes the exact
      per-variant checker.
    - [certificate] — Theorems 1–3: [T_min <= makespan <= certificate],
      [makespan <= 2·T_min] and [certificate <= 2·guarantee·T_min].
    - [ratio-exact] — Theorems 1, 3, 6, 8 on oracle-sized instances:
      [OPT <= makespan <= guarantee·OPT] against the exact optima (the
      preemptive makespan is sandwiched by [OPT_split] from below and
      [guarantee·OPT_nonp] from above).
    - [opt-dominance] — §1: [T_min_split <= T_min_pmtn <= T_min_nonp] and,
      when exact optima are affordable, [OPT_split <= OPT_nonp].
    - [cross-feasibility] — §1 (variant relaxation chain): a
      non-preemptive schedule is feasible preemptively and splittably; a
      preemptive schedule is feasible splittably.
    - [dual-monotone] — Theorems 4, 5, 7, 9: along a guess ladder
      [T = k/8·T_min], k = 1..24, each dual's [test] and [run] agree on
      the verdict and the rejection, no rejection follows an acceptance,
      and every accepted schedule is feasible with makespan [<= 3/2·T].
    - [two-tier-exact] — {!Bss_util.Rat} certification: re-solving with
      the fast tier disabled ({!Bss_util.Rat.with_force_exact}) yields a
      bit-identical schedule, makespan, certificate and checker verdict. *)

open Bss_instances

type outcome =
  | Pass
  | Skip of string  (** the law does not apply (e.g. instance too large for the exact oracles) *)
  | Fail of string

type t = {
  name : string;
  theorem : string;  (** paper citation, e.g. ["Thm 1-9"] *)
  check : Context.t -> outcome;
}

(** The properties above, in a stable order. *)
val all : t list

(** [find name] looks a property up in {!all} @raise Not_found. *)
val find : string -> t

(** [check_instance prop ?variants ?algorithms inst] builds a fresh
    context and runs one property, catching exceptions into [Fail]. *)
val check_instance :
  ?variants:Variant.t list ->
  ?algorithms:(string * Bss_core.Solver.algorithm) list ->
  t ->
  Instance.t ->
  outcome
