(** The monotone searches of Theorems 2, 3, 6 and 8, factored.

    Every 3/2 result of the paper searches makespan guesses [T] with a
    dual's rejection test, which is monotone in [T]: rejected below some
    threshold, accepted from it on. Only the accepted guess needs a
    schedule, so the searches probe with {!Dual.test} and call
    {!Dual.run} once, at the end ({!construct}).

    This module owns every bisection those searches run and every
    class-jumping step the splittable (Theorem 3) and preemptive
    (Theorem 6) searches share. Each function probes in a fixed,
    documented order, so the probe count of a search is a pure function
    of its input. *)

open Bss_util
open Bss_instances

(** {1 Bisection} *)

(** [bisect lo hi p] is the least [k] in [(lo, hi\]] with [p k], for [p]
    monotone (false then true) with [p lo] false and [p hi] true. The
    endpoints are taken as known and never probed; each round probes the
    midpoint [(lo + hi) / 2] of the current range. On return the last
    rejected point is [k − 1] whenever [lo < hi]. *)
val bisect : int -> int -> (int -> bool) -> int

(** [first_true a b p] is the least [k] in [\[a, b\]] with [p k], or
    [None] when there is none, for [p] monotone. It probes [a] (when true
    the answer is [a]), then [b] (when false there is no answer), and
    only then runs {!bisect}[ a b p]. A one-point range ([a = b]) is
    probed twice. *)
val first_true : int -> int -> (int -> bool) -> int option

(** [bisect_rat ~stop p lo hi] halves the rational interval [(lo, hi)]
    at exact midpoints, keeping [p] false at [lo] and true at [hi] (both
    taken as known), until [stop ~rounds lo hi] holds; [rounds] counts
    the probes made so far. Returns the final [(lo, hi)]. *)
val bisect_rat :
  stop:(rounds:int -> Rat.t -> Rat.t -> bool) -> (Rat.t -> bool) -> Rat.t -> Rat.t -> Rat.t * Rat.t

(** [midpoint (lo, hi)] is [(lo + hi) / 2]. *)
val midpoint : Rat.t * Rat.t -> Rat.t

(** {1 Guesses and construction} *)

(** A search's probe names, built once per search module. *)
type probe

(** [probe source] names the guard site [source ^ ".guess"] and the
    counters [source ^ ".guesses"], [".accepted"] and [".rejected"]. *)
val probe : string -> probe

(** [guess p test tee] is [test tee], instrumented: one guard tick at the
    probe's site, the [guesses] counter, a [dual] span around the test,
    then the [accepted] or [rejected] counter and the matching
    [Guess_accepted] / [Guess_rejected] event. *)
val guess : probe -> (Rat.t -> (unit, Dual.rejection) result) -> Rat.t -> (unit, Dual.rejection) result

(** [construct ~source run inst tee] is the schedule [run] builds at an
    accepted guess.
    @raise Failure when [run] rejects [tee] — the dual's [test] accepted
    it, so its [run] broke the {!Dual.test} contract. *)
val construct : source:string -> Dual.algorithm -> Instance.t -> Rat.t -> Schedule.t

(** {1 Class-jumping steps}

    Both class-jumping searches narrow a right interval [(lo, hi)], [lo]
    rejected and [hi] accepted, until no partition quantity jumps inside
    it. *)

(** [region ~accept candidates] bisects the sorted partition
    breakpoints, taking [candidates.(0)] as rejected and the last one as
    accepted, and returns the two neighbours [(rejected, accepted)]
    around the first accepted breakpoint. *)
val region : accept:(Rat.t -> bool) -> Rat.t array -> Rat.t * Rat.t

(** [fastest key classes] is the first class of the non-empty list
    [classes] that maximizes [key]: the fastest-jumping class. *)
val fastest : (int -> int) -> int list -> int

(** A jump family [{num; shift}]: the points [num / (κ + shift)], which
    decrease as [κ] grows. Class [i]'s β-jumps are [{num = 2 P_i;
    shift = 0}] (Lemma 3); its γ-jumps are [{num = 2 (s_i + P_i);
    shift = 2}] (Lemma 5). Only the [κ] with [κ + shift >= 1] and
    [κ <= cap] count: beyond [cap] the machine test rejects. *)
type family = { num : int; shift : int }

(** [narrow ~accept ~cap f (lo, hi)] narrows the interval to two
    consecutive points of [f] (or to one end of the [κ] range whose
    points lie inside it) by {!first_true} over [κ] with the predicate
    "rejected": it probes the least [κ], then the greatest, then
    bisects. The interval is returned unchanged when no point of [f]
    lies inside it. *)
val narrow : accept:(Rat.t -> bool) -> cap:int -> family -> Rat.t * Rat.t -> Rat.t * Rat.t

(** [single_jumps ~counter ~accept ~cap families (lo, hi)] collects the
    points of [families] strictly inside the interval — after the
    narrowing each family jumps there at most once (Lemmas 3 and 5); up
    to four points per family are taken defensively — counts them under
    [counter], and narrows the interval to two consecutive ones by
    {!first_true} over the sorted points with the predicate "accepted". *)
val single_jumps :
  counter:string -> accept:(Rat.t -> bool) -> cap:int -> family list -> Rat.t * Rat.t -> Rat.t * Rat.t
