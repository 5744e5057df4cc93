(** Continuous (fractional) knapsack, exact rational arithmetic.

    The preemptive 3/2-dual approximation (Section 4.2, case 3.a) decides
    which cheap classes to schedule entirely off the large machines by
    solving a continuous knapsack: profits are setup times, weights are
    non-obligatory loads, the capacity is the remaining free time. An
    optimal continuous solution has at most one fractional item — the
    paper's split item [e].

    Two solvers with the same optimal value: {!solve_sorted} sorts by
    profit/weight density ([O(k log k)]), {!solve_linear} recurses on
    median densities (expected [O(k)], the bound the paper cites). Among
    items of equal density they may take different ones whole. The
    greedy of {!solve_linear} is written once, over any exact weight
    arithmetic ({!Greedy}): the preemptive dual's native test runs it on
    scaled ints and must select exactly what {!solve_linear} selects,
    since among items of equal density the fill order decides which are
    left out. A 0/1 DP {!integral_oracle} exists only as a test oracle. *)

open Bss_util

type item = { id : int; profit : Rat.t; weight : Rat.t }
(** [weight >= 0], [profit >= 0]. *)

type solution = {
  take : Rat.t array;  (** fraction of each input item taken, in [\[0,1\]] *)
  value : Rat.t;  (** total fractional profit *)
  used : Rat.t;  (** total fractional weight, [<= capacity] *)
  split : int option;  (** index (into the input array) of the one fractional item *)
}

(** [solve_sorted items ~capacity] — greedy by density after sorting.
    Zero-weight items are always taken fully. A non-positive capacity takes
    only zero-weight items.
    @raise Invalid_argument on negative weights or profits. *)
val solve_sorted : item array -> capacity:Rat.t -> solution

(** [solve_linear items ~capacity] — expected linear time via median-density
    partitioning; same optimal value as {!solve_sorted}. It runs
    {!Greedy}'s [fill] on {!Rat} weights after {!note_linear}. *)
val solve_linear : item array -> capacity:Rat.t -> solution

(** [note_linear ~items] counts [knapsack.linear_calls] and records the
    [Knapsack_path] event of a linear solve over [items] items: what
    {!solve_linear} records, for a caller that runs {!Greedy} itself. *)
val note_linear : items:int -> unit

(** An exact, totally ordered weight arithmetic. *)
module type WEIGHT = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val compare : t -> t -> int
end

(** The median-partition greedy of {!solve_linear}, with no counter and no
    event. *)
module Greedy (W : WEIGHT) : sig
  (** [fill ~density_compare weights full capacity] fills the positions
      [0 .. k − 1] of [weights] by density, [density_compare a b] having
      the sign of density [a] minus density [b] (it is not called on a
      zero weight). It sets [full.(p)] for each position taken whole —
      every zero weight, then the densest positive ones that fit — and
      returns the one position taken in part, if any, with the capacity
      left for it. A non-positive capacity takes only the zero weights. *)
  val fill :
    density_compare:(int -> int -> int) -> W.t array -> bool array -> W.t -> (int * W.t) option
end

(** [integral_oracle ~profits ~weights ~capacity] solves 0/1 knapsack by DP
    over integer capacity (test oracle; small inputs only). Returns the
    optimal total profit. *)
val integral_oracle : profits:int array -> weights:int array -> capacity:int -> int
