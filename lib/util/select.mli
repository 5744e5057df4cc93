(** Expected-linear-time selection.

    The paper's preemptive dual approximation solves a {e continuous}
    knapsack in time [O(k)] by selection rather than sorting.
    {!Knapsack.Linear} selects the median-density item, keeps the side that
    holds the critical item and recurses, so its expected total work is
    linear. This module provides the in-place quickselect it calls. *)

(** [select ~cmp a k] rearranges [a] so that [a.(k)] holds the element of
    rank [k] (0-based) under [cmp], everything before is [<=] it and
    everything after is [>=] it; returns [a.(k)].
    Expected [O(n)] with randomized pivots.
    @raise Invalid_argument when [k] is out of bounds. *)
val select : cmp:('a -> 'a -> int) -> 'a array -> int -> 'a
