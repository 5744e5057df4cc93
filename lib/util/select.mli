(** Expected-linear-time selection.

    The paper's preemptive dual approximation solves a {e continuous}
    knapsack in time [O(k)] by selection rather than sorting.
    {!Knapsack.Linear} selects the median-density item, keeps the side that
    holds the critical item and recurses, so its expected total work is
    linear. This module provides the in-place quickselect it calls. *)

(** [select ~cmp ?lo ?hi a k] rearranges the window [a.(lo..hi)] (the whole
    array by default) so that [a.(k)] holds the window's element of rank
    [k − lo] (0-based) under [cmp], everything in [\[lo, k)] is [<=] it
    and everything in [(k, hi\]] is [>=] it; returns [a.(k)]. Elements
    outside the window are not touched. When the window holds the
    elements of [a]'s ranks [lo .. hi] — as it does between two earlier
    selections of ranks [lo − 1] and [hi + 1] — [a.(k)] is [a]'s element
    of rank [k]. Expected [O(hi − lo)] with randomized pivots.
    @raise Invalid_argument when [k] is outside the window or the window
    outside the array. *)
val select : cmp:('a -> 'a -> int) -> ?lo:int -> ?hi:int -> 'a array -> int -> 'a
