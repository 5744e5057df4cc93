(** Expected-linear-time selection on int arrays.

    The paper's preemptive dual approximation solves a {e continuous}
    knapsack in time [O(k)] by selection rather than sorting.
    {!Knapsack.solve_linear} selects the median-density item position,
    keeps the side that holds the critical item and recurses, so its
    expected total work is linear; the class-jumping searches read their
    integer breakpoints by rank the same way. This module provides the
    in-place quickselect both call. It allocates nothing. *)

(** [select ~cmp ~lo ~hi a k] rearranges the window [a.(lo..hi)] so that
    [a.(k)] holds the window's element of rank [k − lo] (0-based) under
    [cmp], everything in [\[lo, k)] is [<=] it and everything in
    [(k, hi\]] is [>=] it; returns [a.(k)]. Elements outside the window
    are not touched. When the window holds the elements of [a]'s ranks
    [lo .. hi] — as it does between two earlier selections of ranks
    [lo − 1] and [hi + 1] — [a.(k)] is [a]'s element of rank [k].
    Expected [O(hi − lo)] with randomized pivots.
    @raise Invalid_argument when [k] is outside the window or the window
    outside the array. *)
val select : cmp:(int -> int -> int) -> lo:int -> hi:int -> int array -> int -> int
