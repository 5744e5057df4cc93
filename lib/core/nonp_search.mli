(** Theorem 8: exact 3/2-approximation for non-preemptive scheduling in
    [O(n log(n + Δ))].

    [OPT] is integral (all inputs are integers and nothing is preempted),
    and [OPT ∈ [⌈T_min⌉, 2 T_min]], so an integer binary search
    ({!Search.bisect}) with the test of the 3/2-dual of Theorem 9 finds
    the smallest accepted integer [T* <= OPT]; the dual's schedule at
    [T*], built once, has makespan [<= (3/2)·T* <= (3/2)·OPT]. *)

open Bss_util
open Bss_instances

type result = {
  schedule : Schedule.t;
  accepted : Rat.t;  (** integral [T*]; makespan [<= (3/2)·T*] *)
  dual_calls : int;  (** number of {!Nonp_dual.test} calls *)
}

val solve : Instance.t -> result
