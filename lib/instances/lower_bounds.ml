open Bss_util

let volume_bound inst = Rat.of_ints inst.Instance.total inst.Instance.m

(* a loop, not a closure: the native non-preemptive test calls this once
   per guess and allocates nothing else *)
let setup_plus_tmax inst =
  let best = ref 0 in
  for i = 0 to Instance.c inst - 1 do
    best := max !best (inst.Instance.setups.(i) + inst.Instance.class_tmax.(i))
  done;
  !best

let t_min variant inst =
  let base = volume_bound inst in
  match variant with
  | Variant.Splittable -> Rat.max base (Rat.of_int inst.Instance.s_max)
  | Variant.Preemptive | Variant.Nonpreemptive -> Rat.max base (Rat.of_int (setup_plus_tmax inst))

let lower_bound = t_min
