(** Named experiment suites: fixed (family, m, n, seed) grids behind
    [bss-experiments] and EXPERIMENTS.md, so every number in the report
    is reproducible. *)

open Bss_instances

type case = { label : string; instance : Instance.t }

(** The ratio-measurement suite behind Table 1: every family at a few
    machine counts, 3 seeds each (several dozen mid-sized instances). *)
val table1 : unit -> case list

(** Tiny suite with exact non-preemptive optima available. *)
val tiny_exact : unit -> case list
