(** The fuzz driver: sweep deterministic cases through every oracle.

    A sweep is fully described by its {!config}; equal configs give
    bit-identical reports (cases derive private PRNGs from
    [(master, family, index)] and properties are pure), regardless of how
    many domains execute it. Failing cases are minimized with
    {!Shrink.minimize} against the violated property before reporting. *)

open Bss_instances
open Bss_core

type config = {
  master : int;  (** master seed *)
  cases : int;  (** number of cases, round-robin over [families] *)
  families : Bss_workloads.Generator.spec list;
  variants : Variant.t list;
  algorithms : (string * Solver.algorithm) list;
  max_m : int;
  max_n : int;
  domains : int option;  (** worker domains; [None] = {!Bss_util.Parallel.recommended} *)
  shrink_budget : int;  (** predicate evaluations per failure minimization *)
}

(** 100 cases over all families, variants and default algorithms,
    [master = 0], [max_m = 8], [max_n = 48], shrink budget 400. *)
val default_config : config

type failure = {
  case : Case.t;
  property : string;
  message : string;
  instance : Instance.t;  (** the raw counterexample *)
  shrunk : Instance.t;  (** local minimum still violating the property *)
  shrink_steps : int;
}

type prop_stats = {
  property : string;
  theorem : string;
  cases : int;  (** cases the property ran on *)
  passed : int;
  skipped : int;
  failed : int;
}

type crash = {
  case : Case.t;
  message : string;  (** the escaped exception, printed *)
}

type report = {
  config : config;
  stats : prop_stats list;
  failures : failure list;
  crashes : crash list;
      (** cases whose evaluation itself died (outside the per-property
          containment). The sweep survives them: all other cases report
          normally and the crashed case's replay id is preserved. *)
}

(** [case_of_index config i] is the [i]-th case of the sweep. *)
val case_of_index : config -> int -> Case.t

(** [run_case config case] evaluates every property on the case's
    instance, exceptions folded into [Fail]. *)
val run_case : config -> Case.t -> (Property.t * Property.outcome) list

(** [run config] executes the sweep on the configured domains. *)
val run : config -> report

(** [render report] is the stats table plus one block per failure,
    including the shrunk counterexample and a replay hint. Ends with a
    one-line verdict. *)
val render : report -> string

(** [replay config case] re-runs one case verbosely: instance dump plus a
    per-property verdict table. Returns the rendering and [true] when no
    property failed. *)
val replay : config -> Case.t -> string * bool

(** {1 Chaos sweeps}

    A chaos sweep drives {!Bss_core.Solver.solve_robust} — not the
    property oracles — over the configured cases while
    {!Bss_resilience.Chaos} injects deterministic faults into the
    algorithm interiors, and asserts the resilience contract: every run
    returns a checker-feasible schedule from some ladder rung and no
    exception escapes. *)

type chaos_report = {
  chaos_config : config;
  chaos_seed : int;
  sweeps : int;  (** ladder runs: cases × variants × algorithms *)
  rung_counts : (string * int) list;  (** runs finishing on each rung, sorted *)
  degraded : Case.t list;  (** cases where some run left the requested rung *)
  chaos_crashes : (Case.t * string) list;  (** escaped exceptions — contract violations *)
  chaos_infeasible : (Case.t * string) list;  (** checker rejections — contract violations *)
}

(** [chaos_sweep config ~chaos] runs sequentially on the calling domain,
    which arms each case's plan for that case alone. Each case's fault plan is
    {!Bss_resilience.Chaos.plan_of_seed} on a hash of [(chaos, case)], so
    equal configs and seeds inject identical faults. *)
val chaos_sweep : config -> chaos:int -> chaos_report

(** Rung-count table, one line per contract violation, and a verdict. *)
val render_chaos : chaos_report -> string
