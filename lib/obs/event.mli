(** Tagged records of algorithm-interior decisions.

    Every constructor witnesses a quantity the paper's analysis counts: a
    binary-search guess with its verdict (Theorems 2/8), a class-jumping
    interval at exit (Theorems 3/6), the knapsack path of Theorem 5, the
    Y-guard of DESIGN.md §7.1, compaction's closed gap volume, and the
    solver façade's candidate choice. The probe layer ({!Probe}) collects
    them into a {!Report.t}; renderings live in {!Render}. *)

open Bss_util

type t =
  | Guess_accepted of { source : string; t : Rat.t }
      (** a dual/bound test accepted makespan guess [t] *)
  | Guess_rejected of { source : string; t : Rat.t; reason : string }
      (** a dual/bound test rejected [t]; [reason] renders the certifying
          inequality (e.g. the paper's [mT < L] test) *)
  | Interval_exit of { source : string; lo : Rat.t; hi : Rat.t }
      (** the search interval [(lo, hi]] when a search terminated *)
  | Knapsack_path of { path : string; items : int }
      (** which continuous-knapsack solver ran: ["sorted"] or ["linear"] *)
  | Y_guard_fired of { t : Rat.t; deficit : Rat.t }
      (** the preemptive dual's extra rejection (DESIGN.md §7.1): the
          obligatory outside load beats the free time by [deficit] *)
  | Gap_closed of { volume : Rat.t }
      (** total idle volume removed by one compaction pass *)
  | Candidate_won of { name : string; makespan : Rat.t; margin : Rat.t }
      (** the solver façade kept candidate [name]; [margin] is how much
          shorter it was than the loser *)
  | Breaker_transition of { variant : string; change : string }
      (** a service circuit breaker changed state, e.g.
          [change = "closed->open"] (docs/service.md) *)
  | Alert of { kind : string; series : string; window : int; value : float; baseline : float }
      (** the live telemetry plane's anomaly detector fired on [series]
          in window [window]: [kind] is ["rate_spike"], ["p99_drift"] or
          ["burn_acceleration"] (docs/observability.md) *)
  | Note of { source : string; key : string; value : string }
      (** free-form scalar observation (e.g. the returned [T*]) *)

(** [(tag, value, detail)] — a flat rendering for CSV/table sinks. *)
val summary : t -> string * string * string

(** One JSON object (no trailing newline). *)
val to_json : t -> string

val pp : Format.formatter -> t -> unit
