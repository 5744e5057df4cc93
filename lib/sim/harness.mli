(** The torture harness: systematic exploration of the fault-schedule
    space behind [bss torture].

    Where [bss fuzz --chaos] {e samples} seeded fault plans, this module
    {e enumerates} them: a census pass counts every fault opportunity a
    workload exposes (each chaos-site hit of a fault-free run, including
    the journal's write/rename/seal crash points), then every single-fault
    schedule — and, at [depth >= 2], a bounded pairwise frontier — runs
    the full batch loop in-process, crash-resuming from the journal as
    the schedule dictates. Each run is judged by {!Oracle.check}; any
    violating schedule is shrunk ({!minimize}) to a minimal reproducer
    and serialized as a replayable [bss-torture/1] artifact.

    Everything is deterministic: the workload is a seeded
    {!Bss_service.Request.soak_stream}, runs are single-worker with
    counted (not clocked) fault positions, and oracle details carry no
    timestamps — so replaying a reproducer yields a bit-identical
    violation report. *)

type config = {
  requests : int;  (** workload size (seeded soak stream) *)
  seed : int;
  depth : int;  (** 1 = single faults; >= 2 adds the pairwise frontier *)
  sites : string list;  (** site-name prefixes to enumerate; [["all"]] = every site *)
  max_pairs : int;  (** bound on pairwise schedules ([<= 0] = unbounded) *)
  dir : string;  (** scratch directory for the journal chain *)
  break_invariant : string option;
      (** test hook: report the first fired fault matching this site
          prefix as a synthetic exactly-once violation — the harness's
          own acceptance test, proving shrinking and replay end-to-end *)
  shrink_budget : int;  (** max schedule re-runs the shrinker may spend *)
}

(** 12 requests, seed 7, depth 1, all sites, 256 pairs, cwd, no hook,
    shrink budget 64. *)
val default_config : config

(** Census only: run the workload fault-free under a counting scope and
    return the per-site fault-opportunity counts, sorted by site. *)
val census : config -> (string * int) list

type failure = { schedule : Schedule.t; violations : Oracle.violation list }

(** A minimal, self-contained reproducer: workload coordinates, the
    (shrunk) schedule, the violations it draws, and the test hook that
    was armed — everything replay needs, nothing run-dependent. *)
type reproducer = {
  r_requests : int;
  r_seed : int;
  r_break : string option;
  r_schedule : Schedule.t;
  r_violations : Oracle.violation list;
}

type sweep = {
  census : (string * int) list;  (** site -> fault opportunities, sorted *)
  opportunities : int;  (** total hits across all sites *)
  explored : int;  (** schedules actually run *)
  violated : int;
  truncated : int;  (** pairwise schedules dropped by [max_pairs] *)
  salvaged_total : int;  (** corrupt journal lines salvaged across all verification reloads *)
  failures : failure list;  (** exploration order, un-shrunk *)
  reproducer : reproducer option;  (** the first failure, shrunk and re-run *)
  shrink_runs : int;
  baseline_summary : Bss_service.Runtime.summary;
}

(** [explore ?log cfg] runs the whole sweep: census, enumeration, one
    oracle-judged run per schedule (bumping [sim.schedules.explored] /
    [sim.schedules.violated] when probes are armed), and greedy shrinking
    of the first violating schedule. [log] receives progress lines. *)
val explore : ?log:(string -> unit) -> config -> sweep

(** [minimize ~budget ~violates schedule] greedily shrinks a violating
    schedule to a fixpoint: drop faults, then lower occurrence indices
    (direct-to-0, then halving), keeping any step for which [violates]
    still holds. At most [budget] calls to [violates]; the result always
    violates when the input did. Exposed for the unit suite — [violates]
    can be a pure predicate. *)
val minimize : budget:int -> violates:(Schedule.t -> bool) -> Schedule.t -> Schedule.t

(** [replay ~dir r] re-runs the reproducer's schedule under its recorded
    workload and test hook, returning it with the violations this replay
    observed — serialize and diff against the original artifact to check
    replay determinism. *)
val replay : dir:string -> reproducer -> reproducer

(** The [bss-torture/1] artifact (one JSON object). *)
val reproducer_json : reproducer -> string

(** Inverse of {!reproducer_json}; the parsed [r_violations] is [[]]
    (replay recomputes them). *)
val reproducer_of_string : string -> (reproducer, string) result

val render_census : (string * int) list -> string
val render_reproducer : reproducer -> string
val render_sweep : sweep -> string

(** A [bss-metrics/1] summary object carrying the baseline counters plus
    [salvaged] / [schedules_explored] / [schedules_violated] — readable
    by [bss report]. *)
val summary_json : sweep -> string
