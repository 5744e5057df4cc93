(** The one bench harness, behind [bss bench]: the only code in the
    repository that times a solver.

    Every case runs on a fixed seed and is timed as the median of
    warmed runs on the monotonic clock. The groups:
    - [table1/*]: every contender of the paper's Table 1 on one
      mid-sized instance (uniform, n=2000, m=16);
    - [scaling/*]: the near-linear running-time claims, each algorithm
      at n = 1k/4k/16k/64k (n=1k only when [quick]), and beside them
      [solve-robust-<variant>], a whole 3/2 [Solver.solve_robust] (search,
      best-of, compaction, checker); a full run also reports one log-log
      slope per algorithm. Plus one loopback
      serve+netsoak round trip ([scaling/net-throughput]) and the p99
      server-side solve time it carried back ([net/solve-p99]);
    - [small/*]: [solve-robust-<variant>] over 270 soak-shaped
      instances (nine families x 30 seeds, m in [2, 6], n in [8, 32]),
      the regime the service serves; a run solves all 270;
    - [ablation/*]: the design choices of DESIGN.md §6 (knapsack by sort
      vs selection, class jumping vs a fine binary search, compact vs
      explicit splittable construction, single- vs multi-limb
      rationals). A [rat-*] entry times a batch of 1,000 operations per
      run, so clock overhead does not dominate.
    One deterministic counter sweep of the instrumented solvers rides
    along. A capture serializes to schema-versioned JSON so two runs
    can be compared mechanically.

    The comparison policy ([against]) is asymmetric by design:
    - [scaling/*] timings gate with a relative tolerance (default 25%) —
      they carry the paper's near-linear running-time claim, and a
      same-machine before/after comparison at that tolerance survives
      normal scheduler noise;
    - every other group's timings are informational only (never gate);
    - telemetry counters must match {e exactly} — they are deterministic
      per instance and algorithm, so any drift is an algorithmic change,
      not noise. A counter new in the capture passes; one the capture
      lost fails. *)

type entry = {
  name : string;  (** [group/case] or [group/case/n=...] *)
  ns_per_run : float;  (** median wall-clock of the timed runs *)
  runs : int;  (** timed runs behind the median (after 1 warmup) *)
}

type t = {
  schema : string;  (** [schema_version] at capture time *)
  quick : bool;  (** scaling stops at n=1000, fewer timed runs *)
  meta : (string * string) list;
      (** capture provenance: [("git_rev", <commit sha or "unknown">)];
          optional in the file, so pre-meta captures still parse *)
  entries : entry list;
  counters : (string * int) list;
      (** merged deterministic counters from the instrumented sweep,
          sorted by name *)
}

(** ["bss-bench/1"] — bumped on any change to the JSON layout or the
    case set that would make old files incomparable. *)
val schema_version : string

(** [run ~quick] executes the suite: the table1 cases, the scaling cases
    at n=1000 (plus 4000, 16000 and 64000 unless [quick]), the
    ablations, the net round trip and the counter sweep. [progress]
    (default: none) receives one line per completed case and, in a full
    run, one slope line per scaling algorithm. *)
val run : ?progress:(string -> unit) -> quick:bool -> unit -> t

val to_json : t -> string

(** [of_json s] rejects unknown schemas and malformed documents with a
    one-line reason. *)
val of_json : string -> (t, string) result

type comparison = {
  table : string;
      (** the delta table: one row per current entry with baseline ns,
          current ns, ratio and verdict ([ok]/[REGRESS] for gated
          [scaling/*] rows, [info] for every other group, [new] without
          baseline) *)
  lines : string list;  (** one human-readable verdict line per counter *)
  failures : string list;  (** subset of checks that failed the gate *)
}

(** [against ~tolerance ~baseline current] compares a fresh capture to a
    baseline file: every [scaling/*] entry present in both must not be
    slower than [baseline * (1 + tolerance)], and every counter name
    present in both must match exactly. [tolerance] is a fraction
    (0.25 = 25%). Entries only on one side and counters only in the
    capture are reported but never fail — the case set is allowed to
    grow. A counter only in the baseline is reported as [GONE] and
    fails: retiring a counter needs a re-captured baseline. *)
val against : ?tolerance:float -> baseline:t -> t -> comparison
