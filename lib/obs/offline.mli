(** Offline analysis of a previous run's machine-readable artifacts —
    the engine behind [bss report].

    Two inputs, both schema-versioned:

    - the metrics stream: [--window-every] window lines
      ({!Timeseries.window_json}, schema [bss-watch/1]) and/or the
      [--json] run summary (schema {!metrics_schema_version}). Human
      text interleaved in a captured stdout stream is skipped; a JSON
      record with a schema this build does not understand is an
      {e error}, not a skip — that rejection is what the tag exists
      for;
    - the trace file: the [--trace-out] Chrome trace, whose
      [cat:"request"] events ({!Render.chrome_trace}[ ~traces]) are
      regrouped into one row per request trace with a critical-path
      breakdown by the spans' ["phase"] attribute (queue wait vs solve
      attempts vs retry backoff vs journal append). *)

val metrics_schema_version : string
(** ["bss-metrics/1"]. *)

(** One metrics record: cumulative counters plus cumulative histogram
    snapshots (quantiles recomputed from buckets, not trusted). *)
type point = {
  completed : int;
  rejected : int;
  aborted : int;
  retries : int;
  queue_peak : int;
  waves : int;
  salvaged : int option;
      (** [service.journal.salvaged] — [None] when the artifact predates
          the counter or salvaged nothing, so old pinned reports are
          unchanged *)
  schedules_explored : int option;  (** [sim.schedules.explored] from [bss torture] *)
  schedules_violated : int option;  (** [sim.schedules.violated] from [bss torture] *)
  hists : (string * Hist.snapshot) list;
  gauges : (string * int) list;
      (** the latest window's current-value gauges (the breaker state
          numerics [service.breaker.state.<variant>]); [] for a run
          summary *)
}

val empty_point : point

val parse_metrics : string -> (point list, string) result
(** Parse a whole captured stream (JSONL, possibly interleaved with
    text) into its records, in file order. A run summary is one record.
    A window is folded into the stream's running cumulative record —
    counter deltas add, histogram deltas merge, the latest load
    ([service.queue.peak], [service.waves]) and gauge values stand —
    and yields it, so a window-only stream's last record has the summary's
    counters and the same histogram buckets. Window counters count live
    processing only (a resumed run's checkpoint restores are not in
    them), and a merged window histogram's min, max and exemplars come
    from bucket bounds and the windows' exemplar sets, so they (and a
    quantile clamped by them) may differ from the summary's. Errors,
    with the line number, on an unsupported schema, on a retired
    periodic [{"metrics":..}] line and on a stream with no records at
    all. *)

val last : point list -> point
(** The final (cumulative) record; {!empty_point} for []. *)

val counters : point -> (string * int) list
(** The counter fields as rows, fixed order; the optional counters
    ([service.journal.salvaged], [sim.schedules.*]) appear only when the
    artifact carried them. *)

(** One request trace regrouped from the Chrome trace file. *)
type trace_row = {
  trace_id : string;
  request_id : string;
  seq : int;  (** admission sequence (the event tid) *)
  total_ns : float;  (** root ["request"] span duration *)
  phases : (string * float) list;
      (** ["phase"] attribute -> summed ns, by first appearance *)
}

val parse_traces : string -> (trace_row list, string) result
(** Regroup a [--trace-out] file's [cat:"request"] events by trace.
    Errors when the input is not a Chrome trace or holds no request
    traces. *)

val slowest : k:int -> trace_row list -> trace_row list
(** Top [k] rows by total duration, ties in file order. *)

val percentile_table : point -> string
(** Histogram table: name, count, p50/p90/p99/max and the p99 bucket's
    exemplar trace IDs — the link into the trace file. *)

val counter_table : ?baseline:point -> point -> string
(** Counter table; with [baseline], a four-column diff
    (baseline/current/delta) between two runs. *)

val gauge_table : point -> string
(** Gauge table (name, numeric, decoded breaker state) — render only
    when {!point.gauges} is non-empty, so reports on older artifacts
    are unchanged. *)

val trace_table : trace_row list -> string
(** Critical-path table: per trace, total ms and the
    queue/solve/retry/journal/other split. *)
