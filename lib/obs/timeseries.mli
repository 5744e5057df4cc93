(** The live telemetry plane's windowed time-series engine: a
    fixed-capacity ring of {e windows} — deltas between successive
    cumulative samples — with per-series EWMA baselines and a
    threshold-based anomaly detector.

    {b Window semantics.} The producer (the service runtime) pushes one
    cumulative {!sample} every [window_every] processed requests; a
    window id is therefore derived from the admission/completion
    sequence, never from the wall clock, and the stream replays
    bit-for-bit across worker counts. Counter deltas subtract exactly;
    histogram deltas go through {!Hist.diff}, which is exact bucket-wise.
    The window stream is the service's one periodic telemetry stream:
    [bss top] renders it live, [bss soak] and [bss serve --batch] print
    it to stdout, and [bss report] folds it back into cumulative
    records ({!Offline.parse_metrics}). Memory is
    bounded by 64 windows — the ring overwrites oldest-first —
    and the cumulative totals always reconcile: summing a field's deltas
    over the full stream (the final window included) reproduces the
    producer's final cumulative counter.

    {b Determinism partition.} A window's fields are split into a
    deterministic prefix (id, coverage, counter deltas, gauges, alerts)
    and a timing tail ([load] gauges and latency histograms, which
    depend on kernel scheduling). {!window_json} emits the prefix first
    and the tail last, so a comparison that strips everything from
    [,"load":] onward checks 1-worker == 4-worker bit-identity.

    {b Anomaly detection.} Per-series EWMA baselines (smoothing 0.3)
    feed three typed detectors, each emitting an {!alert} (and, under an
    installed {!Probe} recording, an [obs.alert.<kind>] counter plus a
    typed {!Event.Alert}) rather than prose. None fires during the first
    3 windows (the warm-up); the thresholds are fixed constants:
    - [rate_spike]: a counter delta exceeds 4 x its EWMA baseline and
      clears the absolute floor of 8;
    - [p99_drift]: a window's p99 of a latency histogram exceeds 8 x its
      EWMA baseline by at least 1 ms, and the window holds at least 16
      observations (the conservative floors keep healthy CI runs
      alert-free);
    - [burn_acceleration]: with an SLO spec armed, the worst window
      burn rate exceeds 1.0 while still increasing.
    With an SLO spec armed, every pushed window is handed to {!Slo.eval}
    as it stands, and each objective's worst burn is kept
    ({!worst_burn}) for the run's cumulative {!Slo.verdict}.
    Detection and baseline updates are pure functions of the sample
    sequence, so a seeded synthetic load pins an exact alert
    sequence. *)

val schema_version : string
(** ["bss-watch/1"]. *)

(** A cumulative observation of the producer's state, taken at a window
    boundary. [upto] is the number of requests processed so far (the
    window-id clock); [counters]/[gauges] are the deterministic series,
    [load]/[hists] the timing-dependent tail. Assoc lists are sorted by
    name. *)
type sample = {
  upto : int;
  counters : (string * int) list;  (** cumulative monotonic counters *)
  gauges : (string * int) list;  (** current values, not deltas (breaker states) *)
  load : (string * int) list;  (** timing-dependent gauges (queue depth, waves) *)
  hists : (string * Hist.snapshot) list;  (** cumulative histograms *)
}

val empty_sample : sample

type alert = {
  kind : string;  (** ["rate_spike"], ["p99_drift"] or ["burn_acceleration"] *)
  series : string;  (** the counter/histogram/objective that fired *)
  value : float;  (** the observed window value *)
  baseline : float;  (** the EWMA baseline (or previous burn) it was judged against *)
}

type window = {
  id : int;  (** 0-based, contiguous across the stream *)
  upto : int;  (** cumulative processed count at the window's close *)
  span : int;  (** processed count covered by this window *)
  final : bool;  (** the drain-time window closing the stream *)
  live : bool;  (** an on-demand {!peek}, not part of the stream *)
  counters : (string * int) list;  (** exact counter deltas *)
  gauges : (string * int) list;  (** current values at close *)
  alerts : alert list;
  load : (string * int) list;  (** timing tail: current load gauges *)
  hists : (string * Hist.snapshot) list;  (** timing tail: exact {!Hist.diff} deltas *)
}

type t

(** [create ?slo ()] is an empty ring. [slo] is evaluated on every
    pushed window (the burn detector and {!worst_burn}); without it both
    are off. *)
val create : ?slo:Slo.t -> unit -> t

(** [push ?final t sample] closes the next window: computes deltas
    against the previous pushed sample, runs the detectors, updates the
    baselines, stores the window in the ring and returns it. *)
val push : ?final:bool -> t -> sample -> window

(** [peek t sample] is the window [push] would compute, marked [live],
    without storing it, updating baselines or alerting — the [stats]
    frame's on-demand snapshot. *)
val peek : t -> sample -> window

(** Ring contents, oldest first — at most 64 windows. *)
val windows : t -> window list

(** Windows ever pushed (the next window's id). *)
val pushed : t -> int

(** The worst burn rate each SLO objective reached in any pushed window,
    sorted by objective; [[]] without an SLO spec or before the first
    push. Warm-up windows count: this is a record, not an alert. *)
val worst_burn : t -> (string * float) list

(** One [bss-watch/1] JSON line (no trailing newline), deterministic
    prefix first: [{"schema":"bss-watch/1","window":id,"upto":..,
    "span":..,"final":..,"live":..,"counters":{..},"gauges":{..},
    "alerts":[..],"load":{..},"hists":{..}}]. *)
val window_json : window -> string

(** Parse a {!window_json} line back (the [bss top] client side). *)
val window_of_json : Bss_util.Json.value -> (window, string) result
