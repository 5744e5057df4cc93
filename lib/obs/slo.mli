(** Declarative service-level objectives and their evaluation.

    An objectives file (schema ["bss-slo/1"]) names what a healthy
    run looks like — a latency quantile under a bound, an error rate and
    a retry rate under a ceiling. {!eval} checks one {!sample} and
    reports each objective's {e burn rate} — measured over threshold,
    i.e. how fast the error budget is being consumed; [> 1.0] means
    violating. Two callers evaluate it:

    - {e per window}: the live telemetry plane ({!Timeseries}) hands
      every [--window-every] window — its deltas since the previous
      window (counters subtract; histograms subtract bucket-wise via
      {!Hist.diff}, exactly) — to {!eval} and keeps each objective's
      worst window burn;
    - {e cumulative}: {!verdict} over the whole run is the hard
      pass/fail gate ([bss soak --slo], [bss netsoak --slo]), with the
      worst window burn per objective carried along as the
      early-warning signal.

    Determinism: counter-based objectives are exact and reproduce
    across worker counts (the runtime's counters are deterministic);
    latency objectives read wall-clock histograms, so their [measured]
    values wobble — but the {e verdict} against an honest threshold
    does not, which is what the acceptance test pins. *)

type target =
  | Latency of { hist : string; quantile : float; max_ns : float }
      (** [hist] names a histogram or a family prefix —
          ["service.solve_ns"] matches every
          ["service.solve_ns.<variant>"] and merges them exactly *)
  | Error_rate of { max : float }
      (** (rejected + aborted) / all outcomes [<= max] *)
  | Retry_rate of { max : float }
      (** retries / processed (completed + aborted) [<= max] *)

type objective = { name : string; target : target }
type t = { objectives : objective list }

(** What an objective is evaluated against: counters under the window
    stream's names — [service.completed], [service.rejected],
    [service.aborted] and [service.retries], a missing one reading 0 —
    and histogram snapshots. A {!Timeseries.window}'s deltas are a
    sample as they stand, and so is the runtime's cumulative window
    sample. *)
type sample = {
  counters : (string * int) list;
  hists : (string * Hist.snapshot) list;
}

type check = {
  objective : string;
  ok : bool;
  measured : float;
  threshold : float;
  burn : float;  (** measured / threshold; > 1.0 is violating *)
}

type verdict = {
  ok : bool;
  checks : check list;  (** one per objective, in file order *)
  windows : int;  (** windows evaluated before this verdict *)
  worst_burn : (string * float) list;  (** max window burn per objective, sorted *)
}

val eval : t -> sample -> check list
(** Evaluate one sample, one check per objective. *)

val verdict : ?windows:int -> ?worst_burn:(string * float) list -> t -> sample -> verdict
(** [verdict ?windows ?worst_burn spec sample] is the gate: {!eval} over
    the cumulative [sample], carrying the count of [windows] evaluated
    before it (default 0) and their worst burn per objective (default
    none). *)

val latency_bound : t -> hist:string -> float option
(** The tightest [max_ns] among the latency objectives whose [hist]
    covers [hist] — names it, or is the family prefix of
    ["<prefix>.<suffix>"], the rule {!eval} merges histograms by.
    [None] when no objective covers it. The runtime marks a request's
    trace SLO-violating when its solve latency exceeds the bound of its
    own ["service.solve_ns.<variant>"]. *)

val verdict_json : verdict -> string
(** One JSON object led by the deterministic fields:
    [{"verdict":"pass"|"fail","failed":[names],"windows":n,
      "checks":[{"objective":..,"ok":..,"measured":..,"threshold":..,
      "burn":..}],"worst_window_burn":{..}}]. *)

val verdict_text : verdict -> string
(** Stable multi-line rendering for the text summary. *)

val of_string : string -> (t, string) result
(** Parse an objectives file:
    [{"schema":"bss-slo/1","objectives":[
       {"name":..,"type":"latency","hist":..,"quantile":0.99,"max_ms":..},
       {"name":..,"type":"error_rate","max":..},
       {"name":..,"type":"retry_rate","max":..}]}].
    Rejects unknown schemas, unknown objective types, empty objective
    lists and non-positive bounds. *)

