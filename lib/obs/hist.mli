(** Fixed-boundary log₂-bucket latency histograms, with exemplars.

    A histogram is 40 buckets with {e fixed} power-of-two boundaries:
    bucket [0] holds values below [1.0] (including zero, negatives and
    non-finite values), bucket [i] for [1 <= i <= 38] holds the
    half-open range [[2^(i-1), 2^i)], and bucket [39] holds everything
    from [2^38] up. Because the boundaries never depend on the data,
    two histograms of the same metric merge {e exactly} by bucket-wise
    addition — the property {!Report.merge} relies on to combine
    per-domain collectors deterministically — and a later cumulative
    snapshot subtracts an earlier one exactly ({!diff}, the
    {!Timeseries} window deltas {!Slo} evaluates).

    {!record} is O(1): one [Float.frexp], one clamp, one array
    increment (plus count/sum/min/max updates). No allocation after
    {!create}. The intended unit for time-valued metrics is
    {e nanoseconds} (bucket 39 then starts at [2^38] ns ≈ 4.6 min);
    count-valued metrics (retries per request) use the value itself.

    {b Exemplars} tie a bucket back to concrete requests: each bucket
    keeps up to two trace IDs ({!record_exemplar}), evicted
    round-robin by attach order — slot [seen mod cap] is overwritten, so
    the kept set is a pure function of the attach sequence and replays
    deterministically. A p99 bucket's exemplars are the trace IDs to
    look up in the [--trace-out] file ({!quantile_exemplars}). *)

type t
(** A mutable histogram. Not synchronized — one writer domain, like the
    rest of a {!Probe} collector. *)

val buckets : int
(** Number of buckets, [40]. *)

val create : unit -> t

val record : t -> float -> unit
(** [record t v] adds one observation. O(1), allocation-free. *)

val record_exemplar : t -> float -> string -> unit
(** [record_exemplar t v id] is {!record} plus attaching [id] to [v]'s
    bucket as an exemplar (ring-evicting the oldest beyond two).
    Allocates the exemplar store on first use. *)

val lower_bound : int -> float
(** [lower_bound i] is bucket [i]'s inclusive lower boundary:
    [0.] for bucket 0, [2^(i-1)] otherwise. *)

val upper_bound : int -> float
(** [upper_bound i] is bucket [i]'s exclusive upper boundary:
    [1.] for bucket 0, [2^i] for middle buckets, [infinity] for the
    last. *)

(** Immutable summary of a histogram — the form stored in
    {!Report.t} and serialized by the sinks. *)
type snapshot = {
  count : int;
  sum : float;
  min : float;  (** exact smallest observation; [0.] when empty *)
  max : float;  (** exact largest observation; [0.] when empty *)
  counts : (int * int) list;
      (** sparse [(bucket, count)] pairs, ascending bucket, counts > 0 *)
  exemplars : (int * string list) list;
      (** sparse [(bucket, trace ids)] pairs, ascending bucket, at most
          two ids each, oldest kept attach first *)
}

val empty : snapshot

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Bucket-wise sum; count/sum add, min/max combine, exemplar sets
    union (keeping the lexicographically smallest two per
    bucket — commutative and associative). Exact: merged quantiles
    equal the quantiles of the pooled observations up to bucket
    resolution. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff cur prev] is the window between two cumulative snapshots of
    the {e same} histogram: bucket counts and count/sum subtract
    exactly. Window min/max are not recoverable from buckets, so they
    are the tightest bucket boundaries of the window's occupied range,
    clamped into [[cur.min, cur.max]]: still valid bounds, and exact in
    the window that holds the cumulative extreme, so the windows of one
    run fold back to the summary's min and max. Exemplars are [cur]'s,
    restricted to the window's buckets.
    [cur] when [prev] is empty; {!empty} when nothing was recorded in
    between. *)

val quantile : snapshot -> float -> float
(** [quantile s p] for [p] in [[0, 1]] is the lower boundary of the
    bucket containing the rank-[ceil(p*count)] observation, clamped
    into [[s.min, s.max]] — deterministic given the buckets, exact
    when the underlying observations sit on bucket boundaries (the
    pinned-test contract), and never more than 2x below the true
    quantile otherwise. [0.] when empty. *)

val quantile_exemplars : snapshot -> float -> string list
(** The exemplar trace IDs attached to the bucket {!quantile} resolves
    [p] to — the concrete requests behind a p99. [[]] when empty or
    when that bucket carries no exemplars. *)

val exemplar_ids : snapshot -> string list
(** Every exemplar trace ID in the snapshot, bucket-ascending. *)

val to_json : snapshot -> string
(** One JSON object:
    [{"count":n,"sum":s,"min":..,"max":..,"p50":..,"p90":..,"p99":..,
      "buckets":[[i,c],...]}], plus ["exemplars":[[i,["id",...]],...]]
    when any bucket carries exemplars. *)

val snapshot_of_json : Bss_util.Json.value -> (snapshot, string) result
(** Parse a {!to_json} object back (the offline path under
    [bss report]). Quantile fields are recomputed, not trusted. *)
