(** Descriptive statistics for experiment reports. *)

(** Arithmetic mean of a non-empty array.
    @raise Invalid_argument on empty input. *)
val mean : float array -> float

(** Median (average of middle pair for even length).
    @raise Invalid_argument on empty input. *)
val median : float array -> float

(** [percentile p a] with [p] in [\[0, 100\]], nearest-rank.
    @raise Invalid_argument on empty input or out-of-range [p]. *)
val percentile : float -> float array -> float

(** Largest element.
    @raise Invalid_argument on empty input. *)
val max : float array -> float

(** Least-squares slope of [log y] against [log x]; the empirical growth
    exponent used to verify near-linear running times. Points with
    non-positive coordinates are rejected.
    @raise Invalid_argument when fewer than two points are given. *)
val loglog_slope : (float * float) array -> float
