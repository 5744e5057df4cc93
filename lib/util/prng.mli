(** Deterministic pseudo-random numbers (SplitMix64).

    All workload generators and randomized pivots take an explicit state so
    every experiment in this repository is bit-reproducible from its seed —
    no hidden [Random] global state. *)

type t

(** [create seed] is a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** Next raw 64-bit value. *)
val next_int64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)], [bound > 0]. It allocates
    nothing. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive), [lo <= hi]. *)
val int_in : t -> int -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t a] picks a uniform element of a non-empty array.
    @raise Invalid_argument on empty input. *)
val choose : t -> 'a array -> 'a

(** [zipf t ~alpha ~n] samples from a Zipf distribution on [\[1, n\]] with
    exponent [alpha > 0] by inverse-CDF over precomputed weights — fine for
    the modest [n] used by workload generators. *)
val zipf : t -> alpha:float -> n:int -> int
