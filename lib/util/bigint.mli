(** Arbitrary-precision signed integers.

    Schedule algorithms in this repository manipulate exact rational makespan
    guesses such as [2*P_f/(beta_f + k)] or binary-search midpoints whose
    numerators can exceed the native integer range after a few products.  This
    module provides a small, dependency-free bignum sufficient for exact
    rational arithmetic: magnitudes are little-endian arrays of base-2^30
    limbs, so limb products stay well inside a 63-bit native [int].

    The interface is deliberately minimal — only what {!Rat} and the
    schedulers need. *)

type t

val zero : t
val one : t

(** [of_int n] is the bignum representing [n]. Total. *)
val of_int : int -> t

(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)
val to_int_opt : t -> int option

(** [to_int_exn x] is [x] as a native [int].
    @raise Failure when [x] does not fit. *)
val to_int_exn : t -> int

(** [to_float x] is the nearest-ish float; used only for rendering and
    benchmarks, never for feasibility decisions. *)
val to_float : t -> float

(** [sign x] is [-1], [0] or [1]. *)
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < |b|]
    (Euclidean division; for [b > 0] this coincides with floor division).
    @raise Division_by_zero when [b] is zero. *)
val divmod : t -> t -> t * t

(** [div a b] is the floor-division quotient of [divmod]. *)
val div : t -> t -> t

(** [cdiv a b] is [ceil (a / b)] for [b > 0]. *)
val cdiv : t -> t -> t

(** [fdiv a b] is [floor (a / b)] for [b > 0]; alias of {!div}. *)
val fdiv : t -> t -> t

(** [mul_int x k] multiplies by a native int. *)
val mul_int : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val is_zero : t -> bool

(** [gcd a b] is the greatest common divisor of [|a|] and [|b|]
    (binary GCD; [gcd 0 0 = 0]). *)
val gcd : t -> t -> t

(** Decimal rendering, e.g. ["-1234567890123456789"]. *)
val to_string : t -> string

(** Parse an optionally ['-']-prefixed decimal string.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t
