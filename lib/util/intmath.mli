(** Small arithmetic helpers on native integers.

    Input processing and setup times are native ints (the paper's ℕ); these
    helpers are the gcd, [log2_ceil], the array folds and the overflow
    guards the algorithms and {!Rat} use. *)

(** Greatest common divisor of absolute values; [gcd 0 0 = 0]. *)
val gcd : int -> int -> int

(** [log2_ceil n] is the least [k] with [2^k >= n], for [n >= 1]. *)
val log2_ceil : int -> int

(** [sum_array a] with overflow assertion in debug builds. *)
val sum_array : int array -> int

(** [max_array a] over a non-empty array.
    @raise Invalid_argument on empty input. *)
val max_array : int array -> int

(** [clamp lo hi x] limits [x] to [\[lo, hi\]]. *)
val clamp : int -> int -> int -> int

(** {1 Overflow-checked arithmetic}

    The [_fits] predicates report whether the native-int operation is exact
    (no wrap-around). They allocate nothing, so hot paths can guard with
    them and fall back to {!Bigint} only on overflow. *)

(** [add_fits a b] is true iff [a + b] does not overflow. *)
val add_fits : int -> int -> bool

(** [sub_fits a b] is true iff [a - b] does not overflow. *)
val sub_fits : int -> int -> bool

(** [mul_fits a b] is true iff [a * b] does not overflow. *)
val mul_fits : int -> int -> bool

(** Raised by the [_exn] operations when the native result would wrap: the
    native dual tests catch it and rerun the guess in {!Rat}. *)
exception Overflow

(** [mul_exn a b] is [a * b].
    @raise Overflow when it does not fit. *)
val mul_exn : int -> int -> int

(** [add_exn a b] is [a + b].
    @raise Overflow when it does not fit. *)
val add_exn : int -> int -> int

(** [sub_exn a b] is [a - b].
    @raise Overflow when it does not fit. *)
val sub_exn : int -> int -> int
