(** Exact rational numbers.

    Every schedule coordinate (segment start, duration, makespan guess) in
    this library is an exact rational, so feasibility checking needs no
    epsilon and the dual-approximation accept/reject decisions are exact.

    The representation has two tiers (see [docs/two-tier-numerics.md]): a
    native-int fast tier whose operations are guarded by the overflow
    predicates of {!Intmath}, and a {!Bigint}-backed tier that an operation
    recomputes on at its first overflow. Both tiers are exact, so results are
    bit-identical to an all-{!Bigint} computation (certified by
    [test/test_num2.ml] and the [two-tier-exact] oracle property).

    Values are kept normalized: the denominator is positive and coprime with
    the numerator; zero is [0/1]. The type is abstract, so no other value can
    exist. *)

type t

(** {1 Force-exact switch} *)

val force_exact_enabled : unit -> bool

(** [with_force_exact b f] runs [f ()] with every construction routed to the
    {!Bigint} tier ([b = true]) or with two-tier behavior ([b = false]),
    restoring the previous setting afterwards (also on exceptions). The
    initial setting honors the [BSS_FORCE_EXACT] environment variable (any
    value other than [0]/[false]/[no]/empty enables it). Comparisons across
    tiers stay correct through {!equal} and {!compare}. *)
val with_force_exact : bool -> (unit -> 'a) -> 'a

(** Representation tier of a value, for tests and diagnostics, and for a
    caller that runs natively on a [`Small] value. *)
val tier : t -> [ `Small | `Big ]

(** [small_num x] and [small_den x] are the numerator and the positive
    denominator, in lowest terms, of a [`Small] value: the native ints
    the dual tests compute with at a fast-tier guess.
    @raise Invalid_argument on a [`Big] value. *)
val small_num : t -> int

val small_den : t -> int

(** {1 Construction} *)

val zero : t
val one : t
val two : t

(** [of_int n] is [n/1]. *)
val of_int : int -> t

(** [of_ints p q] is [p/q].
    @raise Division_by_zero when [q = 0]. *)
val of_ints : int -> int -> t

val of_bigint : Bigint.t -> t

(** [make num den] is [num/den].
    @raise Division_by_zero when [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero on zero divisor. *)
val div : t -> t -> t

val inv : t -> t
val mul_int : t -> int -> t
val div_int : t -> int -> t
val add_int : t -> int -> t

(** [floor x] is the greatest integer [<= x], as a bigint. *)
val floor : t -> Bigint.t

(** [ceil x] is the least integer [>= x], as a bigint. *)
val ceil : t -> Bigint.t

(** [floor_int x] / [ceil_int x] convert through {!Bigint.to_int_exn}.
    @raise Failure when out of native range. *)
val floor_int : t -> int

val ceil_int : t -> int

(** {1 Comparisons}

    [compare], [compare_int] and [compare_scaled] allocate nothing on the
    fast tier: the overflow guards return unboxed bools and products stay in
    registers (pinned by the Gc test in [test/test_num2.ml]). *)

val compare : t -> t -> int

(** [compare_int x k] compares [x] against the integer [k]. *)
val compare_int : t -> int -> int

(** [compare_scaled x s k] compares [s * x] against the integer [k] without
    materializing the product. *)
val compare_scaled : t -> int -> int -> int

val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val sign : t -> int
val is_zero : t -> bool

(** [is_integer x] is true when the denominator is 1. *)
val is_integer : t -> bool

(** {1 Conversions} *)

val to_float : t -> float

(** [to_int_opt x] is [Some n] iff [x] is an integer fitting a native int. *)
val to_int_opt : t -> int option

(** ["p/q"] or ["p"] when integral. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Convenience infix operators, meant to be locally [open]ed as
    [Rat.Infix]. *)
module Infix : sig
  val ( +/ ) : t -> t -> t
  val ( -/ ) : t -> t -> t
  val ( */ ) : t -> t -> t
  val ( // ) : t -> t -> t
end
