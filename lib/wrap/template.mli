(** Wrap templates (Definition 2).

    A wrap template is a list of gaps [(u_r, a_r, b_r)] — one free time
    window per machine, on strictly increasing machines — into which a wrap
    sequence is scheduled McNaughton-style. [S(ω) = Σ (b_r − a_r)] is the
    provided period of time. *)

open Bss_util

type gap = { machine : int; lo : Rat.t; hi : Rat.t }

type t = private gap array

(** [make gaps] validates Definition 2: machines strictly increasing,
    [0 <= lo < hi] for every gap.
    @raise Invalid_argument on violation. *)
val make : gap list -> t

(** [length t] is [|ω|]. *)
val length : t -> int

(** [span t] is [S(ω)], the total provided time. *)
val span : t -> Rat.t

(** [uniform_run ~first_machine ~count ~lo ~hi] builds [count] identical
    gaps [(u0+r, lo, hi)]. *)
val uniform_run : first_machine:int -> count:int -> lo:Rat.t -> hi:Rat.t -> gap list

(** [concat runs] flattens and validates gap runs into a template. *)
val concat : gap list list -> t
