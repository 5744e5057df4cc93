(** QCheck [arbitrary] instances over the oracle's generators.

    Kept out of [bss_oracle] so the fuzz CLI does not link qcheck; the
    test suites combine these with {!Bss_oracle.Property} to register
    every oracle as a qcheck-alcotest case. The shrinker is the
    structural {!Bss_oracle.Shrink.candidates}, so qcheck failures
    minimize to the same readable counterexamples the fuzz driver
    prints. *)

open Bss_instances

(** [arbitrary ?max_m ?max_n ()] draws a family, realizes an instance
    through the oracle's deterministic case machinery, and sometimes
    mutates it; it shrinks structurally and prints with
    {!Bss_instances.Instance.to_string}. *)
val arbitrary : ?max_m:int -> ?max_n:int -> unit -> Instance.t QCheck.arbitrary
