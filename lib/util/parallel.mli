(** Multicore helpers (OCaml 5 domains).

    The experiment tables, the fuzz sweep and the service's worker pool
    evaluate many independent items; this module fans them out over
    domains with a shared-counter work queue. No dependency beyond the
    stdlib's [Domain] and [Atomic]. *)

(** [recommended ()] is the runtime's recommended domain count. *)
val recommended : unit -> int

type failure = {
  index : int;  (** position of the failing item in the input list *)
  attempts : int;  (** evaluations performed, in [\[1, retries + 1\]] *)
  exn : exn;  (** the exception of the {e last} attempt *)
}

(** [map_results ?domains ?retries f xs] evaluates [f] on every item on
    up to [domains] domains (default {!recommended}, capped by the list
    length), capturing each item's outcome: [Ok y], or — after the item
    raised on an initial attempt plus up to [retries] (default 1)
    further attempts — [Error failure]. Order-preserving; every item is
    evaluated no matter how many others fail, and no exception escapes,
    so a fuzz sweep survives a crashing case. An all-or-nothing caller
    passes [~retries:0] and re-raises the first [Error]'s [exn].

    [f] must be safe to run concurrently with itself (the library's
    solvers are pure given distinct instances; the pivot PRNG of
    {!Select} is domain-local).
    @raise Invalid_argument when [retries < 0]. *)
val map_results :
  ?domains:int -> ?retries:int -> ('a -> 'b) -> 'a list -> ('b, failure) result list
