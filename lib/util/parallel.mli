(** Multicore helpers (OCaml 5 domains).

    The fuzz sweep, the experiment tables and the service's worker pool
    evaluate many independent items; this module fans them out over
    domains with a shared-counter work queue. No dependency beyond the
    stdlib's [Domain] and [Atomic]. *)

(** [recommended ()] is the runtime's recommended domain count. *)
val recommended : unit -> int

type failure = {
  index : int;  (** position of the failing item in the input list *)
  exn : exn;  (** the exception the item raised *)
}

(** [map_results ?domains f xs] evaluates [f] once on every item on up
    to [domains] domains (default {!recommended}, capped by the list
    length), capturing each item's outcome: [Ok y], or [Error failure]
    when it raised. Order-preserving; every item is evaluated no matter
    how many others fail, and no exception escapes, so a fuzz sweep
    survives a crashing case. An all-or-nothing caller re-raises the
    first [Error]'s [exn]. There is no retry: the callers' items are
    deterministic, and the service retries inside its own items.

    The calling domain works through items too, and an item may run on
    any of the domains, so [f] sets up any domain-local state it needs (a
    guard's budget, an armed chaos plan) itself.

    [f] must be safe to run concurrently with itself (the library's
    solvers are pure given distinct instances; the pivot PRNG of
    {!Select} is domain-local). *)
val map_results : ?domains:int -> ('a -> 'b) -> 'a list -> ('b, failure) result list
