(** Deterministic string hashing shared across layers.

    Keying decisions by a request's {e identity} rather than its arrival
    order is what makes the service runtime replayable: backoff jitter and
    chaos plans derive from [djb2 id]. The hash is fixed forever (it
    participates in seeded streams pinned by cram tests); it is djb2
    folded into the non-negative native-int range, not a general-purpose
    hash. Never replace it with [Hashtbl.hash], whose value may change
    across compiler versions. *)

(** [djb2 s] = fold of [h*33 + byte] from 5381, masked to [0, max_int]. *)
val djb2 : string -> int
