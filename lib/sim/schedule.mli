(** Fault schedules: the unit the torture harness enumerates, runs,
    shrinks and replays.

    A {e fault} is an [(site, occurrence, action)] triple — "at the
    [occurrence]-th time execution reaches chaos site [site] (0-based,
    counted per process life), perform [action]". A {e schedule} is a
    set of faults armed together for one run; it is explicit and
    replayable, unlike the seeded plans [bss fuzz --chaos] draws. The
    JSON grammar here is the [schedule] member of the [bss-torture/1]
    reproducer artifact:

    {v [{"site":"journal.rename.before","occurrence":2,"action":"crash"},
        {"site":"service.solve","occurrence":7,"action":"raise"},
        {"site":"net.read","occurrence":0,"action":"stall","us":2000}] v} *)

type fault = string * int * Bss_resilience.Chaos.action
type t = fault list

(** ["site@occ:action ..."] — {!Bss_resilience.Chaos.describe_plan}. *)
val describe : t -> string

val to_json : t -> string

(** Inverse of {!to_json}, rejecting unknown actions and negative
    occurrences with a description of the first bad fault. *)
val of_json : Bss_util.Json.value -> (t, string) result
