(** Request-scoped trace contexts: one per service request, with
    deterministic ids and a typed span tree.

    Where {!Probe} aggregates ("how long did all dual calls take?"), a
    trace context answers {e why was this request slow}: every request
    carries its own span tree through admission, queue wait, each retry
    attempt, the breaker decision, the degradation-ladder rung, the
    solve and the journal append, with typed attributes at each step.

    {b Determinism.} The trace id is derived from the run seed and the
    request's admission sequence number — never a wall clock — so a
    seeded run names its requests identically across worker counts,
    processes and resumes ({!derive_id}). Span {e durations} are
    monotonic-clock and are not deterministic; consumers pin ids,
    structure and attributes, never timings.

    {b Ownership.} A context has exactly one writer at a time: the
    coordinator at admission and completion, the processing worker in
    between (the worker is joined before the coordinator resumes), so
    recording is plain mutation — no locks, no atomics.

    {b Cost when disabled.} {!disabled} is a static constant; on it
    {!enter}, {!leave}, {!add_attr}, {!add_span} return immediately and
    {!span} tail-calls its body — no allocation (pinned by a Gc test in
    [test/test_obs.ml], like the {!Probe} contract). Guard attribute
    construction that itself allocates with {!enabled}. *)

(** A typed attribute value. *)
type value = S of string | I of int | B of bool

(** One completed span: children in emission order. *)
type span = {
  name : string;
  dur_ns : int64;  (** inclusive monotonic-clock nanoseconds *)
  attrs : (string * value) list;  (** in emission order *)
  children : span list;
}

(** A finished trace: the root span is named ["request"]. *)
type trace = { trace_id : string; seq : int; request_id : string; root : span }

type t

val disabled : t
(** The inert context: every operation is a no-op, {!finish} is [None].
    Statically allocated — hand it out when tracing is off. *)

val make : seed:int -> seq:int -> request_id:string -> t
(** A live context whose id is {!derive_id}[ ~seed ~seq ~request_id],
    with the root ["request"] frame already open. *)

val derive_id : seed:int -> seq:int -> request_id:string -> string
(** The deterministic id: [<hash hex>-<seq>] where the hash mixes seed,
    sequence and request id with the same process-stable discipline as
    the runtime's retry jitter. *)

val enabled : t -> bool

val trace_id : t -> string
(** [""] for {!disabled}. *)

(** Span token returned by {!enter}; pass it to {!leave}. *)
type token = int

val enter : t -> string -> token
(** Open a nested span. Like {!Probe.enter}, {!leave} unwinds to the
    token, so a raise between them loses only the skipped frames. The
    root frame is closed by {!finish} alone. *)

val leave : t -> token -> unit

val span : t -> string -> (unit -> 'a) -> 'a
(** [enter]/body/[leave], exception-safe; tail-calls the body when
    disabled. *)

val add_attr : t -> string -> value -> unit
(** Attach an attribute to the innermost open span. *)

val add_span : t -> string -> dur_ns:int64 -> attrs:(string * value) list -> unit
(** Append an already-measured child (a queue wait observed by the
    coordinator, a journal append) to the innermost open span. *)

val finish : t -> trace option
(** Close every open frame (root last) and return the trace; [None]
    when disabled. The context records nothing afterwards. *)

val reservoir : seed:int -> k:int -> 'a list -> 'a list
(** Deterministic reservoir sample (Algorithm R under a [seed]-derived
    {!Bss_util.Prng}): keeps at most [k] items, returned in input
    order. Which items survive is a pure function of [(seed, k)] and
    the list — the tail-sampling rule for traces that are neither
    errors, degraded, SLO-violating nor histogram exemplars. *)

val attr : trace -> string -> string option
(** A root-span attribute, rendered to string. *)
