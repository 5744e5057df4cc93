(** A per-variant circuit breaker over the degradation ladder.

    The runtime keeps one breaker per problem variant. While {e closed},
    requests run their requested algorithm; [k] consecutive {e ladder
    failures} (a request that had to leave its requested rung, or aborted
    outright) trip the breaker {e open}, and the next [cooldown] requests
    on that variant are routed straight to the certified 2-approximation
    rung (Theorem 1) without touching the failing search. When the
    cooldown is spent the breaker goes {e half-open}: exactly one probe
    request runs the requested algorithm again — success closes the
    breaker, failure re-opens it for another cooldown.

    In the batch runtime all decisions are made and recorded on the
    coordinator domain in request order, so breaker behavior is
    deterministic for a fixed request stream no matter how many worker
    domains solve. The state machine is nevertheless mutex-guarded:
    {!route} decides {e and} marks the half-open probe in one critical
    section, so concurrent callers racing a half-open breaker admit
    exactly one probe — the losers get [Fallback], never a raced second
    probe (pinned by a multi-domain test in [test/test_service.ml]). *)

type state =
  | Closed of { failures : int }  (** consecutive ladder failures so far *)
  | Open of { remaining : int }  (** fallback-routed requests left before probing *)
  | Half_open of { probing : bool }  (** [probing] once the probe is dispatched *)

type route =
  | Requested  (** run the request's own algorithm *)
  | Probe  (** run the requested algorithm as the half-open probe *)
  | Fallback  (** route to the certified 2-approx rung *)

type t

(** [make ~name ~k ~cooldown ()] — trip after [k] >= 1 consecutive
    failures; stay open for [cooldown] >= 1 fallback-routed requests.
    [name] (the runtime passes the variant) labels the breaker's
    telemetry.

    Every state change is counted where it happens: under an installed
    {!Bss_obs.Probe} recording it bumps ["service.breaker.<state>"] (the
    state entered) and ["service.breaker.transitions"], emits a
    {!Bss_obs.Event.Breaker_transition} event for [name], and adds the
    change in {!code} to ["service.breaker.state.<name>"], so that
    counter's running sum is the current state's code. *)
val make : name:string -> k:int -> cooldown:int -> unit -> t

val state : t -> state

(** The state as a numeric gauge: [Closed] 0, [Open] 1, [Half_open] 2. *)
val code : state -> int

(** [route t] decides how the next request on this variant runs, and
    marks the probe in flight when it returns [Probe] (so later routes —
    from this domain or a concurrent one — fall back until the probe's
    outcome arrives; decide-and-mark is atomic).
    A [Probe] decision fires {!Bss_resilience.Guard.point}
    ["service.breaker.probe"]; an armed chaos fault there escapes as
    {!Bss_resilience.Chaos.Injected} and the caller must treat the probe
    as failed. *)
val route : t -> route

(** [record t ~route ~ok] feeds one outcome back, in request order.
    [ok = false] means a ladder failure. Fallback outcomes only count
    down the open cooldown; they never close or trip the breaker. *)
val record : t -> route:route -> ok:bool -> unit

(** Transitions so far, oldest first, as ["closed->open"],
    ["open->half-open"], ["half-open->closed"], ["half-open->open"]. *)
val transitions : t -> string list
