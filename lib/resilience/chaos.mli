(** Deterministic fault injection: seeded plans and explicit schedules.

    A {e chaos site} is a named point inside an algorithm (the same
    vocabulary as the guard's charge sites, plus a few fault-only points —
    the full catalogue is {!sites} and docs/resilience.md). Arming a plan
    makes chosen sites misbehave at chosen hit counts: raise {!Injected},
    stall long enough to trip an armed deadline, or {!Crashed} — an
    in-process SIGKILL that no containment layer may catch. Tests use this
    to prove every edge of the degradation ladder is actually taken;
    [bss fuzz --chaos] sweeps seeded plans over random instances, and
    [bss torture] ([Bss_sim]) enumerates explicit schedules exhaustively.

    The armed plan is a scoped sink in domain-local storage, like
    {!Guard}'s budget: a plan armed on one domain neither fires nor
    counts hits on another, so concurrent workers each run their own
    plan. Disarmed, {!fire} reads one domain-local slot and returns
    (allocation-free — pinned by the Gc test in
    [test/test_resilience.ml]). A plan covers only the domain that armed
    it: code it spawns on other domains runs disarmed. *)

type action =
  | Raise  (** raise {!Injected} out of the instrumented algorithm *)
  | Stall of int
      (** busy-wait this many microseconds on the monotonic clock — enough
          to push an armed deadline past, without wall-clock sleeps *)
  | Crash
      (** raise {!Crashed}: a simulated SIGKILL at the site. Resilient
          layers re-raise it instead of containing it, so it unwinds the
          whole run — the torture harness then resumes from the journal
          exactly as a restarted process would. *)

(** The injected fault. Deliberately NOT {!Error.Error}: an armed site
    simulates an arbitrary crash, so resilient layers must contain it via
    their catch-all ([Internal]) path, not via the typed-error path. *)
exception Injected of { site : string; hit : int }

(** The simulated process death. The one exception every catch-all in the
    service stack re-raises: containment would turn "the process died
    here" into "the request failed here", which is a different fact. *)
exception Crashed of { site : string; hit : int }

(** The algorithm-interior site catalogue, sorted: every name the solver
    pipeline passes to {!fire} (via {!Guard.tick} or {!Guard.point}). *)
val sites : string list

(** The batch-service runtime's fault sites ([Bss_service]):
    ["service.admit"] (bounded-queue admission), ["service.breaker.probe"]
    (half-open circuit-breaker probe), ["service.journal.flush"]
    (checkpoint journal write) and ["service.solve"] (per-request solve
    envelope). Disjoint from {!sites}; [bss soak --chaos] arms plans over
    both catalogues. *)
val service_sites : string list

(** The socket front end's fault sites ([Bss_net]): ["net.accept"] (one
    hit per accepted connection), ["net.read"] (one hit per complete
    frame parsed off a connection) and ["net.write"] (one hit per
    response frame queued for write). Hits are counted per {e frame},
    not per syscall, so a plan fires at the same protocol position
    regardless of how the kernel chunks the byte stream. Disjoint from
    {!sites} and {!service_sites}; [bss serve --listen --chaos] arms
    them. *)
val net_sites : string list

(** [armed ()] is true inside a {!with_plan}/{!run_plan}/{!with_census}
    scope opened on the calling domain. *)
val armed : unit -> bool

(** [fire site] applies any armed [(site, hit, action)] whose 0-based hit
    counter matches the number of earlier [fire site] calls in this scope.
    No-op when disarmed; in a census scope it only counts. *)
val fire : string -> unit

(** [with_plan plan f] arms [plan] (a list of [(site, hit, action)]), runs
    [f], and disarms — also on exception. Hit counters start at zero; scopes
    nest (innermost plan wins). [with_plan [] f] is [f ()]: an empty plan
    does not open a scope, so an outer armed plan stays live. *)
val with_plan : (string * int * action) list -> (unit -> 'a) -> 'a

(** [run_plan plan f] arms [plan] (opening a scope even for []), runs [f]
    catching {e any} exception, and returns the result alongside the plan
    entries that actually fired, in firing order. The torture harness uses
    the fired list to tell which schedule entries were consumed before a
    {!Crashed} unwound the run (they are not re-armed on resume) and which
    never fired at all. *)
val run_plan :
  (string * int * action) list ->
  (unit -> 'a) ->
  ('a, exn) result * (string * int * action) list

(** [with_census f] runs [f] with a counting-only scope armed: every
    {!fire} is tallied, nothing is injected. Returns [f ()]'s result and
    the per-site hit counts, sorted by site — the fault-opportunity census
    a workload exposes, which is exactly the space [bss torture]
    enumerates schedules over. *)
val with_census : (unit -> 'a) -> 'a * (string * int) list

(** [plan_of_seed ?sites ?spread seed] draws a small deterministic plan
    (1-2 armed sites, hits in [\[0, spread)] with [spread] defaulting to
    12, mostly [Raise] with occasional [Stall]) from the given catalogue
    (default {!sites}). Equal arguments give equal plans; the default
    arguments reproduce the historical stream bit-for-bit. Never draws
    [Crash] — crash faults are for explicit schedules only. *)
val plan_of_seed : ?sites:string list -> ?spread:int -> int -> (string * int * action) list

(** ["site@hit:raise site@hit:crash"] — for logs and reports. *)
val describe_plan : (string * int * action) list -> string
