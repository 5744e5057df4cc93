(** The batch-service runtime: composition of the resilience primitives
    into a long-running, fault-tolerant solve loop.

    Requests flow from a batch (or generated soak stream) through a
    bounded {!Bqueue} in {e waves} of [burst] admissions; each wave is
    drained and dispatched to a worker pool
    ({!Bss_util.Parallel.map_results}, one domain per worker). Every
    request runs {!Bss_core.Solver.solve_robust} under its own
    per-request guard ([deadline_ms]/[fuel]), with bounded retry and
    deterministic exponential backoff ({!Backoff}) around retryable
    failures, behind a per-variant circuit {!Breaker}. Completions are
    checkpointed in a crash-safe {!Journal}; a resumed run restores
    journaled results verbatim and re-solves only the rest.

    Determinism contract: with no wall-clock deadline and no armed chaos,
    the summary's result set (id, rung, makespan) is a pure function of
    the request list and config — independent of worker count, and of
    being killed and resumed any number of times (the acceptance property
    pinned by [test/test_service.ml]). Armed chaos keeps the
    worker-count half: each request's plan under [config.chaos] is drawn
    from (chaos seed, request id, attempt) and armed on the domain that
    runs the request (plans are domain-local), and the coordinator-side
    sites fire only on the coordinator, in dispatch order — so a chaos
    run's outcomes, breaker transitions, journal and window prefixes do
    not depend on the worker count. *)

open Bss_instances

type config = {
  queue_capacity : int;  (** bounded-queue capacity, >= 1 *)
  burst : int;  (** admissions attempted per wave; > capacity exercises rejection *)
  workers : int option;  (** worker domains; [None] = {!Bss_util.Parallel.recommended} *)
  retries : int;  (** retry attempts per request beyond the first, >= 0 *)
  backoff : Backoff.policy;
  breaker_k : int;  (** consecutive ladder failures that trip a variant's breaker *)
  breaker_cooldown : int;  (** fallback-routed requests before a half-open probe *)
  deadline_ms : int option;  (** per-request wall-clock budget *)
  fuel : int option;  (** per-request tick budget *)
  checkpoint_every : int;  (** journal flush cadence, in completions *)
  chaos : int option;  (** arm seeded fault plans (service + solver sites) *)
  seed : int;  (** backoff-jitter seed *)
  window_every : int option;
      (** arm the live telemetry plane ({!Bss_obs.Timeseries}): close one
          window every N processed requests (completions + aborts — the
          wall-clock-free window clock) and hand it to the driver's
          window sink ([?on_window] / [Engine.set_on_window]) — the
          service's one periodic telemetry stream. The stream is
          deterministic across worker counts in its counter/gauge
          prefix; [None] = no windows (zero overhead). Must be >= 1. *)
  trace_sample : int option;
      (** [Some k] enables request-scoped tracing
          ({!Bss_obs.Trace_ctx}): every request gets a span tree with a
          deterministic id derived from (seed, admission sequence,
          request id). At the end of the run the traces are
          tail-sampled — errors, degradations, retried requests, SLO
          violations and histogram-exemplar traces are always kept, the
          uneventful rest is reservoir-sampled down to [k] under the
          run seed. [None] disables tracing entirely (the disabled path
          allocates nothing — pinned by a Gc test). *)
  slo : Bss_obs.Slo.t option;
      (** evaluate these objectives over the run: every window's burn
          rates under [window_every] (the burn detector and the worst
          window burn per objective) and a final cumulative verdict in
          the summary — the [bss soak --slo] gate. A done request's
          trace is marked SLO-violating when its solve latency exceeds
          the tightest latency objective covering its own
          ["service.solve_ns.<variant>"] ({!Bss_obs.Slo.latency_bound}). *)
}

(** capacity 64, burst 64, workers [None], 2 retries, default backoff,
    breaker k=3 cooldown=4, no budgets, checkpoint every 8, no chaos,
    seed 0, no windows, no tracing, no SLOs. *)
val default_config : config

type status =
  | Done  (** a checker-feasible schedule was produced (possibly degraded) *)
  | Rejected  (** refused at admission: queue full, or an injected admission fault *)
  | Aborted  (** realization failed, or retries were exhausted on crashes *)

type outcome = {
  request : Request.t;
  status : status;
  rung : string option;  (** ladder rung of the result, for [Done] *)
  makespan : string option;  (** exact rational makespan, for [Done] *)
  routed : string;  (** ["requested"], ["fallback"], ["probe"] or ["-"] *)
  retries_used : int;
  degraded : bool;  (** left the requested rung of its routed algorithm *)
  from_checkpoint : bool;  (** restored from the journal, not re-solved *)
  error : Bss_resilience.Error.t option;  (** for [Rejected]/[Aborted] *)
  latency_ns : int64;  (** wall-clock in the worker; 0 for checkpointed *)
  queue_wait_ns : int64;
      (** admission-to-dispatch wait; 0 for rejected/checkpointed. The
          socket front end copies both durations into response frames so
          a remote client can reconstruct the latency histograms the SLO
          gate reads. *)
}

type summary = {
  outcomes : outcome list;  (** one per attempted request, in request order *)
  total : int;  (** requests presented *)
  completed : int;
  checkpointed : int;  (** of [completed], restored from the journal *)
  rejected : int;
  aborted : int;
  dropped : int;  (** presented requests with no outcome — 0 by contract *)
  not_admitted : int;  (** left unattempted by an interrupted drain *)
  retries : int;  (** total retry attempts performed *)
  rungs : (string * int) list;  (** rung -> completions, sorted *)
  breaker : (Variant.t * string list) list;  (** transitions per variant, oldest first *)
  queue_peak : int;  (** deepest wave the queue held *)
  waves : int;
  flush_failures : int;  (** journal flushes that failed (chaos or I/O) and were retried *)
  journal_dirty : int;  (** completions not on disk at exit — 0 unless every flush failed *)
  journal_salvaged : int;
      (** corrupt lines salvaged around when the journal was loaded — 0 on
          a healthy chain (rendered, and emitted in JSON, only when > 0) *)
  interrupted : bool;  (** [should_stop] drained the run early *)
  hists : (string * Bss_obs.Hist.snapshot) list;
      (** service latency histograms, sorted by name: per-variant solve
          latency ([service.solve_ns.<variant>]), queue wait
          ([service.queue.wait_ns]), retries per request
          ([service.retries_per_request]) and journal flush latency
          ([service.journal.flush_ns]). Recorded on the coordinator from
          data the dispatch loop already holds, so they need no installed
          {!Bss_obs.Probe} recording; with one installed the same
          observations are mirrored into it. When tracing is enabled,
          queue-wait and per-variant solve buckets carry exemplar trace
          IDs ({!Bss_obs.Hist.record_exemplar}), attached on the
          coordinator in request order so eviction replays
          deterministically. *)
  traces : Bss_obs.Trace_ctx.trace list;
      (** the tail-sampled request traces, in admission order: all
          error/degraded/retried/SLO-violating traces, every trace an
          exemplar cites, plus a seeded reservoir of [trace_sample]
          uneventful ones; [] when tracing is off *)
  slo_verdict : Bss_obs.Slo.verdict option;
      (** the final cumulative SLO evaluation, when [config.slo] is set:
          {!Bss_obs.Slo.verdict} over the cumulative window sample, with
          the window count and worst window burns of the telemetry
          plane (0 and none without [window_every]) *)
}

(** The wave machinery shared by the batch driver ({!run}) and the socket
    front end ([Bss_net.Server]): admission into the bounded queue,
    breaker routing, worker-pool fan-out, outcome accounting, journal
    checkpointing and window/trace/SLO bookkeeping — without an intake
    policy. Drivers decide {e when} to admit and dispatch; the engine
    guarantees the bookkeeping is identical whichever driver runs it.

    An admitted request carries its own admission time and trace
    context through the queue into its wave, and every outcome — a
    restore, a rejection, a completion or an abort — is booked in one
    place, in one order: the live counters and their
    ["service.*"] {!Bss_obs.Probe} mirrors (["service.resumed"] included),
    the solve and retry histograms, the journal append, the trace's
    closing attributes, the outcome table, then (for a completion or an
    abort) the window clock and the checkpoint cadence. Breaker state
    changes are counted by the {!Breaker} itself.

    Not synchronized: all engine calls must come from one coordinator
    domain (workers are managed internally). *)
module Engine : sig
  type t

  (** [create ?journal config] validates [config] (raising
      [Invalid_argument] as {!run} does, e.g. on [workers = Some 0]) and
      allocates an idle engine. *)
  val create : ?journal:Journal.t -> config -> t

  (** Resolved worker-domain count: [config.workers], else
      {!Bss_util.Parallel.recommended}. *)
  val workers : t -> int

  (** Requests admitted since the last {!dispatch}. *)
  val queued : t -> int

  (** The outcome already recorded for [id], if any — a checkpoint
      restore, a completed solve, or a rejection. The socket front end
      uses this to answer re-sent ids without re-solving (exactly-once
      across reconnects). *)
  val cached : t -> string -> outcome option

  (** [from_checkpoint t r] restores [r] from the journal when present
      (booking a [from_checkpoint] outcome and counting
      ["service.resumed"] once) — [None] if the journal lacks it or an
      outcome already exists. *)
  val from_checkpoint : t -> Request.t -> outcome option

  (** [admit t r] offers [r] to the bounded queue. [Error o] is the
      recorded [Rejected] outcome (typed [Overloaded] backpressure, or an
      injected admission fault). Does not dedup against {!cached} — the
      driver decides replay semantics first. *)
  val admit : t -> Request.t -> (unit, outcome) result

  (** [dispatch t] drains the queue into one wave: queue-wait accounting,
      coordinator-side breaker routing, worker fan-out (one task per
      request, whatever its tenant), then each outcome booked in wave
      order, checkpoint flushes and window closes included. Returns the
      wave's outcomes in wave order. An empty wave still counts (as in
      the batch loop, where every burst dispatches). *)
  val dispatch : t -> outcome list

  (** Marks the run interrupted with [pending] unattempted requests. *)
  val interrupt : t -> pending:int -> unit

  (** Retries the journal flush up to 4 times (armed chaos hits are
      consumed by the retries) — call once at the end of a run. *)
  val final_flush : t -> unit

  (** The seeded coordinator-side chaos plan over the service sites
      (admission, breaker probe, journal flush); [[]] when [config.chaos]
      is [None]. Drivers arm it ({!Bss_resilience.Chaos.with_plan})
      around their whole loop including the final flush. *)
  val coordinator_plan : config -> (string * int * Bss_resilience.Chaos.action) list

  (** The run summary. With [~requests] (the batch driver), outcomes are
      listed in request order and [total]/[dropped] account against that
      list; without it (the socket front end), outcomes are in
      first-record order and [total] is the recorded count. *)
  val summary : ?requests:Request.t list -> t -> summary

  (** {2 The live telemetry plane}

      Armed by [config.window_every]; every call below is a no-op (or
      [None]/[[]]) when it is unset. *)

  (** Install the window sink: called on the coordinator with each window
      the moment it closes (mid-dispatch) — the socket front end
      broadcasts it to watchers. Default: ignore. *)
  val set_on_window : t -> (Bss_obs.Timeseries.window -> unit) -> unit

  (** Close the final (possibly partial, possibly empty) window, marked
      [final], so the stream's cumulative deltas reconcile exactly with
      the summary. Idempotent; call at drain, before {!final_flush}. *)
  val finalize_windows : t -> unit

  (** Ring contents, oldest first — the backfill a newly subscribed
      watcher receives for stream contiguity. *)
  val windows : t -> Bss_obs.Timeseries.window list

  (** The window {!push} would close right now, marked [live], without
      closing it — the [stats] frame's on-demand snapshot. *)
  val live_window : t -> Bss_obs.Timeseries.window option
end

(** [run ?journal ?should_stop ?on_window config requests] executes the
    batch. [journal] enables checkpointing (entries already present are
    restored, not re-solved); [should_stop] is polled between waves — when
    it turns true the runtime stops admitting, finishes the in-flight
    wave, flushes the journal and returns with [interrupted = true] (the
    CLI wires SIGINT/SIGTERM to it). When [config.window_every] is [Some n], [on_window] (default: ignore)
    receives each closed telemetry window, the final drain-time window
    included. Never raises: every failure is an outcome. *)
val run :
  ?journal:Journal.t ->
  ?should_stop:(unit -> bool) ->
  ?on_window:(Bss_obs.Timeseries.window -> unit) ->
  config ->
  Request.t list ->
  summary

(** Stable text rendering: per-request lines in request order, rung
    counts, breaker transitions and totals — no timestamps or latencies,
    so seed-pinned runs render identically (cram-pinned). *)
val render_text : summary -> string

(** One JSON object with the full summary, including per-outcome typed
    error records ({!Bss_resilience.Error.to_json}) and latency
    aggregates. *)
val render_json : summary -> string
