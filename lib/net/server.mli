(** The socket front end: a single-coordinator [select] loop serving the
    [bss-net/1] protocol ({!Wire}) over a Unix-domain stream socket,
    driving a {!Bss_service.Runtime.Engine}.

    Admission is layered: a per-tenant token-bucket quota ({!Quota})
    sheds first (typed [Overloaded] backpressure in a [status:"shed"]
    result; retryable — the bucket may have refilled by the next
    attempt), then the engine's bounded queue rejects (terminal for that
    id). Already-recorded ids are answered from the engine's outcome
    cache without re-solving, and journaled ids are restored — together
    the exactly-once contract across reconnects, evictions and
    kill-and-resume. Frames admitted in the same poll round form one
    dispatch wave, fanned out over the worker pool one task per
    request.

    The live telemetry plane (docs/observability.md) rides the same
    loop when [service.window_every] is set: [stats] answers one
    on-demand window, [watch] subscribes the connection to the pushed
    [bss-watch/1] stream (ring backfill first, then every close —
    windows close mid-dispatch, flushes stay in the select loop).
    Both are control frames: quota-exempt and never counted as
    answers. A watcher too slow to keep up backs up its own write
    queue and is evicted by the ordinary write deadline — watch
    traffic can never block solving.

    Slow clients are evicted on wall-clock deadlines: a partial frame
    older than [read_timeout_ms], or queued output stuck longer than
    [write_timeout_ms]. Chaos arms {!Bss_resilience.Chaos.net_sites}:
    [net.accept] refuses the connection, [net.read]/[net.write] evict
    it (any solved outcome stays journaled, so the answer survives the
    eviction).

    Drain — on [should_stop] (the CLI's SIGINT/SIGTERM flag) or after
    [drain_after] answers — stops accepting, unlinks the socket,
    dispatches everything admitted, sends each surviving connection a
    [shutdown] frame, flushes within a bounded budget, then flushes the
    journal (rotation-aware: {!Bss_service.Journal}). *)

type config = {
  listen_path : string;  (** Unix-domain socket path; stale files are unlinked *)
  service : Bss_service.Runtime.config;
  quota : Quota.config option;  (** per-tenant admission quotas; [None] = no shedding *)
  read_timeout_ms : int;  (** evict a conn whose partial frame stalls this long; 0 = never *)
  write_timeout_ms : int;  (** evict a conn whose output stalls this long; 0 = never *)
  drain_after : int option;  (** drain after this many answers — deterministic cram runs *)
  max_frame_bytes : int;  (** evict on an unterminated frame beyond this size *)
}

val default_read_timeout_ms : int
val default_write_timeout_ms : int
val default_max_frame_bytes : int

type summary = {
  service : Bss_service.Runtime.summary;  (** engine summary, first-record order *)
  accepted : int;
  refused : int;  (** connections refused by [net.accept] chaos *)
  evicted : int;  (** deadline, overflow or chaos evictions *)
  closed : int;  (** orderly closes (client EOF or drain) *)
  frames_read : int;
  frames_malformed : int;  (** parse failures, duplicate in-flight ids, overflows *)
  frames_written : int;
      (** fully flushed to a socket. Shutdown frames are excluded: a
          client may legitimately close before the goodbye lands, and
          counting it would race that close (the count must be
          deterministic for seed-pinned runs) *)
  frames_dropped : int;  (** responses addressed to a dead connection *)
  answers : int;  (** result/shed frames queued to live connections *)
  dedup_hits : int;  (** re-sent ids answered from the outcome cache *)
  shed : (string * int) list;  (** quota sheds per tenant, sorted *)
  shed_total : int;
  rotations : int;  (** sealed journal segments at exit *)
  drain_reason : string;  (** ["signal"] or ["drain-after"] *)
}

(** The deterministic one-arm-per-site plan over
    {!Bss_resilience.Chaos.net_sites} that [--chaos seed] arms alongside
    the engine's coordinator plan — unlike the sampled
    {!Bss_resilience.Chaos.plan_of_seed}, every net site is always
    armed (the CI soak criterion). *)
val net_plan : int -> (string * int * Bss_resilience.Chaos.action) list

(** [serve ?journal ?should_stop ?log config] binds,
    serves until drain, and returns the summary. [log] receives
    deterministic one-line progress notes (listen path, armed chaos
    plan, evictions, drain). Raises [Invalid_argument] on a malformed
    config and [Unix.Unix_error] if the socket cannot be bound. *)
val serve :
  ?journal:Bss_service.Journal.t ->
  ?should_stop:(unit -> bool) ->
  ?log:(string -> unit) ->
  config ->
  summary
