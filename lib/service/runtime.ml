open Bss_util
open Bss_instances
open Bss_core
module Rerror = Bss_resilience.Error
module Guard = Bss_resilience.Guard
module Chaos = Bss_resilience.Chaos
module Probe = Bss_obs.Probe
module Hist = Bss_obs.Hist
module Event = Bss_obs.Event
module Trace_ctx = Bss_obs.Trace_ctx
module Slo = Bss_obs.Slo
module Timeseries = Bss_obs.Timeseries

type config = {
  queue_capacity : int;
  burst : int;
  workers : int option;
  retries : int;
  backoff : Backoff.policy;
  breaker_k : int;
  breaker_cooldown : int;
  deadline_ms : int option;
  fuel : int option;
  checkpoint_every : int;
  chaos : int option;
  seed : int;
  window_every : int option;
  trace_sample : int option;
  slo : Slo.t option;
}

let default_config =
  {
    queue_capacity = 64;
    burst = 64;
    workers = None;
    retries = 2;
    backoff = Backoff.default;
    breaker_k = 3;
    breaker_cooldown = 4;
    deadline_ms = None;
    fuel = None;
    checkpoint_every = 8;
    chaos = None;
    seed = 0;
    window_every = None;
    trace_sample = None;
    slo = None;
  }

type status = Done | Rejected | Aborted

type outcome = {
  request : Request.t;
  status : status;
  rung : string option;
  makespan : string option;
  routed : string;
  retries_used : int;
  degraded : bool;
  from_checkpoint : bool;
  error : Rerror.t option;
  latency_ns : int64;
  queue_wait_ns : int64;
}

type summary = {
  outcomes : outcome list;
  total : int;
  completed : int;
  checkpointed : int;
  rejected : int;
  aborted : int;
  dropped : int;
  not_admitted : int;
  retries : int;
  rungs : (string * int) list;
  breaker : (Variant.t * string list) list;
  queue_peak : int;
  waves : int;
  flush_failures : int;
  journal_dirty : int;
  journal_salvaged : int;
  interrupted : bool;
  hists : (string * Hist.snapshot) list;
  traces : Trace_ctx.trace list;
  slo_verdict : Slo.verdict option;
}

(* deterministic across processes, unlike Hashtbl.hash's documented-but-
   version-dependent mixing: retry jitter and chaos plans derived from a
   request id must replay identically on resume *)
let id_hash = Strhash.djb2

(* A simulated process death must unwind the whole run, whatever catch-all
   it meets on the way out — containment would turn "the process died here"
   into "the request failed here". Every broad [exception] arm below calls
   this first. *)
let reraise_crash = function Chaos.Crashed _ as e -> raise e | _ -> ()

(* The one outcome constructor: a field the status does not use keeps
   its neutral value (no route, no retries, zero durations). *)
let outcome ?rung ?makespan ?error ?(routed = "-") ?(retries_used = 0) ?(degraded = false)
    ?(from_checkpoint = false) ?(latency_ns = 0L) ?(queue_wait_ns = 0L) status request =
  {
    request;
    status;
    rung;
    makespan;
    routed;
    retries_used;
    degraded;
    from_checkpoint;
    error;
    latency_ns;
    queue_wait_ns;
  }

let status_name = function Done -> "done" | Rejected -> "rejected" | Aborted -> "aborted"

(* ---------------- the per-request worker ---------------- *)

let request_sites = Chaos.sites @ [ "service.solve" ]

(* Retryable failures are crashes escaping the solve envelope (injected or
   real) and uncertified terminal-rung results; a degraded-but-certified
   result (the 2-approx rung) is accepted as-is. Chaos plans are re-drawn
   per attempt from (chaos, id, attempt) — a transient-fault model that is
   independent of processing order, so retries and resumes replay
   identically. *)
let process ?(tctx = Trace_ctx.disabled) config (request : Request.t) ~routed ~queue_wait_ns
    algorithm =
  let t0 = Monotonic_clock.now () in
  (* the latency is read before the makespan is rendered: it times the
     solve, not the bookkeeping *)
  let finish ?rung ?schedule ?error ?degraded status retries_used =
    let latency_ns = Int64.sub (Monotonic_clock.now ()) t0 in
    let makespan = Option.map (fun s -> Rat.to_string (Schedule.makespan s)) schedule in
    outcome ?rung ?makespan ?error ?degraded ~routed ~retries_used ~queue_wait_ns ~latency_ns status
      request
  in
  match Request.instance request with
  | exception Rerror.Error e -> finish ~error:e Aborted 0
  | exception exn ->
    reraise_crash exn;
    finish ~error:(Rerror.Internal exn) Aborted 0
  | inst ->
    let rng = Prng.create (config.seed lxor id_hash request.id) in
    let plan attempt =
      match config.chaos with
      | None -> []
      | Some c ->
        Chaos.plan_of_seed ~sites:request_sites
          (c lxor id_hash request.id lxor (attempt * 0x9e3779b9))
    in
    let rec attempt a =
      let solve_once () =
        Guard.point "service.solve";
        Solver.solve_robust ?deadline_ms:config.deadline_ms ?fuel:config.fuel ~algorithm
          request.variant inst
      in
      (* one "attempt" frame per try: its duration is the solve (the
         backoff before a retry lives in its own "backoff" frame), its
         attrs say how the try ended; all no-ops when tracing is off *)
      let tok = Trace_ctx.enter tctx "attempt" in
      if Trace_ctx.enabled tctx then begin
        Trace_ctx.add_attr tctx "phase" (Trace_ctx.S "solve");
        Trace_ctx.add_attr tctx "n" (Trace_ctx.I a)
      end;
      match Chaos.with_plan (plan a) solve_once with
      | r ->
        if Trace_ctx.enabled tctx then begin
          Trace_ctx.add_attr tctx "rung" (Trace_ctx.S r.Solver.rung);
          Trace_ctx.add_attr tctx "degraded" (Trace_ctx.B (r.Solver.attempts <> []))
        end;
        Trace_ctx.leave tctx tok;
        if r.Solver.rung = "list-scheduling" && a < config.retries then retry a
        else
          finish ~rung:r.Solver.rung ~schedule:r.Solver.schedule
            ~degraded:(r.Solver.attempts <> []) Done a
      | exception exn ->
        if Trace_ctx.enabled tctx then
          Trace_ctx.add_attr tctx "error" (Trace_ctx.S (Printexc.to_string exn));
        Trace_ctx.leave tctx tok;
        reraise_crash exn;
        if a < config.retries then retry a else finish ~error:(Rerror.Internal exn) Aborted a
    and retry a =
      let tok = Trace_ctx.enter tctx "backoff" in
      if Trace_ctx.enabled tctx then Trace_ctx.add_attr tctx "phase" (Trace_ctx.S "retry");
      let d = Backoff.delay_us config.backoff rng ~attempt:(a + 1) in
      (* the jitter sequence is a pure function of (seed, id, attempt),
         so the merged histogram is identical across worker counts — the
         determinism test pins 1-worker == 4-worker snapshots *)
      if Probe.enabled () then Probe.observe "service.backoff.delay_us" (float_of_int d);
      Backoff.wait d;
      Trace_ctx.leave tctx tok;
      attempt (a + 1)
    in
    attempt 0

(* ---------------- the engine ---------------- *)

(* An admitted request carries its own state into its wave: its admission
   time (for the queue wait) and its trace context. *)
type ticket = { request : Request.t; admitted : int64; ctx : Trace_ctx.t }

(* The wave machinery behind both drivers: [run] (batch: a request list
   admitted in bursts) and the socket front end ([Bss_net.Server]: frames
   admitted as they arrive, dispatched between select rounds). All mutable
   run state lives here; drivers own only their intake policy. Every
   outcome — restored, rejected, done or aborted — is booked by [settle]. *)
module Engine = struct
  type t = {
    config : config;
    workers : int;
    journal : Journal.t option;
    queue : ticket Bqueue.t;
    breakers : (Variant.t * Breaker.t) list;
    outcomes : (string, outcome) Hashtbl.t;
    mutable order : string list;  (* first-record order, newest first *)
    retries_total : int ref;
    queue_peak : int ref;
    waves : int ref;
    flush_failures : int ref;
    interrupted : bool ref;
    not_admitted : int ref;
    checkpointed : int ref;
    hist_tbl : (string, Hist.t) Hashtbl.t;
    completed_live : int ref;
    rejected_live : int ref;
    aborted_live : int ref;
    tracing : bool;
    admit_seq : int ref;
    traces_rev : Trace_ctx.trace list ref;
    (* the live telemetry plane: a ring of windowed deltas, armed by
       [window_every]; [on_window] fans closed windows out to watchers *)
    ts : Timeseries.t option;
    mutable on_window : Timeseries.window -> unit;
    mutable windows_done : bool;
  }

  let create ?journal config =
    if config.burst < 1 then invalid_arg "Runtime: burst < 1";
    if config.retries < 0 then invalid_arg "Runtime: retries < 0";
    if config.checkpoint_every < 1 then invalid_arg "Runtime: checkpoint_every < 1";
    (match config.workers with
    | Some w when w < 1 -> invalid_arg "Runtime: workers < 1"
    | _ -> ());
    (match config.window_every with
    | Some w when w < 1 -> invalid_arg "Runtime: window_every < 1"
    | _ -> ());
    {
      config;
      workers = Option.value config.workers ~default:(Parallel.recommended ());
      journal;
      queue = Bqueue.create ~capacity:config.queue_capacity;
      breakers =
        List.map
          (fun v ->
            ( v,
              Breaker.make ~name:(Variant.to_string v) ~k:config.breaker_k
                ~cooldown:config.breaker_cooldown () ))
          Variant.all;
      outcomes = Hashtbl.create 64;
      order = [];
      retries_total = ref 0;
      queue_peak = ref 0;
      waves = ref 0;
      flush_failures = ref 0;
      interrupted = ref false;
      not_admitted = ref 0;
      checkpointed = ref 0;
      hist_tbl = Hashtbl.create 8;
      completed_live = ref 0;
      rejected_live = ref 0;
      aborted_live = ref 0;
      tracing = config.trace_sample <> None;
      admit_seq = ref 0;
      traces_rev = ref [];
      ts = Option.map (fun _ -> Timeseries.create ?slo:config.slo ()) config.window_every;
      on_window = ignore;
      windows_done = false;
    }

  let workers t = t.workers
  let queued t = Bqueue.length t.queue
  let interrupt t ~pending = t.interrupted := true; t.not_admitted := pending

  let breaker t v = List.assoc v t.breakers

  let record_outcome t (o : outcome) =
    let id = o.request.Request.id in
    if not (Hashtbl.mem t.outcomes id) then t.order <- id :: t.order;
    Hashtbl.replace t.outcomes id o

  let cached t id = Hashtbl.find_opt t.outcomes id

  (* Service histograms live on the coordinator: every observation is
     derived from data the dispatch loop already holds (worker latencies
     come back in the wave results), so recording needs no cross-domain
     sink and works with or without an installed Probe recording — the
     window stream and the summary read these, [--profile] sees the
     mirrored copies. *)
  let hobserve ?ex t name v =
    let h =
      match Hashtbl.find_opt t.hist_tbl name with
      | Some h -> h
      | None ->
        let h = Hist.create () in
        Hashtbl.add t.hist_tbl name h;
        h
    in
    (match ex with Some id -> Hist.record_exemplar h v id | None -> Hist.record h v);
    if Probe.enabled () then Probe.observe name v

  let hist_snapshots t =
    Hashtbl.fold (fun k h acc -> (k, Hist.snapshot h) :: acc) t.hist_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let finish_ctx t ctx =
    match Trace_ctx.finish ctx with
    | Some tr -> t.traces_rev := tr :: !(t.traces_rev)
    | None -> ()

  (* ---------------- the live telemetry plane ---------------- *)

  (* The window clock: completions plus aborts, i.e. requests that left
     the system through the dispatch loop. Rejections move counters but
     not the clock (they never enter a wave); checkpoint restores and
     dedup hits bypass the loop entirely and are excluded — the stream
     observes live processing only. *)
  let processed t = !(t.completed_live) + !(t.aborted_live)

  (* Counters are the deterministic prefix: their deltas at a window
     boundary depend only on the admission/completion sequence, never on
     worker count or kernel scheduling ([rejected] is admission-order-
     deterministic in batch mode and zero in healthy server runs).
     Queue/wave gauges and latency hists ride in the timing tail. *)
  let window_sample t =
    {
      Timeseries.upto = processed t;
      counters =
        [
          ("service.aborted", !(t.aborted_live));
          ( "service.breaker.transitions",
            List.fold_left
              (fun acc (_, b) -> acc + List.length (Breaker.transitions b))
              0 t.breakers );
          ("service.completed", !(t.completed_live));
          ("service.rejected", !(t.rejected_live));
          ("service.retries", !(t.retries_total));
        ];
      gauges =
        List.map
          (fun (v, b) ->
            ("service.breaker.state." ^ Variant.to_string v, Breaker.code (Breaker.state b)))
          t.breakers;
      load =
        [
          ("service.queue.depth", queued t);
          ("service.queue.peak", !(t.queue_peak));
          ("service.waves", !(t.waves));
        ];
      hists = hist_snapshots t;
    }

  let emit_window ?final t =
    match t.ts with
    | None -> ()
    | Some ts ->
      let w = Timeseries.push ?final ts (window_sample t) in
      t.on_window w

  (* called after every processed outcome: each one advances the clock by
     exactly 1, so the boundary test fires exactly once per window *)
  let maybe_close_window t =
    match (t.ts, t.config.window_every) with
    | Some _, Some every when not t.windows_done ->
      let p = processed t in
      if p > 0 && p mod every = 0 then emit_window t
    | _ -> ()

  (* the drain-time window closing the stream (possibly partial, possibly
     empty): cumulative sums over the full stream reconcile exactly with
     the final summary. Idempotent. *)
  let finalize_windows t =
    match t.ts with
    | Some _ when not t.windows_done ->
      t.windows_done <- true;
      emit_window ~final:true t
    | _ -> ()

  let set_on_window t f = t.on_window <- f
  let windows t = match t.ts with None -> [] | Some ts -> Timeseries.windows ts
  let live_window t = Option.map (fun ts -> Timeseries.peek ts (window_sample t)) t.ts

  let try_flush t =
    match t.journal with
    | None -> ()
    | Some j -> (
      let t0 = Monotonic_clock.now () in
      match Journal.flush j with
      | () ->
        hobserve t "service.journal.flush_ns"
          (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0));
        if Probe.enabled () then Probe.count "service.journal.flush_ok"
      | exception exn ->
        reraise_crash exn;
        incr t.flush_failures;
        if Probe.enabled () then Probe.count "service.journal.flush_failed")

  (* the final flush must land even under an armed journal-flush fault:
     every retry advances the site's hit counter past the armed hits *)
  let final_flush t =
    match t.journal with
    | None -> ()
    | Some j ->
      let rec final k = if Journal.dirty j > 0 && k > 0 then (try_flush t; final (k - 1)) in
      final 4

  (* The one place an outcome is booked, on the coordinator, in this
     order (exemplar eviction and trace attribute order depend on it):
     the live counters and their Probe mirrors, the solve and retry
     histograms, the journal append, the trace's closing attributes,
     the outcome table — and, for a live done or aborted outcome, the
     window clock and the checkpoint cadence. *)
  let settle t ctx (o : outcome) =
    let live = o.status <> Rejected && not o.from_checkpoint in
    let solve_hist = "service.solve_ns." ^ Variant.to_string o.request.Request.variant in
    (match o.status with
    | Done when o.from_checkpoint ->
      incr t.checkpointed;
      if Probe.enabled () then Probe.count "service.resumed"
    | Rejected ->
      incr t.rejected_live;
      if Probe.enabled () then Probe.count "service.rejected"
    | Done | Aborted ->
      t.retries_total := !(t.retries_total) + o.retries_used;
      if o.status = Done then incr t.completed_live else incr t.aborted_live;
      if Probe.enabled () then begin
        Probe.count (if o.status = Done then "service.done" else "service.aborted");
        if o.retries_used > 0 then Probe.count ~n:o.retries_used "service.retries";
        if o.degraded then Probe.count "service.degraded"
      end;
      if o.status = Done then
        hobserve
          ?ex:(if Trace_ctx.enabled ctx then Some (Trace_ctx.trace_id ctx) else None)
          t solve_hist (Int64.to_float o.latency_ns);
      hobserve t "service.retries_per_request" (float_of_int o.retries_used));
    (match (t.journal, o.rung, o.makespan) with
    | Some j, Some rung, Some makespan when live ->
      let t0 = Monotonic_clock.now () in
      Journal.add j { Journal.id = o.request.Request.id; rung; makespan };
      if Trace_ctx.enabled ctx then
        Trace_ctx.add_span ctx "journal.append"
          ~dur_ns:(Int64.sub (Monotonic_clock.now ()) t0)
          ~attrs:[ ("phase", Trace_ctx.S "journal") ]
    | _ -> ());
    if Trace_ctx.enabled ctx then begin
      Trace_ctx.add_attr ctx "outcome" (Trace_ctx.S (status_name o.status));
      Option.iter (fun r -> Trace_ctx.add_attr ctx "rung" (Trace_ctx.S r)) o.rung;
      if o.status <> Rejected then Trace_ctx.add_attr ctx "retries" (Trace_ctx.I o.retries_used);
      if o.status = Done then Trace_ctx.add_attr ctx "degraded" (Trace_ctx.B o.degraded);
      Option.iter
        (fun e -> Trace_ctx.add_attr ctx "error" (Trace_ctx.S (Rerror.to_string e)))
        o.error;
      (* the tail sampler keeps a trace whose solve broke the tightest
         latency objective covering its own variant *)
      (match Option.bind t.config.slo (Slo.latency_bound ~hist:solve_hist) with
      | Some bound when o.status = Done && Int64.to_float o.latency_ns > bound ->
        Trace_ctx.add_attr ctx "slo_violation" (Trace_ctx.B true)
      | _ -> ());
      finish_ctx t ctx
    end;
    record_outcome t o;
    if live then begin
      (* the window clock ticks per outcome, in wave order on the
         coordinator — identical across worker counts *)
      maybe_close_window t;
      match t.journal with
      | Some j when Journal.dirty j >= t.config.checkpoint_every -> try_flush t
      | _ -> ()
    end

  (* restore a checkpointed completion: journal entries are trusted verbatim *)
  let from_checkpoint t (r : Request.t) =
    match t.journal with
    | Some j when not (Hashtbl.mem t.outcomes r.Request.id) ->
      Option.map
        (fun (e : Journal.entry) ->
          let o =
            outcome ~rung:e.Journal.rung ~makespan:e.Journal.makespan ~from_checkpoint:true Done r
          in
          settle t Trace_ctx.disabled o;
          o)
        (Journal.find j r.Request.id)
    | _ -> None

  let admit t (r : Request.t) =
    let seq = !(t.admit_seq) in
    incr t.admit_seq;
    let ctx =
      if t.tracing then Trace_ctx.make ~seed:t.config.seed ~seq ~request_id:r.Request.id
      else Trace_ctx.disabled
    in
    if Trace_ctx.enabled ctx then begin
      Trace_ctx.add_attr ctx "variant" (Trace_ctx.S (Variant.to_string r.Request.variant));
      Trace_ctx.add_attr ctx "tenant" (Trace_ctx.S r.Request.tenant)
    end;
    let reject error =
      let o = outcome ~error Rejected r in
      settle t ctx o;
      Error o
    in
    match Bqueue.admit t.queue { request = r; admitted = Monotonic_clock.now (); ctx } with
    | Ok () ->
      if Probe.enabled () then Probe.count "service.enqueued";
      Ok ()
    | Error e -> reject e
    | exception exn ->
      reraise_crash exn;
      reject (Rerror.Internal exn)

  let dispatch t =
    let wave = Bqueue.drain t.queue in
    Probe.span "service.wave" @@ fun () ->
    incr t.waves;
    t.queue_peak := max !(t.queue_peak) (List.length wave);
    if Probe.enabled () then begin
      Probe.count "service.wave";
      Probe.count ~n:(List.length wave) "service.queue.depth"
    end;
    let wave_start = Monotonic_clock.now () in
    (* queue wait, then breaker routing on the coordinator, in wave order *)
    let jobs =
      List.map
        (fun tk ->
          let r = tk.request in
          let wait_ns = Int64.sub wave_start tk.admitted in
          if Trace_ctx.enabled tk.ctx then begin
            Trace_ctx.add_span tk.ctx "queue.wait" ~dur_ns:wait_ns
              ~attrs:[ ("phase", Trace_ctx.S "queue") ];
            hobserve ~ex:(Trace_ctx.trace_id tk.ctx) t "service.queue.wait_ns"
              (Int64.to_float wait_ns)
          end
          else hobserve t "service.queue.wait_ns" (Int64.to_float wait_ns);
          let b = breaker t r.Request.variant in
          let route, routed, algorithm =
            match Breaker.route b with
            | Breaker.Requested -> (Breaker.Requested, "requested", r.Request.algorithm)
            | Breaker.Probe -> (Breaker.Probe, "probe", r.Request.algorithm)
            | Breaker.Fallback -> (Breaker.Fallback, "fallback", Solver.Approx2)
            | exception exn ->
              reraise_crash exn;
              (* an injected fault on the half-open probe point: the probe
                 failed before it ran — re-open and fall back *)
              Breaker.record b ~route:Breaker.Probe ~ok:false;
              (Breaker.Fallback, "fallback", Solver.Approx2)
          in
          if Trace_ctx.enabled tk.ctx then Trace_ctx.add_attr tk.ctx "route" (Trace_ctx.S routed);
          (tk, wait_ns, route, routed, algorithm))
        wave
    in
    (* fan the wave out to the worker pool, one task per request,
       whatever its tenant (tenant isolation is the quota's job, before
       the queue). A request's chaos plan is armed inside [process], on
       whichever domain runs it, and that domain takes over the
       request's trace context meanwhile. The coordinator is blocked
       until every worker is joined, so ownership passes cleanly back
       without synchronization, and outcomes are settled in wave order
       whatever the worker count. *)
    let results =
      Parallel.map_results ~domains:t.workers
        (fun (tk, queue_wait_ns, _, routed, algorithm) ->
          process ~tctx:tk.ctx t.config tk.request ~routed ~queue_wait_ns algorithm)
        jobs
    in
    List.map2
      (fun (tk, queue_wait_ns, route, routed, _) result ->
        let o =
          match result with
          | Ok o -> o
          | Error (f : Parallel.failure) ->
            (* [process] re-raises Crashed and catches everything else, so
               the worker-pool wrapper only ever reports a crash here *)
            reraise_crash f.Parallel.exn;
            outcome ~error:(Rerror.Internal f.Parallel.exn) ~routed ~queue_wait_ns Aborted
              tk.request
        in
        Breaker.record (breaker t tk.request.Request.variant) ~route
          ~ok:(o.status = Done && not o.degraded);
        settle t tk.ctx o;
        o)
      jobs results

  (* Coordinator-level fault plan: the service sites that fire outside the
     per-request scopes (admission, journal flush, breaker probe), armed
     on the coordinator domain only, so they fire in dispatch order. A
     per-request plan armed inside [process] is the only plan its domain
     sees for the duration of one solve: on a worker domain there is no
     other, and on the coordinator (which takes wave items too) it nests
     within this one and masks it, while no coordinator site fires. *)
  let coordinator_plan config =
    match config.chaos with
    | None -> []
    | Some c ->
      let sites = [ "service.admit"; "service.breaker.probe"; "service.journal.flush" ] in
      Chaos.plan_of_seed ~sites ~spread:16 c
      @ Chaos.plan_of_seed ~sites ~spread:16 (c lxor 0x55aa77)

  let summary ?requests t =
    let ordered =
      match requests with
      | Some reqs ->
        List.filter_map (fun (r : Request.t) -> Hashtbl.find_opt t.outcomes r.Request.id) reqs
      | None -> List.rev_map (fun id -> Hashtbl.find t.outcomes id) t.order
    in
    let total =
      match requests with Some reqs -> List.length reqs | None -> Hashtbl.length t.outcomes
    in
    let count p = List.length (List.filter p ordered) in
    let completed = count (fun o -> o.status = Done) in
    let rejected = count (fun o -> o.status = Rejected) in
    let aborted = count (fun o -> o.status = Aborted) in
    let rungs =
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun o ->
          match o.rung with
          | Some rung ->
            Hashtbl.replace tbl rung (1 + Option.value ~default:0 (Hashtbl.find_opt tbl rung))
          | None -> ())
        ordered;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
    in
    let sample = window_sample t in
    let final_hists = sample.Timeseries.hists in
    (* Tail sampling: always keep the stories worth reading — errors,
       degradations, retried requests, SLO violations and every trace a
       histogram bucket cites as an exemplar (the acceptance contract:
       a p99 exemplar id must resolve to a full span tree in the trace
       file) — and reservoir-sample the uneventful rest under the run
       seed. Output is in admission order. *)
    let traces =
      match List.rev !(t.traces_rev) with
      | [] -> []
      | all ->
        let exemplar_ids =
          List.concat_map (fun (_, h) -> Hist.exemplar_ids h) final_hists |> List.sort_uniq compare
        in
        let interesting (tr : Trace_ctx.trace) =
          (match Trace_ctx.attr tr "outcome" with Some "done" -> false | _ -> true)
          || Trace_ctx.attr tr "degraded" = Some "true"
          || (match Trace_ctx.attr tr "retries" with Some r -> r <> "0" | None -> false)
          || Trace_ctx.attr tr "slo_violation" = Some "true"
          || List.mem tr.Trace_ctx.trace_id exemplar_ids
        in
        let must, rest = List.partition interesting all in
        let sampled =
          Trace_ctx.reservoir ~seed:t.config.seed
            ~k:(Option.value t.config.trace_sample ~default:0)
            rest
        in
        List.sort
          (fun (a : Trace_ctx.trace) (b : Trace_ctx.trace) ->
            compare a.Trace_ctx.seq b.Trace_ctx.seq)
          (must @ sampled)
    in
    let slo_verdict =
      Option.map
        (fun spec ->
          Slo.verdict
            ?windows:(Option.map Timeseries.pushed t.ts)
            ?worst_burn:(Option.map Timeseries.worst_burn t.ts)
            spec
            { Slo.counters = sample.Timeseries.counters; hists = final_hists })
        t.config.slo
    in
    {
      outcomes = ordered;
      total;
      completed;
      checkpointed = !(t.checkpointed);
      rejected;
      aborted;
      dropped = total - List.length ordered - !(t.not_admitted);
      not_admitted = !(t.not_admitted);
      retries = !(t.retries_total);
      rungs;
      breaker =
        List.filter_map
          (fun (v, b) -> match Breaker.transitions b with [] -> None | ts -> Some (v, ts))
          t.breakers;
      queue_peak = !(t.queue_peak);
      waves = !(t.waves);
      flush_failures = !(t.flush_failures);
      journal_dirty = (match t.journal with None -> 0 | Some j -> Journal.dirty j);
      journal_salvaged =
        (match t.journal with None -> 0 | Some j -> List.length (Journal.salvaged j));
      interrupted = !(t.interrupted);
      hists = final_hists;
      traces;
      slo_verdict;
    }
end

(* ---------------- the batch driver ---------------- *)

let rec take n = function
  | [] -> ([], [])
  | xs when n = 0 -> ([], xs)
  | x :: xs ->
    let front, rest = take (n - 1) xs in
    (x :: front, rest)

let run ?journal ?(should_stop = fun () -> false) ?on_window config (requests : Request.t list) =
  let e = Engine.create ?journal config in
  Option.iter (Engine.set_on_window e) on_window;
  (* restore checkpointed completions before admitting anything *)
  List.iter (fun r -> ignore (Engine.from_checkpoint e r)) requests;
  let pending =
    List.filter (fun (r : Request.t) -> Engine.cached e r.Request.id = None) requests
  in
  let rec loop pending =
    if should_stop () then Engine.interrupt e ~pending:(List.length pending)
    else
      match pending with
      | [] -> ()
      | _ ->
        let front, rest = take config.burst pending in
        List.iter (fun r -> ignore (Engine.admit e r)) front;
        ignore (Engine.dispatch e);
        loop rest
  in
  Chaos.with_plan (Engine.coordinator_plan config) (fun () ->
      loop pending;
      Engine.finalize_windows e;
      Engine.final_flush e);
  Engine.summary ~requests e

(* ---------------- rendering ---------------- *)

let render_text s =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun o ->
      match o.status with
      | Done ->
        add "%-24s done     rung=%s makespan=%s routed=%s retries=%d%s\n" o.request.Request.id
          (Option.get o.rung) (Option.get o.makespan) o.routed o.retries_used
          (if o.from_checkpoint then " (checkpointed)" else "")
      | Rejected ->
        add "%-24s rejected %s\n" o.request.Request.id
          (Rerror.to_string (Option.get o.error))
      | Aborted ->
        add "%-24s aborted  %s\n" o.request.Request.id (Rerror.to_string (Option.get o.error)))
    s.outcomes;
  add "service: %d requests | done=%d (checkpointed=%d) rejected=%d aborted=%d dropped=%d not-admitted=%d retries=%d\n"
    s.total s.completed s.checkpointed s.rejected s.aborted s.dropped s.not_admitted s.retries;
  if s.rungs <> [] then
    add "rungs: %s\n" (String.concat " " (List.map (fun (r, k) -> Printf.sprintf "%s=%d" r k) s.rungs));
  List.iter
    (fun (v, ts) -> add "breaker[%s]: %s\n" (Variant.to_string v) (String.concat " " ts))
    s.breaker;
  add "queue: capacity-peak=%d waves=%d\n" s.queue_peak s.waves;
  add "journal: dirty=%d flush-failures=%d%s\n" s.journal_dirty s.flush_failures
    (if s.journal_salvaged > 0 then Printf.sprintf " salvaged=%d" s.journal_salvaged else "");
  (match s.traces with [] -> () | ts -> add "traces: %d sampled\n" (List.length ts));
  Option.iter (fun v -> add "%s" (Slo.verdict_text v)) s.slo_verdict;
  if s.interrupted then add "interrupted: drained cleanly\n";
  Buffer.contents buf

let render_json s =
  let outcome_json (o : outcome) =
    Json.obj
      ([ ("id", Json.str o.request.Request.id); ("status", Json.str (status_name o.status)) ]
      @ (match o.rung with Some r -> [ ("rung", Json.str r) ] | None -> [])
      @ (match o.makespan with Some m -> [ ("makespan", Json.str m) ] | None -> [])
      @ [
          ("routed", Json.str o.routed);
          ("retries", Json.int o.retries_used);
          ("degraded", Json.bool o.degraded);
          ("checkpointed", Json.bool o.from_checkpoint);
        ]
      @ match o.error with Some e -> [ ("error", Rerror.to_json e) ] | None -> [])
  in
  let latency_total_us =
    List.fold_left (fun acc o -> Int64.add acc (Int64.div o.latency_ns 1_000L)) 0L s.outcomes
  in
  Json.obj
    ([
      ("schema", Json.str Bss_obs.Offline.metrics_schema_version);
      ("total", Json.int s.total);
      ("done", Json.int s.completed);
      ("checkpointed", Json.int s.checkpointed);
      ("rejected", Json.int s.rejected);
      ("aborted", Json.int s.aborted);
      ("dropped", Json.int s.dropped);
      ("not_admitted", Json.int s.not_admitted);
      ("retries", Json.int s.retries);
      ("rungs", Json.obj (List.map (fun (r, k) -> (r, Json.int k)) s.rungs));
      ( "breaker",
        Json.obj
          (List.map
             (fun (v, ts) -> (Variant.to_string v, Json.arr (List.map Json.str ts)))
             s.breaker) );
      ("queue_peak", Json.int s.queue_peak);
      ("waves", Json.int s.waves);
      ("flush_failures", Json.int s.flush_failures);
      ("journal_dirty", Json.int s.journal_dirty);
    ]
    @ (if s.journal_salvaged > 0 then [ ("salvaged", Json.int s.journal_salvaged) ] else [])
    @ [
      ("interrupted", Json.bool s.interrupted);
      ("latency_total_us", Json.int64 latency_total_us);
      ("hists", Json.obj (List.map (fun (k, h) -> (k, Hist.to_json h)) s.hists));
    ]
    @ (match s.slo_verdict with
      | Some v -> [ ("slo", Slo.verdict_json v) ]
      | None -> [])
    @ [ ("outcomes", Json.arr (List.map outcome_json s.outcomes)) ])
