module Request = Bss_service.Request
module Runtime = Bss_service.Runtime
module Journal = Bss_service.Journal
module Engine = Bss_service.Runtime.Engine
module Probe = Bss_obs.Probe
module Chaos = Bss_resilience.Chaos
module Guard = Bss_resilience.Guard
module Rerror = Bss_resilience.Error
module Prng = Bss_util.Prng
module Timeseries = Bss_obs.Timeseries

type config = {
  listen_path : string;
  service : Runtime.config;
  quota : Quota.config option;
  read_timeout_ms : int;
  write_timeout_ms : int;
  drain_after : int option;
  max_frame_bytes : int;
}

let default_read_timeout_ms = 5_000
let default_write_timeout_ms = 5_000
let default_max_frame_bytes = 65_536

type summary = {
  service : Runtime.summary;
  accepted : int;
  refused : int;
  evicted : int;
  closed : int;
  frames_read : int;
  frames_malformed : int;
  frames_written : int;
  frames_dropped : int;
  answers : int;
  dedup_hits : int;
  shed : (string * int) list;
  shed_total : int;
  rotations : int;
  drain_reason : string;
}

type conn = {
  cid : int;
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  (* (frame, counted): whether completing the write increments
     [frames_written] — shutdown frames are uncounted, so the counter
     does not race the client closing first (it may or may not see them) *)
  wq : (string * bool) Queue.t;
  mutable whead : string;
  mutable whead_counted : bool;
  mutable woff : int;
  mutable last_read_ns : int64;
  mutable pending_since : int64 option;
  mutable watching : bool;
  mutable alive : bool;
}

(* One deterministic arm per net site (unlike the 1-2 sites
   [Chaos.plan_of_seed] samples): the CI soak criterion is chaos at all
   three of accept/read/write in one run. *)
let net_plan seed =
  let rng = Prng.create (seed lxor 0x6e6574) in
  List.map (fun site -> (site, Prng.int rng 8, Chaos.Raise)) Chaos.net_sites

let plan (config : config) =
  Engine.coordinator_plan config.service
  @ match config.service.Runtime.chaos with None -> [] | Some seed -> net_plan seed

let ms_ns ms = Int64.mul (Int64.of_int ms) 1_000_000L
let now () = Monotonic_clock.now ()

let validate (config : config) =
  if config.read_timeout_ms < 0 then invalid_arg "Server: read_timeout_ms < 0";
  if config.write_timeout_ms < 0 then invalid_arg "Server: write_timeout_ms < 0";
  if config.max_frame_bytes < 1 then invalid_arg "Server: max_frame_bytes < 1";
  (match config.drain_after with
  | Some n when n < 0 -> invalid_arg "Server: drain_after < 0"
  | _ -> ());
  if config.listen_path = "" then invalid_arg "Server: empty listen path"

let serve ?journal ?(should_stop = fun () -> false) ?(log = ignore) (config : config) =
  validate config;
  (* A client that closes mid-conversation must surface as EPIPE on our
     write, not kill the process. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let engine = Engine.create ?journal config.service in
  let quota = Option.map (fun qc -> (Quota.create qc, qc)) config.quota in
  (* A SIGKILLed predecessor leaves its socket file behind; binding needs
     the path free. The journal — not the socket — is the durable state. *)
  if Sys.file_exists config.listen_path then (try Unix.unlink config.listen_path with _ -> ());
  let lfd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.set_nonblock lfd;
  Unix.bind lfd (ADDR_UNIX config.listen_path);
  Unix.listen lfd 64;
  log ("net: listening on " ^ config.listen_path);
  let armed = plan config in
  if armed <> [] then log ("net: chaos " ^ Chaos.describe_plan armed);
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let owners : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let next_cid = ref 0 in
  let accepted = ref 0
  and refused = ref 0
  and evicted = ref 0
  and closed = ref 0
  and frames_read = ref 0
  and malformed = ref 0
  and written = ref 0
  and dropped = ref 0
  and answers = ref 0
  and dedup = ref 0 in
  let chunk = Bytes.create 4096 in
  let live () = Hashtbl.fold (fun _ c acc -> if c.alive then c :: acc else acc) conns [] in
  let conn_of_fd fd = List.find_opt (fun c -> c.fd == fd) (live ()) in
  let has_output c = c.whead <> "" || not (Queue.is_empty c.wq) in
  let close_conn c kind =
    if c.alive then begin
      c.alive <- false;
      Hashtbl.remove conns c.cid;
      (try Unix.close c.fd with _ -> ());
      match kind with
      | `Closed ->
        incr closed;
        Probe.count "net.conn.closed"
      | `Evicted ->
        incr evicted;
        Probe.count "net.conn.evicted"
    end
  in
  let evict c reason =
    log (Printf.sprintf "net: evict conn#%d (%s)" c.cid reason);
    close_conn c `Evicted
  in
  let drop_frame () =
    incr dropped;
    Probe.count "net.frames.dropped"
  in
  (* Returns false when the frame was dropped (dead connection, or a
     net.write chaos hit — which also evicts the connection; the engine
     has already journaled the outcome, so a reconnecting client gets
     the same answer from the cache). *)
  let queue_frame c frame =
    if not c.alive then begin
      drop_frame ();
      false
    end
    else
      match Guard.point "net.write" with
      | () ->
        Queue.push (frame ^ "\n", true) c.wq;
        if c.pending_since = None then c.pending_since <- Some (now ());
        true
      | exception Chaos.Injected _ ->
        drop_frame ();
        evict c "chaos:net.write";
        false
  in
  let answer c frame = if queue_frame c frame then incr answers in
  (* The live-plane broadcast: each closed window is pushed to every
     watching connection the moment the engine closes it (mid-dispatch).
     Pushes only enqueue — flushing stays in the select loop, so a slow
     watcher backs up its own queue until the write deadline evicts it,
     never blocking solve traffic. Watch frames ride [queue_frame], not
     [answer]: they are counted as written frames but never as answers,
     so [drain_after] accounting ignores them. *)
  Engine.set_on_window engine (fun w ->
      let line = Timeseries.window_json w in
      Hashtbl.iter (fun _ c -> if c.alive && c.watching then ignore (queue_frame c line)) conns);
  let plane_disabled =
    Rerror.Invalid_input
      { line = None; field = "op"; reason = "telemetry plane disabled (--window-every)" }
  in
  let handle_stats c =
    match Engine.live_window engine with
    | Some w -> ignore (queue_frame c (Timeseries.window_json w))
    | None -> ignore (queue_frame c (Wire.error_frame plane_disabled))
  in
  (* subscribe: backfill the ring first (contiguity from the oldest
     retained window), then stream every subsequent close *)
  let handle_watch c =
    match Engine.live_window engine with
    | None -> ignore (queue_frame c (Wire.error_frame plane_disabled))
    | Some _ ->
      if not c.watching then begin
        c.watching <- true;
        Probe.count "net.watchers";
        List.iter
          (fun w -> ignore (queue_frame c (Timeseries.window_json w)))
          (Engine.windows engine)
      end
  in
  let handle_solve c (r : Request.t) =
    if Hashtbl.mem owners r.Request.id then begin
      incr malformed;
      Probe.count "net.frames.malformed";
      ignore
        (queue_frame c
           (Wire.error_frame ~id:r.Request.id
              (Rerror.Invalid_input
                 { line = None; field = "id"; reason = "duplicate id in flight" })))
    end
    else
      match Engine.cached engine r.Request.id with
      | Some o ->
        incr dedup;
        Probe.count "net.dedup.hits";
        answer c (Wire.result_frame o)
      | None -> (
        match Engine.from_checkpoint engine r with
        | Some o -> answer c (Wire.result_frame o)
        | None -> (
          match quota with
          | Some (q, qc) when not (Quota.admit q r.Request.tenant) ->
            Probe.count "net.tenant.shed";
            Probe.count ("net.tenant.shed." ^ r.Request.tenant);
            answer c
              (Wire.shed_frame r ~capacity:qc.Quota.burst ~pending:(Quota.tokens q r.Request.tenant))
          | _ -> (
            match Engine.admit engine r with
            | Ok () -> Hashtbl.replace owners r.Request.id c.cid
            | Error o -> answer c (Wire.result_frame o))))
  in
  let handle_frame c line =
    match Guard.point "net.read" with
    | () -> (
      incr frames_read;
      Probe.count "net.frames.read";
      match Wire.parse_frame line with
      | Error e ->
        incr malformed;
        Probe.count "net.frames.malformed";
        ignore (queue_frame c (Wire.error_frame e))
      | Ok Wire.Ping -> ignore (queue_frame c Wire.pong_frame)
      (* stats/watch are control frames like ping: quota-exempt (the
         tenant quota guards solve admission only) and never answers *)
      | Ok Wire.Stats -> handle_stats c
      | Ok Wire.Watch -> handle_watch c
      | Ok (Wire.Solve r) -> handle_solve c r)
    | exception Chaos.Injected _ -> evict c "chaos:net.read"
  in
  let process_lines c =
    List.iter
      (fun line -> if c.alive && line <> "" then handle_frame c line)
      (Wire.drain_lines c.rbuf)
  in
  let rec read_some c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n ->
      Buffer.add_subbytes c.rbuf chunk 0 n;
      c.last_read_ns <- now ();
      if n = Bytes.length chunk then read_some c else `Blocked
    | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> `Blocked
    | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> `Eof
  in
  let handle_readable c =
    match read_some c with
    | `Blocked ->
      process_lines c;
      if c.alive && Buffer.length c.rbuf > config.max_frame_bytes then begin
        incr malformed;
        Probe.count "net.frames.malformed";
        evict c "frame-overflow"
      end
    | `Eof ->
      process_lines c;
      if c.alive then close_conn c `Closed
  in
  let accept_new () =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true lfd with
      | fd, _ -> (
        match Guard.point "net.accept" with
        | () ->
          Unix.set_nonblock fd;
          incr next_cid;
          let c =
            {
              cid = !next_cid;
              fd;
              rbuf = Buffer.create 256;
              wq = Queue.create ();
              whead = "";
              whead_counted = true;
              woff = 0;
              last_read_ns = now ();
              pending_since = None;
              watching = false;
              alive = true;
            }
          in
          Hashtbl.replace conns c.cid c;
          incr accepted;
          Probe.count "net.conn.accepted"
        | exception Chaos.Injected _ ->
          (try Unix.close fd with _ -> ());
          incr refused;
          Probe.count "net.conn.refused")
      | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN), _, _) -> continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  in
  let flush_conn c =
    let progress = ref true in
    (try
       while c.alive && !progress do
         if c.whead = "" then
           if Queue.is_empty c.wq then progress := false
           else begin
             let frame, counted = Queue.pop c.wq in
             c.whead <- frame;
             c.whead_counted <- counted;
             c.woff <- 0
           end
         else begin
           let n = Unix.write_substring c.fd c.whead c.woff (String.length c.whead - c.woff) in
           c.woff <- c.woff + n;
           if c.woff = String.length c.whead then begin
             c.whead <- "";
             if c.whead_counted then begin
               incr written;
               Probe.count "net.frames.written"
             end
           end
           else if n = 0 then progress := false
         end
       done
     with
    | Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
    | Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> close_conn c `Closed);
    if c.alive && not (has_output c) then c.pending_since <- None
  in
  let route outcomes =
    List.iter
      (fun (o : Runtime.outcome) ->
        let id = o.Runtime.request.Request.id in
        match Hashtbl.find_opt owners id with
        | Some cid ->
          Hashtbl.remove owners id;
          (match Hashtbl.find_opt conns cid with
          | Some c when c.alive -> answer c (Wire.result_frame o)
          | _ -> drop_frame ())
        | None -> drop_frame ())
      outcomes
  in
  let sweep_deadlines () =
    let t = now () in
    let stale =
      Hashtbl.fold
        (fun _ c acc ->
          if not c.alive then acc
          else if
            config.read_timeout_ms > 0
            && Buffer.length c.rbuf > 0
            && Int64.compare (Int64.sub t c.last_read_ns) (ms_ns config.read_timeout_ms) > 0
          then (c, "slow-read") :: acc
          else
            match c.pending_since with
            | Some t0
              when config.write_timeout_ms > 0
                   && Int64.compare (Int64.sub t t0) (ms_ns config.write_timeout_ms) > 0 ->
              (c, "slow-write") :: acc
            | _ -> acc)
        conns []
    in
    List.iter (fun (c, reason) -> evict c reason) stale
  in
  let drain reason =
    log ("net: draining (" ^ reason ^ ")");
    (try Unix.close lfd with _ -> ());
    (try Unix.unlink config.listen_path with _ -> ());
    while Engine.queued engine > 0 do
      route (Engine.dispatch engine)
    done;
    (* close the final telemetry window before the shutdown frames, so a
       watcher's stream terminates with [final:true] and reconciles *)
    Engine.finalize_windows engine;
    let served = !answers in
    (* pushed directly, not through [queue_frame]: uncounted, so
       [frames_written] is deterministic whether or not the client is
       still connected to receive the goodbye *)
    List.iter
      (fun c -> Queue.push (Wire.shutdown_frame ~reason ~served ^ "\n", false) c.wq)
      (live ());
    let deadline = Int64.add (now ()) 2_000_000_000L in
    let rec flush_all () =
      let pending = List.filter has_output (live ()) in
      if pending <> [] && Int64.compare (now ()) deadline < 0 then begin
        (match Unix.select [] (List.map (fun c -> c.fd) pending) [] 0.05 with
        | _, ws, _ -> List.iter (fun fd -> Option.iter flush_conn (conn_of_fd fd)) ws
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        flush_all ()
      end
    in
    flush_all ();
    List.iter (fun c -> if has_output c then evict c "drain-flush" else close_conn c `Closed) (live ());
    Engine.final_flush engine
  in
  let run_loop () =
    let reason = ref "" in
    while !reason = "" do
      if should_stop () then reason := "signal"
      else
        (match config.drain_after with
        | Some n when !answers >= n -> reason := "drain-after"
        | _ -> ());
      if !reason = "" then begin
        let readers = lfd :: List.map (fun c -> c.fd) (live ()) in
        let writers = List.filter_map (fun c -> if has_output c then Some c.fd else None) (live ()) in
        let r, w, _ =
          try Unix.select readers writers [] 0.05
          with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
        in
        if List.memq lfd r then accept_new ();
        List.iter
          (fun fd -> if fd != lfd then Option.iter handle_readable (conn_of_fd fd))
          r;
        if Engine.queued engine > 0 then route (Engine.dispatch engine);
        List.iter (fun fd -> Option.iter flush_conn (conn_of_fd fd)) w;
        sweep_deadlines ()
      end
    done;
    drain !reason;
    !reason
  in
  let drain_reason = Chaos.with_plan armed run_loop in
  {
    service = Engine.summary engine;
    accepted = !accepted;
    refused = !refused;
    evicted = !evicted;
    closed = !closed;
    frames_read = !frames_read;
    frames_malformed = !malformed;
    frames_written = !written;
    frames_dropped = !dropped;
    answers = !answers;
    dedup_hits = !dedup;
    shed = (match quota with Some (q, _) -> Quota.shed_counts q | None -> []);
    shed_total = (match quota with Some (q, _) -> Quota.shed_total q | None -> 0);
    rotations = (match journal with Some j -> Journal.segments j | None -> 0);
    drain_reason;
  }
