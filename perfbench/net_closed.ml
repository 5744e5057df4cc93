(* net-closed: [Bss_net.Server.serve] in a second domain (one worker, so
   the pool runs inline; live plane armed; no journal, no quota), driven
   by the benchmark's own bss-net/1 client over one Unix-domain
   connection. The client subscribes with [watch], keeps [window]
   requests in flight and sends the next one only when an answer
   arrives: a closed loop. Each repetition brings a fresh server up,
   streams the seeded requests through it, and lets it drain. *)

open Bss_service
module Wire = Bss_net.Wire
module Server = Bss_net.Server

let requests_per_server = 6000
let window = 8
let window_every = 64
let stream seed = Request.soak_stream ~seed ~requests:requests_per_server ()
let socket_path () = Filename.concat (Scratch.dir ()) (Printf.sprintf "net-%d.sock" (Unix.getpid ()))

let config path =
  {
    Server.listen_path = path;
    service = { Runtime.default_config with workers = Some 1; window_every = Some window_every };
    quota = None;
    read_timeout_ms = Server.default_read_timeout_ms;
    write_timeout_ms = Server.default_write_timeout_ms;
    drain_after = Some requests_per_server;
    max_frame_bytes = Server.default_max_frame_bytes;
  }

(* ---------------- the client's side of the socket ---------------- *)

type conn = { fd : Unix.file_descr; rbuf : Buffer.t; chunk : Bytes.t }

(* the server binds from its own domain: retry until it listens *)
let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; rbuf = Buffer.create 65536; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      go (tries - 1)
  in
  go 20_000

let send c line =
  let b = Bytes.unsafe_of_string (line ^ "\n") in
  let rec go off = if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off)) in
  go 0

(* the next complete lines; [None] at end of stream or when the server
   has sent nothing for [idle_s] *)
let idle_s = 30.0

let rec receive c =
  match Wire.drain_lines c.rbuf with
  | _ :: _ as lines -> Some lines
  | [] -> (
    match Unix.select [ c.fd ] [] [] idle_s with
    | [], _, _ -> None
    | _ -> (
      match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> None
      | k ->
        Buffer.add_subbytes c.rbuf c.chunk 0 k;
        receive c
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None))

(* ---------------- one repetition ---------------- *)

type row = {
  request : Request.t;
  latency_ns : float;  (** client: before encoding the frame -> answer decoded *)
  status : string;
  rung : string option;
  makespan : string option;
  solve_ns : float;
  queue_wait_ns : float;
  frame_bytes : int;  (** request frame + result frame *)
  frame : string;  (** the request frame, for the traced codec replay; "" untraced *)
}

type rep = {
  setup_ns : float;  (** stream drawn, server up, connected, first pong *)
  wall_ns : float;  (** first send -> last answer *)
  rows : row list;
  duplicates : int;
  unanswered : int;
  protocol_errors : int;
  windows : Bss_obs.Timeseries.window list;
  waves : int;
  words : float;
  summary_malformed : int;
}

let once ~traced seed =
  let path = socket_path () in
  let stop = Atomic.make false in
  Measure.stabilize ();
  let t_setup = Measure.now () in
  let requests = Array.of_list (stream seed) in
  Array.iter (fun r -> ignore (Sys.opaque_identity (Request.instance r))) requests;
  let server =
    Domain.spawn (fun () -> Server.serve ~should_stop:(fun () -> Atomic.get stop) (config path))
  in
  let c = connect path in
  send c Wire.ping_frame;
  let rec await_pong () =
    match receive c with
    | Some lines -> if not (List.exists (fun l -> Wire.parse_reply l = Ok Wire.Pong) lines) then await_pong ()
    | None -> ()
  in
  await_pong ();
  let setup_ns = Measure.since t_setup in
  send c Wire.watch_frame;
  let w0 = Measure.words () in
  let n = Array.length requests in
  let inflight = Hashtbl.create (2 * window) and answered = Hashtbl.create n in
  let rows = ref [] and windows = ref [] in
  let next = ref 0 and duplicates = ref 0 and protocol_errors = ref 0 in
  let t_first = Measure.now () and t_last = ref 0L in
  let send_next () =
    let r = requests.(!next) in
    incr next;
    let t0 = Measure.now () in
    let frame = Wire.solve_frame r in
    let t1 = Measure.now () in
    send c frame;
    Hashtbl.replace inflight r.Request.id (r, frame, t0, t1)
  in
  for _ = 1 to min window n do
    send_next ()
  done;
  let handle line =
    let t_recv = Measure.now () in
    match Wire.parse_reply line with
    | Ok (Wire.Result x) -> (
      let t_done = Measure.now () in
      match Hashtbl.find_opt inflight x.id with
      | None -> if Hashtbl.mem answered x.id then incr duplicates else incr protocol_errors
      | Some (r, frame, t0, t1) ->
        Hashtbl.remove inflight x.id;
        Hashtbl.replace answered x.id ();
        t_last := t_done;
        if traced then begin
          let id = Spans.fresh () in
          Spans.add ~id ~parent:(-1) ~req:x.id "net.request" ~t0 ~t1:t_done;
          Spans.add ~parent:id ~req:x.id "net.encode" ~t0 ~t1;
          Spans.add ~parent:id ~req:x.id "net.decode" ~t0:t_recv ~t1:t_done
        end;
        rows :=
          {
            request = r;
            latency_ns = Int64.to_float (Int64.sub t_done t0);
            status = x.status;
            rung = x.rung;
            makespan = x.makespan;
            solve_ns = Int64.to_float x.solve_ns;
            queue_wait_ns = Int64.to_float x.queue_wait_ns;
            frame_bytes = String.length frame + String.length line;
            frame = (if traced then frame else "");
          }
          :: !rows;
        if !next < n then send_next ())
    | Ok (Wire.Window w) -> windows := w :: !windows
    | Ok (Wire.Pong | Wire.Shutdown _) -> ()
    | Ok (Wire.Error_frame _) | Error _ -> incr protocol_errors
  in
  let rec pump () =
    if Hashtbl.length answered < n then
      match receive c with
      | Some lines ->
        List.iter handle lines;
        pump ()
      | None -> ()
  in
  pump ();
  (* the server drains after the last answer: read its final window and
     goodbye until it closes *)
  let rec drain () =
    match receive c with
    | Some lines ->
      List.iter handle lines;
      drain ()
    | None -> ()
  in
  if Hashtbl.length answered < n then Atomic.set stop true;
  drain ();
  Unix.close c.fd;
  let summary = Domain.join server in
  {
    setup_ns;
    wall_ns = Int64.to_float (Int64.sub !t_last t_first);
    rows = List.rev !rows;
    duplicates = !duplicates;
    unanswered = n - Hashtbl.length answered;
    protocol_errors = !protocol_errors;
    windows = List.rev !windows;
    waves = summary.Server.service.Runtime.waves;
    words = Measure.words () -. w0;
    summary_malformed = summary.Server.frames_malformed;
  }

(* requests of one repetition that missed: wrong or missing answer,
   duplicate, or protocol error *)
let failures reference rep =
  let wrong =
    List.length
      (List.filter
         (fun row ->
           not
             (Reference.matches reference row.request.Request.id ~status:row.status ~rung:row.rung
                ~makespan:row.makespan))
         rep.rows)
  in
  min requests_per_server (wrong + rep.duplicates + rep.unanswered + rep.protocol_errors + rep.summary_malformed)

(* The bounded latencies are the solve latencies the server reports in
   its result frames, as in the batch workloads. The client-observed
   latency — which in a closed loop with [window] in flight spans about
   [window] solves, so CPU time lost to other guests of the host moves
   it with the run's throughput — is reported beside them, per
   repetition and as their [Measure.central] value, unbounded. *)
let run ~reference ~seed ~seconds =
  let t_start = Measure.now () in
  let reps = ref [] and setups = ref [] and failed = ref 0 and answers = ref 0 and waves = ref 0 in
  let client = ref [] and last = ref 0.0 in
  while Measure.another ~t_start ~seconds ~last:!last !reps do
    let t_rep = Measure.now () in
    let rep = once ~traced:false seed in
    setups := rep.setup_ns :: !setups;
    failed := !failed + failures reference rep;
    answers := !answers + List.length rep.rows;
    waves := !waves + rep.waves;
    let latency = List.map (fun row -> row.latency_ns /. 1e6) rep.rows in
    client := (Measure.median latency, Measure.percentile 99.0 latency) :: !client;
    reps :=
      Measure.summarize
        {
          Measure.wall_ns = rep.wall_ns;
          latencies = List.map (fun row -> (row.request.Request.variant, row.solve_ns)) rep.rows;
          jobs = Reference.jobs reference (List.map (fun row -> row.request.Request.id) rep.rows);
          words = rep.words;
        }
      :: !reps;
    last := Measure.since t_rep
  done;
  ( {
      Measure.setup_ns = !setups;
      reps = List.rev !reps;
      ratios = Reference.ratios reference;
      attempted = requests_per_server * List.length !reps;
      failed = !failed;
    },
    [
      ("net.wave_size", float_of_int !answers /. float_of_int (max 1 !waves), "requests");
      ("net.client_latency_ms.p50", Measure.central (List.map fst !client), "ms");
      ("net.client_latency_ms.p99", Measure.central (List.map snd !client), "ms");
    ] )

(* The traced run: [trace_pairs] untraced repetitions, each followed by
   one with client-side spans per request (encode, decode, and the
   request from first byte encoded to answer decoded); the overhead
   compares their medians. Then the server's half of the codec is
   replayed on the same frames — [Wire.parse_frame] on each request
   line, [Wire.result_frame] on each reference outcome — and
   [Timeseries.window_json] on every window received. *)
let trace_pairs = 3

let trace ~reference ~seed =
  let pairs =
    List.init trace_pairs (fun _ ->
        let untraced = once ~traced:false seed in
        (untraced, once ~traced:true seed))
  in
  let reps = List.map snd pairs in
  let rows = List.concat_map (fun rep -> rep.rows) reps in
  let windows = List.concat_map (fun rep -> rep.windows) reps in
  List.iter
    (fun row ->
      let req = row.request.Request.id in
      ignore (Spans.with_span ~req "net.server_decode" (fun () -> Wire.parse_frame row.frame)))
    rows;
  List.iter
    (fun (o : Runtime.outcome) ->
      let req = o.Runtime.request.Request.id in
      ignore (Spans.with_span ~req "net.server_encode" (fun () -> Wire.result_frame o)))
    reference.Reference.outcomes;
  List.iter
    (fun w -> ignore (Spans.with_span "obs.window_json" (fun () -> Bss_obs.Timeseries.window_json w)))
    windows;
  let spans = Spans.all () in
  let answers = float_of_int (max 1 (List.length rows)) in
  let per_answer_us names = Measure.sum (List.map (Spans.total_ns spans) names) /. answers /. 1e3 in
  (* the server encodes once per answer; the replay encoded each
     reference outcome once, for one repetition's worth of answers *)
  let server_encode_us =
    Spans.total_ns spans "net.server_encode" /. float_of_int (Reference.size reference) /. 1e3
  in
  let ms f = List.map (fun row -> f row /. 1e6) rows in
  let wait = ms (fun row -> row.queue_wait_ns) in
  let residual = ms (fun row -> row.latency_ns -. row.queue_wait_ns -. row.solve_ns) in
  let encode_us = per_answer_us [ "net.encode" ] +. server_encode_us in
  let decode_us = per_answer_us [ "net.decode"; "net.server_decode" ] in
  let metrics =
    [
      ("service.queue_wait_ms.p50", Measure.median wait, "ms");
      ("service.queue_wait_ms.p99", Measure.percentile 99.0 wait, "ms");
      ("net.encode_us", encode_us, "us");
      ("net.decode_us", decode_us, "us");
      ("net.frame_bytes", Measure.mean (List.map (fun row -> float_of_int row.frame_bytes) rows), "bytes");
      ("net.residual_ms.p50", Measure.median residual, "ms");
      ("net.residual_ms.p99", Measure.percentile 99.0 residual, "ms");
      ("obs.windows", float_of_int (List.length windows) /. float_of_int trace_pairs, "count");
      ("obs.window_json_us", Spans.mean_ns spans "obs.window_json" /. 1e3, "us");
    ]
  in
  (* reconciliation: client latency against its queue wait, its solve,
     the solves of the other [window - 1] requests in flight (one worker
     solves them all, and an answer leaves only with its wave; estimated
     from the mean solve) and the codec both ends run. The remainder is
     the select loop, the socket and the client waiting its turn. *)
  let mean f = Measure.mean (ms f) in
  let latency = mean (fun row -> row.latency_ns) in
  let wait = mean (fun row -> row.queue_wait_ns) and solve = mean (fun row -> row.solve_ns) in
  let others = float_of_int (window - 1) *. solve in
  let per_answer rep = rep.wall_ns /. float_of_int (max 1 (List.length rep.rows)) in
  {
    Spans.ok = List.for_all (fun rep -> failures reference rep = 0) reps;
    spans;
    metrics;
    per_request_ns = Measure.median (List.map per_answer reps);
    untraced_ns = Measure.median (List.map (fun (u, _) -> per_answer u) pairs);
    recon =
      [
        ( "client latency",
          latency,
          [
            ("queue wait", wait);
            ("solve", solve);
            ("others in flight", others);
            ("codec", (encode_us +. decode_us) /. 1e3);
          ] );
      ];
  }
