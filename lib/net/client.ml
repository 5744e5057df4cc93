module Request = Bss_service.Request
module Slo = Bss_obs.Slo
module Hist = Bss_obs.Hist

type config = {
  connect_path : string;
  window : int;
  rounds : int;
  connect_timeout_ms : int;
  idle_timeout_ms : int;
  slo : Slo.t option;
}

let default_config =
  {
    connect_path = "";
    window = 8;
    rounds = 1;
    connect_timeout_ms = 5_000;
    idle_timeout_ms = 10_000;
    slo = None;
  }

type row = {
  id : string;
  tenant : string;
  status : string;
  variant : string;
  rung : string option;
  makespan : string option;
  retries : int;
  checkpointed : bool;
  solve_ns : int64;
  queue_wait_ns : int64;
}

type summary = {
  sent : int;
  answered : int;
  completed : int;
  shed : int;
  rejected : int;
  aborted : int;
  duplicates : int;
  protocol_errors : int;
  reconnects : int;
  rows : row list;
  unanswered : string list;
  shed_by_tenant : (string * int) list;
  slo_verdict : Slo.verdict option;
}

let now () = Monotonic_clock.now ()
let ms_ns ms = Int64.mul (Int64.of_int ms) 1_000_000L

(* A peer that vanishes mid-write must surface as EPIPE, not kill the
   process. *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let connect ~path ~timeout_ms =
  ignore_sigpipe ();
  let deadline = Int64.add (now ()) (ms_ns timeout_ms) in
  let rec go () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX path) with
    | () -> Some fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | ENOTDIR), _, _) ->
      (try Unix.close fd with _ -> ());
      if Int64.compare (now ()) deadline < 0 then begin
        Unix.sleepf 0.05;
        go ()
      end
      else None
    | exception e ->
      (try Unix.close fd with _ -> ());
      raise e
  in
  go ()

(* The client side's two I/O steps, shared by [pump], [send_raw] and
   [Top.run]. [write_line] writes one frame whole; a peer that has gone
   raises [Unix_error (EPIPE | ECONNRESET)]. *)
let write_line fd line =
  let frame = line ^ "\n" in
  let len = String.length frame in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd frame !off (len - !off)
  done

(* One read step: wait up to [idle_timeout_ms] for bytes and return the
   complete lines they finish. [None] once the connection is over: idle
   timeout (the server went away without closing), EOF or reset. An
   interrupted wait is a step with no lines. *)
let line_reader fd ~idle_timeout_ms =
  let rbuf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  fun () ->
    match Unix.select [ fd ] [] [] (float_of_int idle_timeout_ms /. 1000.) with
    | [], _, _ -> None
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes rbuf chunk 0 n;
        Some (Wire.drain_lines rbuf)
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> None
      | exception Unix.Unix_error (EINTR, _, _) -> Some [])
    | exception Unix.Unix_error (EINTR, _, _) -> Some []

(* The one connect-guard-close path of [soak], [send_raw] and [Top.run]:
   [f] runs on the open connection, after [hello] (when given) went out
   whole, and the descriptor is closed whatever happens. *)
let with_connection ~path ~timeout_ms ?hello f =
  match connect ~path ~timeout_ms with
  | None -> Error "connect: timed out"
  | Some fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () ->
        match Option.iter (write_line fd) hello with
        | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> Error "connection reset"
        | () -> f fd)

let row_of_result ~id ~tenant ~status ~variant ~rung ~makespan ~retries ~checkpointed ~solve_ns
    ~queue_wait_ns =
  { id; tenant; status; variant; rung; makespan; retries; checkpointed; solve_ns; queue_wait_ns }

(* One connection's worth of pumping: send [pending] (stream order)
   under a [window]-deep pipeline, collect result frames. Ends on
   everything-answered, EOF, a shutdown frame, or idle timeout. *)
let pump fd config ~pending ~answered ~sent ~duplicates ~protocol_errors =
  let read = line_reader fd ~idle_timeout_ms:config.idle_timeout_ms in
  let to_send = ref pending in
  let inflight = ref 0 in
  let stop = ref false in
  let send_one (r : Request.t) =
    match write_line fd (Wire.solve_frame r) with
    | () ->
      incr sent;
      incr inflight
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> stop := true
  in
  let handle_line line =
    if line <> "" then
      match Wire.parse_reply line with
      | Ok (Wire.Result { id; tenant; status; variant; rung; makespan; retries; checkpointed;
                          solve_ns; queue_wait_ns; _ }) ->
        if Hashtbl.mem answered id then incr duplicates
        else begin
          Hashtbl.replace answered id
            (row_of_result ~id ~tenant ~status ~variant ~rung ~makespan ~retries ~checkpointed
               ~solve_ns ~queue_wait_ns);
          decr inflight
        end
      | Ok (Wire.Pong | Wire.Window _) -> ()
      | Ok (Wire.Shutdown _) -> stop := true
      | Ok (Wire.Error_frame _) | Error _ -> incr protocol_errors
  in
  while not !stop && (!to_send <> [] || !inflight > 0) do
    while (not !stop) && !inflight < config.window && !to_send <> [] do
      match !to_send with
      | [] -> ()
      | r :: rest ->
        to_send := rest;
        send_one r
    done;
    if not !stop then
      match read () with None -> stop := true | Some lines -> List.iter handle_line lines
  done

let slo_sample rows =
  let solve_hists : (string, Hist.t) Hashtbl.t = Hashtbl.create 4 in
  let queue_hist = Hist.create () in
  let completed = ref 0 and rejected = ref 0 and aborted = ref 0 and retries = ref 0 in
  List.iter
    (fun r ->
      retries := !retries + r.retries;
      match r.status with
      | "done" ->
        incr completed;
        if not r.checkpointed then begin
          let h =
            match Hashtbl.find_opt solve_hists r.variant with
            | Some h -> h
            | None ->
              let h = Hist.create () in
              Hashtbl.add solve_hists r.variant h;
              h
          in
          Hist.record h (Int64.to_float r.solve_ns);
          Hist.record queue_hist (Int64.to_float r.queue_wait_ns)
        end
      | "aborted" -> incr aborted
      | _ -> incr rejected (* "rejected" and quota "shed" both burn error budget *))
    rows;
  let hists =
    Hashtbl.fold
      (fun v h acc -> ("service.solve_ns." ^ v, Hist.snapshot h) :: acc)
      solve_hists
      [ ("service.queue.wait_ns", Hist.snapshot queue_hist) ]
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    Slo.counters =
      [
        ("service.aborted", !aborted);
        ("service.completed", !completed);
        ("service.rejected", !rejected);
        ("service.retries", !retries);
      ];
    hists;
  }

let soak config (requests : Request.t list) =
  if config.window < 1 then invalid_arg "Client: window < 1";
  if config.rounds < 1 then invalid_arg "Client: rounds < 1";
  let answered : (string, row) Hashtbl.t = Hashtbl.create (List.length requests) in
  let sent = ref 0 and duplicates = ref 0 and protocol_errors = ref 0 and reconnects = ref 0 in
  let unanswered () =
    List.filter (fun (r : Request.t) -> not (Hashtbl.mem answered r.Request.id)) requests
  in
  let round = ref 0 in
  let give_up = ref false in
  while (not !give_up) && !round < config.rounds && unanswered () <> [] do
    incr round;
    if !round > 1 then incr reconnects;
    match
      with_connection ~path:config.connect_path ~timeout_ms:config.connect_timeout_ms (fun fd ->
          Ok (pump fd config ~pending:(unanswered ()) ~answered ~sent ~duplicates ~protocol_errors))
    with
    | Ok () -> ()
    | Error _ -> give_up := true
  done;
  let rows =
    List.filter_map (fun (r : Request.t) -> Hashtbl.find_opt answered r.Request.id) requests
  in
  let count st = List.length (List.filter (fun r -> r.status = st) rows) in
  let shed_by_tenant =
    List.fold_left
      (fun acc r ->
        if r.status <> "shed" then acc
        else
          match List.assoc_opt r.tenant acc with
          | Some n -> (r.tenant, n + 1) :: List.remove_assoc r.tenant acc
          | None -> (r.tenant, 1) :: acc)
      [] rows
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let slo_verdict = Option.map (fun slo -> Slo.verdict slo (slo_sample rows)) config.slo in
  {
    sent = !sent;
    answered = Hashtbl.length answered;
    completed = count "done";
    shed = count "shed";
    rejected = count "rejected";
    aborted = count "aborted";
    duplicates = !duplicates;
    protocol_errors = !protocol_errors;
    reconnects = !reconnects;
    rows;
    unanswered = List.map (fun (r : Request.t) -> r.Request.id) (unanswered ());
    shed_by_tenant;
    slo_verdict;
  }

let ok s = s.unanswered = [] && s.duplicates = 0 && s.protocol_errors = 0
           && match s.slo_verdict with Some v -> v.Slo.ok | None -> true

let render_rows s =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s\t%s\t%s\t%s\n" r.id r.status
           (Option.value ~default:"-" r.rung)
           (Option.value ~default:"-" r.makespan)))
    s.rows;
  Buffer.contents b

let render_summary s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "netsoak: sent=%d answered=%d done=%d shed=%d rejected=%d aborted=%d dup=%d\n"
       s.sent s.answered s.completed s.shed s.rejected s.aborted s.duplicates);
  Buffer.add_string b
    (Printf.sprintf "netsoak: reconnects=%d protocol_errors=%d unanswered=%d\n" s.reconnects
       s.protocol_errors (List.length s.unanswered));
  if s.shed_by_tenant <> [] then begin
    Buffer.add_string b "netsoak: shed";
    List.iter
      (fun (tenant, n) -> Buffer.add_string b (Printf.sprintf " %s=%d" tenant n))
      s.shed_by_tenant;
    Buffer.add_char b '\n'
  end;
  (match s.slo_verdict with
  | Some v -> Buffer.add_string b (Slo.verdict_text v)
  | None -> ());
  Buffer.contents b

(* Single raw frame in, single reply line out — the cram harness's
   protocol probe. *)
let send_raw ~path ~connect_timeout_ms ~idle_timeout_ms raw =
  with_connection ~path ~timeout_ms:connect_timeout_ms ~hello:raw (fun fd ->
      let read = line_reader fd ~idle_timeout_ms in
      let rec first () =
        match read () with
        | None -> Error "no reply before timeout, EOF or reset"
        | Some [] -> first ()
        | Some (line :: _) -> Ok line
      in
      first ())
