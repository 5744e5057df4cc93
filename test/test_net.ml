(* Tests for the socket front end: the bss-net/1 wire codec, the
   deterministic per-tenant admission quota, and live round trips over a
   real Unix-domain socket — exactly-once answers across reconnects
   (dedup from the outcome cache), deterministic quota shedding,
   protocol-level rejection of malformed frames, and drain-after
   shutdown across journal rotation. *)

open Bss_instances
open Bss_service
module Wire = Bss_net.Wire
module Quota = Bss_net.Quota
module Server = Bss_net.Server
module Client = Bss_net.Client
module Chaos = Bss_resilience.Chaos
module Rerror = Bss_resilience.Error

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string
let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) ("bss_net_" ^ name)
let rm path = if Sys.file_exists path then Sys.remove path

(* ---------------- wire codec ---------------- *)

let gen_request ?(id = "g1") ?(tenant = "acme") ?(seed = max_int) () =
  {
    Request.id;
    tenant;
    variant = Variant.Preemptive;
    algorithm = Bss_core.Solver.Approx3_2;
    source = Request.Gen { family = "uniform"; seed; m = 3; n = 12 };
  }

let test_wire_solve_roundtrip () =
  (* seeds at both ends of the native-int range are exactly the values a
     JSON float would corrupt — the string-typed "seed" must carry them *)
  List.iter
    (fun seed ->
      let r = gen_request ~seed () in
      match Wire.parse_frame (Wire.solve_frame r) with
      | Ok (Wire.Solve r') ->
        check bool_c (Printf.sprintf "gen round-trip seed=%d" seed) true (r = r')
      | Ok (Wire.Ping | Wire.Stats | Wire.Watch) -> Alcotest.fail "solve decoded as another op"
      | Error e -> Alcotest.fail (Rerror.to_string e))
    [ 0; 42; max_int; min_int; 1 lsl 60 ];
  let f =
    {
      Request.id = "f1";
      tenant = Request.default_tenant;
      variant = Variant.Nonpreemptive;
      algorithm = Bss_core.Solver.Approx2;
      source = Request.File "/tmp/instance.txt";
    }
  in
  match Wire.parse_frame (Wire.solve_frame f) with
  | Ok (Wire.Solve f') -> check bool_c "file round-trip" true (f = f')
  | _ -> Alcotest.fail "file request must round-trip"

let test_wire_ping_pong () =
  (match Wire.parse_frame Wire.ping_frame with
  | Ok Wire.Ping -> ()
  | _ -> Alcotest.fail "ping frame must parse as Ping");
  match Wire.parse_reply Wire.pong_frame with
  | Ok Wire.Pong -> ()
  | _ -> Alcotest.fail "pong frame must parse as Pong"

let test_wire_result_roundtrip () =
  let r = gen_request ~id:"r7" ~tenant:"biz" () in
  let o =
    {
      Runtime.request = r;
      status = Runtime.Done;
      rung = Some "requested";
      makespan = Some "35/2";
      routed = "requested";
      retries_used = 2;
      degraded = false;
      from_checkpoint = true;
      error = None;
      latency_ns = 123_456_789L;
      queue_wait_ns = 4_242L;
    }
  in
  (match Wire.parse_reply (Wire.result_frame o) with
  | Ok
      (Wire.Result
        { id; tenant; status; variant; rung; makespan; routed; retries; checkpointed; solve_ns;
          queue_wait_ns; error; _ }) ->
    check string_c "id" "r7" id;
    check string_c "tenant" "biz" tenant;
    check string_c "status" "done" status;
    check string_c "variant" (Variant.to_string Variant.Preemptive) variant;
    check bool_c "rung" true (rung = Some "requested");
    check bool_c "makespan" true (makespan = Some "35/2");
    check string_c "routed" "requested" routed;
    check int_c "retries" 2 retries;
    check bool_c "checkpointed" true checkpointed;
    check bool_c "solve_ns" true (solve_ns = 123_456_789L);
    check bool_c "queue_wait_ns" true (queue_wait_ns = 4_242L);
    check bool_c "no error" true (error = None)
  | Ok _ -> Alcotest.fail "result frame decoded as another op"
  | Error e -> Alcotest.fail e);
  (* a rejected outcome carries its typed error's kind *)
  let rejected =
    {
      o with
      Runtime.status = Runtime.Rejected;
      rung = None;
      makespan = None;
      routed = "-";
      error = Some (Rerror.Overloaded { capacity = 4; pending = 4 });
    }
  in
  match Wire.parse_reply (Wire.result_frame rejected) with
  | Ok (Wire.Result { status; rung; error; _ }) ->
    check string_c "rejected status" "rejected" status;
    check bool_c "no rung" true (rung = None);
    check bool_c "error kind" true (error = Some "overloaded")
  | _ -> Alcotest.fail "rejected outcome must round-trip"

let test_wire_shed_frame () =
  match Wire.parse_reply (Wire.shed_frame (gen_request ()) ~capacity:4 ~pending:0) with
  | Ok (Wire.Result { id; tenant; status; error; _ }) ->
    check string_c "id" "g1" id;
    check string_c "tenant" "acme" tenant;
    check string_c "status" "shed" status;
    check bool_c "typed overloaded error" true (error = Some "overloaded")
  | _ -> Alcotest.fail "shed frame must parse as a result"

let test_wire_malformed () =
  let expect_invalid name line =
    match Wire.parse_frame line with
    | Error (Rerror.Invalid_input _) -> ()
    | Ok _ -> Alcotest.fail (name ^ ": must be rejected")
    | Error e -> Alcotest.fail (name ^ ": wrong error " ^ Rerror.to_string e)
  in
  expect_invalid "not json" "garbage";
  expect_invalid "no schema" {|{"op":"ping"}|};
  expect_invalid "wrong schema" {|{"schema":"bss-net/9","op":"ping"}|};
  expect_invalid "unknown op" {|{"schema":"bss-net/1","op":"fly"}|};
  expect_invalid "solve without id"
    {|{"schema":"bss-net/1","op":"solve","variant":"nonp","algorithm":"2","file":"x"}|};
  expect_invalid "both sources"
    {|{"schema":"bss-net/1","op":"solve","id":"a","variant":"nonp","algorithm":"2","file":"x","gen":{"family":"uniform","seed":"1","m":2,"n":4}}|};
  expect_invalid "non-integer seed"
    {|{"schema":"bss-net/1","op":"solve","id":"a","variant":"nonp","algorithm":"2","gen":{"family":"uniform","seed":"ten","m":2,"n":4}}|};
  expect_invalid "unknown variant"
    {|{"schema":"bss-net/1","op":"solve","id":"a","variant":"quux","algorithm":"2","file":"x"}|};
  expect_invalid "epsilon 1/k with k < 1"
    {|{"schema":"bss-net/1","op":"solve","id":"a","variant":"nonp","algorithm":"3/2+1/-4","file":"x"}|};
  (* the reply parser reports, never raises *)
  check bool_c "reply: garbage" true (Result.is_error (Wire.parse_reply "garbage"));
  check bool_c "reply: no op" true (Result.is_error (Wire.parse_reply "{}"));
  (* an error frame round-trips its kind and optional id *)
  match
    Wire.parse_reply
      (Wire.error_frame ~id:"a" (Rerror.Invalid_input { line = None; field = "frame"; reason = "x" }))
  with
  | Ok (Wire.Error_frame { id = Some "a"; error = "invalid_input" }) -> ()
  | _ -> Alcotest.fail "error frame must round-trip id and kind"

let test_wire_drain_lines () =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "alpha\nbeta\npar";
  check bool_c "complete lines extracted" true (Wire.drain_lines buf = [ "alpha"; "beta" ]);
  check string_c "remainder buffered" "par" (Buffer.contents buf);
  Buffer.add_string buf "tial\n";
  check bool_c "split line reassembled" true (Wire.drain_lines buf = [ "partial" ]);
  check int_c "buffer drained" 0 (Buffer.length buf);
  check bool_c "empty buffer yields nothing" true (Wire.drain_lines buf = [])

(* ---------------- admission quota ---------------- *)

let test_quota_burst_and_shed () =
  let q = Quota.create { Quota.rate = 0; burst = 2; refill_every = 1 } in
  check bool_c "first admit" true (Quota.admit q "a");
  check bool_c "second admit" true (Quota.admit q "a");
  check int_c "bucket empty" 0 (Quota.tokens q "a");
  check bool_c "third sheds" false (Quota.admit q "a");
  check bool_c "other tenant unaffected" true (Quota.admit q "b");
  check bool_c "shed counts" true (Quota.shed_counts q = [ ("a", 1) ]);
  check int_c "shed total" 1 (Quota.shed_total q)

let test_quota_refill_deterministic () =
  (* rate 1, burst 2, refill every 3rd attempt: the admit/shed pattern is
     a pure function of the attempt sequence — pinned, and replayed *)
  let run () =
    let q = Quota.create { Quota.rate = 1; burst = 2; refill_every = 3 } in
    List.init 7 (fun _ -> Quota.admit q "a")
  in
  check bool_c "pinned pattern" true
    (run () = [ true; true; false; true; false; false; true ]);
  check bool_c "replay identical" true (run () = run ())

let test_quota_refill_boundary () =
  (* A bucket emptied exactly at a window boundary must admit the first
     attempt of the next window: with burst 3 and refill_every 3, the
     first three attempts drain the bucket and complete the window, so
     the fourth attempt draws from the refilled bucket instead of
     shedding. *)
  let q = Quota.create { Quota.rate = 1; burst = 3; refill_every = 3 } in
  check bool_c "window attempt 1" true (Quota.admit q "a");
  check bool_c "window attempt 2" true (Quota.admit q "a");
  check bool_c "window attempt 3" true (Quota.admit q "a");
  check int_c "bucket drained at boundary" 0 (Quota.tokens q "a");
  check bool_c "first attempt of next window admits" true (Quota.admit q "a");
  check int_c "nothing shed" 0 (Quota.shed_total q)

let test_quota_invalid () =
  let raises c = match Quota.create c with exception Invalid_argument _ -> true | _ -> false in
  check bool_c "burst < 1" true (raises { Quota.rate = 0; burst = 0; refill_every = 1 });
  check bool_c "rate < 0" true (raises { Quota.rate = -1; burst = 1; refill_every = 1 });
  check bool_c "refill_every < 1" true (raises { Quota.rate = 0; burst = 1; refill_every = 0 })

(* ---------------- chaos plan coverage ---------------- *)

let test_net_plan_covers_all_sites () =
  List.iter
    (fun seed ->
      let plan = Server.net_plan seed in
      check int_c "one arm per site" (List.length Chaos.net_sites) (List.length plan);
      List.iter
        (fun site ->
          check bool_c
            (Printf.sprintf "seed=%d arms %s" seed site)
            true
            (List.exists (fun (s, _, _) -> s = site) plan))
        Chaos.net_sites)
    [ 0; 1; 7; 42 ];
  check bool_c "deterministic" true (Server.net_plan 7 = Server.net_plan 7)

(* ---------------- live server round trips ---------------- *)

let requests ?(tenants = []) n =
  List.init n (fun i ->
      {
        Request.id = Printf.sprintf "q%02d" i;
        tenant =
          (match tenants with
          | [] -> Request.default_tenant
          | ts -> List.nth ts (i mod List.length ts));
        variant = Variant.Nonpreemptive;
        algorithm = Bss_core.Solver.Approx3_2;
        source = Request.Gen { family = "uniform"; seed = 2000 + i; m = 2; n = 8 };
      })

let service_config =
  {
    Runtime.default_config with
    queue_capacity = 16;
    burst = 16;
    workers = Some 2;
    checkpoint_every = 1;
  }

let server_config ~listen_path ?quota ?drain_after () =
  {
    Server.listen_path;
    service = service_config;
    quota;
    read_timeout_ms = Server.default_read_timeout_ms;
    write_timeout_ms = Server.default_write_timeout_ms;
    drain_after;
    max_frame_bytes = Server.default_max_frame_bytes;
  }

let client_config path =
  { Client.default_config with connect_path = path; rounds = 3; connect_timeout_ms = 10_000 }

(* serve in a spare domain, run [body] against the socket, join for the
   server summary (the drain_after budget bounds the server's life) *)
let with_server config body =
  rm config.Server.listen_path;
  let d = Domain.spawn (fun () -> Server.serve ~log:(fun _ -> ()) config) in
  let r = body () in
  let summary = Domain.join d in
  rm config.Server.listen_path;
  (r, summary)

let test_server_roundtrip_and_dedup () =
  let path = tmp_path "rt.sock" in
  let reqs = requests 6 in
  (* budget: 6 live answers + 6 dedup answers, then drain *)
  let (s1, s2), server =
    with_server (server_config ~listen_path:path ~drain_after:12 ()) (fun () ->
        let s1 = Client.soak (client_config path) reqs in
        let s2 = Client.soak (client_config path) reqs in
        (s1, s2))
  in
  check bool_c "first soak ok" true (Client.ok s1);
  check int_c "all answered" 6 s1.Client.answered;
  check int_c "all done" 6 s1.Client.completed;
  (* the re-sent stream is answered from the outcome cache, bit-identically *)
  check bool_c "second soak ok" true (Client.ok s2);
  check string_c "replay rows bit-identical" (Client.render_rows s1) (Client.render_rows s2);
  check int_c "server dedup hits" 6 server.Server.dedup_hits;
  check int_c "server answers" 12 server.Server.answers;
  check int_c "nothing solved twice" 6 server.Server.service.Runtime.completed;
  check int_c "two connections" 2 server.Server.accepted;
  check string_c "drain reason" "drain-after" server.Server.drain_reason

let test_server_quota_shed () =
  let path = tmp_path "quota.sock" in
  let reqs = requests ~tenants:[ "a"; "b" ] 8 in
  let s, server =
    with_server
      (server_config ~listen_path:path
         ~quota:{ Quota.rate = 0; burst = 2; refill_every = 1 }
         ~drain_after:8 ())
      (fun () -> Client.soak (client_config path) reqs)
  in
  (* a shed is an answer: every id comes back exactly once *)
  check bool_c "soak ok" true (Client.ok s);
  check int_c "answered" 8 s.Client.answered;
  check int_c "done" 4 s.Client.completed;
  check int_c "shed" 4 s.Client.shed;
  check bool_c "shed by tenant" true (s.Client.shed_by_tenant = [ ("a", 2); ("b", 2) ]);
  check bool_c "server agrees" true (server.Server.shed = [ ("a", 2); ("b", 2) ]);
  check int_c "server shed total" 4 server.Server.shed_total;
  check int_c "engine saw only admitted work" 4 server.Server.service.Runtime.completed

let test_server_rotation_resume () =
  let path = tmp_path "rot.sock" in
  let jpath = tmp_path "rot.journal" in
  rm jpath;
  let reqs = requests 6 in
  let s1, server1 =
    let config = server_config ~listen_path:path ~drain_after:6 () in
    rm path;
    let d =
      Domain.spawn (fun () ->
          Server.serve ~journal:(Journal.fresh ~rotate_every:2 jpath) ~log:(fun _ -> ()) config)
    in
    let s1 = Client.soak (client_config path) reqs in
    (s1, Domain.join d)
  in
  check bool_c "first life ok" true (Client.ok s1);
  check bool_c "rotated" true (server1.Server.rotations >= 2);
  check bool_c "sealed segment on disk" true (Sys.file_exists (jpath ^ ".1"));
  (* a second server life on the rotated chain answers the same stream
     from checkpoints — no re-solving, rows bit-identical *)
  let s2, server2 =
    let config = server_config ~listen_path:path ~drain_after:6 () in
    rm path;
    let d =
      Domain.spawn (fun () ->
          Server.serve ~journal:(Journal.load ~rotate_every:2 jpath) ~log:(fun _ -> ()) config)
    in
    let s2 = Client.soak (client_config path) reqs in
    (s2, Domain.join d)
  in
  check bool_c "second life ok" true (Client.ok s2);
  check string_c "resume rows bit-identical" (Client.render_rows s1) (Client.render_rows s2);
  check int_c "all restored, none re-solved" 6 server2.Server.service.Runtime.checkpointed;
  rm path;
  rm jpath;
  for i = 1 to 4 do
    rm (jpath ^ "." ^ string_of_int i)
  done

(* A restore is counted once, where the engine books it: a profiled
   server resumed from a journal of N entries answers the re-sent stream
   from checkpoints and counts service.resumed = N, not 2N. *)
let test_server_resume_counted_once () =
  let path = tmp_path "resumed.sock" and jpath = tmp_path "resumed.journal" in
  rm jpath;
  let reqs = requests 5 in
  let serve journal =
    rm path;
    let config = server_config ~listen_path:path ~drain_after:5 () in
    let d = Domain.spawn (fun () -> Server.serve ~journal ~log:(fun _ -> ()) config) in
    let s = Client.soak (client_config path) reqs in
    (s, Domain.join d)
  in
  let s1, _ = serve (Journal.fresh jpath) in
  check bool_c "first life ok" true (Client.ok s1);
  check int_c "journal holds every answer" 5 (List.length (Journal.entries (Journal.load jpath)));
  let (s2, server), report =
    Bss_obs.Probe.with_recording (fun () -> serve (Journal.load jpath))
  in
  check bool_c "second life ok" true (Client.ok s2);
  check int_c "every id restored" 5 server.Server.service.Runtime.checkpointed;
  check int_c "each restore counted once" 5 (Bss_obs.Report.counter report "service.resumed");
  rm path;
  rm jpath

let test_server_rejects_malformed_frame () =
  let path = tmp_path "mal.sock" in
  let (err, ok), server =
    with_server (server_config ~listen_path:path ~drain_after:1 ()) (fun () ->
        let err = Client.send_raw ~path ~connect_timeout_ms:10_000 ~idle_timeout_ms:10_000 "garbage" in
        let ok =
          Client.send_raw ~path ~connect_timeout_ms:10_000 ~idle_timeout_ms:10_000
            (Wire.solve_frame (List.hd (requests 1)))
        in
        (err, ok))
  in
  (match err with
  | Ok line -> (
    match Wire.parse_reply line with
    | Ok (Wire.Error_frame { error = "invalid_input"; _ }) -> ()
    | _ -> Alcotest.fail ("malformed frame must draw a typed error frame, got " ^ line))
  | Error e -> Alcotest.fail ("no reply to malformed frame: " ^ e));
  (match ok with
  | Ok line -> (
    match Wire.parse_reply line with
    | Ok (Wire.Result { status = "done"; _ }) -> ()
    | _ -> Alcotest.fail ("valid solve must still be answered, got " ^ line))
  | Error e -> Alcotest.fail ("no reply to valid solve: " ^ e));
  check int_c "malformed counted" 1 server.Server.frames_malformed;
  check int_c "one answer" 1 server.Server.answers

(* Serve until [body] returns, then stop the server through
   [should_stop]: an evicted client draws no answer, so [drain_after]
   cannot end the server's life. *)
let with_stoppable_server config body =
  rm config.Server.listen_path;
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.serve ~should_stop:(fun () -> Atomic.get stop) ~log:(fun _ -> ()) config)
  in
  let r = Fun.protect ~finally:(fun () -> Atomic.set stop true) body in
  let summary = Domain.join d in
  rm config.Server.listen_path;
  (r, summary)

(* Connect, write [bytes] with no newline, and collect every line the
   server sends until it hangs up. *)
let stall ~path bytes =
  Client.with_connection ~path ~timeout_ms:10_000 (fun fd ->
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      let read = Client.line_reader fd ~idle_timeout_ms:10_000 in
      let rec collect acc = match read () with None -> Ok acc | Some ls -> collect (acc @ ls) in
      collect [])

let test_server_evicts_slow_reader () =
  let path = tmp_path "slow.sock" in
  let config = { (server_config ~listen_path:path ()) with Server.read_timeout_ms = 50 } in
  let lines, server =
    with_stoppable_server config (fun () -> stall ~path {|{"schema":"bss-net/1","op":|})
  in
  check bool_c "hung up without a reply" true (lines = Ok []);
  check int_c "evicted" 1 server.Server.evicted;
  check int_c "half a frame is no frame" 0 server.Server.frames_read;
  check int_c "nothing malformed" 0 server.Server.frames_malformed

let test_server_evicts_frame_overflow () =
  let path = tmp_path "overflow.sock" in
  let config = { (server_config ~listen_path:path ()) with Server.max_frame_bytes = 64 } in
  let lines, server = with_stoppable_server config (fun () -> stall ~path (String.make 100 'x')) in
  check bool_c "hung up without a reply" true (lines = Ok []);
  check int_c "evicted" 1 server.Server.evicted;
  check int_c "overflow counted malformed" 1 server.Server.frames_malformed

let test_server_config_validation () =
  let base = server_config ~listen_path:(tmp_path "v.sock") () in
  let raises c = match Server.serve c with exception Invalid_argument _ -> true | _ -> false in
  check bool_c "empty listen path" true (raises { base with Server.listen_path = "" });
  check bool_c "negative read timeout" true (raises { base with Server.read_timeout_ms = -1 });
  check bool_c "negative drain_after" true (raises { base with Server.drain_after = Some (-1) });
  check bool_c "tiny max_frame_bytes" true (raises { base with Server.max_frame_bytes = 0 })

let () =
  Alcotest.run "bss_net"
    [
      ( "wire",
        [
          Alcotest.test_case "solve round-trip" `Quick test_wire_solve_roundtrip;
          Alcotest.test_case "ping/pong" `Quick test_wire_ping_pong;
          Alcotest.test_case "result round-trip" `Quick test_wire_result_roundtrip;
          Alcotest.test_case "shed frame" `Quick test_wire_shed_frame;
          Alcotest.test_case "malformed frames" `Quick test_wire_malformed;
          Alcotest.test_case "line framing" `Quick test_wire_drain_lines;
        ] );
      ( "quota",
        [
          Alcotest.test_case "burst and shed" `Quick test_quota_burst_and_shed;
          Alcotest.test_case "deterministic refill" `Quick test_quota_refill_deterministic;
          Alcotest.test_case "refill at window boundary" `Quick test_quota_refill_boundary;
          Alcotest.test_case "invalid configs" `Quick test_quota_invalid;
        ] );
      ( "chaos",
        [ Alcotest.test_case "net plan covers all sites" `Quick test_net_plan_covers_all_sites ] );
      ( "server",
        [
          Alcotest.test_case "round trip and dedup" `Slow test_server_roundtrip_and_dedup;
          Alcotest.test_case "quota shedding" `Slow test_server_quota_shed;
          Alcotest.test_case "rotation and resume" `Slow test_server_rotation_resume;
          Alcotest.test_case "resume counted once" `Slow test_server_resume_counted_once;
          Alcotest.test_case "malformed frame rejected" `Slow test_server_rejects_malformed_frame;
          Alcotest.test_case "slow reader evicted" `Slow test_server_evicts_slow_reader;
          Alcotest.test_case "frame overflow evicted" `Slow test_server_evicts_frame_overflow;
          Alcotest.test_case "config validation" `Quick test_server_config_validation;
        ] );
    ]
