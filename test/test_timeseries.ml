(* Tests for the live telemetry plane's windowed time-series engine:
   ring wraparound under bounded memory, exact delta/reconciliation
   against a from-scratch merge, the bss-watch/1 JSON round trip, the
   peek (stats) path leaving no trace, a pinned alert sequence under a
   seeded synthetic load, and the worker-count invariance of the window
   stream's deterministic prefix through the full service runtime. *)

open Bss_util
open Bss_obs
open Bss_service

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* a cumulative sample stream: [upto] ticks by 4, counters and one
   histogram grow deterministically *)
let synth_sample i =
  let h = Hist.create () in
  for k = 1 to 16 * i do
    Hist.record h (float_of_int (1 lsl (8 + (k mod 3))))
  done;
  {
    Timeseries.upto = 4 * i;
    counters = [ ("service.completed", 3 * i); ("service.retries", i) ];
    gauges = [ ("service.breaker.state.non-preemptive", i mod 3) ];
    load = [ ("service.queue.depth", i) ];
    hists = [ ("service.solve_ns.non-preemptive", Hist.snapshot h) ];
  }

(* ---------------- ring wraparound ---------------- *)

let test_ring_wraparound () =
  let t = Timeseries.create () in
  for i = 1 to 70 do
    ignore (Timeseries.push t (synth_sample i))
  done;
  check int_c "pushed counts every window" 70 (Timeseries.pushed t);
  let ws = Timeseries.windows t in
  check int_c "ring keeps capacity windows" 64 (List.length ws);
  check bool_c "oldest evicted first, ids contiguous" true
    (List.map (fun (w : Timeseries.window) -> w.Timeseries.id) ws
    = List.init 64 (fun i -> i + 6));
  (* the retained windows are the last pushes, not stale slots *)
  List.iter
    (fun (w : Timeseries.window) ->
      check int_c
        (Printf.sprintf "window %d upto" w.Timeseries.id)
        (4 * (w.Timeseries.id + 1))
        w.Timeseries.upto)
    ws

(* ---------------- delta exactness and reconciliation ---------------- *)

(* summing a series' deltas across the stream must reproduce the final
   cumulative counter, and merging the per-window histogram deltas must
   reproduce the final cumulative snapshot — the reconciliation the
   acceptance criteria pin over the wire *)
let test_deltas_reconcile () =
  let t = Timeseries.create () in
  let n = 9 in
  let ws = List.init n (fun i -> Timeseries.push t (synth_sample (i + 1))) in
  let sum series =
    List.fold_left
      (fun acc (w : Timeseries.window) ->
        acc + Option.value ~default:0 (List.assoc_opt series w.Timeseries.counters))
      0 ws
  in
  let final = synth_sample n in
  check int_c "completed deltas sum to cumulative"
    (List.assoc "service.completed" final.Timeseries.counters)
    (sum "service.completed");
  check int_c "retries deltas sum to cumulative"
    (List.assoc "service.retries" final.Timeseries.counters)
    (sum "service.retries");
  check int_c "spans sum to upto" final.Timeseries.upto
    (List.fold_left (fun acc (w : Timeseries.window) -> acc + w.Timeseries.span) 0 ws);
  (* histogram deltas merge back to the from-scratch cumulative *)
  let merged =
    List.fold_left
      (fun acc (w : Timeseries.window) ->
        Hist.merge acc (List.assoc "service.solve_ns.non-preemptive" w.Timeseries.hists))
      Hist.empty ws
  in
  let cumulative = List.assoc "service.solve_ns.non-preemptive" final.Timeseries.hists in
  check int_c "merged hist count" cumulative.Hist.count merged.Hist.count;
  check (Alcotest.float 1e-6) "merged hist sum" cumulative.Hist.sum merged.Hist.sum;
  check bool_c "merged hist buckets" true (merged.Hist.counts = cumulative.Hist.counts);
  (* a counter appearing mid-stream still deltas against 0 *)
  let t2 = Timeseries.create () in
  ignore
    (Timeseries.push t2
       { Timeseries.empty_sample with upto = 1; counters = [ ("a", 2) ] });
  let w =
    Timeseries.push t2
      { Timeseries.empty_sample with upto = 2; counters = [ ("a", 3); ("b", 5) ] }
  in
  check bool_c "late counter deltas against zero" true
    (w.Timeseries.counters = [ ("a", 1); ("b", 5) ])

(* ---------------- bss-watch/1 JSON round trip ---------------- *)

let test_json_round_trip () =
  let t = Timeseries.create () in
  (* four steady windows of 4 completions, then a burst of 40 *)
  let sample i completed =
    { (synth_sample i) with counters = [ ("service.completed", completed) ] }
  in
  for i = 1 to 4 do
    ignore (Timeseries.push t (sample i (4 * i)))
  done;
  let w = Timeseries.push t ~final:true (sample 5 56) in
  check bool_c "the detector fired (alerts round-trip too)" true (w.Timeseries.alerts <> []);
  let line = Timeseries.window_json w in
  let idx sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length line then max_int
      else if String.sub line i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  check bool_c "deterministic prefix precedes the timing tail" true
    (idx "\"alerts\"" < idx "\"load\"" && idx "\"load\"" < idx "\"hists\"");
  match Json.parse line with
  | Error e -> Alcotest.failf "window_json does not parse: %s" e
  | Ok v -> (
    match Timeseries.window_of_json v with
    | Error e -> Alcotest.failf "window_of_json: %s" e
    | Ok w' ->
      check int_c "id" w.Timeseries.id w'.Timeseries.id;
      check int_c "upto" w.Timeseries.upto w'.Timeseries.upto;
      check int_c "span" w.Timeseries.span w'.Timeseries.span;
      check bool_c "final" w.Timeseries.final w'.Timeseries.final;
      check bool_c "live" w.Timeseries.live w'.Timeseries.live;
      check bool_c "counters" true (w.Timeseries.counters = w'.Timeseries.counters);
      check bool_c "gauges" true (w.Timeseries.gauges = w'.Timeseries.gauges);
      check int_c "alerts" (List.length w.Timeseries.alerts) (List.length w'.Timeseries.alerts);
      List.iter2
        (fun (a : Timeseries.alert) (a' : Timeseries.alert) ->
          check string_c "alert kind" a.Timeseries.kind a'.Timeseries.kind;
          check string_c "alert series" a.Timeseries.series a'.Timeseries.series)
        w.Timeseries.alerts w'.Timeseries.alerts;
      check bool_c "load" true (w.Timeseries.load = w'.Timeseries.load);
      check bool_c "hist counts survive" true
        (List.map
           (fun (k, (h : Hist.snapshot)) -> (k, h.Hist.count, h.Hist.counts))
           w.Timeseries.hists
        = List.map
            (fun (k, (h : Hist.snapshot)) -> (k, h.Hist.count, h.Hist.counts))
            w'.Timeseries.hists))

(* ---------------- peek leaves no trace ---------------- *)

let test_peek_is_pure () =
  let t = Timeseries.create () in
  ignore (Timeseries.push t (synth_sample 1));
  let live = Timeseries.peek t (synth_sample 2) in
  check bool_c "peek marked live" true live.Timeseries.live;
  check bool_c "peek fires no alerts" true (live.Timeseries.alerts = []);
  check int_c "peek stores nothing" 1 (Timeseries.pushed t);
  (* the subsequent push is byte-identical to what it would have been:
     peek updated no baselines and no prev sample *)
  let w = Timeseries.push t (synth_sample 2) in
  check bool_c "push after peek deltas from the same prev" true
    (w.Timeseries.counters = [ ("service.completed", 3); ("service.retries", 1) ]);
  check int_c "push after peek keeps the id sequence" 1 w.Timeseries.id

(* ---------------- pinned alert sequence ---------------- *)

(* a seeded synthetic load with one engineered rate spike and one p99
   drift, judged at the shipped thresholds: detection is a pure function
   of the sample sequence, so the exact alert sequence pins *)
let test_pinned_alert_sequence () =
  let t = Timeseries.create () in
  (* cumulative streams: steady 4/window, then a 40-burst at window 5;
     latency steady at ~2^10 ns, then 2^21 ns from window 6 on *)
  let completed = [| 4; 8; 12; 16; 20; 60; 64; 68 |] in
  let lat_exp = [| 10; 10; 10; 10; 10; 10; 21; 21 |] in
  let h = Hist.create () in
  let alerts = ref [] in
  Array.iteri
    (fun i c ->
      let per_window = if i = 0 then c else c - completed.(i - 1) in
      for _ = 1 to per_window * 4 do
        Hist.record h (Float.of_int (1 lsl lat_exp.(i)))
      done;
      let w =
        Timeseries.push t
          {
            Timeseries.upto = (i + 1) * 4;
            counters = [ ("service.completed", c) ];
            gauges = [];
            load = [];
            hists = [ ("service.solve_ns", Hist.snapshot h) ];
          }
      in
      alerts :=
        !alerts
        @ List.map
            (fun (a : Timeseries.alert) -> (w.Timeseries.id, a.Timeseries.kind, a.Timeseries.series))
            w.Timeseries.alerts)
    completed;
  check bool_c "exactly the engineered anomalies fire, in order" true
    (!alerts
    = [
        (5, "rate_spike", "service.completed");
        (6, "p99_drift", "service.solve_ns");
      ])

(* ---------------- worker-count invariance through the runtime ---------------- *)

(* the acceptance criterion end to end: the same seeded stream through
   the full service runtime at 1 worker and at 4 workers produces
   bit-identical window streams up to the timing tail *)
let strip_timing line =
  let marker = ",\"load\":" in
  let n = String.length marker in
  let rec find i =
    if i + n > String.length line then line
    else if String.sub line i n = marker then String.sub line 0 i
    else find (i + 1)
  in
  find 0

let window_stream workers =
  let windows = ref [] in
  let config =
    {
      Runtime.default_config with
      workers = Some workers;
      seed = 11;
      window_every = Some 4;
    }
  in
  let requests = Request.soak_stream ~seed:11 ~requests:19 () in
  let s = Runtime.run ~on_window:(fun w -> windows := w :: !windows) config requests in
  (s, List.rev_map (fun w -> strip_timing (Timeseries.window_json w)) !windows |> List.rev)

let test_worker_count_invariant_stream () =
  let s1, one = window_stream 1 in
  let s4, four = window_stream 4 in
  check bool_c "1 = 4 workers, deterministic prefix" true (one = four);
  (* 19 requests at window-every 4: windows 0..3 plus the final partial *)
  check int_c "stream length" 5 (List.length one);
  (* and the stream reconciles with the summary *)
  let total =
    List.fold_left
      (fun acc line ->
        match Json.parse (line ^ "}") with
        | Error _ -> Alcotest.fail "stripped prefix must re-close into JSON"
        | Ok v -> (
          match Json.member "counters" v with
          | Some (Json.Obj kvs) -> (
            match List.assoc_opt "service.completed" kvs with
            | Some (Json.Num n) -> acc + int_of_float n
            | _ -> acc)
          | _ -> acc))
      0 one
  in
  check int_c "cumulative completions reconcile with the summary" s1.Runtime.completed total;
  check int_c "both runs completed everything" s1.Runtime.completed s4.Runtime.completed

let () =
  Alcotest.run "timeseries"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound keeps the newest windows" `Quick test_ring_wraparound;
        ] );
      ( "deltas",
        [
          Alcotest.test_case "deltas reconcile with from-scratch merge" `Quick
            test_deltas_reconcile;
        ] );
      ( "json",
        [
          Alcotest.test_case "bss-watch/1 round trip" `Quick test_json_round_trip;
        ] );
      ( "peek",
        [ Alcotest.test_case "stats peek leaves no trace" `Quick test_peek_is_pure ] );
      ( "alerts",
        [
          Alcotest.test_case "pinned alert sequence under seeded load" `Quick
            test_pinned_alert_sequence;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "window stream is worker-count invariant" `Quick
            test_worker_count_invariant_stream;
        ] );
    ]
