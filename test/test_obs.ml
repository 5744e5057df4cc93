(* Tests for the telemetry layer: the disabled path must be free (no
   counters, no observable allocation), the enabled path must see the
   paper-level counters the searches advertise. *)

open Bss_util
open Bss_instances
open Bss_core
open Bss_obs

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* ---------------- disabled path ---------------- *)

(* Outside a recording, probes must not allocate: count/enter/leave take
   the [None] fast path and span tokens are unboxed ints. Event payload
   construction is the caller's responsibility (guard with [enabled]), so
   the event here is built once, before measuring; the [span] closure is
   likewise hoisted (the disabled path tail-calls it, and a capturing
   closure would charge its own allocation to the caller). *)
let span_body () = ()

let test_disabled_no_alloc () =
  assert (not (Probe.enabled ()));
  let static_event = Event.Note { source = "test"; key = "k"; value = "v" } in
  (* warm-up triggers any lazy initialization *)
  for _ = 1 to 128 do
    Probe.count "warmup";
    Probe.observe "warmup.hist" 1.0;
    Probe.span "warmup.span" span_body;
    Probe.leave (Probe.enter "warmup")
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Probe.count "noop.counter";
    Probe.count ~n:5 "noop.counter5";
    Probe.event static_event;
    Probe.observe "noop.hist" 2.0;
    Probe.span "noop.spanf" span_body;
    let tok = Probe.enter "noop.span" in
    Probe.leave tok
  done;
  let delta = Gc.minor_words () -. before in
  check (Alcotest.float 0.0) "minor words allocated while disabled" 0.0 delta

(* Probes fired outside any recording leave no trace in a later one. *)
let test_disabled_adds_nothing () =
  Probe.count "leaked.counter";
  Probe.event (Event.Note { source = "leak"; key = "k"; value = "v" });
  Probe.leave (Probe.enter "leaked.span");
  let (), report = Probe.with_recording (fun () -> ()) in
  check int_c "no counters" 0 (List.length report.Report.counters);
  check int_c "no spans" 0 (List.length report.Report.spans);
  check int_c "no events" 0 (List.length report.Report.events);
  check int_c "no drops" 0 report.Report.dropped_events

(* ---------------- enabled path ---------------- *)

let test_recording_basics () =
  let x, report =
    Probe.with_recording (fun () ->
        Probe.count "a";
        Probe.count ~n:4 "a";
        Probe.count "b";
        Probe.event (Event.Note { source = "t"; key = "k"; value = "v" });
        Probe.span "outer" (fun () -> Probe.span "inner" (fun () -> 42)))
  in
  check int_c "result" 42 x;
  check int_c "a" 5 (Report.counter report "a");
  check int_c "b" 1 (Report.counter report "b");
  check int_c "absent" 0 (Report.counter report "zzz");
  check int_c "events" 1 (List.length report.Report.events);
  let span_paths = List.map fst report.Report.spans in
  check bool_c "outer span" true (List.mem "outer" span_paths);
  check bool_c "nested path" true (List.mem "outer/inner" span_paths);
  List.iter
    (fun (_, { Report.calls; ns }) ->
      check int_c "calls" 1 calls;
      check bool_c "time >= 0" true (Int64.compare ns 0L >= 0))
    report.Report.spans

(* a raise between enter and leave only loses the skipped frames *)
let test_span_unwind_on_raise () =
  let (), report =
    Probe.with_recording (fun () ->
        try Probe.span "guarded" (fun () -> failwith "boom") with Failure _ -> ())
  in
  match report.Report.spans with
  | [ ("guarded", { Report.calls = 1; _ }) ] -> ()
  | spans -> Alcotest.failf "unexpected spans: %s" (String.concat "," (List.map fst spans))

let test_merge () =
  let (), r1 =
    Probe.with_recording (fun () ->
        Probe.count ~n:3 "x";
        Probe.leave (Probe.enter "s"))
  in
  let (), r2 =
    Probe.with_recording (fun () ->
        Probe.count ~n:4 "x";
        Probe.count "y";
        Probe.leave (Probe.enter "s"))
  in
  let m = Report.merge r1 r2 in
  check int_c "x summed" 7 (Report.counter m "x");
  check int_c "y" 1 (Report.counter m "y");
  match List.assoc_opt "s" m.Report.spans with
  | Some { Report.calls = 2; _ } -> ()
  | _ -> Alcotest.fail "span calls not summed"

(* ---------------- counters the algorithms advertise ---------------- *)

(* Deterministic instance on which both class-jumping searches take jump
   steps (the [expensive] family stresses Lemma 3 / Lemma 5 paths; the
   cram test pins the same instance's exact counter values). *)
let jumpy_instance () =
  let spec = Bss_workloads.Generator.by_name "expensive" in
  spec.Bss_workloads.Generator.generate (Prng.create 1) ~m:16 ~n:48

let profile algorithm variant inst =
  let _, report = Probe.with_recording (fun () -> Solver.solve ~algorithm variant inst) in
  report

let test_solver_counters () =
  let inst = jumpy_instance () in
  let r = profile Solver.Approx3_2 Variant.Splittable inst in
  check bool_c "split bound tests" true (Report.counter r "splittable_cj.bound_tests" > 0);
  check bool_c "split jump steps" true (Report.counter r "splittable_cj.jump_steps" > 0);
  let r = profile Solver.Approx3_2 Variant.Preemptive inst in
  check bool_c "pmtn bound tests" true (Report.counter r "pmtn_cj.bound_tests" > 0);
  check bool_c "pmtn jump steps" true (Report.counter r "pmtn_cj.jump_steps" > 0);
  let r = profile Solver.Approx3_2 Variant.Nonpreemptive inst in
  check bool_c "nonp guesses" true (Report.counter r "nonp_search.guesses" > 0);
  let r = profile (Solver.Approx3_2_eps (Rat.of_ints 1 8)) Variant.Nonpreemptive inst in
  check bool_c "eps guesses" true (Report.counter r "dual_search.guesses" > 0);
  check bool_c "eps verdicts partition guesses" true
    (Report.counter r "dual_search.accepted" + Report.counter r "dual_search.rejected"
    = Report.counter r "dual_search.guesses")

(* counters are deterministic: two identical runs, identical reports
   modulo span timings *)
let test_counters_deterministic () =
  let inst = jumpy_instance () in
  let r1 = profile Solver.Approx3_2 Variant.Preemptive inst in
  let r2 = profile Solver.Approx3_2 Variant.Preemptive inst in
  check bool_c "counters equal" true (r1.Report.counters = r2.Report.counters);
  check int_c "event count equal" (List.length r1.Report.events) (List.length r2.Report.events)

(* ---------------- sinks ---------------- *)

let sample_report () =
  let _, report =
    Probe.with_recording (fun () ->
        Probe.count ~n:2 "k";
        Probe.event (Event.Guess_rejected { source = "t"; t = Rat.of_ints 7 2; reason = "load" });
        Probe.span "s" (fun () -> ()))
  in
  report

let string_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_render_table () =
  let t = Render.table ~events:true (sample_report ()) in
  List.iter
    (fun needle -> check bool_c ("table has " ^ needle) true (string_contains t needle))
    [ "counter"; "k"; "2"; "span"; "s"; "guess_rejected" ]

let test_render_json_and_csv () =
  let r = sample_report () in
  let j = Render.json r in
  check bool_c "json counters" true (string_contains j "\"k\":2");
  check bool_c "json rejected event" true (string_contains j "\"guess_rejected\"");
  check bool_c "json rational" true (string_contains j "7/2");
  let csv = Render.csv r in
  check bool_c "csv header" true (string_contains csv "kind,name,value,detail");
  check bool_c "csv counter row" true (string_contains csv "counter,k,2,")

let test_event_cap () =
  let (), report =
    Probe.with_recording (fun () ->
        for i = 1 to Report.event_cap + 10 do
          Probe.event (Event.Note { source = "t"; key = "i"; value = string_of_int i })
        done)
  in
  check int_c "capped" Report.event_cap (List.length report.Report.events);
  check int_c "drops counted" 10 report.Report.dropped_events;
  check int_c "drops surfaced as a counter" 10 (Report.counter report "obs.events.dropped");
  check bool_c "table leads with the warning" true
    (string_contains (Render.table report) "10 event(s) dropped");
  check bool_c "json carries the warning" true (string_contains (Render.json report) "\"warning\"")

(* ---------------- histograms ---------------- *)

let float_c = Alcotest.float 0.0

(* Boundary-aligned samples make the bucket quantiles exact, so they pin. *)
let test_hist_pinned_quantiles () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 1.; 2.; 4.; 8. ];
  let s = Hist.snapshot h in
  check int_c "count" 4 s.Hist.count;
  check float_c "sum" 15. s.Hist.sum;
  check float_c "min" 1. s.Hist.min;
  check float_c "max" 8. s.Hist.max;
  check float_c "p50" 2. (Hist.quantile s 0.5);
  check float_c "p90" 8. (Hist.quantile s 0.9);
  check float_c "p99" 8. (Hist.quantile s 0.99);
  (* a constant stream: every quantile is the constant, via min/max clamping *)
  let u = Hist.create () in
  for _ = 1 to 100 do
    Hist.record u 7.0
  done;
  let su = Hist.snapshot u in
  List.iter
    (fun p -> check float_c (Printf.sprintf "constant q%.2f" p) 7.0 (Hist.quantile su p))
    [ 0.5; 0.9; 0.99; 1.0 ];
  check bool_c "to_json shape" true
    (List.for_all (string_contains (Hist.to_json su)) [ "\"count\":100"; "\"p50\""; "\"p99\""; "\"buckets\"" ])

(* Fixed boundaries make the merge exact: splitting a stream across two
   histograms and merging equals recording the pooled stream. *)
let test_hist_merge_exact () =
  let a = Hist.create () and b = Hist.create () and pooled = Hist.create () in
  let xs = [ 3.; 100.; 0.5; 17.; 1024.; 9.; 0.; 1e12 ] in
  List.iteri
    (fun i v ->
      Hist.record (if i mod 2 = 0 then a else b) v;
      Hist.record pooled v)
    xs;
  let m = Hist.merge (Hist.snapshot a) (Hist.snapshot b) in
  check bool_c "merge equals pooled snapshot" true (m = Hist.snapshot pooled)

(* ---------------- hist edge cases and exemplars ---------------- *)

let test_hist_edges () =
  (* empty: every quantile is 0, nothing to cite *)
  check float_c "empty p50" 0. (Hist.quantile Hist.empty 0.5);
  check float_c "empty p100" 0. (Hist.quantile Hist.empty 1.0);
  check (Alcotest.list Alcotest.string) "empty exemplars" [] (Hist.exemplar_ids Hist.empty);
  let h = Hist.create () in
  check bool_c "fresh snapshot is empty" true (Hist.snapshot h = Hist.empty);
  (* a single observation: every quantile clamps to it *)
  Hist.record h 1000.;
  let s = Hist.snapshot h in
  List.iter
    (fun p -> check float_c (Printf.sprintf "single q%.1f" p) 1000. (Hist.quantile s p))
    [ 0.0; 0.5; 1.0 ];
  (* clamp boundaries: bucket 0 holds [< 1), bucket i holds [2^(i-1), 2^i) *)
  let b = Hist.create () in
  List.iter (Hist.record b) [ 0.; 0.999; 1.0; 2.0; 4.0 ];
  let sb = Hist.snapshot b in
  check (Alcotest.list int_c) "boundary values land in ascending buckets" [ 0; 1; 2; 3 ]
    (List.map fst sb.Hist.counts);
  check float_c "lower_bound 0" 0. (Hist.lower_bound 0);
  check float_c "upper_bound 0" 1. (Hist.upper_bound 0);
  check float_c "lower_bound 3" 4. (Hist.lower_bound 3);
  check bool_c "last bucket open" true (Hist.upper_bound (Hist.buckets - 1) = infinity)

let test_hist_exemplar_eviction () =
  (* the ring overwrites slot (seen mod cap): attaching a,b,c to one
     bucket keeps [b; c] oldest-first — a pure function of attach order *)
  let attach ids =
    let h = Hist.create () in
    List.iter (fun id -> Hist.record_exemplar h 100. id) ids;
    Hist.snapshot h
  in
  let s = attach [ "a"; "b"; "c" ] in
  check (Alcotest.list Alcotest.string) "ring evicts the oldest" [ "b"; "c" ] (Hist.exemplar_ids s);
  check bool_c "replay is deterministic" true (attach [ "a"; "b"; "c" ] = s);
  check (Alcotest.list Alcotest.string) "p99 bucket cites its exemplars" [ "b"; "c" ]
    (Hist.quantile_exemplars s 0.99);
  (* merge keeps the smallest cap ids of the union, order-insensitive *)
  let t = attach [ "x" ] in
  check (Alcotest.list Alcotest.string) "merge unions and truncates" [ "b"; "c" ]
    (Hist.exemplar_ids (Hist.merge s t));
  check bool_c "merge commutative on exemplars" true (Hist.merge s t = Hist.merge t s)

let test_hist_diff () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 2.; 3. ];
  let prev = Hist.snapshot h in
  List.iter (Hist.record h) [ 100.; 200. ];
  let cur = Hist.snapshot h in
  let w = Hist.diff cur prev in
  check int_c "window count" 2 w.Hist.count;
  check float_c "window sum" 300. w.Hist.sum;
  check bool_c "window buckets exclude the old range" true
    (List.for_all (fun (i, _) -> Hist.lower_bound i >= 64.) w.Hist.counts);
  check bool_c "empty window" true (Hist.diff cur cur = Hist.empty);
  check bool_c "diff against empty is cur" true (Hist.diff cur Hist.empty = cur)

let test_hist_json_roundtrip () =
  let h = Hist.create () in
  (* values kept small: the writer's %.6g float format must represent
     count/sum/min/max exactly for the snapshot to round-trip *)
  List.iter (fun (v, id) -> Hist.record_exemplar h v id) [ (1., "t1"); (64., "t2"); (300., "t3") ];
  let s = Hist.snapshot h in
  match Json.parse (Hist.to_json s) with
  | Error e -> Alcotest.fail e
  | Ok v -> (
    match Hist.snapshot_of_json v with
    | Ok s' -> check bool_c "snapshot round-trips through JSON" true (s' = s)
    | Error e -> Alcotest.fail e)

(* ---------------- deterministic multi-domain merge ---------------- *)

(* The event interleave key is (per-domain seq, domain id): emission
   order within a domain is preserved, ties across domains break by id. *)
let test_merge_event_interleave () =
  let entry domain seq value =
    { Report.domain; seq; event = Event.Note { source = "m"; key = "k"; value } }
  in
  let r1 = { Report.empty with Report.events = [ entry 0 0 "d0e0"; entry 0 1 "d0e1" ] } in
  let r2 = { Report.empty with Report.events = [ entry 1 0 "d1e0"; entry 1 1 "d1e1" ] } in
  let values r =
    List.map
      (fun (e : Report.event_entry) ->
        match e.Report.event with Event.Note { value; _ } -> value | _ -> "?")
      r.Report.events
  in
  check (Alcotest.list Alcotest.string) "interleaved by (seq, domain)"
    [ "d0e0"; "d1e0"; "d0e1"; "d1e1" ]
    (values (Report.merge r1 r2));
  (* and the merge is order-insensitive for disjoint domains *)
  check bool_c "commutative" true (Report.merge r1 r2 = Report.merge r2 r1)

(* Merging is where the event cap actually bites for multi-domain runs:
   each collector stays under the cap, but their union may not. The
   overflow must be dropped from the interleaved tail, counted in
   [dropped_events] and surfaced as the "obs.events.dropped" counter. *)
let test_merge_event_cap () =
  let entries domain n =
    List.init n (fun seq ->
        { Report.domain; seq; event = Event.Note { source = "m"; key = "k"; value = "" } })
  in
  let half = (Report.event_cap / 2) + 5 in
  let mk domain = { Report.empty with Report.events = entries domain half } in
  let m = Report.merge (mk 0) (mk 1) in
  check int_c "capped at event_cap" Report.event_cap (List.length m.Report.events);
  check int_c "overflow counted" 10 m.Report.dropped_events;
  check int_c "overflow surfaces as a counter" 10 (Report.counter m "obs.events.dropped");
  (* the kept prefix is still the (seq, domain) interleave, i.e. the
     earliest events survive, not whichever side merged first *)
  let keys = List.map (fun (e : Report.event_entry) -> (e.Report.seq, e.Report.domain)) m.Report.events in
  check bool_c "kept prefix interleaved by (seq, domain)" true (keys = List.sort compare keys);
  (* with two domains contributing [half] events each, the cap keeps
     exactly the first event_cap/2 seqs of both *)
  check bool_c "kept prefix is the earliest events" true
    (List.for_all (fun (seq, _) -> seq < Report.event_cap / 2) keys)

(* Workers recording concurrently through their per-domain collectors
   must merge to exactly the sequential reference: counters and explicit
   histogram buckets equal, span paths and call counts equal (span
   timings are wall-clock and are not compared). *)
let stress_item i =
  Probe.count "stress.items";
  Probe.count ~n:(i mod 5) "stress.weight";
  Probe.span "stress.work" (fun () ->
      Probe.observe "stress.val" (float_of_int (1 lsl (i mod 6))));
  if Probe.enabled () then
    Probe.event (Event.Note { source = "stress"; key = "i"; value = string_of_int i })

let test_multi_domain_stress () =
  let items = List.init 64 Fun.id in
  let (), par =
    Probe.with_recording (fun () ->
        List.iter
          (function Ok _ -> () | Error _ -> Alcotest.fail "stress worker failed")
          (Parallel.map_results ~domains:4
             (fun i ->
               stress_item i;
               i)
             items))
  in
  let (), seq = Probe.with_recording (fun () -> List.iter stress_item items) in
  check bool_c "counters equal sequential reference" true
    (par.Report.counters = seq.Report.counters);
  let hp = Option.get (Report.hist par "stress.val") in
  let hs = Option.get (Report.hist seq "stress.val") in
  check int_c "hist count" hs.Hist.count hp.Hist.count;
  check float_c "hist sum" hs.Hist.sum hp.Hist.sum;
  check bool_c "hist buckets equal" true (hp.Hist.counts = hs.Hist.counts);
  let span_calls r = List.map (fun (p, s) -> (p, s.Report.calls)) r.Report.spans in
  check bool_c "span paths and calls equal" true (span_calls par = span_calls seq);
  check int_c "event count" (List.length seq.Report.events) (List.length par.Report.events)

(* Acceptance: a profiled service run's merged counters are independent
   of the worker count — the property that lets `bss soak --profile` keep
   its full pool (it used to pin to one worker). *)
let service_counters ~workers =
  let module Runtime = Bss_service.Runtime in
  let requests = Bss_service.Request.soak_stream ~seed:5 ~requests:12 () in
  let config = { Runtime.default_config with Runtime.workers = Some workers; seed = 5 } in
  let _, report = Probe.with_recording (fun () -> Runtime.run config requests) in
  report.Report.counters

let test_service_profile_worker_independent () =
  check bool_c "soak counters: 4 workers = 1 worker" true
    (service_counters ~workers:4 = service_counters ~workers:1)

(* ---------------- request-scoped trace contexts ---------------- *)

let test_trace_ids_deterministic () =
  let id = Trace_ctx.derive_id ~seed:7 ~seq:3 ~request_id:"soak-3" in
  check Alcotest.string "stable across calls" id
    (Trace_ctx.derive_id ~seed:7 ~seq:3 ~request_id:"soak-3");
  check bool_c "carries the admission seq" true (string_contains id "-0003");
  check bool_c "seed changes the id" true
    (id <> Trace_ctx.derive_id ~seed:8 ~seq:3 ~request_id:"soak-3");
  check bool_c "request id changes the id" true
    (id <> Trace_ctx.derive_id ~seed:7 ~seq:3 ~request_id:"soak-4")

let test_trace_span_tree () =
  let t = Trace_ctx.make ~seed:1 ~seq:0 ~request_id:"req" in
  check bool_c "live ctx enabled" true (Trace_ctx.enabled t);
  Trace_ctx.add_attr t "variant" (Trace_ctx.S "splittable");
  let tok = Trace_ctx.enter t "attempt" in
  Trace_ctx.add_attr t "n" (Trace_ctx.I 0);
  Trace_ctx.leave t tok;
  Trace_ctx.add_span t "queue.wait" ~dur_ns:42L ~attrs:[ ("phase", Trace_ctx.S "queue") ];
  match Trace_ctx.finish t with
  | None -> Alcotest.fail "live context must produce a trace"
  | Some trace ->
    check Alcotest.string "root is the request span" "request" trace.Trace_ctx.root.Trace_ctx.name;
    check Alcotest.string "trace id is the derived id"
      (Trace_ctx.derive_id ~seed:1 ~seq:0 ~request_id:"req")
      trace.Trace_ctx.trace_id;
    check (Alcotest.list Alcotest.string) "children in emission order" [ "attempt"; "queue.wait" ]
      (List.map (fun (s : Trace_ctx.span) -> s.Trace_ctx.name) trace.Trace_ctx.root.Trace_ctx.children);
    check (Alcotest.option Alcotest.string) "root attr readable" (Some "splittable")
      (Trace_ctx.attr trace "variant")

let test_trace_unwind_on_raise () =
  (* a raise inside [span] loses only the open frame, not the trace *)
  let t = Trace_ctx.make ~seed:1 ~seq:1 ~request_id:"r" in
  (try Trace_ctx.span t "guarded" (fun () -> failwith "boom") with Failure _ -> ());
  Trace_ctx.add_span t "after" ~dur_ns:1L ~attrs:[];
  match Trace_ctx.finish t with
  | None -> Alcotest.fail "trace lost after raise"
  | Some trace ->
    check (Alcotest.list Alcotest.string) "both children recorded" [ "guarded"; "after" ]
      (List.map (fun (s : Trace_ctx.span) -> s.Trace_ctx.name) trace.Trace_ctx.root.Trace_ctx.children)

(* Disabled tracing must cost nothing on the hot path — same contract
   (and same measurement discipline) as [test_disabled_no_alloc]: the
   attribute value, the attrs list and the body closure are hoisted so
   only the traced operations themselves are charged. *)
let tctx_body () = ()

let test_trace_disabled_no_alloc () =
  let t = Trace_ctx.disabled in
  check bool_c "disabled reports disabled" false (Trace_ctx.enabled t);
  let attr_v = Trace_ctx.S "v" in
  let no_attrs = [] in
  let dur = 0L in
  for _ = 1 to 128 do
    Trace_ctx.leave t (Trace_ctx.enter t "warm");
    Trace_ctx.add_attr t "k" attr_v;
    Trace_ctx.add_span t "warm" ~dur_ns:dur ~attrs:no_attrs;
    tctx_body (Trace_ctx.span t "warm" tctx_body)
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let tok = Trace_ctx.enter t "noop" in
    Trace_ctx.add_attr t "k" attr_v;
    Trace_ctx.add_span t "noop" ~dur_ns:dur ~attrs:no_attrs;
    Trace_ctx.leave t tok;
    tctx_body (Trace_ctx.span t "noop" tctx_body)
  done;
  let delta = Gc.minor_words () -. before in
  check float_c "minor words allocated while tracing disabled" 0.0 delta;
  check bool_c "finish yields nothing" true (Trace_ctx.finish t = None)

let test_trace_reservoir () =
  let items = List.init 20 Fun.id in
  let kept = Trace_ctx.reservoir ~seed:3 ~k:5 items in
  check int_c "keeps k" 5 (List.length kept);
  check bool_c "deterministic" true (kept = Trace_ctx.reservoir ~seed:3 ~k:5 items);
  check bool_c "input order preserved" true (List.sort compare kept = kept);
  check bool_c "different seed, different sample" true
    (kept <> Trace_ctx.reservoir ~seed:4 ~k:5 items);
  check bool_c "k = 0 keeps nothing" true (Trace_ctx.reservoir ~seed:3 ~k:0 items = []);
  check bool_c "k >= n keeps everything" true (Trace_ctx.reservoir ~seed:3 ~k:50 items = items)

(* ---------------- SLO engine ---------------- *)

let slo_latency_spec max_ns =
  {
    Slo.objectives =
      [ { Slo.name = "solve-p99"; target = Slo.Latency { hist = "lat"; quantile = 0.99; max_ns } } ];
  }

let test_slo_eval () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 10.; 20.; 64. ];
  let sample =
    {
      Slo.counters = [ ("service.completed", 9); ("service.rejected", 1) ];
      hists = [ ("lat", Hist.snapshot h) ];
    }
  in
  (* latency: p99 resolves to 64, passing a 100ns bound, failing 50ns *)
  (match Slo.eval (slo_latency_spec 100.) sample with
  | [ c ] ->
    check bool_c "latency under bound passes" true c.Slo.ok;
    check float_c "measured is the bucket quantile" 64. c.Slo.measured;
    check float_c "burn = measured/threshold" 0.64 c.Slo.burn
  | _ -> Alcotest.fail "one check per objective");
  (match Slo.eval (slo_latency_spec 50.) sample with
  | [ c ] ->
    check bool_c "latency over bound fails" false c.Slo.ok;
    check float_c "burn > 1 when violating" 1.28 c.Slo.burn
  | _ -> Alcotest.fail "one check per objective");
  (* error rate: 1 rejection in 10 outcomes is exactly 0.1 *)
  let errs = { Slo.objectives = [ { Slo.name = "errs"; target = Slo.Error_rate { max = 0.1 } } ] } in
  (match Slo.eval errs sample with
  | [ c ] ->
    check bool_c "at the ceiling passes" true c.Slo.ok;
    check float_c "error rate measured" 0.1 c.Slo.measured;
    check float_c "burn at ceiling is 1" 1.0 c.Slo.burn
  | _ -> Alcotest.fail "one check per objective")

(* the window stream is the only rolling evaluation: the telemetry plane
   hands each window's deltas to [Slo.eval] and keeps the worst burn per
   objective; the gate is one cumulative [Slo.verdict] carrying them *)
let test_slo_windows_and_final () =
  let spec = { Slo.objectives = [ { Slo.name = "errs"; target = Slo.Error_rate { max = 0.25 } } ] } in
  let ts = Timeseries.create ~slo:spec () in
  let push ~completed ~rejected =
    let w =
      Timeseries.push ts
        {
          Timeseries.empty_sample with
          upto = completed;
          counters = [ ("service.completed", completed); ("service.rejected", rejected) ];
        }
    in
    Slo.eval spec { Slo.counters = w.Timeseries.counters; hists = w.Timeseries.hists }
  in
  (* first window: 4 clean completions *)
  (match push ~completed:4 ~rejected:0 with
  | [ c ] -> check bool_c "clean window passes" true c.Slo.ok
  | _ -> Alcotest.fail "one check per objective");
  check bool_c "clean window burns nothing" true (Timeseries.worst_burn ts = [ ("errs", 0.0) ]);
  (* second window: the *delta* is 4 rejections and nothing else *)
  (match push ~completed:4 ~rejected:4 with
  | [ c ] ->
    check bool_c "all-error window fails" false c.Slo.ok;
    check float_c "window burn uses the delta, not the cumulative" 4.0 c.Slo.burn
  | _ -> Alcotest.fail "one check per objective");
  (* a clean third window does not lower the worst burn *)
  ignore (push ~completed:6 ~rejected:4);
  check bool_c "worst window burn kept" true (Timeseries.worst_burn ts = [ ("errs", 4.0) ]);
  (* the gate is cumulative: 4 errors in 10 outcomes = 0.4 > 0.25 *)
  let cumulative = { Slo.counters = [ ("service.completed", 6); ("service.rejected", 4) ]; hists = [] } in
  let f =
    Slo.verdict ~windows:(Timeseries.pushed ts) ~worst_burn:(Timeseries.worst_burn ts) spec cumulative
  in
  check bool_c "final verdict fails" false f.Slo.ok;
  check int_c "final remembers the windows" 3 (f : Slo.verdict).windows;
  check bool_c "worst window burn carried" true (f.Slo.worst_burn = [ ("errs", 4.0) ]);
  let j = Slo.verdict_json f in
  check bool_c "verdict json leads with the verdict" true
    (string_contains j "{\"verdict\":\"fail\",\"failed\":[\"errs\"],\"windows\":3");
  check bool_c "verdict json carries the worst window burn" true
    (string_contains j "\"worst_window_burn\":{\"errs\":4");
  check bool_c "verdict text names the objective" true (string_contains (Slo.verdict_text f) "errs");
  let plain = Slo.verdict spec cumulative in
  check bool_c "no window stream, no windows" true ((plain : Slo.verdict).windows = 0 && plain.Slo.worst_burn = [])

let test_slo_file_roundtrip () =
  let src =
    {|{"schema":"bss-slo/1","objectives":[
        {"name":"p99","type":"latency","hist":"service.solve_ns","quantile":0.99,"max_ms":5.0},
        {"name":"errors","type":"error_rate","max":0.05},
        {"name":"retries","type":"retry_rate","max":0.5}]}|}
  in
  (match Slo.of_string src with
  | Error e -> Alcotest.fail e
  | Ok spec -> (
    check int_c "three objectives" 3 (List.length spec.Slo.objectives);
    match (List.hd spec.Slo.objectives).Slo.target with
    | Slo.Latency { hist; quantile; max_ns } ->
      check Alcotest.string "hist name" "service.solve_ns" hist;
      check float_c "quantile" 0.99 quantile;
      check float_c "max_ms converts to ns" 5e6 max_ns
    | _ -> Alcotest.fail "first objective should be latency"));
  let reject src needle =
    match Slo.of_string src with
    | Ok _ -> Alcotest.fail ("accepted: " ^ needle)
    | Error e -> check bool_c ("rejects " ^ needle) true (string_contains e needle)
  in
  reject {|{"schema":"bss-slo/9","objectives":[]}|} "schema";
  reject {|{"schema":"bss-slo/1","objectives":[]}|} "objective";
  reject {|{"schema":"bss-slo/1","objectives":[{"name":"x","type":"latency?"}]}|} "type"

(* ---------------- offline analysis (bss report) ---------------- *)

let test_offline_parse_metrics () =
  let window ~id ~upto ~span counters load gauges =
    Printf.sprintf
      {|{"schema":"bss-watch/1","window":%d,"upto":%d,"span":%d,"final":false,"live":false,"counters":{%s},"gauges":{%s},"alerts":[],"load":{%s},"hists":{}}|}
      id upto span counters gauges load
  in
  let stream =
    String.concat "\n"
      [
        "soak: wave 1 done";
        window ~id:0 ~upto:3 ~span:3
          {|"service.completed":3,"service.rejected":1,"service.retries":2|}
          {|"service.queue.peak":4,"service.waves":1|} "";
        window ~id:1 ~upto:8 ~span:5
          {|"service.completed":5,"service.rejected":0,"service.retries":0|}
          {|"service.queue.peak":3,"service.waves":2|}
          {|"service.breaker.state.splittable":1|};
        "trailing human text";
      ]
  in
  (match Offline.parse_metrics stream with
  | Error e -> Alcotest.fail e
  | Ok points ->
    check int_c "one record per stream window" 2 (List.length points);
    let last = Offline.last points in
    check bool_c "counter deltas add, the latest load stands" true
      (Offline.counters last
      = [
          ("completed", 8);
          ("rejected", 1);
          ("aborted", 0);
          ("retries", 2);
          ("queue_peak", 3);
          ("waves", 2);
        ]);
    check bool_c "the latest gauges stand" true
      (last.Offline.gauges = [ ("service.breaker.state.splittable", 1) ]));
  (match
     Offline.parse_metrics
       {|{"schema":"bss-metrics/1","metrics":{"completed":3,"rejected":0,"aborted":0,"retries":0,"queue_peak":4,"waves":1,"hists":{}}}|}
   with
  | Ok _ -> Alcotest.fail "read a retired periodic metrics line"
  | Error e -> check bool_c "a retired periodic line names its replacement" true (string_contains e "--window-every"));
  (match Offline.parse_metrics {|{"schema":"bss-metrics/0","done":1}|} with
  | Ok _ -> Alcotest.fail "accepted unknown metrics schema"
  | Error e ->
    check bool_c "unknown schema is an error, not a skip" true (string_contains e "schema"));
  match Offline.parse_metrics "no json at all" with
  | Ok _ -> Alcotest.fail "accepted a stream with no records"
  | Error e -> check bool_c "empty stream is an error" true (string_contains e "no metrics")

(* A run's window stream alone reads back like its summary: the same
   counter table, and histograms with the same counts in the same
   buckets (a window delta's min/max are bucket bounds, so only those
   may differ). *)
let test_offline_window_stream_reconciles () =
  let module Runtime = Bss_service.Runtime in
  let lines = ref [] in
  let summary =
    Runtime.run
      ~on_window:(fun w -> lines := Timeseries.window_json w :: !lines)
      { Runtime.default_config with workers = Some 2; seed = 7; burst = 8; window_every = Some 5 }
      (Bss_service.Request.soak_stream ~seed:7 ~requests:23 ())
  in
  let parse s = match Offline.parse_metrics s with Ok ps -> Offline.last ps | Error e -> Alcotest.fail e in
  let windows = parse (String.concat "\n" (List.rev !lines)) in
  let whole = parse (Runtime.render_json summary) in
  check int_c "four windows and the final partial one" 5 (List.length !lines);
  check bool_c "counter table equals the summary's" true
    (Offline.counter_table windows = Offline.counter_table whole);
  check bool_c "same histograms" true
    (List.map fst windows.Offline.hists = List.map fst whole.Offline.hists);
  List.iter2
    (fun (name, (w : Hist.snapshot)) (_, (s : Hist.snapshot)) ->
      check int_c (name ^ " count") s.Hist.count w.Hist.count;
      check bool_c (name ^ " buckets") true (w.Hist.counts = s.Hist.counts);
      check float_c (name ^ " min") s.Hist.min w.Hist.min;
      check float_c (name ^ " max") s.Hist.max w.Hist.max)
    windows.Offline.hists whole.Offline.hists

let test_offline_traces_roundtrip () =
  (* a trace written by Render.chrome_trace must come back with its
     phase breakdown intact — the bss report read path *)
  let t = Trace_ctx.make ~seed:1 ~seq:0 ~request_id:"soak-0" in
  Trace_ctx.add_span t "queue.wait" ~dur_ns:2_000_000L ~attrs:[ ("phase", Trace_ctx.S "queue") ];
  Trace_ctx.add_span t "attempt" ~dur_ns:5_000_000L ~attrs:[ ("phase", Trace_ctx.S "solve") ];
  let trace = Option.get (Trace_ctx.finish t) in
  let file = Render.chrome_trace ~traces:[ trace ] Report.empty in
  match Offline.parse_traces file with
  | Error e -> Alcotest.fail e
  | Ok [ row ] ->
    check Alcotest.string "trace id survives" trace.Trace_ctx.trace_id row.Offline.trace_id;
    check Alcotest.string "request id survives" "soak-0" row.Offline.request_id;
    check int_c "seq is the tid" 0 row.Offline.seq;
    check float_c "queue phase regrouped (ns)" 2e6 (List.assoc "queue" row.Offline.phases);
    check float_c "solve phase regrouped (ns)" 5e6 (List.assoc "solve" row.Offline.phases);
    let table = Offline.trace_table [ row ] in
    check bool_c "trace table names the trace" true (string_contains table row.Offline.trace_id)
  | Ok rows -> Alcotest.fail (Printf.sprintf "expected 1 trace row, got %d" (List.length rows))

let test_offline_tables () =
  let h = Hist.create () in
  List.iter (fun (v, id) -> Hist.record_exemplar h v id) [ (1., "aa-1"); (64., "bb-2") ];
  let point =
    {
      Offline.empty_point with
      Offline.completed = 5;
      retries = 2;
      hists = [ ("service.total_ns", Hist.snapshot h) ];
    }
  in
  let pt = Offline.percentile_table point in
  List.iter
    (fun needle -> check bool_c ("percentile table has " ^ needle) true (string_contains pt needle))
    [ "service.total_ns"; "p99"; "bb-2" ];
  let baseline = { Offline.empty_point with Offline.completed = 3; retries = 2 } in
  let ct = Offline.counter_table ~baseline point in
  List.iter
    (fun needle -> check bool_c ("counter diff has " ^ needle) true (string_contains ct needle))
    [ "baseline"; "delta"; "+2" ]

(* ---------------- Chrome trace export ---------------- *)

let test_chrome_trace () =
  let (), r =
    Probe.with_recording (fun () ->
        Probe.span "outer" (fun () -> Probe.span "inner" (fun () -> ()));
        Probe.count ~n:3 "c")
  in
  let t = Render.chrome_trace r in
  List.iter
    (fun needle -> check bool_c ("trace has " ^ needle) true (string_contains t needle))
    [
      "\"traceEvents\"";
      "\"ph\":\"M\"";
      "\"ph\":\"X\"";
      "\"ph\":\"C\"";
      "process_name";
      "\"name\":\"inner\"";
      "\"path\":\"outer/inner\"";
      "\"displayTimeUnit\":\"ms\"";
    ]

let () =
  Alcotest.run "bss_obs"
    [
      ( "disabled",
        [
          Alcotest.test_case "no allocation" `Quick test_disabled_no_alloc;
          Alcotest.test_case "adds nothing" `Quick test_disabled_adds_nothing;
        ] );
      ( "recording",
        [
          Alcotest.test_case "basics" `Quick test_recording_basics;
          Alcotest.test_case "unwind on raise" `Quick test_span_unwind_on_raise;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "event cap" `Quick test_event_cap;
        ] );
      ( "hist",
        [
          Alcotest.test_case "pinned quantiles" `Quick test_hist_pinned_quantiles;
          Alcotest.test_case "exact merge" `Quick test_hist_merge_exact;
          Alcotest.test_case "edge cases" `Quick test_hist_edges;
          Alcotest.test_case "exemplar eviction" `Quick test_hist_exemplar_eviction;
          Alcotest.test_case "window diff" `Quick test_hist_diff;
          Alcotest.test_case "json round-trip" `Quick test_hist_json_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic ids" `Quick test_trace_ids_deterministic;
          Alcotest.test_case "span tree" `Quick test_trace_span_tree;
          Alcotest.test_case "unwind on raise" `Quick test_trace_unwind_on_raise;
          Alcotest.test_case "disabled no allocation" `Quick test_trace_disabled_no_alloc;
          Alcotest.test_case "reservoir" `Quick test_trace_reservoir;
        ] );
      ( "slo",
        [
          Alcotest.test_case "eval" `Quick test_slo_eval;
          Alcotest.test_case "windows and final" `Quick test_slo_windows_and_final;
          Alcotest.test_case "file round-trip" `Quick test_slo_file_roundtrip;
        ] );
      ( "report",
        [
          Alcotest.test_case "parse metrics" `Quick test_offline_parse_metrics;
          Alcotest.test_case "window stream reconciles with the summary" `Quick
            test_offline_window_stream_reconciles;
          Alcotest.test_case "trace round-trip" `Quick test_offline_traces_roundtrip;
          Alcotest.test_case "tables" `Quick test_offline_tables;
        ] );
      ( "multi-domain",
        [
          Alcotest.test_case "event interleave" `Quick test_merge_event_interleave;
          Alcotest.test_case "merge event cap" `Quick test_merge_event_cap;
          Alcotest.test_case "stress vs sequential" `Quick test_multi_domain_stress;
          Alcotest.test_case "service profile worker-independent" `Quick
            test_service_profile_worker_independent;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "advertised counters" `Quick test_solver_counters;
          Alcotest.test_case "deterministic" `Quick test_counters_deterministic;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "table" `Quick test_render_table;
          Alcotest.test_case "json+csv" `Quick test_render_json_and_csv;
        ] );
    ]
