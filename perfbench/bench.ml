(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it runs workload W for S seconds on inputs drawn from
   seed N, checks every output, prints the end-to-end metrics as a table
   and, as its last line, one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.

   With --trace 1 it makes the traced run instead: the untraced run and
   the untraced run again on a second seed, each for S/2 seconds (so
   the whole takes about S seconds plus the traced pass), then the
   traced pass — untraced repetitions, each followed by one with spans
   around every call into the program (the difference is the tracing
   overhead). It prints the
   end-to-end metrics of both seeds side by side, the per-layer metrics
   with the tracing overhead, self time per layer, and the
   reconciliation rows; the JSON line then carries the per-layer
   metrics. The spans are written to _perfbench/spans-W-N.jsonl. *)

open Bss_util
module Variant = Bss_instances.Variant

type workload = {
  name : string;
  (* [prepare seed] builds what the output check needs for [seed] (the
     service workloads' reference set) — once per invocation, outside
     set-up and the timed loop *)
  prepare : int -> bench;
}

and bench = {
  run : seconds:float -> Measure.run * (string * float * string) list;
      (** the untraced run, and per-layer figures read from the
          program's own counters along the way *)
  trace : unit -> Spans.traced;
}

let service_workload name spec =
  {
    name;
    prepare =
      (fun seed ->
        let reference = Reference.build (Batch.stream spec seed) in
        {
          run = (fun ~seconds -> Batch.run spec ~reference ~seed ~seconds);
          trace = (fun () -> Batch.trace spec ~reference ~seed);
        });
  }

let workloads =
  [
    service_workload "batch-soak" Batch.soak;
    {
      name = "net-closed";
      prepare =
        (fun seed ->
          let reference = Reference.build (Net_closed.stream seed) in
          {
            run = (fun ~seconds -> Net_closed.run ~reference ~seed ~seconds);
            trace = (fun () -> Net_closed.trace ~reference ~seed);
          });
    };
    service_workload "batch-journal" Batch.journal;
  ]

(* Every per-layer metric, with its unit; a workload that bypasses a
   layer reports it as 0. What each should move, and where:
   - core.*, instances.check_ms: latency_p50_ms.<v> on batch-soak
     (search dominates pmtn on small requests);
   - workloads.generate_us, service.*, util.spawn_join_us, gc.*:
     throughput_rps on batch-soak;
   - service.queue_wait_ms.*, net.*, obs.*: net.client_latency_ms.* and
     throughput_rps on net-closed;
   - service.journal.*: throughput_rps (and words_per_job) on
     batch-journal only.
   A pool change should leave net-closed and batch-journal flat; a
   journal change, all but batch-journal; a wire change, all but
   net-closed. *)
let per_layer =
  let per_variant base unit = List.map (fun v -> (base ^ "." ^ Measure.short_variant v, unit)) Variant.all in
  per_variant "core.search_ms" "ms"
  @ per_variant "core.bound_tests" "count"
  @ per_variant "core.compact_ms" "ms"
  @ per_variant "core.two_approx_ms" "ms"
  @ per_variant "instances.check_ms" "ms"
  @ per_variant "core.residual_ms" "ms"
  @ per_variant "core.search_words_per_job" "words/job"
  @ [
      ("workloads.generate_us", "us");
      ("service.admit_us", "us");
      ("service.dispatch_ms", "ms");
      ("service.wave_size", "requests");
      ("service.wave_efficiency", "fraction");
      ("util.spawn_join_us", "us");
      ("gc.minor_per_kreq", "count");
      ("gc.major_per_kreq", "count");
      ("service.queue_wait_ms.p50", "ms");
      ("service.queue_wait_ms.p99", "ms");
      ("net.wave_size", "requests");
      ("net.client_latency_ms.p50", "ms");
      ("net.client_latency_ms.p99", "ms");
      ("net.encode_us", "us");
      ("net.decode_us", "us");
      ("net.frame_bytes", "bytes");
      ("net.residual_ms.p50", "ms");
      ("net.residual_ms.p99", "ms");
      ("obs.windows", "count");
      ("obs.window_json_us", "us");
      ("service.journal.flushes", "count");
      ("service.journal.flush_ms_mean", "ms");
      ("service.journal.share", "fraction");
      ("trace.overhead_pct", "%");
      ("trace.unattributed_pct", "%");
    ]

(* ---------------- output ---------------- *)

let number x =
  if not (Float.is_finite x) then raise (Invalid_argument "non-finite metric");
  Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  Json.obj
    [
      ("correct", Json.bool correct);
      ("attempted", Json.int attempted);
      ("failed", Json.int failed);
      ( "metrics",
        Json.obj
          (List.map (fun (name, value, unit) -> (name, Json.obj [ ("value", number value); ("unit", Json.str unit) ])) metrics)
      );
    ]

let show x = Printf.sprintf "%.4g" x

let print_table ~title ~header rows =
  print_endline title;
  print_string
    (Table.render ~header
       ~align:(Table.Left :: List.map (fun _ -> Table.Right) (List.tl header))
       rows);
  print_newline ()

let bounded = List.filter_map (fun (name, v, unit, gated) -> if gated then Some (name, v, unit) else None)

(* what each figure is taken over *)
let samples_of (r : Measure.run) name =
  match name with
  | "setup_s" -> Printf.sprintf "%d set-ups" (List.length r.Measure.setup_ns)
  | "makespan_ratio" -> Printf.sprintf "%d requests" (List.length r.Measure.ratios)
  | "failed_frac" -> Printf.sprintf "%d requests" r.Measure.attempted
  | "peak_rss_mb" -> "process"
  | _ ->
    Printf.sprintf "%d reps of %d" (List.length r.Measure.reps)
      ((List.hd r.Measure.reps).Measure.completed)

let gc_counters f =
  let minor0, major0 = Measure.gc_counts () in
  let ((r : Measure.run), counters) = f () in
  let minor1, major1 = Measure.gc_counts () in
  let kreq = float_of_int r.Measure.attempted /. 1000.0 in
  ( r,
    counters
    @ [
        ("gc.minor_per_kreq", float_of_int (minor1 - minor0) /. kreq, "count");
        ("gc.major_per_kreq", float_of_int (major1 - major0) /. kreq, "count");
      ] )

(* [Parallel.map_results ~domains:2] over two no-op items: one domain
   spawned and joined, as every wave of a two-worker pool pays *)
let spawn_join_us () =
  let once () =
    snd (Measure.time (fun () -> Parallel.map_results ~domains:2 (fun () -> ()) [ (); () ]))
  in
  Measure.median (List.init 200 (fun _ -> Spans.with_span "util.spawn_join" once)) /. 1e3

let second_seed seed = seed + 1_000_003

let untraced w ~seed ~seconds =
  let b = w.prepare seed in
  let r, counters = gc_counters (fun () -> b.run ~seconds) in
  (b, r, counters)

let main workload seed seconds trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let b, r, counters = untraced w ~seed ~seconds:(if trace then seconds /. 2.0 else seconds) in
  let e2e = Measure.metrics r in
  if not trace then begin
    print_table
      ~title:
        (Printf.sprintf "%s seed=%d: %d attempted, %d failed (failed_frac %s)" workload seed
           r.Measure.attempted r.Measure.failed
           (show (float_of_int r.Measure.failed /. float_of_int r.Measure.attempted)))
      ~header:[ "metric"; "unit"; "value"; "over"; "bounded" ]
      (List.map
         (fun (name, v, unit, gated) -> [ name; unit; show v; samples_of r name; (if gated then "yes" else "no") ])
         e2e);
    if counters <> [] then
      print_table ~title:"per-layer figures from the program's own counters (not bounded)"
        ~header:[ "metric"; "unit"; "value" ]
        (List.map (fun (name, v, unit) -> [ name; unit; show v ]) counters);
    print_endline
      (result_line ~correct:(r.Measure.failed = 0) ~attempted:r.Measure.attempted ~failed:r.Measure.failed
         (bounded e2e))
  end
  else begin
    let seed2 = second_seed seed in
    let _, r2, _ = untraced w ~seed:seed2 ~seconds:(seconds /. 2.0) in
    let e2e2 = Measure.metrics r2 in
    let t = b.trace () in
    let spawn = spawn_join_us () in
    let spans = Spans.all () in
    let path = Filename.concat (Scratch.dir ()) (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
    Spans.write path spans;
    let overhead = 100.0 *. ((t.Spans.per_request_ns /. t.Spans.untraced_ns) -. 1.0) in
    let whole = Measure.sum (List.map (fun (_, w, _) -> w) t.Spans.recon) in
    let parts = Measure.sum (List.concat_map (fun (_, _, ps) -> List.map snd ps) t.Spans.recon) in
    let unattributed = if whole > 0.0 then 100.0 *. (whole -. parts) /. whole else 0.0 in
    let core = List.concat_map (Core_split.layer_metrics spans) Variant.all in
    let measured =
      counters @ t.Spans.metrics @ core
      @ [
          ("util.spawn_join_us", spawn, "us");
          ("trace.overhead_pct", overhead, "%");
          ("trace.unattributed_pct", unattributed, "%");
        ]
    in
    let layer = List.map (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) measured with
        | Some (_, v, _) -> (name, v, unit)
        | None -> (name, 0.0, unit))
        per_layer
    in
    print_table
      ~title:(Printf.sprintf "%s end-to-end, untraced: seed %d beside second seed %d" workload seed seed2)
      ~header:[ "metric"; "unit"; Printf.sprintf "seed %d" seed; Printf.sprintf "seed %d" seed2 ]
      (List.map2 (fun (name, v, unit, _) (_, v2, _, _) -> [ name; unit; show v; show v2 ]) e2e e2e2);
    print_endline "(peak_rss_mb is the process high-water mark: the second seed's includes the first's run)\n";
    print_table
      ~title:
        (Printf.sprintf "%s per layer (traced run); tracing overhead %+.1f%% (%s ms/request traced, %s untraced)"
           workload overhead (show (t.Spans.per_request_ns /. 1e6)) (show (t.Spans.untraced_ns /. 1e6)))
      ~header:[ "metric"; "unit"; "value" ]
      (List.filter_map
         (fun (name, v, unit) ->
           if List.exists (fun (n, _, _) -> n = name) measured then Some [ name; unit; show v ] else None)
         layer);
    let total_self = Measure.sum (List.map (fun (_, _, s) -> s) (Spans.by_layer spans)) in
    print_table ~title:"self time by layer (from spans)" ~header:[ "layer"; "spans"; "self ms"; "share" ]
      (List.map
         (fun (l, n, s) -> [ l; string_of_int n; show (s /. 1e6); Printf.sprintf "%.1f%%" (100.0 *. s /. total_self) ])
         (Spans.by_layer spans));
    print_table ~title:"reconciliation (ms per request: the whole beside its parts)"
      ~header:[ "row"; "whole"; "parts"; "sum"; "unattributed" ]
      (List.map
         (fun (row, w, ps) ->
           let sum = Measure.sum (List.map snd ps) in
           [
             row;
             show w;
             String.concat " + " (List.map (fun (n, v) -> Printf.sprintf "%s %s" n (show v)) ps);
             show sum;
             Printf.sprintf "%s (%.1f%%)" (show (w -. sum)) (if w > 0.0 then 100.0 *. (w -. sum) /. w else 0.0);
           ])
         t.Spans.recon);
    Printf.printf "spans: %d written to %s\n" (List.length spans) path;
    let attempted = r.Measure.attempted + r2.Measure.attempted in
    let failed = r.Measure.failed + r2.Measure.failed + if t.Spans.ok then 0 else 1 in
    print_endline (result_line ~correct:(failed = 0) ~attempted ~failed layer)
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are drawn from");
      ("--seconds", Arg.Set_float seconds, "S how long the timed loop runs");
      ("--trace", Arg.Set_int trace, "0|1 untraced run (0) or traced run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  main !workload !seed !seconds (!trace = 1)
