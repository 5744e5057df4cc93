(* batch-soak and batch-journal: [Runtime.run] over a fixed seeded
   [Request.soak_stream], repeated until the run's time is up. Every
   repetition is a fresh engine over the same requests, so its result
   set is checked against the one reference. *)

open Bss_service

type spec = {
  requests : int;  (** fixed run length: the journal's cost grows with it *)
  config : Runtime.config;
  journaled : bool;
}

(* the small-request hot path: two workers, no journal, telemetry off *)
let soak = { requests = 8000; config = { Runtime.default_config with workers = Some 2 }; journaled = false }

(* [bss serve --batch] as it runs by default: a fresh journal flushed
   every 8 completions, no rotation, one worker *)
let journal =
  {
    requests = 4000;
    config = { Runtime.default_config with workers = Some 1; checkpoint_every = 8 };
    journaled = true;
  }

let stream spec seed = Request.soak_stream ~seed ~requests:spec.requests ()

let journal_path () = Filename.concat (Scratch.dir ()) "batch.journal"

let remove_journal path = try Sys.remove path with Sys_error _ -> ()

let fresh_journal spec = if spec.journaled then Some (Journal.fresh (journal_path ())) else None

(* set-up: draw the stream and realize every request's instance (the
   workloads layer's share), plus a fresh journal where one is armed;
   [setups] times at the start of every repetition, each from a
   collected heap *)
let setups = 3

let setup spec seed =
  let once () =
    Measure.stabilize ();
    Measure.time (fun () ->
        let requests = stream spec seed in
        List.iter (fun r -> ignore (Sys.opaque_identity (Request.instance r))) requests;
        (requests, fresh_journal spec))
  in
  (* only the first set-up's stream is kept: the others are garbage as
     soon as they are timed *)
  let first, ns = once () in
  (first, ns :: List.init (setups - 1) (fun _ -> snd (once ())))

(* A journaled repetition must also leave the reference set on disk. *)
let journal_failures reference = function
  | None -> 0
  | Some j ->
    let on_disk = Journal.entries (Journal.load (Journal.path j)) in
    let missing =
      List.length
        (List.filter
           (fun (e : Journal.entry) ->
             not
               (Reference.matches reference e.Journal.id ~status:"done" ~rung:(Some e.Journal.rung)
                  ~makespan:(Some e.Journal.makespan)))
           on_disk)
    in
    missing + abs (Reference.size reference - List.length on_disk)

let hist summary name = List.assoc_opt name summary.Runtime.hists

let run spec ~reference ~seed ~seconds =
  let t_start = Measure.now () in
  let reps = ref [] and setup_ns = ref [] and attempted = ref 0 and failed = ref 0 in
  let flushes = ref 0 and flush_ns = ref 0.0 and wall = ref 0.0 and last = ref 0.0 in
  while Measure.another ~t_start ~seconds ~last:!last !reps do
    let t_rep = Measure.now () in
    let (requests, journal), setup = setup spec seed in
    setup_ns := setup @ !setup_ns;
    Measure.stabilize ();
    let w0 = Measure.words () in
    let summary, ns = Measure.time (fun () -> Runtime.run ?journal spec.config requests) in
    let words = Measure.words () -. w0 in
    wall := !wall +. ns;
    let outcomes = summary.Runtime.outcomes in
    reps :=
      Measure.summarize
        {
          Measure.wall_ns = ns;
          latencies =
            List.map
              (fun (o : Runtime.outcome) -> (o.Runtime.request.Request.variant, Int64.to_float o.Runtime.latency_ns))
              outcomes;
          jobs = Reference.jobs reference (List.map (fun (o : Runtime.outcome) -> o.Runtime.request.Request.id) outcomes);
          words;
        }
      :: !reps;
    (match hist summary "service.journal.flush_ns" with
    | Some h ->
      flushes := !flushes + h.Bss_obs.Hist.count;
      flush_ns := !flush_ns +. h.Bss_obs.Hist.sum
    | None -> ());
    attempted := !attempted + List.length requests;
    failed := !failed + Reference.failures reference outcomes + journal_failures reference journal;
    Option.iter (fun j -> remove_journal (Journal.path j)) journal;
    last := Measure.since t_rep
  done;
  let reps = List.rev !reps in
  let counters =
    if spec.journaled then
      [
        ("service.journal.flushes", float_of_int !flushes /. float_of_int (List.length reps), "count");
        ("service.journal.flush_ms_mean", !flush_ns /. float_of_int (max 1 !flushes) /. 1e6, "ms");
        ("service.journal.share", !flush_ns /. !wall, "fraction");
      ]
    else []
  in
  ( {
      Measure.setup_ns = !setup_ns;
      reps;
      ratios = Reference.ratios reference;
      attempted = !attempted;
      failed = !failed;
    },
    counters )

(* One repetition driven through [Runtime.Engine] as [Runtime.run]
   drives it — admit a burst, dispatch it — with a span around every
   call. Returns its wall time, wave sizes, worker busy time over the
   workers it ran, and whether its outcomes (and journal) match the
   reference. *)
let traced_rep spec ~reference requests =
  let journal = fresh_journal spec in
  let engine = Runtime.Engine.create ?journal spec.config in
  let waves = ref [] in
  let rec take k acc = function
    | r :: rest when k > 0 -> take (k - 1) (r :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec loop = function
    | [] -> ()
    | pending ->
      let front, rest = take spec.config.Runtime.burst [] pending in
      List.iter
        (fun (r : Request.t) ->
          ignore (Spans.with_span ~req:r.Request.id "service.admit" (fun () -> Runtime.Engine.admit engine r)))
        front;
      let wave = Spans.with_span "service.dispatch" (fun () -> Runtime.Engine.dispatch engine) in
      waves := List.length wave :: !waves;
      loop rest
  in
  let (), wall =
    Measure.time (fun () ->
        Spans.with_span "service.run" (fun () ->
            loop requests;
            Runtime.Engine.finalize_windows engine;
            Spans.with_span "service.final_flush" (fun () -> Runtime.Engine.final_flush engine)))
  in
  let summary = Runtime.Engine.summary ~requests engine in
  let ok = Reference.failures reference summary.Runtime.outcomes = 0 && journal_failures reference journal = 0 in
  Option.iter (fun j -> remove_journal (Journal.path j)) journal;
  let busy =
    List.fold_left (fun acc (o : Runtime.outcome) -> acc +. Int64.to_float o.Runtime.latency_ns) 0.0 summary.Runtime.outcomes
  in
  (wall, !waves, busy /. float_of_int (Runtime.Engine.workers engine), ok)

let untraced_rep spec requests =
  let journal = fresh_journal spec in
  let _, wall = Measure.time (fun () -> Runtime.run ?journal spec.config requests) in
  Option.iter (fun j -> remove_journal (Journal.path j)) journal;
  wall

(* The traced run: [trace_pairs] untraced [Runtime.run] repetitions,
   each followed by a traced engine-driven one (the overhead compares
   their medians), then every request's instance re-solved through the
   core's public calls to split the solve time. *)
let trace_pairs = 3

let trace spec ~reference ~seed =
  let requests = stream spec seed in
  let pairs =
    List.init trace_pairs (fun _ ->
        let untraced = untraced_rep spec requests in
        (untraced, traced_rep spec ~reference requests))
  in
  let core_ok =
    List.for_all
      (fun (r : Request.t) ->
        let inst = Spans.with_span ~req:r.Request.id "workloads.generate" (fun () -> Request.instance r) in
        Core_split.solve ~req:r.Request.id r.Request.variant inst)
      requests
  in
  let spans = Spans.all () in
  let traced = List.map snd pairs in
  let busy = Measure.sum (List.map (fun (_, _, b, _) -> b) traced) in
  let per_request ns = ns /. float_of_int (List.length requests) in
  let metrics =
    [
      ("workloads.generate_us", Spans.mean_ns spans "workloads.generate" /. 1e3, "us");
      ("service.admit_us", Spans.mean_ns spans "service.admit" /. 1e3, "us");
      ("service.dispatch_ms", Spans.mean_ns spans "service.dispatch" /. 1e6, "ms");
      ( "service.wave_size",
        Measure.mean (List.concat_map (fun (_, waves, _, _) -> List.map float_of_int waves) traced),
        "requests" );
      ("service.wave_efficiency", busy /. Spans.total_ns spans "service.dispatch", "fraction");
    ]
  in
  {
    Spans.ok = core_ok && List.for_all (fun (_, _, _, ok) -> ok) traced;
    spans;
    metrics;
    per_request_ns = per_request (Measure.median (List.map (fun (wall, _, _, _) -> wall) traced));
    untraced_ns = per_request (Measure.median (List.map fst pairs));
    recon = Core_split.reconcile spans;
  }
