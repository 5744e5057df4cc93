module Chaos = Bss_resilience.Chaos
module Probe = Bss_obs.Probe
module Runtime = Bss_service.Runtime
module Journal = Bss_service.Journal
module Request = Bss_service.Request
module Backoff = Bss_service.Backoff
open Bss_util

let schema_version = "bss-torture/1"

(* Small enough that a smoke workload rotates several times, so the
   journal.seal crash points actually occur in the census. *)
let rotate_every = 4

type config = {
  requests : int;
  seed : int;
  depth : int;
  sites : string list;
  max_pairs : int;
  dir : string;
  break_invariant : string option;
  shrink_budget : int;
}

let default_config =
  {
    requests = 12;
    seed = 7;
    depth = 1;
    sites = [ "all" ];
    max_pairs = 256;
    dir = ".";
    break_invariant = None;
    shrink_budget = 64;
  }

let journal_path cfg = Filename.concat cfg.dir "torture.journal"

(* Remove the whole journal chain (active file, sealed segments, stray
   temporaries) so every schedule starts from the same empty disk. *)
let clean_journal cfg =
  let base = Filename.basename (journal_path cfg) in
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:base f || String.starts_with ~prefix:("." ^ base) f then
        try Sys.remove (Filename.concat cfg.dir f) with Sys_error _ -> ())
    (Sys.readdir cfg.dir)

let workload cfg = Request.soak_stream ~seed:cfg.seed ~requests:cfg.requests ()

(* One worker: a schedule names a site's k-th hit across the whole run,
   and an armed schedule covers only the domain that armed it, so every
   site must fire on this one domain. Small bursts and a small
   checkpoint interval so admission, flush and seal sites all occur many
   times even on a smoke workload; one fast retry so Raise faults
   exercise the retry path without stalling the sweep on backoff
   waits. *)
let service_config cfg =
  {
    Runtime.default_config with
    burst = 4;
    workers = Some 1;
    retries = 1;
    backoff = { Backoff.base_us = 50; factor = 2; cap_us = 400 };
    checkpoint_every = 3;
    seed = cfg.seed;
  }

(* ---------------- census + fault-free baseline ---------------- *)

type baseline = {
  map : (string * (string * string)) list;  (* id -> fault-free (rung, makespan) *)
  census : (string * int) list;  (* site -> fault opportunities, sorted *)
  summary : Runtime.summary;
}

let run_baseline cfg requests =
  clean_journal cfg;
  let journal = Journal.fresh ~rotate_every (journal_path cfg) in
  let summary, census =
    Chaos.with_census (fun () -> Runtime.run ~journal (service_config cfg) requests)
  in
  let map =
    List.filter_map
      (fun (o : Runtime.outcome) ->
        match (o.Runtime.rung, o.Runtime.makespan) with
        | Some r, Some m -> Some (o.Runtime.request.Request.id, (r, m))
        | _ -> None)
      summary.Runtime.outcomes
  in
  { map; census; summary }

let census cfg = (run_baseline cfg (workload cfg)).census

(* ---------------- schedule enumeration ---------------- *)

let site_matches filters site =
  List.exists (fun f -> f = "all" || String.starts_with ~prefix:f site) filters

(* Crash is enumerated only where a simulated process death escapes to
   the top (the coordinator and journal sites): inside the solver the
   guard's catch-all would contain it, which tests containment, not
   crash-consistency — Raise already covers that path. *)
let crashable site =
  String.starts_with ~prefix:"service." site || String.starts_with ~prefix:"journal." site

let single_schedules cfg census =
  census
  |> List.filter (fun (s, _) -> site_matches cfg.sites s)
  |> List.concat_map (fun (site, count) ->
      List.concat_map
        (fun h ->
          [ (site, h, Chaos.Raise) ]
          :: (if crashable site then [ [ (site, h, Chaos.Crash) ] ] else []))
        (List.init count Fun.id))

(* The bounded pairwise frontier: all unordered pairs of distinct single
   faults at distinct (site, occurrence) positions, thinned to
   [min cap total] schedules spread evenly (the [i]-th kept pair is pair
   number [i * total / keep]) so the selection spans the whole space
   instead of saturating on the first site. Returns the pair schedules and
   how many the bound dropped. *)
let bounded_pairs singles cap =
  let faults = Array.of_list (List.map (function [ f ] -> f | _ -> assert false) singles) in
  let n = Array.length faults in
  let key (s, h, _) = (s, h) in
  let total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if key faults.(i) <> key faults.(j) then incr total
    done
  done;
  let keep = if cap <= 0 then !total else min cap !total in
  let acc = ref [] and k = ref 0 and taken = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if key faults.(i) <> key faults.(j) then begin
        if !taken < keep && !k = !taken * !total / keep then begin
          acc := [ faults.(i); faults.(j) ] :: !acc;
          incr taken
        end;
        incr k
      end
    done
  done;
  (List.rev !acc, !total - !taken)

(* ---------------- running one schedule ---------------- *)

type run_outcome =
  | Finished of Oracle.evidence * Schedule.t  (* fired faults, firing order across lives *)
  | Escaped of exn

(* Run the workload under [schedule], resuming from the journal after
   every simulated crash exactly as a restarted process would. Faults
   that fired are not re-armed on resume; occurrence indices of the
   survivors count from the new life's start (a deterministic
   transient-fault model). Lives are bounded by the schedule length —
   every crash consumes its fault — plus slack. *)
let run_schedule cfg requests (bl : baseline) schedule =
  clean_journal cfg;
  let scfg = service_config cfg in
  let path = journal_path cfg in
  let max_lives = List.length schedule + 2 in
  let rec life remaining fired_acc n =
    let journal =
      if n = 1 then Journal.fresh ~rotate_every path else Journal.load ~rotate_every path
    in
    match Chaos.run_plan remaining (fun () -> Runtime.run ~journal scfg requests) with
    | Ok summary, fired ->
      let evidence =
        {
          Oracle.requests;
          baseline = bl.map;
          summary;
          journal_path = path;
          rotate_every;
          lives = n;
        }
      in
      Finished (evidence, fired_acc @ fired)
    | Error (Chaos.Crashed _), fired when n < max_lives ->
      let remaining = List.filter (fun e -> not (List.mem e fired)) remaining in
      life remaining (fired_acc @ fired) (n + 1)
    | Error exn, _ -> Escaped exn
  in
  life schedule [] 1

(* Run one schedule and judge it: the oracle's five invariants, plus the
   containment meta-invariant (nothing but a simulated crash may escape
   the runtime), plus the deliberate-break test hook — when armed with a
   site prefix, the first fired fault matching it is reported as a
   synthetic exactly-once violation, giving the shrinker and the replay
   path a deterministic target to prove themselves on. *)
let examine cfg requests bl schedule =
  match run_schedule cfg requests bl schedule with
  | Escaped exn ->
    ( [
        {
          Oracle.invariant = "containment";
          detail = "exception escaped the runtime: " ^ Printexc.to_string exn;
        };
      ],
      0 )
  | Finished (ev, fired) ->
    let verdict = Oracle.check ev in
    let hook =
      match cfg.break_invariant with
      | None -> []
      | Some prefix -> (
        match List.find_opt (fun (s, _, _) -> String.starts_with ~prefix s) fired with
        | Some (s, h, _) ->
          [
            {
              Oracle.invariant = "exactly-once";
              detail = Printf.sprintf "test hook: fault at %s@%d treated as a lost answer" s h;
            };
          ]
        | None -> [])
    in
    (verdict.Oracle.violations @ hook, verdict.Oracle.salvaged)

(* ---------------- shrinking ---------------- *)

(* Greedy delta-debugging to a fixpoint: drop whole faults, then lower
   surviving occurrence indices toward 0 (direct, then halving), re-running
   the schedule at every step. [violates] must hold for the input; every
   accepted step preserves it, so the result still reproduces. [budget]
   bounds the number of [violates] runs. *)
let minimize ~budget ~violates schedule =
  let calls = ref 0 in
  let try_schedule s =
    s <> [] && !calls < budget
    && begin
         incr calls;
         violates s
       end
  in
  let drop_pass s =
    let rec go i s =
      if i >= List.length s then s
      else
        let s' = List.filteri (fun j _ -> j <> i) s in
        if try_schedule s' then go i s' else go (i + 1) s
    in
    go 0 s
  in
  let lower_fault s i =
    let rec go s =
      let site, h, a = List.nth s i in
      if h = 0 then s
      else
        let candidates = if h = 1 then [ 0 ] else [ 0; h / 2 ] in
        let rec first = function
          | [] -> s
          | c :: rest ->
            let s' = List.mapi (fun j f -> if j = i then (site, c, a) else f) s in
            if try_schedule s' then go s' else first rest
        in
        first candidates
    in
    go s
  in
  let lower_pass s = List.fold_left lower_fault s (List.init (List.length s) Fun.id) in
  let rec fix s =
    let s' = lower_pass (drop_pass s) in
    if s' = s || !calls >= budget then s' else fix s'
  in
  fix schedule

(* ---------------- the sweep ---------------- *)

type failure = { schedule : Schedule.t; violations : Oracle.violation list }

type reproducer = {
  r_requests : int;
  r_seed : int;
  r_break : string option;
  r_schedule : Schedule.t;
  r_violations : Oracle.violation list;
}

type sweep = {
  census : (string * int) list;
  opportunities : int;
  explored : int;
  violated : int;
  truncated : int;  (* pairwise schedules dropped by the bound *)
  salvaged_total : int;
  failures : failure list;  (* exploration order, un-shrunk *)
  reproducer : reproducer option;  (* the first failure, shrunk and re-run *)
  shrink_runs : int;
  baseline_summary : Runtime.summary;
}

let explore ?(log = ignore) cfg =
  let requests = workload cfg in
  let bl = run_baseline cfg requests in
  let singles = single_schedules cfg bl.census in
  let pairs, truncated =
    if cfg.depth >= 2 then bounded_pairs singles cfg.max_pairs else ([], 0)
  in
  let schedules = singles @ pairs in
  log
    (Printf.sprintf "torture: %d single-fault and %d pairwise schedules queued (%d pairs beyond the bound)"
       (List.length singles) (List.length pairs) truncated);
  let explored = ref 0 and violated = ref 0 and salvaged_total = ref 0 in
  let failures = ref [] in
  List.iter
    (fun schedule ->
      let violations, salvaged = examine cfg requests bl schedule in
      incr explored;
      salvaged_total := !salvaged_total + salvaged;
      if Probe.enabled () then Probe.count "sim.schedules.explored";
      if violations <> [] then begin
        incr violated;
        if Probe.enabled () then Probe.count "sim.schedules.violated";
        failures := { schedule; violations } :: !failures;
        log (Printf.sprintf "torture: VIOLATED %s" (Schedule.describe schedule))
      end)
    schedules;
  let failures = List.rev !failures in
  let shrink_runs = ref 0 in
  let reproducer =
    match failures with
    | [] -> None
    | first :: _ ->
      let violates s =
        incr shrink_runs;
        fst (examine cfg requests bl s) <> []
      in
      let shrunk = minimize ~budget:cfg.shrink_budget ~violates first.schedule in
      (* re-run the shrunk schedule so the reproducer carries ITS
         violations — replaying the artifact must reproduce them
         bit-identically *)
      let violations, _ = examine cfg requests bl shrunk in
      Some
        {
          r_requests = cfg.requests;
          r_seed = cfg.seed;
          r_break = cfg.break_invariant;
          r_schedule = shrunk;
          r_violations = violations;
        }
  in
  {
    census = bl.census;
    opportunities = List.fold_left (fun acc (_, c) -> acc + c) 0 bl.census;
    explored = !explored;
    violated = !violated;
    truncated;
    salvaged_total = !salvaged_total;
    failures;
    reproducer;
    shrink_runs = !shrink_runs;
    baseline_summary = bl.summary;
  }

(* ---------------- the reproducer artifact ---------------- *)

let reproducer_json r =
  Json.obj
    ([
       ("schema", Json.str schema_version);
       ( "workload",
         Json.obj [ ("requests", Json.int r.r_requests); ("seed", Json.int r.r_seed) ] );
     ]
    @ (match r.r_break with Some p -> [ ("break_invariant", Json.str p) ] | None -> [])
    @ [
        ("schedule", Schedule.to_json r.r_schedule);
        ( "violations",
          Json.arr
            (List.map
               (fun (v : Oracle.violation) ->
                 Json.obj
                   [ ("invariant", Json.str v.Oracle.invariant); ("detail", Json.str v.Oracle.detail) ])
               r.r_violations) );
      ])

let ( let* ) = Result.bind

let reproducer_of_string content =
  let* v = Json.parse content in
  let* () =
    match Json.member "schema" v with
    | Some (Json.Str s) when s = schema_version -> Ok ()
    | Some (Json.Str s) ->
      Error (Printf.sprintf "unsupported schema %S (this build reads %S)" s schema_version)
    | _ -> Error (Printf.sprintf "missing \"schema\" field (expected %S)" schema_version)
  in
  let* requests, seed =
    match Json.member "workload" v with
    | Some w -> (
      match (Json.member "requests" w, Json.member "seed" w) with
      | Some (Json.Num r), Some (Json.Num s) -> Ok (int_of_float r, int_of_float s)
      | _ -> Error "workload: missing \"requests\" or \"seed\"")
    | None -> Error "missing \"workload\""
  in
  let r_break =
    match Json.member "break_invariant" v with Some (Json.Str p) -> Some p | _ -> None
  in
  let* schedule =
    match Json.member "schedule" v with
    | Some s -> Schedule.of_json s
    | None -> Error "missing \"schedule\""
  in
  Ok { r_requests = requests; r_seed = seed; r_break; r_schedule = schedule; r_violations = [] }

(* Re-run a reproducer under the workload and test hook it names; the
   returned reproducer carries the violations this replay observed, so
   serializing it and diffing against the original file is the
   determinism check. *)
let replay ~dir r =
  let cfg =
    {
      default_config with
      requests = r.r_requests;
      seed = r.r_seed;
      break_invariant = r.r_break;
      dir;
    }
  in
  let requests = workload cfg in
  let bl = run_baseline cfg requests in
  let violations, _ = examine cfg requests bl r.r_schedule in
  { r with r_violations = violations }

(* ---------------- rendering ---------------- *)

let render_census census =
  Table.render ~header:[ "site"; "hits" ]
    ~align:[ Table.Left; Table.Right ]
    (List.map (fun (site, count) -> [ site; string_of_int count ]) census)

let render_reproducer r =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "reproducer: %s\n" (Schedule.describe r.r_schedule);
  List.iter
    (fun (v : Oracle.violation) -> add "  %s: %s\n" v.Oracle.invariant v.Oracle.detail)
    r.r_violations;
  Buffer.contents buf

let render_sweep sweep =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "torture: sites=%d opportunities=%d\n" (List.length sweep.census) sweep.opportunities;
  add "torture: schedules explored=%d violated=%d truncated=%d salvaged=%d\n" sweep.explored
    sweep.violated sweep.truncated sweep.salvaged_total;
  let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> [] in
  List.iter
    (fun f ->
      add "violated: %s\n" (Schedule.describe f.schedule);
      List.iter
        (fun (v : Oracle.violation) -> add "  %s: %s\n" v.Oracle.invariant v.Oracle.detail)
        (take 4 f.violations))
    (take 8 sweep.failures);
  if List.length sweep.failures > 8 then
    add "... and %d more violating schedules\n" (List.length sweep.failures - 8);
  (match sweep.reproducer with
  | None -> ()
  | Some r ->
    add "shrunk to %d fault(s) in %d shrink run(s)\n" (List.length r.r_schedule) sweep.shrink_runs;
    Buffer.add_string buf (render_reproducer r));
  Buffer.contents buf

(* A bss-metrics/1 summary object: the fault-free baseline's counters
   plus the sweep counters, so [bss report] can surface
   sim.schedules.{explored,violated} and service.journal.salvaged from a
   torture artifact like from any other run artifact. *)
let summary_json sweep =
  let s = sweep.baseline_summary in
  Json.obj
    [
      ("schema", Json.str Bss_obs.Offline.metrics_schema_version);
      ("done", Json.int s.Runtime.completed);
      ("rejected", Json.int s.Runtime.rejected);
      ("aborted", Json.int s.Runtime.aborted);
      ("retries", Json.int s.Runtime.retries);
      ("queue_peak", Json.int s.Runtime.queue_peak);
      ("waves", Json.int s.Runtime.waves);
      ("salvaged", Json.int sweep.salvaged_total);
      ("schedules_explored", Json.int sweep.explored);
      ("schedules_violated", Json.int sweep.violated);
    ]
