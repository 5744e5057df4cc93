(* bss — command-line interface to the scheduling library.

   Subcommands:
     solve     solve an instance file with a chosen variant and algorithm
     generate  emit a random instance from a workload family
     check     validate an instance file and print its statistics
     fuzz      sweep the conformance oracle over random cases
     serve     run a batch of requests through the fault-tolerant service runtime
     soak      stream a generated workload through the service runtime
     report    analyze a previous run's metrics/trace files offline

   Instance file format (see Instance.of_string):
     m 4
     setups 10 3
     job 0 7
     job 1 2 *)

open Bss_util
open Bss_instances
open Bss_core
open Bss_workloads
open Cmdliner

module Rerror = Bss_resilience.Error

let read_file path = In_channel.with_open_text path In_channel.input_all
let write_file path content = Out_channel.with_open_text path (fun oc -> output_string oc content)
let read_instance path = Instance.of_string (read_file path)

(* Typed-error boundary: malformed input surfaces as one structured JSON
   object (under --json) or a one-line message, with exit code 2 — never a
   raw OCaml backtrace. *)
let or_invalid_input ~json f =
  try f ()
  with Rerror.Error (Rerror.Invalid_input _ as e) ->
    if json then print_endline (Json.obj [ ("error", Rerror.to_json e) ])
    else prerr_endline ("bss: " ^ Rerror.to_string e);
    exit 2

(* Bounded integer flags (sizes, cadences, budgets): a value below the
   flag's floor [lo] is a usage error naming the flag, before anything
   runs. *)
let at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= %d" s lo))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

(* --json of solve, serve and soak *)
let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit one machine-readable JSON object instead of text.")

(* --trace-out, --deadline-ms and --fuel of solve, serve and soak *)
let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record telemetry and write it as a Chrome trace_event file to $(docv) (open in \
                 chrome://tracing or ui.perfetto.dev), one trace process per domain; composes \
                 with --profile.")

let deadline_ms =
  Arg.(value & opt (some int) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Wall-clock budget of each solve (of each request, in the service): when the \
                 search exceeds it, degrade down the resilience ladder instead of running on (0 \
                 degrades immediately).")

let fuel =
  Arg.(value & opt (some int) None
       & info [ "fuel" ] ~docv:"TICKS"
           ~doc:"Step budget of each solve (of each request, in the service): at most $(docv) \
                 guarded dual/bound evaluations.")

(* Variant and algorithm spellings are parsed in one place, the request
   layer's, so the CLI, batch files and wire frames accept the same set. *)
let request_conv parse print =
  let parse s =
    try Ok (parse ~line:0 s)
    with Rerror.Error (Rerror.Invalid_input { reason; _ }) -> Error (`Msg reason)
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (print v))

let variant_conv = request_conv Bss_service.Request.variant_of_string Variant.to_string

(* Workload families by name: an unknown name is a usage error that
   lists them all. *)
let family_conv =
  let parse s =
    match Generator.by_name s with
    | spec -> Ok spec
    | exception Not_found ->
      let names = String.concat ", " (List.map (fun s -> s.Generator.name) Generator.all) in
      Error (`Msg ("unknown family: " ^ s ^ " (available: " ^ names ^ ")"))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt s.Generator.name)

let profile_conv =
  let parse = function
    | "table" -> Ok `Table
    | "json" -> Ok `Json
    | "csv" -> Ok `Csv
    | s -> Error (`Msg ("unknown profile format: " ^ s ^ " (use table, json or csv)"))
  in
  Arg.conv
    ( parse,
      fun fmt f ->
        Format.pp_print_string fmt (match f with `Table -> "table" | `Json -> "json" | `Csv -> "csv") )

let algorithm_conv =
  request_conv Bss_service.Request.algorithm_of_string Bss_service.Request.algorithm_to_string

let solve_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.") in
  let variant =
    Arg.(value & opt variant_conv Variant.Nonpreemptive & info [ "variant"; "v" ] ~doc:"Problem variant: nonp, pmtn or split.")
  in
  let algorithm =
    Arg.(value & opt algorithm_conv Solver.Approx3_2 & info [ "algorithm"; "a" ] ~doc:"Algorithm: 2, 3/2 or 3/2+1/k.")
  in
  let gantt = Arg.(value & flag & info [ "gantt"; "g" ] ~doc:"Render an ASCII Gantt chart.") in
  let svg_out =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG Gantt chart to $(docv).")
  in
  let csv_out =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the schedule as CSV to $(docv).")
  in
  let profile =
    Arg.(
      value
      & opt ~vopt:(Some `Table) (some profile_conv) None
      & info [ "profile" ] ~docv:"FMT"
          ~doc:"Record algorithm-interior telemetry and print it as $(docv): table (default), json or csv.")
  in
  let error_brief (e : Rerror.t) =
    match e with
    | Rerror.Budget_exhausted { phase; _ } -> "budget_exhausted at " ^ phase
    | Rerror.Deadline_exceeded { phase; _ } -> "deadline_exceeded at " ^ phase
    | Rerror.Overloaded _ -> "overloaded"
    | Rerror.Internal _ -> "internal"
    | Rerror.Invalid_input _ -> "invalid_input"
  in
  let run file variant algorithm gantt svg_out csv_out json profile trace_out deadline_ms fuel =
    or_invalid_input ~json (fun () ->
        let inst = read_instance file in
        let robust_mode = deadline_ms <> None || fuel <> None in
        let solve_once () =
          if robust_mode then `Robust (Solver.solve_robust ?deadline_ms ?fuel ~algorithm variant inst)
          else `Plain (Solver.solve ~algorithm variant inst)
        in
        let r, obs_report =
          if profile <> None || trace_out <> None then
            let r, report = Bss_obs.Probe.with_recording solve_once in
            (r, Some report)
          else (solve_once (), None)
        in
        let schedule, certificate, guarantee, dual_calls, robust =
          match r with
          | `Plain r ->
            Checker.check_exn variant inst r.Solver.schedule;
            (r.Solver.schedule, Some r.Solver.certificate, Some r.Solver.guarantee, r.Solver.dual_calls, None)
          | `Robust r ->
            (* solve_robust already checker-verified its result *)
            (r.Solver.schedule, r.Solver.certificate, r.Solver.guarantee, r.Solver.dual_calls, Some r)
        in
        let lb = Lower_bounds.lower_bound variant inst in
        if json then begin
          let metrics = Metrics.compute inst schedule in
          let rat r = Json.str (Rat.to_string r) in
          let rat_opt = function Some r -> rat r | None -> "null" in
          let fields =
            [
              ("variant", Json.str (Variant.to_string variant));
              ("algorithm", Json.str (Solver.algorithm_name ~algorithm variant));
              ("makespan", rat metrics.Metrics.makespan);
              ("certificate", rat_opt certificate);
              ("guarantee", rat_opt guarantee);
              ("lower_bound", rat lb);
              ("ratio_vs_lower_bound", Json.float (Metrics.ratio_vs lb metrics));
              ("dual_calls", Json.int dual_calls);
              ( "metrics",
                Json.obj
                  [
                    ("total_load", rat metrics.Metrics.total_load);
                    ("total_setup_time", rat metrics.Metrics.total_setup_time);
                    ("setup_count", Json.int metrics.Metrics.setup_count);
                    ("preemption_count", Json.int metrics.Metrics.preemption_count);
                    ("machines_used", Json.int metrics.Metrics.machines_used);
                    ("idle_within_makespan", rat metrics.Metrics.idle_within_makespan);
                  ] );
            ]
          in
          let fields =
            match robust with
            | None -> fields
            | Some r ->
              fields
              @ [
                  ( "resilience",
                    Json.obj
                      [
                        ("rung", Json.str r.Solver.rung);
                        ("degraded", Json.bool (r.Solver.attempts <> []));
                        ("fuel_spent", Json.int r.Solver.fuel_spent);
                        ( "attempts",
                          Json.arr
                            (List.map
                               (fun (a : Solver.attempt) ->
                                 Json.obj
                                   [ ("rung", Json.str a.Solver.rung); ("error", Rerror.to_json a.Solver.error) ])
                               r.Solver.attempts) );
                      ] );
                ]
          in
          let fields =
            match (obs_report, profile) with
            | Some report, Some _ -> fields @ [ ("profile", Bss_obs.Render.json report) ]
            | _ -> fields
          in
          print_endline (Json.obj fields)
        end
        else begin
          Printf.printf "%s / %s\n" (Variant.to_string variant) (Solver.algorithm_name ~algorithm variant);
          Printf.printf "makespan    %s\n" (Rat.to_string (Schedule.makespan schedule));
          (match (certificate, guarantee) with
          | Some c, Some g ->
            Printf.printf "certificate %s (makespan <= %s * OPT)\n" (Rat.to_string c) (Rat.to_string g)
          | _ -> Printf.printf "certificate none (no certified rung completed)\n");
          Printf.printf "lower bound %s\n" (Rat.to_string lb);
          Printf.printf "dual calls  %d\n" dual_calls;
          (match robust with
          | None -> ()
          | Some r ->
            Printf.printf "rung        %s\n" r.Solver.rung;
            List.iter
              (fun (a : Solver.attempt) ->
                Printf.printf "fallback    %s failed: %s\n" a.Solver.rung (error_brief a.Solver.error))
              r.Solver.attempts);
          (match (obs_report, profile) with
          | Some report, Some fmt ->
            print_string
              (match fmt with
              | `Table -> Bss_obs.Render.table report
              | `Json -> Bss_obs.Render.json report ^ "\n"
              | `Csv -> Bss_obs.Render.csv report)
          | _ -> ())
        end;
        if gantt then print_endline (Render.gantt ~width:76 inst schedule);
        Option.iter (fun path -> write_file path (Render.svg inst schedule)) svg_out;
        Option.iter (fun path -> write_file path (Render.csv inst schedule)) csv_out;
        match (trace_out, obs_report) with
        | Some path, Some report -> write_file path (Bss_obs.Render.chrome_trace report)
        | _ -> ())
  in
  Cmd.v (Cmd.info "solve" ~doc:"Solve an instance file.")
    Term.(
      const run $ file $ variant $ algorithm $ gantt $ svg_out $ csv_out $ json $ profile $ trace_out
      $ deadline_ms $ fuel)

let generate_cmd =
  let family =
    let doc =
      "Workload family, one of: "
      ^ String.concat "; "
          (List.map (fun s -> Printf.sprintf "$(b,%s): %s" s.Generator.name s.Generator.description) Generator.all)
      ^ "."
    in
    Arg.(value & opt family_conv Generator.uniform & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)
  in
  let m = Arg.(value & opt (at_least 1) 8 & info [ "machines"; "m" ] ~doc:"Machine count.") in
  let n = Arg.(value & opt (at_least 1) 64 & info [ "jobs"; "n" ] ~doc:"Approximate job count.") in
  let seed = Arg.(value & opt int 0 & info [ "seed"; "s" ] ~doc:"PRNG seed.") in
  let run family m n seed =
    or_invalid_input ~json:false (fun () ->
        print_string (Instance.to_string (family.Generator.generate (Prng.create seed) ~m ~n)))
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a random instance.") Term.(const run $ family $ m $ n $ seed)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.") in
  let run file =
    or_invalid_input ~json:false (fun () ->
        let inst = read_instance file in
        print_endline (Instance.describe inst);
        List.iter
          (fun v ->
            Printf.printf "%-15s T_min = %s\n" (Variant.to_string v)
              (Rat.to_string (Lower_bounds.t_min v inst)))
          Variant.all)
  in
  Cmd.v (Cmd.info "check" ~doc:"Validate an instance file and print statistics.") Term.(const run $ file)

let fuzz_cmd =
  let open Bss_oracle in
  let seed = Arg.(value & opt int 0 & info [ "seed"; "s" ] ~doc:"Master PRNG seed.") in
  let cases = Arg.(value & opt (at_least 0) 100 & info [ "cases"; "n" ] ~doc:"Number of cases to sweep.") in
  let family =
    Arg.(value & opt_all family_conv [] & info [ "family"; "f" ] ~docv:"FAMILY"
           ~doc:"Restrict to a workload family (repeatable; default all; see $(b,bss generate --help)).")
  in
  let variant =
    Arg.(value & opt_all variant_conv [] & info [ "variant"; "v" ] ~doc:"Restrict to a problem variant (repeatable; default all).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"CASE"
          ~doc:
            "Re-run one case id (family:index) verbosely instead of sweeping; @FILE replays every id \
             recorded in a corpus file.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Sweep on one domain recording telemetry; print per-family counter sums instead of the stats table.")
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Chaos sweep: inject deterministic seeded faults into the algorithm interiors and assert \
             the degradation ladder contains every one of them (single domain).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:
            "Append the replay ids of failing, crashing or chaos-degraded cases to $(docv) for later \
             --replay @$(docv).")
  in
  let read_corpus path =
    String.split_on_char '\n' (read_file path)
    |> List.map String.trim
    |> List.filter (fun line -> line <> "" && line.[0] <> '#')
  in
  (* merge + atomic replace (temp file + rename, the journal's helper): a
     crash mid-write can never truncate or corrupt an existing corpus *)
  let append_corpus path ids =
    let existing = if Sys.file_exists path then read_corpus path else [] in
    let merged = List.sort_uniq compare (existing @ ids) in
    Atomic_file.write path (String.concat "" (List.map (fun id -> id ^ "\n") merged));
    Printf.printf "corpus: recorded %d id%s in %s\n" (List.length ids)
      (if List.length ids = 1 then "" else "s")
      path
  in
  let run seed cases family variant replay profile chaos corpus =
    let families = match family with [] -> Generator.all | specs -> specs in
    let variants = match variant with [] -> Variant.all | vs -> vs in
    let config = { Harness.default_config with Harness.master = seed; cases; families; variants } in
    let parse_case id =
      try Case.of_id ~master:seed id
      with Invalid_argument msg ->
        prerr_endline msg;
        exit 1
    in
    match replay with
    | Some spec when String.length spec > 1 && spec.[0] = '@' ->
      (* corpus round-trip: replay every recorded id *)
      let path = String.sub spec 1 (String.length spec - 1) in
      let ids = read_corpus path in
      Printf.printf "replaying %d corpus case%s from %s\n" (List.length ids)
        (if List.length ids = 1 then "" else "s")
        path;
      let all_ok =
        List.fold_left
          (fun acc id ->
            let txt, ok = Harness.replay config (parse_case id) in
            print_string txt;
            acc && ok)
          true ids
      in
      if not all_ok then exit 1
    | Some id ->
      let txt, ok = Harness.replay config (parse_case id) in
      print_string txt;
      if not ok then exit 1
    | None when chaos <> None ->
      (* sequential, each case's plan armed on this domain (Harness.chaos_sweep) *)
      let chaos = Option.get chaos in
      Printf.printf "fuzz --chaos: seed=%d chaos=%d cases=%d families=%s variants=%s\n" seed chaos cases
        (String.concat "," (List.map (fun s -> s.Generator.name) families))
        (String.concat "," (List.map Variant.to_string variants));
      let r = Harness.chaos_sweep config ~chaos in
      print_string (Harness.render_chaos r);
      Option.iter
        (fun path ->
          append_corpus path
            (List.map Case.id r.Harness.degraded @ List.map (fun (c, _) -> Case.id c) r.Harness.chaos_crashes))
        corpus;
      if r.Harness.chaos_crashes <> [] || r.Harness.chaos_infeasible <> [] then exit 1
    | None when profile ->
      (* The sink is domain-safe (per-domain collectors, deterministic
         merge), but attribution here is per family: each case gets its
         own recording, merged into its family's report below, so the
         sweep iterates the cases itself instead of fanning out. *)
      let config = { config with Harness.domains = Some 1 } in
      Printf.printf "fuzz --profile: seed=%d cases=%d families=%s variants=%s\n" seed cases
        (String.concat "," (List.map (fun s -> s.Generator.name) families))
        (String.concat "," (List.map Variant.to_string variants));
      let by_family = Hashtbl.create 8 in
      let failed = ref 0 in
      for i = 0 to cases - 1 do
        let case = Harness.case_of_index config i in
        let outcomes, report =
          Bss_obs.Probe.with_recording (fun () -> Harness.run_case config case)
        in
        List.iter (function _, Property.Fail _ -> incr failed | _ -> ()) outcomes;
        let fam = case.Case.family in
        let prev = Option.value ~default:Bss_obs.Report.empty (Hashtbl.find_opt by_family fam) in
        Hashtbl.replace by_family fam (Bss_obs.Report.merge prev report)
      done;
      let fams = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_family []) in
      let rows =
        List.concat_map
          (fun fam ->
            let report = Hashtbl.find by_family fam in
            List.map
              (fun (name, v) -> [ fam; name; string_of_int v ])
              report.Bss_obs.Report.counters)
          fams
      in
      Table.print ~header:[ "family"; "counter"; "total" ] ~align:[ Table.Left; Table.Left; Table.Right ] rows;
      Printf.printf "profile: %d cases, %d property failures\n" cases !failed;
      if !failed > 0 then exit 1
    | None ->
      Printf.printf "fuzz: seed=%d cases=%d families=%s variants=%s\n" seed cases
        (String.concat "," (List.map (fun s -> s.Generator.name) families))
        (String.concat "," (List.map Variant.to_string variants));
      let report = Harness.run config in
      print_string (Harness.render report);
      Option.iter
        (fun path ->
          append_corpus path
            (List.map (fun (f : Harness.failure) -> Case.id f.Harness.case) report.Harness.failures
            @ List.map (fun (c : Harness.crash) -> Case.id c.Harness.case) report.Harness.crashes))
        corpus;
      if report.Harness.failures <> [] || report.Harness.crashes <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Sweep the conformance oracle over deterministic random cases.")
    Term.(const run $ seed $ cases $ family $ variant $ replay $ profile $ chaos $ corpus)

(* ---------------- the batch-service runtime ---------------- *)

module Service = Bss_service
module Net = Bss_net

let load_slo path =
  match Bss_obs.Slo.of_string (read_file path) with
  | Ok spec -> spec
  | Error msg ->
    prerr_endline (Printf.sprintf "bss: --slo %s: %s" path msg);
    exit 2

(* --seed and --slo of serve, soak and netsoak; --resume of serve and soak *)
let seed =
  Arg.(value & opt int 0
       & info [ "seed"; "s" ] ~docv:"SEED"
           ~doc:"Seed of the generated soak stream (bss soak and bss netsoak draw the same stream \
                 from it) and, in the service runtime, of the backoff jitter.")

let slo =
  let file =
    Arg.(value & opt (some file) None
         & info [ "slo" ] ~docv:"FILE"
             ~doc:"Evaluate the bss-slo/1 objectives in $(docv) and exit nonzero when the final \
                   verdict fails. The service runtime judges each window's burn rates under \
                   --window-every and the whole run in its summary; netsoak judges the answered \
                   stream, with latency histograms rebuilt from the durations in result frames.")
  in
  Term.(const (Option.map load_slo) $ file)

let resume =
  Arg.(value & flag
       & info [ "resume" ] ~doc:"Restore completions from the journal and re-solve only the rest.")

(* --journal of serve and soak *)
let journal =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Checkpoint journal path, which --resume reads back (kill-and-resume). Default with \
                 $(b,bss serve --batch): $(b,BATCH).journal; otherwise the journal is off unless \
                 given.")

(* --connect, --connect-timeout-ms and --idle-timeout-ms of netsoak and top *)
let connect =
  Arg.(required & opt (some string) None
       & info [ "connect" ] ~docv:"SOCKET"
           ~doc:"The serving socket path (bss serve --listen; bss top needs the server to run \
                 with --window-every).")

let connect_timeout_ms =
  Arg.(value & opt int Net.Client.default_config.Net.Client.connect_timeout_ms
       & info [ "connect-timeout-ms" ] ~docv:"MS"
           ~doc:"Budget to reach the socket, per connection round, retrying inside it for servers \
                 still starting or restarting.")

let idle_timeout_ms =
  Arg.(value & opt int Net.Client.default_config.Net.Client.idle_timeout_ms
       & info [ "idle-timeout-ms" ] ~docv:"MS"
           ~doc:"Give up (the round, for netsoak) when the server sends nothing this long.")

(* shared flags of `bss serve` and `bss soak` *)
let service_config_term =
  let open Service.Runtime in
  let queue =
    Arg.(value & opt (at_least 1) default_config.queue_capacity
         & info [ "queue" ] ~docv:"N" ~doc:"Bounded work-queue capacity (admission beyond it is rejected).")
  in
  let burst =
    Arg.(value & opt (some (at_least 1)) None
         & info [ "burst" ] ~docv:"N"
             ~doc:"Admissions attempted per dispatch wave (default: the queue capacity). A burst above \
                   the capacity exercises backpressure: the excess is rejected with a typed error.")
  in
  let workers =
    Arg.(value & opt (some (at_least 1)) None
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains (default: the runtime's recommendation).")
  in
  let retries =
    Arg.(value & opt (at_least 0) default_config.retries
         & info [ "retries" ] ~docv:"N" ~doc:"Retry attempts per request beyond the first, with exponential backoff.")
  in
  let breaker_k =
    Arg.(value & opt (at_least 1) default_config.breaker_k
         & info [ "breaker-k" ] ~docv:"K" ~doc:"Consecutive ladder failures that trip a variant's circuit breaker.")
  in
  let breaker_cooldown =
    Arg.(value & opt (at_least 1) default_config.breaker_cooldown
         & info [ "breaker-cooldown" ] ~docv:"N"
             ~doc:"Requests routed to the certified 2-approx rung before a half-open probe.")
  in
  let checkpoint_every =
    Arg.(value & opt (at_least 1) default_config.checkpoint_every
         & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Journal flush cadence, in completed requests.")
  in
  let chaos =
    Arg.(value & opt (some int) None
         & info [ "chaos" ] ~docv:"SEED"
             ~doc:"Inject deterministic seeded faults into the service layer (admission, journal flush, \
                   breaker probe, solve envelope) and the algorithm interiors.")
  in
  let window_every =
    Arg.(value & opt (some (at_least 1)) None
         & info [ "window-every" ] ~docv:"N"
             ~doc:"Arm the live telemetry plane (schema bss-watch/1): close one time-series window \
                   every $(docv) processed requests — exact counter/histogram deltas, breaker-state \
                   gauges, EWMA anomaly alerts and, under --slo, per-window burn rates. `bss soak` \
                   and `bss serve --batch` print each closed window to stdout as one JSON line (`bss \
                   report --metrics` reads them back); under `bss serve --listen` the windows feed \
                   the stats/watch wire frames (`bss top`).")
  in
  let build queue burst workers retries breaker_k breaker_cooldown deadline_ms fuel checkpoint_every chaos seed window_every slo =
    {
      default_config with
      queue_capacity = queue;
      burst = Option.value burst ~default:queue;
      workers;
      retries;
      breaker_k;
      breaker_cooldown;
      deadline_ms;
      fuel;
      checkpoint_every;
      chaos;
      seed;
      window_every;
      slo;
    }
  in
  Term.(
    const build $ queue $ burst $ workers $ retries $ breaker_k $ breaker_cooldown $ deadline_ms $ fuel
    $ checkpoint_every $ chaos $ seed $ window_every $ slo)

(* SIGINT/SIGTERM request a graceful drain: stop admitting, finish the
   in-flight wave, flush the journal, exit 3. *)
let install_drain_signals () =
  let stop = ref false in
  let handler _ = stop := true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle handler) with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle handler) with Invalid_argument _ -> ());
  fun () -> !stop

let service_exit (s : Service.Runtime.summary) ~strict =
  if s.Service.Runtime.interrupted then exit 3;
  if s.Service.Runtime.dropped > 0 || s.Service.Runtime.journal_dirty > 0 then exit 1;
  (* the SLO gate is hard regardless of strictness: a soak that meets
     its objectives passes even with rejections budgeted for *)
  (match s.Service.Runtime.slo_verdict with
  | Some v when not v.Bss_obs.Slo.ok -> exit 1
  | _ -> ());
  if strict && (s.Service.Runtime.rejected > 0 || s.Service.Runtime.aborted > 0) then exit 1

let service_profile_term =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Record service telemetry (queue depth, retries, breaker transitions, latency \
           histograms) and print it after the summary. Collection is per-domain and the merge \
           is deterministic, so the full worker pool keeps running and counters are \
           reproducible across worker counts.")

(* Each domain records into its own DLS collector and the recording
   merges them deterministically on exit, so profiling no longer pins
   the worker pool to one domain. [--trace-out] implies request-scoped
   tracing (reservoir 8) so the file carries the sampled span trees
   alongside the aggregated flamegraph; [traces] reads them off the
   run's result. *)
let with_service_profile ~profile ~trace_out ~json ~traces config run =
  let config =
    if trace_out <> None then { config with Service.Runtime.trace_sample = Some 8 } else config
  in
  if profile || trace_out <> None then begin
    let result, report = Bss_obs.Probe.with_recording (fun () -> run config) in
    Option.iter
      (fun path -> write_file path (Bss_obs.Render.chrome_trace ~traces:(traces result) report))
      trace_out;
    ( result,
      if profile then
        Some (if json then Bss_obs.Render.json report ^ "\n" else Bss_obs.Render.table report)
      else None )
  end
  else (run config, None)

let runtime_traces (s : Service.Runtime.summary) = s.Service.Runtime.traces

(* the window sink of `soak` and `serve --batch`: one bss-watch/1 line per
   closed window *)
let print_window w = print_endline (Bss_obs.Timeseries.window_json w)

(* The deterministic slice of a socket-server run: connection/frame/shed
   counters, completion totals, rung histogram and journal state — no
   latencies, waves or queue peaks, which depend on how the kernel
   batches reads. *)
let render_net_text (s : Net.Server.summary) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "net: conns accepted=%d refused=%d evicted=%d closed=%d\n" s.Net.Server.accepted
       s.Net.Server.refused s.Net.Server.evicted s.Net.Server.closed);
  Buffer.add_string b
    (Printf.sprintf "net: frames read=%d malformed=%d written=%d dropped=%d answers=%d dedup=%d\n"
       s.Net.Server.frames_read s.Net.Server.frames_malformed s.Net.Server.frames_written
       s.Net.Server.frames_dropped s.Net.Server.answers s.Net.Server.dedup_hits);
  if s.Net.Server.shed_total > 0 then begin
    Buffer.add_string b (Printf.sprintf "net: shed total=%d" s.Net.Server.shed_total);
    List.iter
      (fun (tenant, n) -> Buffer.add_string b (Printf.sprintf " %s=%d" tenant n))
      s.Net.Server.shed;
    Buffer.add_char b '\n'
  end;
  let sv = s.Net.Server.service in
  Buffer.add_string b
    (Printf.sprintf "service: completed=%d checkpointed=%d rejected=%d aborted=%d retries=%d\n"
       sv.Service.Runtime.completed sv.Service.Runtime.checkpointed sv.Service.Runtime.rejected
       sv.Service.Runtime.aborted sv.Service.Runtime.retries);
  if sv.Service.Runtime.rungs <> [] then begin
    Buffer.add_string b "rungs:";
    List.iter
      (fun (rung, n) -> Buffer.add_string b (Printf.sprintf " %s=%d" rung n))
      sv.Service.Runtime.rungs;
    Buffer.add_char b '\n'
  end;
  Buffer.add_string b
    (Printf.sprintf "journal: rotations=%d dirty=%d\n" s.Net.Server.rotations
       sv.Service.Runtime.journal_dirty);
  Buffer.add_string b (Printf.sprintf "drain: %s\n" s.Net.Server.drain_reason);
  Buffer.contents b

let render_net_json (s : Net.Server.summary) =
  let module Json = Bss_util.Json in
  Json.obj
    [
      ("schema", Json.str "bss-net/1");
      ( "net",
        Json.obj
          [
            ("accepted", Json.int s.Net.Server.accepted);
            ("refused", Json.int s.Net.Server.refused);
            ("evicted", Json.int s.Net.Server.evicted);
            ("closed", Json.int s.Net.Server.closed);
            ("frames_read", Json.int s.Net.Server.frames_read);
            ("frames_malformed", Json.int s.Net.Server.frames_malformed);
            ("frames_written", Json.int s.Net.Server.frames_written);
            ("frames_dropped", Json.int s.Net.Server.frames_dropped);
            ("answers", Json.int s.Net.Server.answers);
            ("dedup_hits", Json.int s.Net.Server.dedup_hits);
            ("shed_total", Json.int s.Net.Server.shed_total);
            ( "shed",
              Json.obj (List.map (fun (t, n) -> (t, Json.int n)) s.Net.Server.shed) );
            ("rotations", Json.int s.Net.Server.rotations);
            ("drain", Json.str s.Net.Server.drain_reason);
          ] );
      ("service", Service.Runtime.render_json s.Net.Server.service);
    ]

let serve_cmd =
  let batch =
    Arg.(value & opt (some file) None
         & info [ "batch" ] ~docv:"FILE" ~doc:"Batch request file: one request per line (see docs/service.md).")
  in
  let listen =
    Arg.(value & opt (some string) None
         & info [ "listen" ] ~docv:"SOCKET"
             ~doc:"Serve the bss-net/1 line protocol on a Unix-domain socket at $(docv) instead of \
                   running a batch file. Per-tenant token-bucket quotas shed overload before the \
                   bounded queue; SIGINT/SIGTERM drain gracefully (stop accepting, finish in-flight \
                   requests, notify clients, flush the journal). Exactly one of $(b,--batch) or \
                   $(b,--listen) is required.")
  in
  let rotate_every =
    Arg.(value & opt (some (at_least 1)) None
         & info [ "rotate-every" ] ~docv:"N"
             ~doc:"Rotate the journal after every $(docv) newly flushed completions: the active file \
                   is sealed into a numbered segment atomically between flushes, and --resume reads \
                   segments plus the active tail (zero-downtime rotation).")
  in
  let tenant_burst =
    Arg.(value & opt (some (at_least 1)) None
         & info [ "tenant-burst" ] ~docv:"N"
             ~doc:"Arm per-tenant admission quotas (--listen only): each tenant's token bucket \
                   starts full at $(docv) tokens and an admission takes one; empty buckets shed \
                   with a typed overload answer.")
  in
  let tenant_rate =
    Arg.(value & opt (at_least 0) 0
         & info [ "tenant-rate" ] ~docv:"N"
             ~doc:"Tokens refilled per refill step, clamped at the burst (0 = no refill: a hard \
                   per-run budget per tenant).")
  in
  let tenant_refill_every =
    Arg.(value & opt (at_least 1) 1
         & info [ "tenant-refill-every" ] ~docv:"N"
             ~doc:"Refill step cadence, counted in admission attempts across all tenants — \
                   deterministic, unlike wall-clock refill.")
  in
  let drain_after =
    Arg.(value & opt (some (at_least 0)) None
         & info [ "drain-after" ] ~docv:"N"
             ~doc:"Drain after $(docv) answers have been queued to clients — deterministic \
                   shutdown for scripted runs (--listen only).")
  in
  let read_timeout_ms =
    Arg.(value & opt (at_least 0) Net.Server.default_read_timeout_ms
         & info [ "read-timeout-ms" ] ~docv:"MS"
             ~doc:"Evict a connection whose partial frame has stalled this long (0 = never).")
  in
  let write_timeout_ms =
    Arg.(value & opt (at_least 0) Net.Server.default_write_timeout_ms
         & info [ "write-timeout-ms" ] ~docv:"MS"
             ~doc:"Evict a connection whose queued responses have stalled this long (0 = never).")
  in
  let run_batch config batch journal resume json profile trace_out =
    or_invalid_input ~json (fun () ->
        let requests = Service.Request.of_batch_string (read_file batch) in
        let journal_path = Option.value journal ~default:(batch ^ ".journal") in
        let journal =
          if resume then Service.Journal.load journal_path else Service.Journal.fresh journal_path
        in
        let should_stop = install_drain_signals () in
        if not json then
          Printf.printf "serve: batch=%s requests=%d queue=%d workers=%s resume=%b\n" batch
            (List.length requests) config.Service.Runtime.queue_capacity
            (Option.fold ~none:"auto" ~some:string_of_int config.Service.Runtime.workers)
            resume;
        let summary, report =
          with_service_profile ~profile ~trace_out ~json ~traces:runtime_traces config (fun config ->
              Service.Runtime.run ~journal ~should_stop ~on_window:print_window config requests)
        in
        if json then print_endline (Service.Runtime.render_json summary)
        else print_string (Service.Runtime.render_text summary);
        Option.iter print_string report;
        service_exit summary ~strict:true)
  in
  let run_listen config listen journal resume rotate_every quota drain_after read_timeout_ms
      write_timeout_ms json profile trace_out =
    or_invalid_input ~json (fun () ->
        (* Signals first: a supervisor may SIGTERM a server that is still
           loading its journal, and that must already mean drain. *)
        let should_stop = install_drain_signals () in
        let journal =
          Option.map
            (fun path ->
              if resume then Service.Journal.load ?rotate_every path
              else Service.Journal.fresh ?rotate_every path)
            journal
        in
        let log line = if not json then print_endline line in
        let summary, report =
          with_service_profile ~profile ~trace_out ~json
            ~traces:(fun (s : Net.Server.summary) -> runtime_traces s.Net.Server.service)
            config
            (fun service ->
              Net.Server.serve ?journal ~should_stop ~log
                {
                  Net.Server.listen_path = listen;
                  service;
                  quota;
                  read_timeout_ms;
                  write_timeout_ms;
                  drain_after;
                  max_frame_bytes = Net.Server.default_max_frame_bytes;
                })
        in
        if json then print_endline (render_net_json summary)
        else print_string (render_net_text summary);
        Option.iter print_string report;
        (match summary.Net.Server.service.Service.Runtime.slo_verdict with
        | Some v when not v.Bss_obs.Slo.ok -> exit 1
        | _ -> ());
        if summary.Net.Server.service.Service.Runtime.journal_dirty > 0 then exit 1)
  in
  let run config batch listen journal resume rotate_every tenant_burst tenant_rate
      tenant_refill_every drain_after read_timeout_ms write_timeout_ms json profile trace_out =
    match (batch, listen) with
    | Some batch, None -> run_batch config batch journal resume json profile trace_out
    | None, Some listen ->
      let quota =
        Option.map
          (fun burst ->
            { Net.Quota.rate = tenant_rate; burst; refill_every = tenant_refill_every })
          tenant_burst
      in
      run_listen config listen journal resume rotate_every quota drain_after read_timeout_ms
        write_timeout_ms json profile trace_out
    | _ ->
      prerr_endline "bss serve: exactly one of --batch or --listen is required";
      exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a batch of solve requests through the fault-tolerant service runtime, or serve \
             the bss-net/1 socket protocol with --listen.")
    Term.(
      const run $ service_config_term $ batch $ listen $ journal $ resume $ rotate_every
      $ tenant_burst $ tenant_rate $ tenant_refill_every $ drain_after $ read_timeout_ms
      $ write_timeout_ms $ json $ service_profile_term $ trace_out)

let soak_cmd =
  let requests =
    Arg.(value & opt (at_least 0) 200 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Generated requests to stream.")
  in
  let run config requests journal resume json profile trace_out =
    let stream = Service.Request.soak_stream ~seed:config.Service.Runtime.seed ~requests () in
    let journal =
      Option.map
        (fun path -> if resume then Service.Journal.load path else Service.Journal.fresh path)
        journal
    in
    let should_stop = install_drain_signals () in
    if not json then
      Printf.printf "soak: seed=%d requests=%d queue=%d burst=%d chaos=%s\n"
        config.Service.Runtime.seed requests config.Service.Runtime.queue_capacity
        config.Service.Runtime.burst
        (match config.Service.Runtime.chaos with None -> "off" | Some c -> string_of_int c);
    let summary, report =
      with_service_profile ~profile ~trace_out ~json ~traces:runtime_traces config (fun config ->
          Service.Runtime.run ?journal ~should_stop ~on_window:print_window config stream)
    in
    if json then print_endline (Service.Runtime.render_json summary)
    else print_string (Service.Runtime.render_text summary);
    Option.iter print_string report;
    service_exit summary ~strict:false
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Stream a generated workload through the service runtime, optionally under chaos.")
    Term.(
      const run $ service_config_term $ requests $ journal $ resume $ json $ service_profile_term
      $ trace_out)

let netsoak_cmd =
  let requests =
    Arg.(value & opt (at_least 0) 50 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Generated requests to stream.")
  in
  let tenants =
    Arg.(value & opt string ""
         & info [ "tenants" ] ~docv:"A,B,C"
             ~doc:"Round-robin the stream across these tenant names (default: the default tenant). \
                   Tenancy keys the server's admission quotas only — realized instances are unchanged.")
  in
  let window =
    Arg.(value & opt (at_least 1) Net.Client.default_config.Net.Client.window
         & info [ "window" ] ~docv:"N" ~doc:"Max in-flight requests per connection.")
  in
  let rounds =
    Arg.(value & opt (at_least 1) 1
         & info [ "rounds" ] ~docv:"N"
             ~doc:"Max connection rounds; each reconnect re-sends only unanswered ids, so a \
                   killed-and-resumed server must answer every id exactly once across rounds.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the per-request result table (id, status, rung, makespan; stream order) \
                   to $(docv) — the artifact CI joins across kill-and-resume for bit-identity.")
  in
  let frame =
    Arg.(value & opt (some string) None
         & info [ "frame" ] ~docv:"RAW"
             ~doc:"Send this single raw line instead of a stream, print the first reply line, and \
                   exit — the protocol probe for scripted tests.")
  in
  let run connect requests seed tenants window rounds connect_timeout_ms idle_timeout_ms slo out
      frame =
    match frame with
    | Some raw -> (
      match Net.Client.send_raw ~path:connect ~connect_timeout_ms ~idle_timeout_ms raw with
      | Ok line -> print_endline line
      | Error msg ->
        prerr_endline ("bss netsoak: " ^ msg);
        exit 1)
    | None ->
      let tenants = List.filter (fun t -> t <> "") (String.split_on_char ',' tenants) in
      let stream = Service.Request.soak_stream ~tenants ~seed ~requests () in
      let summary =
        Net.Client.soak
          {
            Net.Client.connect_path = connect;
            window;
            rounds;
            connect_timeout_ms;
            idle_timeout_ms;
            slo;
          }
          stream
      in
      Option.iter (fun path -> write_file path (Net.Client.render_rows summary)) out;
      print_string (Net.Client.render_summary summary);
      if not (Net.Client.ok summary) then exit 1
  in
  Cmd.v
    (Cmd.info "netsoak"
       ~doc:"Drive a seeded request stream at a bss serve --listen socket, reconnecting until \
             every id is answered exactly once, with an optional SLO gate over the answers.")
    Term.(
      const run $ connect $ requests $ seed $ tenants $ window $ rounds $ connect_timeout_ms
      $ idle_timeout_ms $ slo $ out $ frame)

let top_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Re-emit the raw bss-watch/1 window lines verbatim instead of rendering the \
                   dashboard — the machine-readable stream CI parses.")
  in
  let windows =
    Arg.(value & opt (some int) None
         & info [ "windows" ] ~docv:"N"
             ~doc:"Stop after $(docv) windows (default: stream until the server's final window or \
                   shutdown).")
  in
  let run connect json windows connect_timeout_ms idle_timeout_ms =
    let clear = (not json) && (try Unix.isatty Unix.stdout with _ -> false) in
    match
      Net.Top.run
        {
          Net.Top.connect_path = connect;
          connect_timeout_ms;
          idle_timeout_ms;
          max_windows = windows;
          json;
          clear;
        }
    with
    | Ok s ->
      if not json then
        Printf.printf "top: windows=%d alerts=%d final=%b\n" s.Net.Top.windows s.Net.Top.alerts
          s.Net.Top.final_seen
    | Error msg ->
      prerr_endline ("bss top: " ^ msg);
      exit 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Watch a serving socket's live telemetry window stream as a refreshing dashboard \
             (queue, per-variant latency quantiles, breaker states, anomaly alerts), or as raw \
             bss-watch/1 JSON lines with --json.")
    Term.(const run $ connect $ json $ windows $ connect_timeout_ms $ idle_timeout_ms)

(* ---------------- offline run analysis ---------------- *)

let report_cmd =
  let module Offline = Bss_obs.Offline in
  let metrics =
    Arg.(value & opt (some file) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"A captured metrics stream: --window-every window lines (schema bss-watch/1, \
                   folded into cumulative records) and/or a --json run summary (schema \
                   bss-metrics/1); interleaved human text is skipped, unknown schemas are rejected.")
  in
  let against =
    Arg.(value & opt (some file) None
         & info [ "against" ] ~docv:"FILE"
             ~doc:"A second metrics stream to diff counters against (baseline/current/delta).")
  in
  let trace =
    Arg.(value & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"A --trace-out Chrome trace file: list the slowest request traces with their \
                   critical-path breakdown (queue vs solve vs retry vs journal).")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K" ~doc:"Slowest traces to list (default 5).")
  in
  let run metrics against trace top =
    if metrics = None && trace = None then begin
      prerr_endline "bss report: nothing to analyze (pass --metrics and/or --trace)";
      exit 2
    end;
    let load_points path =
      match Offline.parse_metrics (read_file path) with
      | Ok points -> points
      | Error msg ->
        prerr_endline (Printf.sprintf "bss report: %s: %s" path msg);
        exit 2
    in
    Option.iter
      (fun path ->
        let points = load_points path in
        let current = Offline.last points in
        Printf.printf "metrics: %s (%d record%s)\n" path (List.length points)
          (if List.length points = 1 then "" else "s");
        let baseline = Option.map (fun p -> Offline.last (load_points p)) against in
        print_string (Offline.counter_table ?baseline current);
        if current.Offline.gauges <> [] then print_string (Offline.gauge_table current);
        print_string (Offline.percentile_table current))
      metrics;
    Option.iter
      (fun path ->
        match Offline.parse_traces (read_file path) with
        | Error msg ->
          prerr_endline (Printf.sprintf "bss report: %s: %s" path msg);
          exit 2
        | Ok rows ->
          Printf.printf "traces: %d in %s, slowest %d:\n" (List.length rows) path
            (min top (List.length rows));
          print_string (Offline.trace_table (Offline.slowest ~k:top rows)))
      trace
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Analyze a previous run's metrics JSONL and trace files offline: percentile tables, \
             counter diffs between runs, and the slowest request traces broken down by phase.")
    Term.(const run $ metrics $ against $ trace $ top)

(* ---------------- systematic fault-schedule exploration ---------------- *)

let torture_cmd =
  let module Harness = Bss_sim.Harness in
  let requests =
    Arg.(value & opt (at_least 0) 12
         & info [ "n"; "requests" ] ~docv:"N"
             ~doc:"Smoke-workload size: $(docv) seeded soak requests per schedule run.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let depth =
    Arg.(value & opt (at_least 1) 1
         & info [ "depth" ] ~docv:"D"
             ~doc:"1 explores every single-fault schedule exhaustively; 2 adds a bounded pairwise \
                   frontier (see --max-pairs).")
  in
  let sites =
    Arg.(value & opt string "all"
         & info [ "sites" ] ~docv:"PREFIXES"
             ~doc:"Comma-separated site-name prefixes to enumerate faults at (e.g. \
                   service.,journal.), or 'all' for every site the census finds.")
  in
  let max_pairs =
    Arg.(value & opt int 256
         & info [ "max-pairs" ] ~docv:"K"
             ~doc:"Bound on depth-2 pairwise schedules, spread evenly across the whole space; 0 removes \
                   the bound. Single-fault schedules are never bounded.")
  in
  let dir =
    Arg.(value & opt string "."
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Scratch directory for the journal chain (cleaned before every schedule run).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write the bss-torture/1 reproducer on violation (default \
                   DIR/torture-reproducer.json); with --replay, where to write the replayed report.")
  in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Skip the sweep; re-run the bss-torture/1 reproducer at $(docv) and report what \
                   this replay observes. Exit 1 when the violation reproduces.")
  in
  let break_invariant =
    Arg.(value & opt (some string) None
         & info [ "break-invariant" ] ~docv:"PREFIX"
             ~doc:"Test hook: treat the first fired fault whose site matches $(docv) as a \
                   synthetic exactly-once violation — demonstrates detection, shrinking and \
                   replay end-to-end on a healthy build.")
  in
  let census_only =
    Arg.(value & flag
         & info [ "census" ]
             ~doc:"Print the fault-opportunity census (site -> hits of a fault-free run) and exit.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the sweep summary as a bss-metrics/1 JSON object (readable \
                                 by bss report) instead of text.")
  in
  let run requests seed depth sites max_pairs dir out replay break_invariant census_only json =
    let cfg =
      {
        Harness.default_config with
        requests;
        seed;
        depth;
        sites = String.split_on_char ',' sites |> List.map String.trim
                |> List.filter (fun s -> s <> "");
        max_pairs;
        dir;
        break_invariant;
      }
    in
    match replay with
    | Some path -> (
      match Harness.reproducer_of_string (read_file path) with
      | Error msg ->
        prerr_endline (Printf.sprintf "bss torture: %s: %s" path msg);
        exit 2
      | Ok r ->
        let replayed = Harness.replay ~dir r in
        print_string (Harness.render_reproducer replayed);
        Option.iter
          (fun p ->
            write_file p (Harness.reproducer_json replayed ^ "\n");
            Printf.printf "wrote %s\n" p)
          out;
        if replayed.Harness.r_violations <> [] then exit 1)
    | None ->
      if census_only then print_string (Harness.render_census (Harness.census cfg))
      else begin
        let sweep = Harness.explore ~log:prerr_endline cfg in
        if json then print_endline (Harness.summary_json sweep)
        else print_string (Harness.render_sweep sweep);
        (match sweep.Harness.reproducer with
        | None -> ()
        | Some r ->
          let path = Option.value out ~default:(Filename.concat dir "torture-reproducer.json") in
          write_file path (Harness.reproducer_json r ^ "\n");
          Printf.printf "wrote %s\n" path);
        if sweep.Harness.violated > 0 then exit 1
      end
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:"Systematically explore fault schedules against the batch-service loop: census every \
             fault opportunity, run every single-fault schedule (and a bounded pairwise frontier) \
             with crash-resume, check the five crash-consistency invariants after each, and shrink \
             any violation to a minimal replayable reproducer.")
    Term.(
      const run $ requests $ seed $ depth $ sites $ max_pairs $ dir $ out $ replay
      $ break_invariant $ census_only $ json)

(* ---------------- the benchmark regression gate ---------------- *)

let bench_cmd =
  let module Regress = Bss_bench.Regress in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Scaling cases stop at n=1000 and fewer timed runs per case (CI-sized, well under two minutes).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the capture as schema-versioned JSON to $(docv).")
  in
  let against =
    Arg.(value & opt (some file) None
         & info [ "against" ] ~docv:"BASELINE"
             ~doc:"Compare this capture to $(docv): exit nonzero when any scaling/* case regresses \
                   beyond the tolerance or any deterministic counter drifts.")
  in
  let check =
    Arg.(value & opt (some file) None
         & info [ "check" ] ~docv:"FILE"
             ~doc:"Skip running the suite; load the capture from $(docv) instead (schema validation \
                   plus, with --against, the comparison).")
  in
  let tolerance =
    Arg.(value & opt int 25
         & info [ "tolerance" ] ~docv:"PCT" ~doc:"Allowed scaling/* slowdown vs the baseline, in percent.")
  in
  let load path =
    match Regress.of_json (read_file path) with
    | Ok t -> t
    | Error msg ->
      prerr_endline (Printf.sprintf "bss bench: %s: %s" path msg);
      exit 2
  in
  let run quick out against check tolerance =
    let current =
      match check with
      | Some path ->
        let t = load path in
        Printf.printf "loaded %s: schema %s, %d entries, %d counters\n" path t.Regress.schema
          (List.length t.Regress.entries) (List.length t.Regress.counters);
        t
      | None ->
        Printf.printf "bench: running %s suite (fixed seeds, median of warmed runs)\n"
          (if quick then "quick" else "full");
        Regress.run ~progress:print_endline ~quick ()
    in
    Option.iter
      (fun path ->
        write_file path (Regress.to_json current ^ "\n");
        Printf.printf "wrote %s\n" path)
      out;
    match against with
    | None -> ()
    | Some path ->
      let baseline = load path in
      let c = Regress.against ~tolerance:(float_of_int tolerance /. 100.) ~baseline current in
      print_string c.Regress.table;
      List.iter print_endline c.Regress.lines;
      let checks = List.length current.Regress.entries + List.length c.Regress.lines in
      if c.Regress.failures = [] then
        Printf.printf "gate: ok (%d checks, tolerance %d%%)\n" checks tolerance
      else begin
        Printf.printf "gate: %d failure(s)\n" (List.length c.Regress.failures);
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the fixed-seed benchmark suite and gate against a baseline capture.")
    Term.(const run $ quick $ out $ against $ check $ tolerance)

let () =
  let doc = "near-linear approximation algorithms for scheduling with batch setup times" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "bss" ~doc)
          [
            solve_cmd;
            generate_cmd;
            check_cmd;
            fuzz_cmd;
            serve_cmd;
            soak_cmd;
            netsoak_cmd;
            top_cmd;
            report_cmd;
            torture_cmd;
            bench_cmd;
          ]))
