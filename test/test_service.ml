(* Tests for the batch-service runtime: bounded-queue backpressure,
   deterministic backoff, the circuit-breaker state machine, crash-safe
   checkpointing — and the layer's acceptance criteria: kill-and-resume
   determinism (a run stopped at ANY point and resumed yields exactly the
   uninterrupted run's result set) and a breaker that demonstrably trips
   and recovers under injected faults, visible in the obs counters. *)

open Bss_util
open Bss_instances
open Bss_service
module Rerror = Bss_resilience.Error
module Chaos = Bss_resilience.Chaos
module Probe = Bss_obs.Probe

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) ("bss_test_" ^ name)

(* ---------------- atomic file replacement ---------------- *)

let test_atomic_write () =
  let path = tmp_path "atomic.txt" in
  if Sys.file_exists path then Sys.remove path;
  Atomic_file.write path "first\n";
  let read () = In_channel.with_open_bin path In_channel.input_all in
  check string_c "created" "first\n" (read ());
  Atomic_file.write path "second, longer contents\n";
  check string_c "replaced" "second, longer contents\n" (read ());
  (* no temp droppings left beside the target *)
  let dir = Filename.dirname path and base = Filename.basename path in
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f <> base && String.length f > String.length base
                             && String.sub f 1 (String.length base) = base)
  in
  check int_c "no temp files left" 0 (List.length leftovers);
  Sys.remove path

(* ---------------- bounded queue ---------------- *)

let test_bqueue_backpressure () =
  let q = Bqueue.create ~capacity:2 in
  check int_c "capacity" 2 (Bqueue.capacity q);
  (match Bqueue.admit q 1 with Ok () -> () | Error _ -> Alcotest.fail "first admit");
  (match Bqueue.admit q 2 with Ok () -> () | Error _ -> Alcotest.fail "second admit");
  (match Bqueue.admit q 3 with
  | Error (Rerror.Overloaded { capacity; pending }) ->
    check int_c "capacity in error" 2 capacity;
    check int_c "pending in error" 2 pending
  | _ -> Alcotest.fail "third admit must be Overloaded");
  check bool_c "FIFO drain" true (Bqueue.drain q = [ 1; 2 ]);
  check int_c "empty after drain" 0 (Bqueue.length q);
  (match Bqueue.admit q 4 with Ok () -> () | Error _ -> Alcotest.fail "admit after drain")

let test_bqueue_admit_chaos () =
  let q = Bqueue.create ~capacity:4 in
  Chaos.with_plan
    [ ("service.admit", 0, Chaos.Raise) ]
    (fun () ->
      (match Bqueue.admit q 1 with
      | exception Chaos.Injected { site; _ } -> check string_c "site" "service.admit" site
      | _ -> Alcotest.fail "armed admission must raise Injected");
      match Bqueue.admit q 2 with
      | Ok () -> check int_c "later admit lands" 1 (Bqueue.length q)
      | _ -> Alcotest.fail "hit 1 is not armed")

(* ---------------- backoff ---------------- *)

let test_backoff_deterministic () =
  let policy = { Backoff.base_us = 100; factor = 2; cap_us = 1_000 } in
  let delays seed =
    let rng = Prng.create seed in
    List.init 6 (fun i -> Backoff.delay_us policy rng ~attempt:(i + 1))
  in
  check bool_c "same seed, same schedule" true (delays 7 = delays 7);
  check bool_c "different seed, different jitter" true (delays 7 <> delays 8);
  List.iteri
    (fun i d ->
      let base = min 1_000 (100 * (1 lsl i)) in
      check bool_c (Printf.sprintf "attempt %d lower bound" (i + 1)) true (d >= base);
      check bool_c (Printf.sprintf "attempt %d capped" (i + 1)) true (d <= base + (base / 2)))
    (delays 7)

let test_backoff_wait_monotonic () =
  let t0 = Monotonic_clock.now () in
  Backoff.wait 200;
  let elapsed = Int64.sub (Monotonic_clock.now ()) t0 in
  check bool_c "waited >= 200us" true (Int64.compare elapsed 200_000L >= 0)

(* ---------------- circuit breaker state machine ---------------- *)

let closed_0 = Breaker.Closed { failures = 0 }

let test_breaker_cycle () =
  let b = Breaker.make ~name:"v" ~k:2 ~cooldown:2 () in
  check bool_c "starts closed" true (Breaker.state b = closed_0);
  (* two consecutive failures trip it *)
  check bool_c "closed routes requested" true (Breaker.route b = Breaker.Requested);
  Breaker.record b ~route:Breaker.Requested ~ok:false;
  check bool_c "one failure stays closed" true (Breaker.state b = Breaker.Closed { failures = 1 });
  Breaker.record b ~route:Breaker.Requested ~ok:false;
  check bool_c "tripped open" true (Breaker.state b = Breaker.Open { remaining = 2 });
  (* cooldown: two fallback-routed requests *)
  check bool_c "open routes fallback" true (Breaker.route b = Breaker.Fallback);
  Breaker.record b ~route:Breaker.Fallback ~ok:true;
  Breaker.record b ~route:Breaker.Fallback ~ok:true;
  check bool_c "cooldown spent -> half-open" true (Breaker.state b = Breaker.Half_open { probing = false });
  (* exactly one probe; the rest of the wave falls back *)
  check bool_c "half-open probes" true (Breaker.route b = Breaker.Probe);
  check bool_c "single probe in flight" true (Breaker.route b = Breaker.Fallback);
  (* failed probe re-opens *)
  Breaker.record b ~route:Breaker.Probe ~ok:false;
  check bool_c "failed probe re-opens" true (Breaker.state b = Breaker.Open { remaining = 2 });
  Breaker.record b ~route:Breaker.Fallback ~ok:true;
  Breaker.record b ~route:Breaker.Fallback ~ok:true;
  check bool_c "probe again" true (Breaker.route b = Breaker.Probe);
  (* successful probe closes *)
  Breaker.record b ~route:Breaker.Probe ~ok:true;
  check bool_c "closed again" true (Breaker.state b = closed_0);
  check bool_c "transition log" true
    (Breaker.transitions b
    = [ "closed->open"; "open->half-open"; "half-open->open"; "open->half-open"; "half-open->closed" ])

let test_breaker_success_resets () =
  let b = Breaker.make ~name:"v" ~k:3 ~cooldown:1 () in
  Breaker.record b ~route:Breaker.Requested ~ok:false;
  Breaker.record b ~route:Breaker.Requested ~ok:false;
  Breaker.record b ~route:Breaker.Requested ~ok:true;
  check bool_c "success resets the streak" true (Breaker.state b = closed_0);
  check int_c "no transitions" 0 (List.length (Breaker.transitions b))

let test_breaker_probe_chaos () =
  let b = Breaker.make ~name:"v" ~k:1 ~cooldown:1 () in
  Breaker.record b ~route:Breaker.Requested ~ok:false;
  Breaker.record b ~route:Breaker.Fallback ~ok:true;
  check bool_c "half-open" true (Breaker.state b = Breaker.Half_open { probing = false });
  Chaos.with_plan
    [ ("service.breaker.probe", 0, Chaos.Raise) ]
    (fun () ->
      match Breaker.route b with
      | exception Chaos.Injected { site; _ } ->
        check string_c "probe fault site" "service.breaker.probe" site;
        (* the runtime contains this by recording a failed probe *)
        Breaker.record b ~route:Breaker.Probe ~ok:false;
        check bool_c "re-opened" true (Breaker.state b = Breaker.Open { remaining = 1 })
      | _ -> Alcotest.fail "armed probe point must raise")

(* A breaker counts its own state changes: the transition counter, one
   typed event naming the breaker per change, and the state gauge whose
   running sum is the current state's code. *)
let test_breaker_telemetry () =
  let events (report : Bss_obs.Report.t) =
    List.filter_map
      (fun (e : Bss_obs.Report.event_entry) ->
        match e.Bss_obs.Report.event with
        | Bss_obs.Event.Breaker_transition { variant; change } -> Some (variant ^ " " ^ change)
        | _ -> None)
      report.Bss_obs.Report.events
  in
  let (), report =
    Probe.with_recording (fun () ->
        let b = Breaker.make ~name:"v" ~k:1 ~cooldown:1 () in
        Breaker.record b ~route:Breaker.Requested ~ok:false;
        Breaker.record b ~route:Breaker.Fallback ~ok:true;
        check bool_c "half-open probes" true (Breaker.route b = Breaker.Probe);
        Breaker.record b ~route:Breaker.Probe ~ok:true)
  in
  let counter = Bss_obs.Report.counter report in
  check int_c "three transitions" 3 (counter "service.breaker.transitions");
  check int_c "gauge back at closed" 0 (counter "service.breaker.state.v");
  check (Alcotest.list string_c) "one event per change, in order"
    [ "v closed->open"; "v open->half-open"; "v half-open->closed" ]
    (events report);
  let (), tripped =
    Probe.with_recording (fun () ->
        Breaker.record (Breaker.make ~name:"w" ~k:1 ~cooldown:1 ()) ~route:Breaker.Requested
          ~ok:false)
  in
  check int_c "gauge reads open" 1 (Bss_obs.Report.counter tripped "service.breaker.state.w");
  check (Alcotest.list string_c) "the event names its breaker" [ "w closed->open" ] (events tripped)

(* Concurrent callers racing a half-open breaker: route decides and
   marks the probe in one critical section, so however many domains race,
   exactly one wins the probe and the rest fall back — never a raced
   second probe. *)
let test_breaker_concurrent_probe () =
  for round = 1 to 8 do
    let b = Breaker.make ~name:"v" ~k:1 ~cooldown:1 () in
    Breaker.record b ~route:Breaker.Requested ~ok:false;
    Breaker.record b ~route:Breaker.Fallback ~ok:true;
    check bool_c "half-open" true (Breaker.state b = Breaker.Half_open { probing = false });
    let n = 6 in
    let ready = Atomic.make 0 in
    let domains =
      List.init n (fun _ ->
          Domain.spawn (fun () ->
              (* barrier: maximize the race on the decide-and-mark section *)
              Atomic.incr ready;
              while Atomic.get ready < n do
                Domain.cpu_relax ()
              done;
              Breaker.route b))
    in
    let routes = List.map Domain.join domains in
    let count r = List.length (List.filter (fun x -> x = r) routes) in
    check int_c (Printf.sprintf "round %d: exactly one probe" round) 1 (count Breaker.Probe);
    check int_c (Printf.sprintf "round %d: losers fall back" round) (n - 1) (count Breaker.Fallback);
    check int_c (Printf.sprintf "round %d: none requested" round) 0 (count Breaker.Requested);
    (* the single probe's outcome still drives the state machine *)
    Breaker.record b ~route:Breaker.Probe ~ok:true;
    check bool_c (Printf.sprintf "round %d: probe closes" round) true (Breaker.state b = closed_0)
  done

(* ---------------- journal ---------------- *)

let test_journal_roundtrip () =
  let path = tmp_path "journal.tsv" in
  if Sys.file_exists path then Sys.remove path;
  let j = Journal.fresh path in
  Journal.add j { Journal.id = "a"; rung = "requested"; makespan = "42" };
  Journal.add j { Journal.id = "b"; rung = "two-approx"; makespan = "7/2" };
  Journal.add j { Journal.id = "a"; rung = "list-scheduling"; makespan = "99" };
  check int_c "dedup by id" 2 (List.length (Journal.entries j));
  check int_c "dirty before flush" 2 (Journal.dirty j);
  Journal.flush j;
  check int_c "clean after flush" 0 (Journal.dirty j);
  let j' = Journal.load path in
  check bool_c "mem a" true (Journal.mem j' "a");
  check bool_c "mem b" true (Journal.mem j' "b");
  check bool_c "entries survive, order kept, first add wins" true
    (Journal.entries j'
    = [
        { Journal.id = "a"; rung = "requested"; makespan = "42" };
        { Journal.id = "b"; rung = "two-approx"; makespan = "7/2" };
      ]);
  Sys.remove path

let test_journal_missing_and_corrupt () =
  let path = tmp_path "journal_missing.tsv" in
  if Sys.file_exists path then Sys.remove path;
  check int_c "missing file is empty" 0 (List.length (Journal.entries (Journal.load path)));
  (* a torn file: two good entries, then a line cut mid-write by a crash,
     then a stray entry after the tear. Salvage keeps the valid prefix,
     abandons everything from the tear on, and reports a typed detail. *)
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "a\trequested\t10\nb\trequested\t20\nc\treq";
      output_string oc "\nd\trequested\t40\n");
  let j = Journal.load path in
  check bool_c "valid prefix salvaged" true
    (Journal.entries j
    = [
        { Journal.id = "a"; rung = "requested"; makespan = "10" };
        { Journal.id = "b"; rung = "requested"; makespan = "20" };
      ]);
  check bool_c "suffix after the tear abandoned" true (not (Journal.mem j "d"));
  (match Journal.salvaged j with
  | [ Bss_resilience.Error.Invalid_input { line = Some 3; field = "journal"; _ } ] -> ()
  | other ->
    Alcotest.fail
      (Printf.sprintf "expected one Invalid_input at line 3, got [%s]"
         (String.concat "; " (List.map Bss_resilience.Error.to_string other))));
  check bool_c "healthy journal reports no salvage" true
    (Journal.salvaged (Journal.fresh path) = []);
  (* the salvage is counted when a recording is installed *)
  let (), report =
    Bss_obs.Probe.with_recording (fun () -> ignore (Journal.load path))
  in
  check int_c "service.journal.salvaged counted" 1
    (Bss_obs.Report.counter report "service.journal.salvaged");
  Sys.remove path

let test_journal_flush_chaos_keeps_old () =
  let path = tmp_path "journal_chaos.tsv" in
  if Sys.file_exists path then Sys.remove path;
  let j = Journal.fresh path in
  Journal.add j { Journal.id = "a"; rung = "requested"; makespan = "1" };
  Journal.flush j;
  Journal.add j { Journal.id = "b"; rung = "requested"; makespan = "2" };
  (match Chaos.with_plan [ ("service.journal.flush", 0, Chaos.Raise) ] (fun () -> Journal.flush j) with
  | exception Chaos.Injected _ -> ()
  | _ -> Alcotest.fail "armed flush must raise");
  check int_c "still dirty" 1 (Journal.dirty j);
  check bool_c "old journal intact" true
    (Journal.entries (Journal.load path) = [ { Journal.id = "a"; rung = "requested"; makespan = "1" } ]);
  Journal.flush j;
  check int_c "recovered" 2 (List.length (Journal.entries (Journal.load path)));
  Sys.remove path

(* Zero-downtime rotation: flushes seal the active file into numbered
   segments; the sealed history is never rewritten, and a resume walks
   the whole chain in order. *)
let test_journal_rotation () =
  let path = tmp_path "rotate.tsv" in
  let clean () =
    if Sys.file_exists path then Sys.remove path;
    for i = 1 to 6 do
      let seg = path ^ "." ^ string_of_int i in
      if Sys.file_exists seg then Sys.remove seg
    done
  in
  clean ();
  let entry i = { Journal.id = Printf.sprintf "e%d" i; rung = "requested"; makespan = string_of_int i } in
  let j = Journal.fresh ~rotate_every:2 path in
  for i = 1 to 5 do
    Journal.add j (entry i);
    Journal.flush j
  done;
  check int_c "two sealed segments" 2 (Journal.segments j);
  check bool_c "segment files on disk" true
    (Sys.file_exists (path ^ ".1") && Sys.file_exists (path ^ ".2"));
  (* the active file holds only the unsealed tail *)
  check string_c "active file is the tail" "e5\trequested\t5\n"
    (In_channel.with_open_bin path In_channel.input_all);
  let seg1 = In_channel.with_open_bin (path ^ ".1") In_channel.input_all in
  (* resume spans the chain, oldest first *)
  let j' = Journal.load ~rotate_every:2 path in
  check int_c "resume sees the segments" 2 (Journal.segments j');
  check bool_c "entries span the chain in order" true
    (Journal.entries j' = List.init 5 (fun i -> entry (i + 1)));
  (* the next seal starts after the restored tail; sealed history is immutable *)
  Journal.add j' (entry 6);
  Journal.flush j';
  check int_c "rotated again on resume" 3 (Journal.segments j');
  check string_c "sealed segment untouched" seg1
    (In_channel.with_open_bin (path ^ ".1") In_channel.input_all);
  check bool_c "nothing lost" true
    (Journal.entries (Journal.load ~rotate_every:2 path) = List.init 6 (fun i -> entry (i + 1)));
  check bool_c "rotate_every < 1 rejected" true
    (match Journal.fresh ~rotate_every:0 path with
    | exception Invalid_argument _ -> true
    | _ -> false);
  clean ()

(* Salvage at segment boundaries: a corrupt line in a sealed segment
   abandons only that segment's tail — the rest of the chain, the active
   file included, still loads — and the typed detail cites the segment
   file. A corrupt active file leaves the sealed history untouched and
   cites the active path. Either way the abandoned entries are simply
   re-recorded by the resumed run. *)
let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let chain_entry i =
  { Journal.id = Printf.sprintf "s%d" i; rung = "requested"; makespan = string_of_int i }

(* rotate_every 2, five adds with a flush each: seg1 = s1 s2, seg2 = s3 s4,
   active = s5 *)
let build_chain path =
  if Sys.file_exists path then Sys.remove path;
  for i = 1 to 6 do
    let seg = path ^ "." ^ string_of_int i in
    if Sys.file_exists seg then Sys.remove seg
  done;
  let j = Journal.fresh ~rotate_every:2 path in
  for i = 1 to 5 do
    Journal.add j (chain_entry i);
    Journal.flush j
  done

let salvage_detail name j =
  match Journal.salvaged j with
  | [ Bss_resilience.Error.Invalid_input { line; field = "journal"; reason } ] -> (line, reason)
  | other ->
    Alcotest.failf "%s: expected one Invalid_input, got [%s]" name
      (String.concat "; " (List.map Bss_resilience.Error.to_string other))

let test_journal_salvage_sealed_segment () =
  let path = tmp_path "salvage_seg.tsv" in
  build_chain path;
  (* tear seg2 mid-entry: s3 stays valid, s4 is cut *)
  Out_channel.with_open_bin (path ^ ".2") (fun oc ->
      output_string oc "s3\trequested\t3\ns4\treq");
  let j = Journal.load ~rotate_every:2 path in
  check bool_c "valid prefix of the torn segment kept" true (Journal.mem j "s3");
  check bool_c "tail of the torn segment abandoned" true (not (Journal.mem j "s4"));
  check bool_c "active file still loads past the corrupt segment" true (Journal.mem j "s5");
  check int_c "chain length still counted" 2 (Journal.segments j);
  let line, reason = salvage_detail "sealed segment" j in
  check bool_c "detail cites the segment line" true (line = Some 2);
  check bool_c "detail cites the segment file" true (contains ~needle:(path ^ ".2") reason);
  (* the resumed run re-records the abandoned entry; nothing else moves *)
  Journal.add j (chain_entry 4);
  Journal.flush j;
  let j' = Journal.load ~rotate_every:2 path in
  check bool_c "re-solved entry persisted" true (Journal.mem j' "s4");
  check int_c "every id recovered" 5 (List.length (Journal.entries j'));
  build_chain path (* clean replacement chain, then remove *);
  Sys.remove path;
  for i = 1 to 6 do
    let seg = path ^ "." ^ string_of_int i in
    if Sys.file_exists seg then Sys.remove seg
  done

let test_journal_salvage_active_file () =
  let path = tmp_path "salvage_active.tsv" in
  build_chain path;
  (* tear the active file instead: the sealed history must be untouched *)
  Out_channel.with_open_bin path (fun oc -> output_string oc "s5\trequested\t5\ns6\treq");
  let j = Journal.load ~rotate_every:2 path in
  check bool_c "sealed chain intact" true
    (List.for_all (fun i -> Journal.mem j (Printf.sprintf "s%d" i)) [ 1; 2; 3; 4 ]);
  check bool_c "valid prefix of the active file kept" true (Journal.mem j "s5");
  check bool_c "torn active tail abandoned" true (not (Journal.mem j "s6"));
  let line, reason = salvage_detail "active file" j in
  check bool_c "detail cites the active line" true (line = Some 2);
  check bool_c "detail cites the active file, not a segment" true
    (contains ~needle:(path ^ "; salvaged") reason);
  Sys.remove path;
  for i = 1 to 6 do
    let seg = path ^ "." ^ string_of_int i in
    if Sys.file_exists seg then Sys.remove seg
  done

(* ---------------- the runtime ---------------- *)

(* a deterministic mixed batch: every variant, generated instances *)
let batch n =
  List.init n (fun i ->
      let variants = [| Variant.Nonpreemptive; Variant.Preemptive; Variant.Splittable |] in
      {
        Request.id = Printf.sprintf "r%02d" i;
        tenant = Request.default_tenant;
        variant = variants.(i mod 3);
        algorithm = Bss_core.Solver.Approx3_2;
        source =
          Request.Gen { family = "uniform"; seed = 1000 + i; m = 2 + (i mod 3); n = 10 + (i mod 7) };
      })

let base_config =
  { Runtime.default_config with workers = Some 2; retries = 1; checkpoint_every = 1 }

let result_set (s : Runtime.summary) =
  s.Runtime.outcomes
  |> List.filter (fun (o : Runtime.outcome) -> o.Runtime.status = Runtime.Done)
  |> List.map (fun (o : Runtime.outcome) ->
         (o.Runtime.request.Request.id, Option.get o.Runtime.rung, Option.get o.Runtime.makespan))
  |> List.sort compare

let test_run_clean () =
  let s = Runtime.run base_config (batch 9) in
  check int_c "all done" 9 s.Runtime.completed;
  check int_c "none rejected" 0 s.Runtime.rejected;
  check int_c "none aborted" 0 s.Runtime.aborted;
  check int_c "none dropped" 0 s.Runtime.dropped;
  check bool_c "requested rung everywhere" true
    (s.Runtime.rungs = [ ("requested", 9) ]);
  (* the runtime's results are the solver's results *)
  List.iter
    (fun (o : Runtime.outcome) ->
      let r =
        Bss_core.Solver.solve ~algorithm:Bss_core.Solver.Approx3_2 o.Runtime.request.Request.variant
          (Request.instance o.Runtime.request)
      in
      check string_c (o.Runtime.request.Request.id ^ " makespan matches direct solve")
        (Rat.to_string (Schedule.makespan r.Bss_core.Solver.schedule))
        (Option.get o.Runtime.makespan))
    s.Runtime.outcomes

let test_run_worker_count_invariant () =
  let run workers =
    result_set (Runtime.run { base_config with workers = Some workers } (batch 12))
  in
  let one = run 1 in
  check bool_c "1 = 2 workers" true (one = run 2);
  check bool_c "1 = 4 workers" true (one = run 4)

(* The retry jitter stream is a pure function of (run seed, request id,
   attempt): the runtime seeds one private Prng per request
   (seed lxor djb2 id), and Backoff keeps no global state. So the
   schedules a single domain computes are bit-identical to the same
   requests sharded across 4 concurrent domains — the worker-count
   invariance the hard cap must not break, computed exactly as the
   worker pool computes it. *)
let test_backoff_jitter_worker_invariant () =
  let policy = { Backoff.base_us = 100; factor = 3; cap_us = 5_000 } in
  let ids = List.init 32 (fun i -> Printf.sprintf "req-%02d" i) in
  let schedule id =
    let rng = Prng.create (42 lxor Strhash.djb2 id) in
    List.init 5 (fun i -> Backoff.delay_us policy rng ~attempt:(i + 1))
  in
  let serial = List.map schedule ids in
  let workers = 4 in
  let shards =
    List.init workers (fun w -> List.filteri (fun i _ -> i mod workers = w) ids)
  in
  let by_shard =
    List.map (fun shard -> Domain.spawn (fun () -> List.map schedule shard)) shards
    |> List.map Domain.join
  in
  let sharded =
    List.mapi (fun i _ -> List.nth (List.nth by_shard (i mod workers)) (i / workers)) ids
  in
  check bool_c "4-worker schedules = 1-worker schedules" true (sharded = serial);
  (* and an adversarial policy still lands under the module hard cap *)
  let hostile = { Backoff.base_us = max_int / 2; factor = max_int / 2; cap_us = max_int } in
  let rng = Prng.create 7 in
  List.iter
    (fun attempt ->
      let d = Backoff.delay_us hostile rng ~attempt in
      check bool_c (Printf.sprintf "attempt %d hard-capped" attempt) true
        (d >= 0 && d <= Backoff.hard_cap_us + (Backoff.hard_cap_us / 2)))
    [ 1; 2; 13; 62 ]

let test_run_backpressure () =
  let s =
    Runtime.run { base_config with queue_capacity = 4; burst = 7 } (batch 14)
  in
  (* each 7-request wave admits 4 and rejects 3 *)
  check int_c "rejected" 6 s.Runtime.rejected;
  check int_c "completed" 8 s.Runtime.completed;
  check int_c "dropped" 0 s.Runtime.dropped;
  check int_c "queue peak bounded" 4 s.Runtime.queue_peak;
  List.iter
    (fun (o : Runtime.outcome) ->
      if o.Runtime.status = Runtime.Rejected then
        match o.Runtime.error with
        | Some (Rerror.Overloaded { capacity = 4; pending = 4 }) -> ()
        | _ -> Alcotest.fail "rejection must carry the typed Overloaded error")
    s.Runtime.outcomes

(* The acceptance property: stop the run after ANY number of waves, resume
   from the journal, and the union of checkpointed + re-solved results is
   exactly the uninterrupted run's result set. Fuel makes some requests
   degrade deterministically, so the set mixes rungs. *)
let test_kill_and_resume_determinism () =
  let config = { base_config with burst = 1; fuel = Some 10; workers = Some 1 } in
  let requests = batch 10 in
  let path = tmp_path "resume.journal" in
  let uninterrupted =
    if Sys.file_exists path then Sys.remove path;
    Runtime.run ~journal:(Journal.fresh path) config requests
  in
  let expected = result_set uninterrupted in
  check bool_c "fuel mixes rungs" true (List.length uninterrupted.Runtime.rungs > 1);
  for kill_after = 0 to 10 do
    if Sys.file_exists path then Sys.remove path;
    let polls = ref 0 in
    let should_stop () =
      incr polls;
      !polls > kill_after
    in
    let first = Runtime.run ~journal:(Journal.fresh path) ~should_stop config requests in
    if kill_after < 10 then
      check bool_c (Printf.sprintf "kill@%d interrupted" kill_after) true first.Runtime.interrupted;
    let resumed = Runtime.run ~journal:(Journal.load path) config requests in
    check int_c
      (Printf.sprintf "kill@%d resumed checkpoint count" kill_after)
      first.Runtime.completed resumed.Runtime.checkpointed;
    check bool_c
      (Printf.sprintf "kill@%d identical result set" kill_after)
      true
      (result_set resumed = expected)
  done;
  Sys.remove path

(* A SIGKILL between add and flush: the journal on disk is a clean prefix
   (atomic rename), the resumed run re-solves the un-flushed tail and
   still converges to the same set. Simulated by never flushing the tail:
   checkpoint_every larger than the batch, no final flush (we abandon the
   journal value instead of returning normally... the runtime always
   final-flushes, so emulate by truncating the on-disk journal). *)
let test_resume_from_prefix_journal () =
  let config = { base_config with burst = 1; fuel = Some 60; workers = Some 1 } in
  let requests = batch 8 in
  let path = tmp_path "prefix.journal" in
  if Sys.file_exists path then Sys.remove path;
  let full = Runtime.run ~journal:(Journal.fresh path) config requests in
  let expected = result_set full in
  (* keep only the first 3 journal lines — a valid crash-time prefix *)
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Atomic_file.write path (String.concat "" (List.map (fun l -> l ^ "\n") (List.filteri (fun i _ -> i < 3) lines)));
  let resumed = Runtime.run ~journal:(Journal.load path) config requests in
  check int_c "three checkpointed" 3 resumed.Runtime.checkpointed;
  check bool_c "same set from prefix" true (result_set resumed = expected);
  Sys.remove path

(* Fuel-starved requests degrade on every probe of the requested rung, so
   the breaker trips, routes to the certified 2-approx (which charges no
   fuel and succeeds), half-opens, and re-opens on the failed probe — all
   visible in the obs counters. *)
let test_breaker_trips_in_runtime () =
  let config =
    { base_config with burst = 1; fuel = Some 1; workers = Some 1; retries = 0; breaker_k = 2 }
  in
  let requests =
    List.filter (fun (r : Request.t) -> r.Request.variant = Variant.Nonpreemptive) (batch 24)
  in
  let s, report = Probe.with_recording (fun () -> Runtime.run config requests) in
  check int_c "all done" (List.length requests) s.Runtime.completed;
  let transitions = List.assoc Variant.Nonpreemptive s.Runtime.breaker in
  check bool_c "tripped" true (List.mem "closed->open" transitions);
  check bool_c "half-opened" true (List.mem "open->half-open" transitions);
  check bool_c "failed probe re-opened" true (List.mem "half-open->open" transitions);
  check bool_c "open counter" true (Bss_obs.Report.counter report "service.breaker.open" >= 1);
  check bool_c "half-open counter" true
    (Bss_obs.Report.counter report "service.breaker.half-open" >= 1);
  (* fallback-routed requests reached the certified rung without degrading *)
  check bool_c "fallback routed" true
    (List.exists
       (fun (o : Runtime.outcome) -> o.Runtime.routed = "fallback" && not o.Runtime.degraded)
       s.Runtime.outcomes)

(* Under seeded chaos (solver faults + service faults) the service
   contract holds: every request is accounted for, nothing is dropped,
   and the journal converges to clean. *)
let test_chaos_contract () =
  List.iter
    (fun chaos ->
      let path = tmp_path (Printf.sprintf "chaos%d.journal" chaos) in
      if Sys.file_exists path then Sys.remove path;
      let config =
        { base_config with queue_capacity = 6; burst = 8; chaos = Some chaos; retries = 2 }
      in
      let s = Runtime.run ~journal:(Journal.fresh path) config (batch 20) in
      check int_c (Printf.sprintf "chaos=%d dropped" chaos) 0 s.Runtime.dropped;
      check int_c
        (Printf.sprintf "chaos=%d accounted" chaos)
        20
        (s.Runtime.completed + s.Runtime.rejected + s.Runtime.aborted);
      check int_c (Printf.sprintf "chaos=%d journal clean" chaos) 0 s.Runtime.journal_dirty;
      (* journaled entries agree with reported outcomes *)
      let j = Journal.load path in
      List.iter
        (fun (o : Runtime.outcome) ->
          if o.Runtime.status = Runtime.Done then
            check bool_c
              (Printf.sprintf "chaos=%d %s journaled" chaos o.Runtime.request.Request.id)
              true
              (Journal.mem j o.Runtime.request.Request.id))
        s.Runtime.outcomes;
      Sys.remove path)
    [ 1; 2; 3; 4; 5 ]

(* Two solve faults in one request: its first attempt and its one retry
   both raise, so it aborts. Seeded chaos soaks almost never draw this
   (an abort needs a service.solve fault on every attempt), so the plan
   is explicit. The aborted request is not journaled, and every request
   is still accounted for. *)
let test_chaos_abort_path () =
  let path = tmp_path "abort.journal" in
  if Sys.file_exists path then Sys.remove path;
  let requests = Request.soak_stream ~seed:3 ~requests:6 () in
  let s =
    Chaos.with_plan
      [ ("service.solve", 0, Chaos.Raise); ("service.solve", 1, Chaos.Raise) ]
      (fun () ->
        Runtime.run ~journal:(Journal.fresh path)
          { base_config with workers = Some 1; retries = 1 }
          requests)
  in
  check int_c "done" 5 s.Runtime.completed;
  check int_c "aborted" 1 s.Runtime.aborted;
  check int_c "accounted" s.Runtime.total
    (s.Runtime.completed + s.Runtime.rejected + s.Runtime.aborted);
  (match List.filter (fun (o : Runtime.outcome) -> o.Runtime.status = Runtime.Aborted) s.Runtime.outcomes with
  | [ o ] ->
    check string_c "aborted id" "soak-uniform-0" o.Runtime.request.Request.id;
    check int_c "its retry used" 1 o.Runtime.retries_used
  | l -> Alcotest.failf "expected one aborted outcome, got %d" (List.length l));
  let j = Journal.load path in
  check bool_c "aborted id not journaled" false (Journal.mem j "soak-uniform-0");
  check int_c "done ones journaled" 5 (List.length (Journal.entries j));
  Sys.remove path

(* Armed chaos keeps the configured pool: each request's plan is drawn
   from (chaos seed, request id, attempt) and armed on the domain that
   runs it, and the coordinator's sites fire in dispatch order. So a
   chaos run is the same run at 1, 2 and 4 workers, down to the journal
   bytes and the deterministic prefix of every window. Every 16th
   request names an unknown family and aborts on its worker, so the
   comparison covers aborts besides retries and breaker transitions. *)
let test_chaos_worker_count_invariant () =
  let config chaos =
    {
      base_config with
      queue_capacity = 64;
      burst = 16;
      breaker_k = 2;
      retries = 2;
      checkpoint_every = 8;
      chaos = Some chaos;
      seed = chaos;
      window_every = Some 10;
    }
  in
  check int_c "chaos keeps the configured workers" 4
    (Runtime.Engine.workers (Runtime.Engine.create { (config 1) with workers = Some 4 }));
  let requests chaos =
    List.mapi
      (fun i (r : Request.t) ->
        if i mod 16 = 15 then
          { r with Request.source = Request.Gen { family = "no-such-family"; seed = 0; m = 2; n = 4 } }
        else r)
      (Request.soak_stream ~seed:chaos ~requests:64 ())
  in
  let prefix line =
    let key = {|,"load":|} in
    let rec find i =
      if i + String.length key > String.length line then line
      else if String.sub line i (String.length key) = key then String.sub line 0 i
      else find (i + 1)
    in
    find 0
  in
  let row (o : Runtime.outcome) =
    Printf.sprintf "%s %s %s %s %s %d %b %s" o.Runtime.request.Request.id
      (match o.Runtime.status with
      | Runtime.Done -> "done"
      | Runtime.Rejected -> "rejected"
      | Runtime.Aborted -> "aborted")
      (Option.value ~default:"-" o.Runtime.rung)
      (Option.value ~default:"-" o.Runtime.makespan)
      o.Runtime.routed o.Runtime.retries_used o.Runtime.degraded
      (Option.fold ~none:"-" ~some:Rerror.to_string o.Runtime.error)
  in
  let run chaos workers =
    let path = tmp_path (Printf.sprintf "chaos%d_w%d.journal" chaos workers) in
    if Sys.file_exists path then Sys.remove path;
    let windows = ref [] in
    let on_window w = windows := prefix (Bss_obs.Timeseries.window_json w) :: !windows in
    let s =
      Runtime.run ~journal:(Journal.fresh path) ~on_window
        { (config chaos) with workers = Some workers }
        (requests chaos)
    in
    let journal = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    (s, (List.map row s.Runtime.outcomes, s.Runtime.rungs, s.Runtime.breaker, journal, List.rev !windows))
  in
  let seen =
    List.map
      (fun chaos ->
        let s, one = run chaos 1 in
        List.iter
          (fun workers ->
            let _, many = run chaos workers in
            let rows, rungs, breaker, journal, windows = one
            and rows', rungs', breaker', journal', windows' = many in
            let name what = Printf.sprintf "chaos=%d %s: %d workers = 1" chaos what workers in
            check (Alcotest.list string_c) (name "outcome rows") rows rows';
            check bool_c (name "rung counts") true (rungs = rungs');
            check bool_c (name "breaker transitions") true (breaker = breaker');
            check string_c (name "journal") journal journal';
            check (Alcotest.list string_c) (name "window prefixes") windows windows')
          [ 2; 4 ];
        (s.Runtime.retries > 0, s.Runtime.aborted > 0, s.Runtime.breaker <> []))
      [ 1; 3; 10 ]
  in
  check bool_c "some seed retries" true (List.exists (fun (r, _, _) -> r) seen);
  check bool_c "some seed aborts" true (List.exists (fun (_, a, _) -> a) seen);
  check bool_c "some seed trips a breaker" true (List.exists (fun (_, _, b) -> b) seen)

(* Every outcome is booked once, so a profiled run's service counters
   reconcile with its summary: restores from a prefix journal, rejections
   from a small queue, retries and breaker transitions under chaos, an
   abort from an unknown family — and the counters are the same at 1 and
   4 workers. *)
let test_counters_reconcile () =
  let requests =
    List.mapi
      (fun i (r : Request.t) ->
        if i mod 16 = 5 then
          { r with Request.source = Request.Gen { family = "no-such-family"; seed = 0; m = 2; n = 4 } }
        else r)
      (Request.soak_stream ~seed:16 ~requests:64 ())
  in
  let config workers =
    {
      base_config with
      workers = Some workers;
      queue_capacity = 8;
      burst = 10;
      breaker_k = 2;
      retries = 2;
      checkpoint_every = 4;
      chaos = Some 16;
      seed = 16;
    }
  in
  let run workers =
    let path = tmp_path (Printf.sprintf "reconcile_w%d.journal" workers) in
    if Sys.file_exists path then Sys.remove path;
    ignore
      (Runtime.run ~journal:(Journal.fresh path) (config workers)
         (List.filteri (fun i _ -> i < 24) requests));
    let s, report =
      Probe.with_recording (fun () ->
          Runtime.run ~journal:(Journal.load path) (config workers) requests)
    in
    Sys.remove path;
    (s, report)
  in
  let s, report = run 1 in
  let counter = Bss_obs.Report.counter report in
  let transitions = List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0 s.Runtime.breaker in
  check int_c "done + resumed = done" s.Runtime.completed
    (counter "service.done" + counter "service.resumed");
  check int_c "resumed = checkpointed" s.Runtime.checkpointed (counter "service.resumed");
  check int_c "rejected" s.Runtime.rejected (counter "service.rejected");
  check int_c "aborted" s.Runtime.aborted (counter "service.aborted");
  check int_c "retries" s.Runtime.retries (counter "service.retries");
  check int_c "breaker transitions" transitions (counter "service.breaker.transitions");
  check bool_c "the run restores, rejects, aborts, retries and trips" true
    (s.Runtime.checkpointed > 0 && s.Runtime.rejected > 0 && s.Runtime.aborted > 0
    && s.Runtime.retries > 0 && transitions > 0);
  let _, report4 = run 4 in
  check
    (Alcotest.list (Alcotest.pair string_c int_c))
    "4 workers count what 1 worker does" report.Bss_obs.Report.counters
    report4.Bss_obs.Report.counters

let test_engine_rejects_zero_workers () =
  match Runtime.Engine.create { base_config with workers = Some 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "workers = Some 0 must be rejected"

(* ---------------- requests and batch files ---------------- *)

let test_batch_parse_roundtrip () =
  let text =
    "# comment\n\
     \n\
     a nonp 3/2 gen uniform 7 4 16\n\
     b pmtn 2 file /tmp/foo.txt\n\
     c split 3/2+1/8 gen tiny 3 2 8\n"
  in
  let rs = Request.of_batch_string text in
  check int_c "three requests" 3 (List.length rs);
  let again = Request.of_batch_string (String.concat "\n" (List.map Request.to_line rs)) in
  check bool_c "to_line round-trips" true (rs = again)

let test_batch_parse_errors () =
  (match Request.of_batch_string "a nonp 3/2 gen uniform 7 4\n" with
  | exception Rerror.Error (Rerror.Invalid_input { line = Some 1; field = "request"; _ }) -> ()
  | _ -> Alcotest.fail "short gen line must be invalid");
  (match Request.of_batch_string "a nonp 3/2 file x\na pmtn 2 file y\n" with
  | exception Rerror.Error (Rerror.Invalid_input { line = Some 2; field = "id"; _ }) -> ()
  | _ -> Alcotest.fail "duplicate id must be invalid");
  (* epsilon = 1/k needs k >= 1: the line is refused, not degraded *)
  (match Request.of_batch_string "r1 nonp 3/2+1/-4 gen uniform 1 3 10\n" with
  | exception Rerror.Error (Rerror.Invalid_input { line = Some 1; field = "algorithm"; _ }) -> ()
  | _ -> Alcotest.fail "3/2+1/-4 must be invalid");
  match Request.of_batch_string "a quux 3/2 file x\n" with
  | exception Rerror.Error (Rerror.Invalid_input { field = "variant"; _ }) -> ()
  | _ -> Alcotest.fail "unknown variant must be invalid"

(* ---------------- request tracing and the SLO gate ---------------- *)

module Trace_ctx = Bss_obs.Trace_ctx
module Slo = Bss_obs.Slo

(* The tracing acceptance contract: seeded runs sample the same trace
   ids regardless of worker count (ids derive from the admission seq,
   never a clock), and every histogram exemplar id resolves to a
   sampled span tree. *)
let test_run_tracing_deterministic () =
  let requests = Request.soak_stream ~seed:5 ~requests:12 () in
  let run workers =
    Runtime.run
      { base_config with workers = Some workers; seed = 5; trace_sample = Some 4 }
      requests
  in
  let s1 = run 1 in
  let ids (s : Runtime.summary) =
    List.map (fun (t : Trace_ctx.trace) -> t.Trace_ctx.trace_id) s.Runtime.traces
  in
  check bool_c "traces sampled" true (s1.Runtime.traces <> []);
  check (Alcotest.list string_c) "sampled trace ids: 4 workers = 1 worker" (ids s1) (ids (run 4));
  List.iter
    (fun (t : Trace_ctx.trace) ->
      check string_c "id is derived from (seed, seq, request id)"
        (Trace_ctx.derive_id ~seed:5 ~seq:t.Trace_ctx.seq ~request_id:t.Trace_ctx.request_id)
        t.Trace_ctx.trace_id;
      check string_c "root span is the request" "request" t.Trace_ctx.root.Trace_ctx.name;
      check bool_c "trace records its outcome" true (Trace_ctx.attr t "outcome" <> None))
    s1.Runtime.traces;
  let sampled = ids s1 in
  List.iter
    (fun (_, h) ->
      List.iter
        (fun ex ->
          check bool_c ("exemplar " ^ ex ^ " resolves to a sampled trace") true
            (List.mem ex sampled))
        (Bss_obs.Hist.exemplar_ids h))
    s1.Runtime.hists;
  check bool_c "tracing off samples nothing" true
    ((Runtime.run { base_config with seed = 5 } requests).Runtime.traces = [])

(* The SLO gate verdict is made of deterministic counters only here (no
   latency objective), so its JSON compares bit-for-bit across worker
   counts; rejections flip it to fail and name the objective. *)
let test_run_slo_gate_deterministic () =
  let spec =
    match
      Slo.of_string
        {|{"schema":"bss-slo/1","objectives":[
            {"name":"errors","type":"error_rate","max":0.0},
            {"name":"retries","type":"retry_rate","max":0.5}]}|}
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let verdict config n =
    match (Runtime.run { config with Runtime.slo = Some spec } (batch n)).Runtime.slo_verdict with
    | Some v -> v
    | None -> Alcotest.fail "a run with --slo must carry a verdict"
  in
  let v1 = verdict { base_config with workers = Some 1 } 9 in
  check bool_c "clean run passes" true v1.Slo.ok;
  check string_c "verdict json: 4 workers = 1 worker" (Slo.verdict_json v1)
    (Slo.verdict_json (verdict { base_config with workers = Some 4 } 9));
  (* with the window stream armed, the verdict also carries the window
     count and each objective's worst window burn — still deterministic *)
  let windowed workers = verdict { base_config with workers = Some workers; window_every = Some 3 } 9 in
  let w1 = windowed 1 in
  check int_c "9 requests at window-every 3: three windows and the final one" 4
    (w1 : Slo.verdict).windows;
  check bool_c "a worst window burn per objective" true
    (List.map fst w1.Slo.worst_burn = [ "errors"; "retries" ]);
  check string_c "windowed verdict json: 4 workers = 1 worker" (Slo.verdict_json w1)
    (Slo.verdict_json (windowed 4));
  let vf = verdict { base_config with queue_capacity = 4; burst = 7 } 14 in
  check bool_c "rejections fail the zero-error objective" false vf.Slo.ok;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check bool_c "failed objective named in the json" true
    (contains (Slo.verdict_json vf) {|"failed":["errors"]|})

(* A latency objective aimed at one variant's solve histogram marks only
   that variant's traces SLO-violating: the tail sampler looks the bound
   up per request, by its own service.solve_ns.<variant>. *)
let test_run_slo_trace_bound_per_variant () =
  let spec =
    match
      Slo.of_string
        {|{"schema":"bss-slo/1","objectives":[
            {"name":"split-p99","type":"latency","hist":"service.solve_ns.splittable",
             "quantile":0.99,"max_ms":0.000001}]}|}
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let s =
    Runtime.run
      (* a reservoir above the request count keeps every trace *)
      { base_config with seed = 7; burst = 8; trace_sample = Some 64; slo = Some spec }
      (Request.soak_stream ~seed:7 ~requests:24 ())
  in
  check int_c "every request traced" 24 (List.length s.Runtime.traces);
  let flagged, unflagged =
    List.partition (fun t -> Trace_ctx.attr t "slo_violation" = Some "true") s.Runtime.traces
  in
  check bool_c "the 1 ns bound flags traces" true (flagged <> []);
  List.iter
    (fun t ->
      check (Alcotest.option string_c) "only splittable traces are flagged" (Some "splittable")
        (Trace_ctx.attr t "variant"))
    flagged;
  List.iter
    (fun t ->
      check bool_c "every done splittable trace is flagged" false
        (Trace_ctx.attr t "variant" = Some "splittable" && Trace_ctx.attr t "outcome" = Some "done"))
    unflagged

let test_soak_stream_deterministic () =
  let a = Request.soak_stream ~seed:5 ~requests:16 () in
  check bool_c "stable" true (a = Request.soak_stream ~seed:5 ~requests:16 ());
  check bool_c "prefix-closed" true
    (Request.soak_stream ~seed:5 ~requests:8 () = List.filteri (fun i _ -> i < 8) a);
  let ids = List.map (fun (r : Request.t) -> r.Request.id) a in
  check bool_c "unique ids" true (List.length (List.sort_uniq compare ids) = 16)

(* the service site catalogue stays disjoint from the solver's, so the
   historical solver plan stream (and its cram pins) is untouched *)
let test_service_sites_disjoint () =
  List.iter
    (fun s -> check bool_c (s ^ " not a solver site") false (List.mem s Chaos.sites))
    Chaos.service_sites;
  check bool_c "plan_of_seed default stream unchanged" true
    (Chaos.plan_of_seed 42 = Chaos.plan_of_seed ~spread:12 42)

let () =
  Alcotest.run "bss_service"
    [
      ("atomic-file", [ Alcotest.test_case "write+replace" `Quick test_atomic_write ]);
      ( "bqueue",
        [
          Alcotest.test_case "backpressure" `Quick test_bqueue_backpressure;
          Alcotest.test_case "admission chaos" `Quick test_bqueue_admit_chaos;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic jitter" `Quick test_backoff_deterministic;
          Alcotest.test_case "monotonic wait" `Quick test_backoff_wait_monotonic;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "full cycle" `Quick test_breaker_cycle;
          Alcotest.test_case "success resets" `Quick test_breaker_success_resets;
          Alcotest.test_case "probe chaos" `Quick test_breaker_probe_chaos;
          Alcotest.test_case "concurrent half-open probe" `Quick test_breaker_concurrent_probe;
          Alcotest.test_case "counts its own transitions" `Quick test_breaker_telemetry;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "missing and corrupt" `Quick test_journal_missing_and_corrupt;
          Alcotest.test_case "flush fault keeps old" `Quick test_journal_flush_chaos_keeps_old;
          Alcotest.test_case "rotation" `Quick test_journal_rotation;
          Alcotest.test_case "salvage in a sealed segment" `Quick test_journal_salvage_sealed_segment;
          Alcotest.test_case "salvage in the active file" `Quick test_journal_salvage_active_file;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "clean run" `Quick test_run_clean;
          Alcotest.test_case "worker-count invariant" `Quick test_run_worker_count_invariant;
          Alcotest.test_case "backoff jitter worker-invariant" `Quick test_backoff_jitter_worker_invariant;
          Alcotest.test_case "backpressure" `Quick test_run_backpressure;
          Alcotest.test_case "kill-and-resume determinism" `Slow test_kill_and_resume_determinism;
          Alcotest.test_case "resume from prefix journal" `Quick test_resume_from_prefix_journal;
          Alcotest.test_case "breaker trips and recovers" `Quick test_breaker_trips_in_runtime;
          Alcotest.test_case "chaos contract" `Slow test_chaos_contract;
          Alcotest.test_case "chaos worker-count invariant" `Quick test_chaos_worker_count_invariant;
          Alcotest.test_case "chaos abort path" `Quick test_chaos_abort_path;
          Alcotest.test_case "counters reconcile with the summary" `Quick test_counters_reconcile;
          Alcotest.test_case "zero workers rejected" `Quick test_engine_rejects_zero_workers;
          Alcotest.test_case "tracing deterministic" `Quick test_run_tracing_deterministic;
          Alcotest.test_case "slo gate deterministic" `Quick test_run_slo_gate_deterministic;
          Alcotest.test_case "slo trace bound per variant" `Quick test_run_slo_trace_bound_per_variant;
        ] );
      ( "requests",
        [
          Alcotest.test_case "batch parse round-trip" `Quick test_batch_parse_roundtrip;
          Alcotest.test_case "batch parse errors" `Quick test_batch_parse_errors;
          Alcotest.test_case "soak stream deterministic" `Quick test_soak_stream_deterministic;
          Alcotest.test_case "service sites disjoint" `Quick test_service_sites_disjoint;
        ] );
    ]
