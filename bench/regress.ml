open Bss_util
open Bss_core
open Bss_workloads
module Variant = Bss_instances.Variant

let schema_version = "bss-bench/1"

type entry = { name : string; ns_per_run : float; runs : int }

type t = {
  schema : string;
  quick : bool;
  meta : (string * string) list;
  entries : entry list;
  counters : (string * int) list;
}

type comparison = { table : string; lines : string list; failures : string list }

(* Provenance for the capture file: which commit produced these numbers.
   Shelling out keeps this dependency-free; a build outside a work tree
   degrades to "unknown" rather than failing the capture. *)
let git_rev () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | ic -> (
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
    | exception _ -> "unknown")
  | exception _ -> "unknown"

(* ---------------- the case set ---------------- *)

let instance_of ~m ~n seed = Generator.uniform.Generator.generate (Prng.create seed) ~m ~n

(* Theorem 2's 3/2+eps algorithm alone, as every other row times its
   algorithm alone: the dual search over [variant]'s dual, paying for the
   T_min it starts from, without the solver's compaction and best-of *)
let eps_search variant epsilon inst =
  let { Dual.test; run } = Solver.dual_for variant in
  let t_min = Bss_instances.Lower_bounds.t_min variant inst in
  ignore (Dual_search.search ~test ~run ~epsilon ~t_min inst)

let eps = Rat.of_ints 1 10

(* Every Table 1 contender on one fixed mid-sized instance: who costs
   what. *)
let table1_cases () =
  let mid = instance_of ~m:16 ~n:2_000 7 in
  [
    ("table1/2approx-nonp", fun () -> ignore (Two_approx.nonpreemptive mid));
    ("table1/2approx-split", fun () -> ignore (Two_approx.splittable mid));
    ("table1/3_2eps-nonp", fun () -> eps_search Variant.Nonpreemptive eps mid);
    ("table1/3_2eps-pmtn", fun () -> eps_search Variant.Preemptive eps mid);
    ("table1/3_2eps-split", fun () -> eps_search Variant.Splittable eps mid);
    ("table1/3_2-nonp-bs", fun () -> ignore (Nonp_search.solve mid));
    ("table1/3_2-pmtn-cj", fun () -> ignore (Pmtn_cj.solve mid));
    ("table1/3_2-split-cj", fun () -> ignore (Splittable_cj.solve mid));
    ("table1/mp-wrap", fun () -> ignore (Bss_baselines.Monma_potts.schedule mid));
    ("table1/mp-batch-split", fun () -> ignore (Bss_baselines.Batch_split.schedule mid));
    ("table1/batch-greedy", fun () -> ignore (Bss_baselines.List_scheduling.greedy mid));
    ("table1/batch-lpt", fun () -> ignore (Bss_baselines.List_scheduling.lpt mid));
  ]

(* A whole 3/2 solve as the service runs it: the search, the best-of
   against the 2-approximation, compaction of the winner and the
   checker's re-validation *)
let solve_robust variant inst = ignore (Solver.solve_robust ~algorithm:Solver.Approx3_2 variant inst)

(* The near-linear running-time claims (Thms 1, 2, 3, 6, 8 and the
   Monma-Potts wrap): each algorithm at growing n, 4x apart, so linear
   growth shows as 4x steps and a log-log slope near 1. The
   solve-robust-* rows set the whole solve beside its search. *)
let scaling_algorithms =
  [
    ("2approx-nonp", fun i -> ignore (Two_approx.nonpreemptive i));
    ("2approx-split", fun i -> ignore (Two_approx.splittable i));
    ("split-cj", fun i -> ignore (Splittable_cj.solve i));
    ("nonp-bs", fun i -> ignore (Nonp_search.solve i));
    ("pmtn-cj", fun i -> ignore (Pmtn_cj.solve i));
    ("3_2eps-pmtn", eps_search Variant.Preemptive eps);
    ("mp-wrap", fun i -> ignore (Bss_baselines.Monma_potts.schedule i));
    ("solve-robust-nonp", solve_robust Variant.Nonpreemptive);
    ("solve-robust-pmtn", solve_robust Variant.Preemptive);
    ("solve-robust-split", solve_robust Variant.Splittable);
  ]

let scaling_sizes ~quick = if quick then [ 1_000 ] else [ 1_000; 4_000; 16_000; 64_000 ]
let scaling_name algo n = Printf.sprintf "scaling/%s/n=%d" algo n

let scaling_cases ~quick =
  List.concat_map
    (fun n ->
      let inst = instance_of ~m:16 ~n (100 + n) in
      List.map (fun (algo, f) -> (scaling_name algo n, fun () -> f inst)) scaling_algorithms)
    (scaling_sizes ~quick)

(* The regime the service serves, which every other row is far above:
   nine families x 30 seeds of soak-shaped instances, m in [2, 6] and n
   in [8, 32] drawn from a fixed stream. A run solves all 270 at 3/2. *)
let small_instances () =
  let rng = Prng.create 23 in
  List.concat_map
    (fun (spec : Generator.spec) ->
      List.init 30 (fun seed ->
          let m = Prng.int_in rng 2 6 in
          let n = Prng.int_in rng 8 32 in
          spec.Generator.generate (Prng.create seed) ~m ~n))
    Generator.all

let small_cases () =
  let instances = small_instances () in
  List.map
    (fun (name, variant) ->
      ("small/solve-robust-" ^ name, fun () -> List.iter (solve_robust variant) instances))
    [ ("nonp", Variant.Nonpreemptive); ("pmtn", Variant.Preemptive); ("split", Variant.Splittable) ]

(* Operations per timed run of a rat-* ablation: a single-limb op takes
   well under a microsecond, so one call would time mostly the clock. *)
let rat_batch = 1_000

(* The design choices DESIGN.md §6 calls out: continuous knapsack by sort
   vs by selection, class jumping vs a fine binary search, the compact
   (m-independent) splittable solver vs the explicit construction, and
   single- vs multi-limb rationals. *)
let ablation_cases () =
  let rng = Prng.create 99 in
  let items =
    Array.init 4_000 (fun i ->
        {
          Bss_knapsack.Knapsack.id = i;
          profit = Rat.of_int (1 + Prng.int rng 1000);
          weight = Rat.of_int (1 + Prng.int rng 1000);
        })
  in
  let capacity = Rat.of_int 500_000 in
  let cj_inst = instance_of ~m:64 ~n:8_000 11 in
  let two_classes ~m p0 p1 =
    Bss_instances.Instance.make ~m ~setups:[| 3; 5 |] ~jobs:[| (0, p0); (0, 7); (1, p1); (1, 11) |]
  in
  let huge = two_classes ~m:1_000_000 40_000_000 9_000_000 in
  let large = two_classes ~m:100_000 4_000_000 900_000 in
  let small_a = Rat.of_ints 355 113 and small_b = Rat.of_ints 22 7 in
  let big_a =
    Rat.make (Bigint.of_string "123456789012345678901234567") (Bigint.of_string "987654321098765432109")
  and big_b =
    Rat.make (Bigint.of_string "314159265358979323846264338") (Bigint.of_string "271828182845904523536")
  in
  let rat_ops op a b () =
    for _ = 1 to rat_batch do
      ignore (Sys.opaque_identity (op (Sys.opaque_identity a) b))
    done
  in
  [
    ("ablation/knapsack-sorted", fun () -> ignore (Bss_knapsack.Knapsack.solve_sorted items ~capacity));
    ("ablation/knapsack-linear", fun () -> ignore (Bss_knapsack.Knapsack.solve_linear items ~capacity));
    ("ablation/search-class-jumping", fun () -> ignore (Splittable_cj.solve cj_inst));
    (* the binary search pays for the T_min it starts from, as class
       jumping pays for its region search *)
    ( "ablation/search-binary-eps",
      fun () -> eps_search Variant.Splittable (Rat.of_ints 1 1024) cj_inst );
    ("ablation/compact-split-m1e6", fun () -> ignore (Splittable_compact.solve huge));
    ("ablation/explicit-split-m100k", fun () -> ignore (Splittable_cj.solve large));
    ("ablation/rat-add-small", rat_ops Rat.add small_a small_b);
    ("ablation/rat-add-big", rat_ops Rat.add big_a big_b);
    ("ablation/rat-mul-small", rat_ops Rat.mul small_a small_b);
    ("ablation/rat-mul-big", rat_ops Rat.mul big_a big_b);
  ]

(* The counter sweep runs the instrumented solvers on the jumpy
   "expensive" instance the cram tests pin and merges the recordings:
   guess/jump/dual-call counters are deterministic, so they transfer
   across machines and gate exactly. *)
let counter_sweep () =
  let inst = (Generator.by_name "expensive").Generator.generate (Prng.create 1) ~m:16 ~n:48 in
  let runs =
    [
      (Solver.Approx3_2, Variant.Nonpreemptive);
      (Solver.Approx3_2, Variant.Preemptive);
      (Solver.Approx3_2, Variant.Splittable);
      (Solver.Approx3_2_eps (Rat.of_ints 1 8), Variant.Nonpreemptive);
      (Solver.Approx2, Variant.Nonpreemptive);
    ]
  in
  let merged =
    List.fold_left
      (fun acc (algorithm, variant) ->
        let _, report =
          Bss_obs.Probe.with_recording (fun () -> Solver.solve ~algorithm variant inst)
        in
        Bss_obs.Report.merge acc report)
      Bss_obs.Report.empty runs
  in
  merged.Bss_obs.Report.counters

(* ---------------- timing ---------------- *)

let time_once f =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (f ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

let measure ~runs f =
  ignore (Sys.opaque_identity (f ()));
  Stats.median (Array.init runs (fun _ -> time_once f))

let time_cases ~progress ~runs cases =
  List.map
    (fun (name, f) ->
      let ns = measure ~runs f in
      progress (Printf.sprintf "%-32s %12.0f ns/run" name ns);
      { name; ns_per_run = ns; runs })
    cases

(* One line per scaling algorithm: the log-log slope of its median times
   over the sizes (1.0 = linear), then the times themselves. *)
let slope_lines ~quick entries =
  let sizes = scaling_sizes ~quick in
  if List.length sizes < 2 then []
  else
    List.map
      (fun (algo, _) ->
        let ns =
          List.map
            (fun n -> (List.find (fun e -> e.name = scaling_name algo n) entries).ns_per_run)
            sizes
        in
        let slope =
          Stats.loglog_slope (Array.of_list (List.map2 (fun n t -> (float_of_int n, t)) sizes ns))
        in
        Printf.sprintf "slope %-24s %.2f over n=%s: %s ms" ("scaling/" ^ algo) slope
          (String.concat "/" (List.map string_of_int sizes))
          (String.concat " / " (List.map (fun t -> Printf.sprintf "%.2f" (t /. 1e6)) ns)))
      scaling_algorithms

(* ---------------- net throughput ---------------- *)

(* One full serve+soak round trip over a loopback Unix-domain socket: a
   server domain answers the seeded 30-request stream and drains itself,
   while the netsoak client drives it under a bounded window — the
   closed-loop service path (wire parse, admission, dispatch waves,
   response flush) that pure solver timings never touch. The
   [scaling/net-throughput] entry gates the wall time of the round trip;
   [net/solve-p99] reports the p99 server-side solve time carried back
   in the result frames (informational — solver entries already gate
   compute). *)
let net_requests = 30

let net_socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bss-bench-%d.sock" (Unix.getpid ()))

let net_round_trip ~socket_path () =
  (try Sys.remove socket_path with Sys_error _ -> ());
  let requests = Bss_service.Request.soak_stream ~seed:7 ~requests:net_requests () in
  let config =
    {
      Bss_net.Server.listen_path = socket_path;
      service = { Bss_service.Runtime.default_config with workers = Some 2; seed = 7 };
      quota = None;
      read_timeout_ms = Bss_net.Server.default_read_timeout_ms;
      write_timeout_ms = Bss_net.Server.default_write_timeout_ms;
      drain_after = Some net_requests;
      max_frame_bytes = Bss_net.Server.default_max_frame_bytes;
    }
  in
  let server = Domain.spawn (fun () -> Bss_net.Server.serve config) in
  let client =
    { Bss_net.Client.default_config with connect_path = socket_path; window = 8; rounds = 3 }
  in
  let summary = Bss_net.Client.soak client requests in
  ignore (Domain.join server);
  if not (Bss_net.Client.ok summary && summary.Bss_net.Client.answered = net_requests) then
    failwith "net-throughput round trip failed: stream not answered exactly once";
  summary

let net_entries ~progress ~quick =
  let socket_path = net_socket_path () in
  let runs = if quick then 3 else 5 in
  let last = ref None in
  let ns = measure ~runs (fun () -> last := Some (net_round_trip ~socket_path ())) in
  (try Sys.remove socket_path with Sys_error _ -> ());
  let name = Printf.sprintf "scaling/net-throughput/n=%d" net_requests in
  progress
    (Printf.sprintf "%-32s %12.0f ns/run (%.0f req/s)" name ns
       (1e9 *. float_of_int net_requests /. ns));
  let p99 =
    match !last with
    | None -> 0.0
    | Some s ->
      Stats.percentile 99.
        (Array.of_list
           (List.map (fun r -> Int64.to_float r.Bss_net.Client.solve_ns) s.Bss_net.Client.rows))
  in
  progress (Printf.sprintf "%-32s %12.0f ns solve p99" "net/solve-p99" p99);
  [ { name; ns_per_run = ns; runs }; { name = "net/solve-p99"; ns_per_run = p99; runs = 1 } ]

let run ?(progress = fun _ -> ()) ~quick () =
  let runs = if quick then 5 else 9 in
  let table1 = time_cases ~progress ~runs (table1_cases ()) in
  let scaling = time_cases ~progress ~runs (scaling_cases ~quick) in
  List.iter progress (slope_lines ~quick scaling);
  let small = time_cases ~progress ~runs (small_cases ()) in
  let ablation = time_cases ~progress ~runs (ablation_cases ()) in
  let entries = table1 @ scaling @ small @ ablation @ net_entries ~progress ~quick in
  let counters = counter_sweep () in
  progress (Printf.sprintf "counter sweep: %d deterministic counters" (List.length counters));
  { schema = schema_version; quick; meta = [ ("git_rev", git_rev ()) ]; entries; counters }

(* ---------------- JSON round trip ---------------- *)

let to_json t =
  Json.obj
    [
      ("schema", Json.str t.schema);
      ("quick", Json.bool t.quick);
      ("meta", Json.obj (List.map (fun (k, v) -> (k, Json.str v)) t.meta));
      ( "entries",
        Json.arr
          (List.map
             (fun e ->
               Json.obj
                 [
                   ("name", Json.str e.name);
                   ("ns_per_run", Json.float e.ns_per_run);
                   ("runs", Json.int e.runs);
                 ])
             t.entries) );
      ("counters", Json.obj (List.map (fun (k, v) -> (k, Json.int v)) t.counters));
    ]

let of_json s =
  let ( let* ) = Result.bind in
  let* v = Json.parse s in
  let* schema =
    match Json.member "schema" v with
    | Some (Json.Str schema) -> Ok schema
    | _ -> Error "missing \"schema\" field"
  in
  let* () =
    if schema = schema_version then Ok ()
    else Error (Printf.sprintf "unsupported schema %S (this build reads %S)" schema schema_version)
  in
  let quick = match Json.member "quick" v with Some (Json.Bool b) -> b | _ -> false in
  (* meta is provenance, optional: files captured before it existed
     still parse *)
  let meta =
    match Json.member "meta" v with
    | Some (Json.Obj fields) ->
      List.filter_map (fun (k, mv) -> match mv with Json.Str s -> Some (k, s) | _ -> None) fields
    | _ -> []
  in
  let* entries =
    match Json.member "entries" v with
    | Some (Json.Arr es) ->
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          match (Json.member "name" e, Json.member "ns_per_run" e, Json.member "runs" e) with
          | Some (Json.Str name), Some (Json.Num ns_per_run), Some (Json.Num runs) ->
            Ok ({ name; ns_per_run; runs = int_of_float runs } :: acc)
          | _ -> Error "malformed entry")
        (Ok []) es
      |> Result.map List.rev
    | _ -> Error "missing \"entries\" array"
  in
  let* counters =
    match Json.member "counters" v with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (k, c) ->
          let* acc = acc in
          match c with
          | Json.Num n -> Ok ((k, int_of_float n) :: acc)
          | _ -> Error ("non-integer counter " ^ k))
        (Ok []) fields
      |> Result.map List.rev
    | _ -> Error "missing \"counters\" object"
  in
  Ok { schema; quick; meta; entries; counters }

(* ---------------- the gate ---------------- *)

let gated name = String.length name >= 8 && String.sub name 0 8 = "scaling/"

let against ?(tolerance = 0.25) ~baseline current =
  let lines = ref [] and failures = ref [] in
  let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let fail fmt = Printf.ksprintf (fun s -> lines := s :: !lines; failures := s :: !failures) fmt in
  (* every current entry gets a delta row; only scaling/* rows gate
     (every other group is informational, entries without a baseline are
     new) *)
  let rows =
    List.map
      (fun (e : entry) ->
        match List.find_opt (fun (b : entry) -> b.name = e.name) baseline.entries with
        | None -> [ e.name; "-"; Printf.sprintf "%.0f" e.ns_per_run; "-"; "new" ]
        | Some b ->
          let ratio = e.ns_per_run /. b.ns_per_run in
          let verdict =
            if not (gated e.name) then "info"
            else if ratio > 1.0 +. tolerance then begin
              fail "REGRESS %s: %.0f -> %.0f ns (%.2fx > %.2fx allowed)" e.name b.ns_per_run
                e.ns_per_run ratio (1.0 +. tolerance);
              "REGRESS"
            end
            else "ok"
          in
          [
            e.name;
            Printf.sprintf "%.0f" b.ns_per_run;
            Printf.sprintf "%.0f" e.ns_per_run;
            Printf.sprintf "%.2fx" ratio;
            verdict;
          ])
      current.entries
  in
  let table =
    Table.render
      ~header:[ "case"; "baseline ns"; "current ns"; "ratio"; "verdict" ]
      ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      rows
    ^ "\n"
  in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k baseline.counters with
      | None -> say "new     counter %s = %d (no baseline)" k v
      | Some bv when bv = v -> say "ok      counter %s = %d" k v
      | Some bv -> fail "DRIFT   counter %s: %d -> %d (deterministic counters must match)" k bv v)
    current.counters;
  (* a counter the capture lost is drift too: nothing counts it any more *)
  List.iter
    (fun (k, bv) ->
      if not (List.mem_assoc k current.counters) then
        fail "GONE    counter %s = %d (baseline only: no longer counted)" k bv)
    baseline.counters;
  { table; lines = List.rev !lines; failures = List.rev !failures }
