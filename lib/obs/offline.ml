(* Offline analysis of the service's machine-readable artifacts: the
   [--window-every] bss-watch/1 window stream, the soak/serve/torture
   bss-metrics/1 run summary and the [--trace-out] Chrome trace file.
   This is the engine behind [bss report] — it never runs anything, it
   only reads what a previous run wrote. *)

open Bss_util

let metrics_schema_version = "bss-metrics/1"

type point = {
  completed : int;
  rejected : int;
  aborted : int;
  retries : int;
  queue_peak : int;
  waves : int;
  salvaged : int option;
  schedules_explored : int option;
  schedules_violated : int option;
  hists : (string * Hist.snapshot) list;
  gauges : (string * int) list;
}

let empty_point =
  {
    completed = 0;
    rejected = 0;
    aborted = 0;
    retries = 0;
    queue_peak = 0;
    waves = 0;
    salvaged = None;
    schedules_explored = None;
    schedules_violated = None;
    hists = [];
    gauges = [];
  }

let ( let* ) = Result.bind

let int_member name v =
  match Json.member name v with Some (Json.Num n) -> int_of_float n | _ -> 0

(* Counters absent from old artifacts must stay absent from the report
   (the pinned tables predate them), so these parse to [None], not 0. *)
let opt_int_member name v =
  match Json.member name v with Some (Json.Num n) -> Some (int_of_float n) | _ -> None

let hists_member v =
  match Json.member "hists" v with
  | Some (Json.Obj kvs) ->
    List.fold_left
      (fun acc (k, hv) ->
        let* acc = acc in
        match Hist.snapshot_of_json hv with
        | Ok h -> Ok ((k, h) :: acc)
        | Error e -> Error (Printf.sprintf "hist %S: %s" k e))
      (Ok []) kvs
    |> Result.map List.rev
  | _ -> Ok []

(* A run summary [{"schema":"bss-metrics/1","done":..,"hists":{..}}] *)
let point_of_summary v =
  let* hists = hists_member v in
  Ok
    {
      completed = int_member "done" v;
      rejected = int_member "rejected" v;
      aborted = int_member "aborted" v;
      retries = int_member "retries" v;
      queue_peak = int_member "queue_peak" v;
      waves = int_member "waves" v;
      salvaged = opt_int_member "salvaged" v;
      schedules_explored = opt_int_member "schedules_explored" v;
      schedules_violated = opt_int_member "schedules_violated" v;
      hists;
      gauges = [];
    }

(* A window carries deltas: fold it into the stream's running cumulative
   record. Counter deltas add, histogram deltas merge (bucket-exact), the
   latest load and gauge values stand. *)
let fold_window (acc : point) (w : Timeseries.window) =
  let delta k = Option.value ~default:0 (List.assoc_opt k w.Timeseries.counters) in
  let load k prev = Option.value ~default:prev (List.assoc_opt k w.Timeseries.load) in
  let hists =
    List.fold_left
      (fun hs (k, h) ->
        let prev = Option.value ~default:Hist.empty (List.assoc_opt k hs) in
        (k, Hist.merge prev h) :: List.remove_assoc k hs)
      acc.hists w.Timeseries.hists
  in
  {
    acc with
    completed = acc.completed + delta "service.completed";
    rejected = acc.rejected + delta "service.rejected";
    aborted = acc.aborted + delta "service.aborted";
    retries = acc.retries + delta "service.retries";
    queue_peak = load "service.queue.peak" acc.queue_peak;
    waves = load "service.waves" acc.waves;
    hists = List.sort (fun (a, _) (b, _) -> String.compare a b) hists;
    gauges = w.Timeseries.gauges;
  }

(* A captured stdout stream interleaves window lines and the run summary
   with human text (the per-request lines, the summary footer).
   Non-JSON lines are skipped; any line that parses as a JSON object
   claiming to be a record (a "schema", "metrics" or "done" member) must
   carry a schema this build understands — that is the rejection the
   versioned tag exists for. A window yields the running cumulative
   record, so the stream's last window reads like the run summary. *)
let parse_metrics content =
  let lines = String.split_on_char '\n' content in
  let rec go n stream acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let skip () = go (n + 1) stream acc rest in
      let fail e = Error (Printf.sprintf "line %d: %s" n e) in
      match Json.parse (String.trim line) with
      | Error _ -> skip ()
      | Ok v -> (
        match (Json.member "schema" v, Json.member "metrics" v) with
        | Some (Json.Str s), _ when s = Timeseries.schema_version -> (
          match Timeseries.window_of_json v with
          | Error e -> fail e
          | Ok w ->
            let p = fold_window stream w in
            go (n + 1) p (p :: acc) rest)
        | Some (Json.Str s), Some _ when s = metrics_schema_version ->
          fail "periodic metrics lines are retired; record a window stream with --window-every"
        | Some (Json.Str s), None when s = metrics_schema_version -> (
          match point_of_summary v with
          | Ok p -> go (n + 1) stream (p :: acc) rest
          | Error e -> fail e)
        | Some (Json.Str s), _ ->
          fail
            (Printf.sprintf "unsupported schema %S (this build reads %S and %S)" s
               metrics_schema_version Timeseries.schema_version)
        | _ ->
          if List.exists (fun k -> Json.member k v <> None) [ "schema"; "metrics"; "done" ] then
            fail (Printf.sprintf "missing \"schema\" field (expected %S)" metrics_schema_version)
          else skip ()))
  in
  let* points = go 1 empty_point [] lines in
  if points = [] then Error "no metrics records found (run with --window-every or --json)"
  else Ok points

let last points = match List.rev points with p :: _ -> p | [] -> empty_point

let counters p =
  let opt name = function Some v -> [ (name, v) ] | None -> [] in
  [
    ("completed", p.completed);
    ("rejected", p.rejected);
    ("aborted", p.aborted);
    ("retries", p.retries);
    ("queue_peak", p.queue_peak);
    ("waves", p.waves);
  ]
  @ opt "service.journal.salvaged" p.salvaged
  @ opt "sim.schedules.explored" p.schedules_explored
  @ opt "sim.schedules.violated" p.schedules_violated

(* breaker states travel as numerics; the table decodes the known ones *)
let gauge_state v =
  match v with 0 -> "closed" | 1 -> "open" | 2 -> "half-open" | _ -> "-"

(* ---------------- the trace file ---------------- *)

type trace_row = {
  trace_id : string;
  request_id : string;
  seq : int;
  total_ns : float;
  phases : (string * float) list;  (** phase attr -> summed ns, by first appearance *)
}

let str_member name v = match Json.member name v with Some (Json.Str s) -> Some s | _ -> None
let num_member name v = match Json.member name v with Some (Json.Num n) -> Some n | _ -> None

(* Request spans are X events with cat "request", grouped by tid (the
   admission sequence). The root span is named "request" and carries
   the total; every other span sums into its "phase" attribute bucket
   (queue, solve, retry, journal). dur is microseconds in the file. *)
let parse_traces content =
  let* v = Json.parse content in
  let* events =
    match Json.member "traceEvents" v with
    | Some (Json.Arr evs) -> Ok evs
    | _ -> Error "not a Chrome trace file (no \"traceEvents\" array)"
  in
  let rows : (int, trace_row) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun e ->
      match (str_member "ph" e, str_member "cat" e) with
      | Some "X", Some "request" -> (
        match (num_member "tid" e, Json.member "args" e) with
        | Some tid, Some args ->
          let tid = int_of_float tid in
          let dur_ns = Option.value ~default:0. (num_member "dur" e) *. 1e3 in
          let row =
            match Hashtbl.find_opt rows tid with
            | Some r -> r
            | None ->
              order := tid :: !order;
              {
                trace_id = Option.value ~default:"" (str_member "trace_id" args);
                request_id = Option.value ~default:"" (str_member "request_id" args);
                seq = tid;
                total_ns = 0.;
                phases = [];
              }
          in
          let row =
            match str_member "name" e with
            | Some "request" -> { row with total_ns = row.total_ns +. dur_ns }
            | _ -> (
              match str_member "phase" args with
              | Some phase ->
                let prev = Option.value ~default:0. (List.assoc_opt phase row.phases) in
                {
                  row with
                  phases =
                    (if List.mem_assoc phase row.phases then
                       List.map (fun (k, v) -> if k = phase then (k, prev +. dur_ns) else (k, v)) row.phases
                     else row.phases @ [ (phase, dur_ns) ]);
                }
              | None -> row)
          in
          Hashtbl.replace rows tid row
        | _ -> ())
      | _ -> ())
    events;
  let rows = List.rev_map (fun tid -> Hashtbl.find rows tid) !order in
  if rows = [] then Error "no request traces in the file (run with --trace-out and tracing enabled)"
  else Ok rows

let slowest ~k rows =
  let sorted = List.stable_sort (fun a b -> compare b.total_ns a.total_ns) rows in
  let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> [] in
  take k sorted

(* ---------------- rendering ---------------- *)

let ms ns = Printf.sprintf "%.3f" (ns /. 1e6)
let num = Printf.sprintf "%.4g"

let percentile_table p =
  if p.hists = [] then "no histograms recorded\n"
  else
    (^) "\n"
    @@ Table.render
      ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max"; "p99 exemplars" ]
      ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      (List.map
         (fun (name, (h : Hist.snapshot)) ->
           [
             name;
             string_of_int h.Hist.count;
             num (Hist.quantile h 0.5);
             num (Hist.quantile h 0.9);
             num (Hist.quantile h 0.99);
             num h.Hist.max;
             String.concat " " (Hist.quantile_exemplars h 0.99);
           ])
         p.hists)
    ^ "\n"

let counter_table ?baseline p =
  (match baseline with
  | None ->
    Table.render ~header:[ "counter"; "value" ]
      ~align:[ Table.Left; Table.Right ]
      (List.map (fun (k, v) -> [ k; string_of_int v ]) (counters p))
  | Some b ->
    let base = counters b in
    Table.render
      ~header:[ "counter"; "baseline"; "current"; "delta" ]
      ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      (List.map
         (fun (k, v) ->
           let bv = Option.value ~default:0 (List.assoc_opt k base) in
           [ k; string_of_int bv; string_of_int v; Printf.sprintf "%+d" (v - bv) ])
         (counters p)))
  ^ "\n"

(* rendered only when the artifact carried gauges (a live-plane run) —
   older artifacts keep their pinned reports byte-identical *)
let gauge_table p =
  Table.render ~header:[ "gauge"; "value"; "state" ]
    ~align:[ Table.Left; Table.Right; Table.Left ]
    (List.map (fun (k, v) -> [ k; string_of_int v; gauge_state v ]) p.gauges)
  ^ "\n"

let phase_order = [ "queue"; "solve"; "retry"; "journal" ]

let trace_table rows =
  let phase_ms row name = ms (Option.value ~default:0. (List.assoc_opt name row.phases)) in
  let other row =
    row.total_ns -. List.fold_left (fun acc (_, v) -> acc +. v) 0. row.phases
  in
  Table.render
    ~header:
      ([ "trace"; "request"; "total ms" ] @ List.map (fun p -> p ^ " ms") phase_order @ [ "other ms" ])
    ~align:
      ([ Table.Left; Table.Left; Table.Right ]
      @ List.map (fun _ -> Table.Right) phase_order
      @ [ Table.Right ])
    (List.map
       (fun row ->
         [ row.trace_id; row.request_id; ms row.total_ns ]
         @ List.map (phase_ms row) phase_order
         @ [ ms (other row) ])
       rows)
  ^ "\n"
