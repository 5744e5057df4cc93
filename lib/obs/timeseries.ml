open Bss_util

let schema_version = "bss-watch/1"

type sample = {
  upto : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  load : (string * int) list;
  hists : (string * Hist.snapshot) list;
}

let empty_sample = { upto = 0; counters = []; gauges = []; load = []; hists = [] }

let sort_assoc l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

type alert = { kind : string; series : string; value : float; baseline : float }

type window = {
  id : int;
  upto : int;
  span : int;
  final : bool;
  live : bool;
  counters : (string * int) list;
  gauges : (string * int) list;
  alerts : alert list;
  load : (string * int) list;
  hists : (string * Hist.snapshot) list;
}

(* the ring size and the detectors' fixed tuning (see the .mli) *)
let capacity = 64
let alpha = 0.3
let warmup = 3
let spike_factor = 4.0
let spike_min = 8.0
let drift_factor = 8.0
let drift_min_count = 16
let drift_min_ns = 1e6
let burn_threshold = 1.0

type t = {
  slo : Slo.t option;
  ring : window option array;
  mutable pushed : int;
  mutable prev : sample;
  (* EWMA baselines, one entry per series; created on first observation *)
  rate_base : (string, float) Hashtbl.t;
  p99_base : (string, float) Hashtbl.t;
  mutable prev_burn : float option;
  mutable worst_burn : (string * float) list;  (* objective -> max window burn *)
}

let create ?slo () =
  {
    slo;
    ring = Array.make capacity None;
    pushed = 0;
    prev = empty_sample;
    rate_base = Hashtbl.create 16;
    p99_base = Hashtbl.create 8;
    prev_burn = None;
    worst_burn = [];
  }

let pushed t = t.pushed
let worst_burn t = List.sort compare t.worst_burn

let windows t =
  let n = min t.pushed (Array.length t.ring) in
  List.init n (fun i ->
      match t.ring.((t.pushed - n + i) mod Array.length t.ring) with
      | Some w -> w
      | None -> assert false)

(* exact deltas of cumulative counters; series present in [cur] only
   delta against 0, so a counter appearing mid-stream still reconciles *)
let counter_deltas cur prev =
  List.map
    (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k prev)))
    (sort_assoc cur)

let hist_deltas cur prev =
  List.map
    (fun (k, h) -> (k, Hist.diff h (Option.value ~default:Hist.empty (List.assoc_opt k prev))))
    (sort_assoc cur)

let delta_window ?(final = false) ?(live = false) t (s : sample) =
  {
    id = t.pushed;
    upto = s.upto;
    span = s.upto - t.prev.upto;
    final;
    live;
    counters = counter_deltas s.counters t.prev.counters;
    gauges = sort_assoc s.gauges;
    alerts = [];
    load = sort_assoc s.load;
    hists = hist_deltas s.hists t.prev.hists;
  }

let peek t s = delta_window ~live:true t s

(* ---------------- the anomaly detectors ---------------- *)

(* Baselines are read before the window updates them (the window is
   judged against history, not against itself), and every update is a
   pure function of the pushed sample sequence — a seeded synthetic load
   replays the exact alert sequence. *)

let ewma tbl series v =
  let b = Option.value ~default:v (Hashtbl.find_opt tbl series) in
  Hashtbl.replace tbl series (b +. (alpha *. (v -. b)));
  b

let detect t (w : window) =
  let armed = w.id >= warmup in
  let spikes =
    List.filter_map
      (fun (series, d) ->
        let v = float_of_int d in
        let b = ewma t.rate_base series v in
        if armed && v >= spike_min && v > spike_factor *. Float.max b 1.0 then
          Some { kind = "rate_spike"; series; value = v; baseline = b }
        else None)
      w.counters
  in
  let drifts =
    List.filter_map
      (fun (series, (h : Hist.snapshot)) ->
        if h.Hist.count < drift_min_count then None
        else
          let p99 = Hist.quantile h 0.99 in
          let b = ewma t.p99_base series p99 in
          if armed && b > 0.0 && p99 > drift_factor *. b && p99 -. b >= drift_min_ns then
            Some { kind = "p99_drift"; series; value = p99; baseline = b }
          else None)
      w.hists
  in
  let burns =
    match t.slo with
    | None -> []
    | Some spec ->
      let checks = Slo.eval spec { Slo.counters = w.counters; hists = w.hists } in
      List.iter
        (fun (ch : Slo.check) ->
          match List.assoc_opt ch.Slo.objective t.worst_burn with
          | Some b when b >= ch.Slo.burn -> ()
          | _ ->
            t.worst_burn <-
              (ch.Slo.objective, ch.Slo.burn) :: List.remove_assoc ch.Slo.objective t.worst_burn)
        checks;
      let worst =
        List.fold_left
          (fun acc (ch : Slo.check) ->
            match acc with
            | Some (_, b) when b >= ch.Slo.burn -> acc
            | _ -> Some (ch.Slo.objective, ch.Slo.burn))
          None checks
      in
      let fired =
        match worst with
        | Some (objective, burn) when burn > burn_threshold -> (
          match t.prev_burn with
          | Some prev when burn > prev ->
            [ { kind = "burn_acceleration"; series = objective; value = burn; baseline = prev } ]
          | _ -> [])
        | _ -> []
      in
      t.prev_burn <- Option.map snd worst;
      if not armed then [] else fired
  in
  spikes @ drifts @ burns

let push ?(final = false) t s =
  let w = delta_window ~final t s in
  let alerts = detect t w in
  let w = { w with alerts } in
  if alerts <> [] && Probe.enabled () then
    List.iter
      (fun a ->
        Probe.count ("obs.alert." ^ a.kind);
        Probe.count "obs.alerts";
        Probe.event
          (Event.Alert
             { kind = a.kind; series = a.series; window = w.id; value = a.value; baseline = a.baseline }))
      alerts;
  t.ring.(t.pushed mod Array.length t.ring) <- Some w;
  t.pushed <- t.pushed + 1;
  t.prev <- s;
  w

(* ---------------- bss-watch/1 JSON ---------------- *)

let alert_json a =
  Json.obj
    [
      ("kind", Json.str a.kind);
      ("series", Json.str a.series);
      ("value", Json.float a.value);
      ("baseline", Json.float a.baseline);
    ]

let int_obj l = Json.obj (List.map (fun (k, v) -> (k, Json.int v)) l)

(* deterministic prefix first, timing tail ("load", "hists") last — a
   stream comparison strips from [,"load":] onward for worker-count
   bit-identity (docs/observability.md) *)
let window_json w =
  Json.obj
    [
      ("schema", Json.str schema_version);
      ("window", Json.int w.id);
      ("upto", Json.int w.upto);
      ("span", Json.int w.span);
      ("final", Json.bool w.final);
      ("live", Json.bool w.live);
      ("counters", int_obj w.counters);
      ("gauges", int_obj w.gauges);
      ("alerts", Json.arr (List.map alert_json w.alerts));
      ("load", int_obj w.load);
      ("hists", Json.obj (List.map (fun (k, h) -> (k, Hist.to_json h)) w.hists));
    ]

let window_of_json v =
  let ( let* ) r f = match r with Ok x -> f x | Error e -> Error e in
  let int_field k =
    match Json.member k v with
    | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "window: missing or malformed %S" k)
  in
  let bool_field k =
    match Json.member k v with Some (Json.Bool b) -> b | _ -> false
  in
  let int_assoc k =
    match Json.member k v with
    | Some (Json.Obj fields) ->
      Ok
        (List.filter_map
           (function name, Json.Num f when Float.is_integer f -> Some (name, int_of_float f) | _ -> None)
           fields)
    | None -> Ok []
    | Some _ -> Error (Printf.sprintf "window: %S is not an object" k)
  in
  match Json.member "schema" v with
  | Some (Json.Str s) when s = schema_version ->
    let* id = int_field "window" in
    let* upto = int_field "upto" in
    let* span = int_field "span" in
    let* counters = int_assoc "counters" in
    let* gauges = int_assoc "gauges" in
    let* load = int_assoc "load" in
    let* alerts =
      match Json.member "alerts" v with
      | Some (Json.Arr items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let str k =
              match Json.member k item with Some (Json.Str s) -> Ok s | _ -> Error ("alert: missing " ^ k)
            in
            let num k = match Json.member k item with Some (Json.Num f) -> f | _ -> 0.0 in
            let* kind = str "kind" in
            let* series = str "series" in
            Ok ({ kind; series; value = num "value"; baseline = num "baseline" } :: acc))
          (Ok []) items
        |> Result.map List.rev
      | None -> Ok []
      | Some _ -> Error "window: \"alerts\" is not an array"
    in
    let* hists =
      match Json.member "hists" v with
      | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (name, hv) ->
            let* acc = acc in
            let* h = Hist.snapshot_of_json hv in
            Ok ((name, h) :: acc))
          (Ok []) fields
        |> Result.map List.rev
      | None -> Ok []
      | Some _ -> Error "window: \"hists\" is not an object"
    in
    Ok
      {
        id;
        upto;
        span;
        final = bool_field "final";
        live = bool_field "live";
        counters;
        gauges;
        alerts;
        load;
        hists;
      }
  | Some (Json.Str s) -> Error ("window: unsupported schema: " ^ s)
  | _ -> Error "window: missing schema"
