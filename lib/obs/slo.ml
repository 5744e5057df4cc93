open Bss_util

let schema_version = "bss-slo/1"

type target =
  | Latency of { hist : string; quantile : float; max_ns : float }
  | Error_rate of { max : float }
  | Retry_rate of { max : float }

type objective = { name : string; target : target }
type t = { objectives : objective list }

type sample = { counters : (string * int) list; hists : (string * Hist.snapshot) list }

type check = {
  objective : string;
  ok : bool;
  measured : float;
  threshold : float;
  burn : float;
}

type verdict = { ok : bool; checks : check list; windows : int; worst_burn : (string * float) list }

(* ---------------- evaluation ---------------- *)

(* a latency objective names a histogram or a family prefix: [name]
   covers the metric itself and every ["<name>.<suffix>"] (the
   per-variant service.solve_ns.<variant> split) *)
let covers name k = k = name || String.starts_with ~prefix:(name ^ ".") k

let matching_hist name hists =
  List.fold_left (fun acc (k, h) -> if covers name k then Hist.merge acc h else acc) Hist.empty hists

let latency_bound spec ~hist =
  List.fold_left
    (fun acc o ->
      match o.target with
      | Latency { hist = name; max_ns; _ } when covers name hist ->
        Some (Option.fold ~none:max_ns ~some:(Float.min max_ns) acc)
      | _ -> acc)
    None spec.objectives

let ratio num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

let eval_objective o (s : sample) =
  let counter k = Option.value ~default:0 (List.assoc_opt k s.counters) in
  let completed = counter "service.completed"
  and rejected = counter "service.rejected"
  and aborted = counter "service.aborted" in
  let measured, threshold =
    match o.target with
    | Latency { hist; quantile; max_ns } ->
      let h = matching_hist hist s.hists in
      ((if h.Hist.count = 0 then 0. else Hist.quantile h quantile), max_ns)
    | Error_rate { max } -> (ratio (rejected + aborted) (completed + rejected + aborted), max)
    | Retry_rate { max } -> (ratio (counter "service.retries") (completed + aborted), max)
  in
  let burn = if threshold > 0. then measured /. threshold else if measured > 0. then infinity else 0. in
  { objective = o.name; ok = measured <= threshold; measured; threshold; burn }

let eval spec s = List.map (fun o -> eval_objective o s) spec.objectives

(* the gate is cumulative; the worst window burn per objective rides
   along as the early-warning signal *)
let verdict ?(windows = 0) ?(worst_burn = []) spec s =
  let checks = eval spec s in
  {
    ok = List.for_all (fun (c : check) -> c.ok) checks;
    checks;
    windows;
    worst_burn = List.sort compare worst_burn;
  }

(* ---------------- rendering ---------------- *)

let check_json (c : check) =
  Json.obj
    [
      ("objective", Json.str c.objective);
      ("ok", Json.bool c.ok);
      ("measured", Json.float c.measured);
      ("threshold", Json.float c.threshold);
      ("burn", Json.float c.burn);
    ]

(* [verdict] and [failed] lead: they are deterministic for a seeded run
   (pass/fail against generous thresholds does not wobble with the
   wall clock the way [measured] does), so the gate's verdict can be
   compared bit-for-bit across worker counts *)
let verdict_json v =
  Json.obj
    ([
       ("verdict", Json.str (if v.ok then "pass" else "fail"));
       ( "failed",
         Json.arr (List.filter_map (fun (c : check) -> if c.ok then None else Some (Json.str c.objective)) v.checks)
       );
       ("windows", Json.int v.windows);
       ("checks", Json.arr (List.map check_json v.checks));
     ]
    @
    if v.worst_burn = [] then []
    else
      [
        ( "worst_window_burn",
          Json.obj (List.map (fun (k, b) -> (k, Json.float b)) v.worst_burn) );
      ])

let verdict_text v =
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf) "slo: %s (%d objectives, %d windows)\n"
    (if v.ok then "pass" else "FAIL")
    (List.length v.checks) v.windows;
  List.iter
    (fun (c : check) ->
      Printf.ksprintf (Buffer.add_string buf) "  %-4s %-24s measured=%.4g threshold=%.4g burn=%.2f%s\n"
        (if c.ok then "ok" else "FAIL")
        c.objective c.measured c.threshold c.burn
        (match List.assoc_opt c.objective v.worst_burn with
        | Some b when b > c.burn +. 1e-9 -> Printf.sprintf " (worst window %.2f)" b
        | _ -> ""))
    v.checks;
  Buffer.contents buf

(* ---------------- the objectives file ---------------- *)

let of_string s =
  let ( let* ) = Result.bind in
  let* v = Json.parse s in
  let* () =
    match Json.member "schema" v with
    | Some (Json.Str schema) when schema = schema_version -> Ok ()
    | Some (Json.Str schema) ->
      Error (Printf.sprintf "unsupported schema %S (this build reads %S)" schema schema_version)
    | _ -> Error (Printf.sprintf "missing \"schema\" field (expected %S)" schema_version)
  in
  let parse_objective ov =
    let str field =
      match Json.member field ov with
      | Some (Json.Str s) -> Ok s
      | _ -> Error (Printf.sprintf "objective: missing string %S" field)
    in
    let num field =
      match Json.member field ov with
      | Some (Json.Num n) -> Ok n
      | _ -> Error (Printf.sprintf "objective: missing numeric %S" field)
    in
    let* name = str "name" in
    let* kind = str "type" in
    let* target =
      match kind with
      | "latency" ->
        let* hist = str "hist" in
        let* quantile = num "quantile" in
        let* max_ms = num "max_ms" in
        if quantile <= 0. || quantile > 1. then Error (name ^ ": quantile must be in (0, 1]")
        else if max_ms <= 0. then Error (name ^ ": max_ms must be positive")
        else Ok (Latency { hist; quantile; max_ns = max_ms *. 1e6 })
      | "error_rate" ->
        let* max = num "max" in
        if max < 0. then Error (name ^ ": max must be >= 0") else Ok (Error_rate { max })
      | "retry_rate" ->
        let* max = num "max" in
        if max < 0. then Error (name ^ ": max must be >= 0") else Ok (Retry_rate { max })
      | k -> Error (Printf.sprintf "%s: unknown objective type %S" name k)
    in
    Ok { name; target }
  in
  match Json.member "objectives" v with
  | Some (Json.Arr os) ->
    let* objectives =
      List.fold_left
        (fun acc ov ->
          let* acc = acc in
          let* o = parse_objective ov in
          Ok (o :: acc))
        (Ok []) os
      |> Result.map List.rev
    in
    if objectives = [] then Error "objectives list is empty" else Ok { objectives }
  | _ -> Error "missing \"objectives\" array"
