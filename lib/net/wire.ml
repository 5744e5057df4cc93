module Json = Bss_util.Json
module Rerror = Bss_resilience.Error
module Request = Bss_service.Request
module Runtime = Bss_service.Runtime
module Timeseries = Bss_obs.Timeseries
open Bss_instances

let schema_version = "bss-net/1"

type frame = Solve of Request.t | Ping | Stats | Watch

type reply =
  | Result of {
      id : string;
      tenant : string;
      status : string;
      variant : string;
      rung : string option;
      makespan : string option;
      routed : string;
      retries : int;
      degraded : bool;
      checkpointed : bool;
      solve_ns : int64;
      queue_wait_ns : int64;
      error : string option;
    }
  | Pong
  | Error_frame of { id : string option; error : string }
  | Shutdown of { reason : string; served : int }
  | Window of Timeseries.window

(* ---------------- buffered line framing ---------------- *)

let drain_lines buf =
  let s = Buffer.contents buf in
  let n = String.length s in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
      Buffer.clear buf;
      if start < n then Buffer.add_substring buf s start (n - start);
      List.rev acc
  in
  if n = 0 then [] else go 0 []

(* ---------------- field helpers ---------------- *)

let str_field k v = match Json.member k v with Some (Json.Str s) -> Some s | _ -> None

let int_field k v =
  match Json.member k v with
  | Some (Json.Num f) when Float.is_integer f && Float.abs f <= 2. ** 53. -> Some (int_of_float f)
  | _ -> None

let bad ?(field = "frame") reason = Error (Rerror.Invalid_input { line = None; field; reason })

let require what = function Some v -> Ok v | None -> bad ~field:what ("missing or malformed " ^ what)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* ---------------- request frames (client -> server) ---------------- *)

(* Seeds span the whole native-int range, beyond the 2^53 window where
   JSON numbers survive a float round-trip, so they travel as decimal
   strings — realization must be bit-identical on both sides of the
   socket. *)
let solve_frame (r : Request.t) =
  let source =
    match r.Request.source with
    | Request.File path -> ("file", Json.str path)
    | Request.Gen { family; seed; m; n } ->
      ( "gen",
        Json.obj
          [
            ("family", Json.str family);
            ("seed", Json.str (string_of_int seed));
            ("m", Json.int m);
            ("n", Json.int n);
          ] )
  in
  Json.obj
    [
      ("schema", Json.str schema_version);
      ("op", Json.str "solve");
      ("id", Json.str r.Request.id);
      ("tenant", Json.str r.Request.tenant);
      ("variant", Json.str (Variant.to_string r.Request.variant));
      ("algorithm", Json.str (Request.algorithm_to_string r.Request.algorithm));
      source;
    ]

let ping_frame =
  Json.obj [ ("schema", Json.str schema_version); ("op", Json.str "ping") ]

let watch_frame =
  Json.obj [ ("schema", Json.str schema_version); ("op", Json.str "watch") ]

let parse_frame line =
  match Json.parse line with
  | Error msg -> bad ("not a JSON object: " ^ msg)
  | Ok v -> (
    let* schema = require "schema" (str_field "schema" v) in
    if schema <> schema_version then bad ~field:"schema" ("unsupported schema: " ^ schema)
    else
      let* op = require "op" (str_field "op" v) in
      match op with
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "watch" -> Ok Watch
      | "solve" -> (
        let* id = require "id" (str_field "id" v) in
        let tenant = Option.value ~default:Request.default_tenant (str_field "tenant" v) in
        let* variant = require "variant" (str_field "variant" v) in
        let* algorithm = require "algorithm" (str_field "algorithm" v) in
        let* source =
          match (str_field "file" v, Json.member "gen" v) with
          | Some path, None -> Ok (Request.File path)
          | None, Some g -> (
            let* family = require "gen.family" (str_field "family" g) in
            let* seed_s = require "gen.seed" (str_field "seed" g) in
            let* m = require "gen.m" (int_field "m" g) in
            let* n = require "gen.n" (int_field "n" g) in
            match int_of_string_opt seed_s with
            | Some seed -> Ok (Request.Gen { family; seed; m; n })
            | None -> bad ~field:"gen.seed" ("not an integer: " ^ seed_s))
          | _ -> bad ~field:"source" "exactly one of \"file\" or \"gen\" required"
        in
        try
          Ok
            (Solve
               {
                 Request.id;
                 tenant;
                 variant = Request.variant_of_string ~line:0 variant;
                 algorithm = Request.algorithm_of_string ~line:0 algorithm;
                 source;
               })
        with Rerror.Error e -> Error e)
      | op -> bad ~field:"op" ("unknown op: " ^ op))

(* ---------------- reply frames (server -> client) ---------------- *)

let status_string = function
  | Runtime.Done -> "done"
  | Runtime.Rejected -> "rejected"
  | Runtime.Aborted -> "aborted"

let result_fields ~id ~tenant ~status ~variant ?rung ?makespan ~routed ~retries ~degraded
    ~checkpointed ~solve_ns ~queue_wait_ns ?error () =
  Json.obj
    ([
       ("schema", Json.str schema_version);
       ("op", Json.str "result");
       ("id", Json.str id);
       ("tenant", Json.str tenant);
       ("status", Json.str status);
       ("variant", Json.str variant);
     ]
    @ (match rung with Some r -> [ ("rung", Json.str r) ] | None -> [])
    @ (match makespan with Some m -> [ ("makespan", Json.str m) ] | None -> [])
    @ [
        ("routed", Json.str routed);
        ("retries", Json.int retries);
        ("degraded", Json.bool degraded);
        ("checkpointed", Json.bool checkpointed);
        ("solve_ns", Json.int64 solve_ns);
        ("queue_wait_ns", Json.int64 queue_wait_ns);
      ]
    @ match error with Some e -> [ ("error", e) ] | None -> [])

let result_frame (o : Runtime.outcome) =
  let r = o.Runtime.request in
  result_fields ~id:r.Request.id ~tenant:r.Request.tenant ~status:(status_string o.Runtime.status)
    ~variant:(Variant.to_string r.Request.variant) ?rung:o.Runtime.rung ?makespan:o.Runtime.makespan
    ~routed:o.Runtime.routed ~retries:o.Runtime.retries_used ~degraded:o.Runtime.degraded
    ~checkpointed:o.Runtime.from_checkpoint ~solve_ns:o.Runtime.latency_ns
    ~queue_wait_ns:o.Runtime.queue_wait_ns
    ?error:(Option.map Rerror.to_json o.Runtime.error)
    ()

let shed_frame (r : Request.t) ~capacity ~pending =
  result_fields ~id:r.Request.id ~tenant:r.Request.tenant ~status:"shed"
    ~variant:(Variant.to_string r.Request.variant) ~routed:"-" ~retries:0 ~degraded:false
    ~checkpointed:false ~solve_ns:0L ~queue_wait_ns:0L
    ~error:(Rerror.to_json (Rerror.Overloaded { capacity; pending }))
    ()

let pong_frame =
  Json.obj [ ("schema", Json.str schema_version); ("op", Json.str "pong") ]

let error_frame ?id e =
  Json.obj
    ([ ("schema", Json.str schema_version); ("op", Json.str "error") ]
    @ (match id with Some id -> [ ("id", Json.str id) ] | None -> [])
    @ [ ("error", Rerror.to_json e) ])

let shutdown_frame ~reason ~served =
  Json.obj
    [
      ("schema", Json.str schema_version);
      ("op", Json.str "shutdown");
      ("reason", Json.str reason);
      ("served", Json.int served);
    ]

let parse_reply line =
  match Json.parse line with
  | Error msg -> Error ("not a JSON object: " ^ msg)
  | Ok v -> (
    match str_field "op" v with
    | Some "pong" -> Ok Pong
    | Some "shutdown" ->
      Ok
        (Shutdown
           {
             reason = Option.value ~default:"" (str_field "reason" v);
             served = Option.value ~default:0 (int_field "served" v);
           })
    | Some "error" ->
      let error =
        match Json.member "error" v with
        | Some (Json.Obj _ as e) -> (
          match str_field "kind" e with Some k -> k | None -> "unknown")
        | _ -> "unknown"
      in
      Ok (Error_frame { id = str_field "id" v; error })
    | Some "result" -> (
      match (str_field "id" v, str_field "status" v) with
      | Some id, Some status ->
        let i64 k =
          match Json.member k v with Some (Json.Num f) -> Int64.of_float f | _ -> 0L
        in
        Ok
          (Result
             {
               id;
               tenant = Option.value ~default:Request.default_tenant (str_field "tenant" v);
               status;
               variant = Option.value ~default:"" (str_field "variant" v);
               rung = str_field "rung" v;
               makespan = str_field "makespan" v;
               routed = Option.value ~default:"-" (str_field "routed" v);
               retries = Option.value ~default:0 (int_field "retries" v);
               degraded =
                 (match Json.member "degraded" v with Some (Json.Bool b) -> b | _ -> false);
               checkpointed =
                 (match Json.member "checkpointed" v with Some (Json.Bool b) -> b | _ -> false);
               solve_ns = i64 "solve_ns";
               queue_wait_ns = i64 "queue_wait_ns";
               error =
                 (match Json.member "error" v with
                 | Some (Json.Obj _ as e) -> str_field "kind" e
                 | _ -> None);
             })
      | _ -> Error "result frame missing id/status")
    | Some op -> Error ("unknown op: " ^ op)
    | None -> (
      (* window lines are bare [bss-watch/1] objects with no [op]: the
         watch stream and the [stats] answer share the client's framing *)
      match str_field "schema" v with
      | Some s when s = Timeseries.schema_version -> (
        match Timeseries.window_of_json v with
        | Ok w -> Ok (Window w)
        | Error e -> Error e)
      | _ -> Error "frame has no op"))
