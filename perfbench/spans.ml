(* The traced run's span recorder. Spans are recorded by the benchmark
   around its calls into each layer, kept in memory, and written out as
   JSON lines when the run ends. A span's layer is its name up to the
   first '.'; its self time is its duration minus the part of it that
   its children cover. Single-domain: only the benchmark's own domain
   records. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : string;  (** request id; "" when the span belongs to no request *)
  t0 : int64;
  t1 : int64;
}

let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with id :: _ -> id | [] -> -1

(* [add] records a span whose interval was measured elsewhere (a request
   in flight over the socket, say) — its [id] may have been handed out
   earlier by [fresh], so that children could name it; [with_span] times
   [f] itself and makes its span the parent of the spans [f] records. *)
let add ?(id = fresh ()) ?(parent = current ()) ?(req = "") name ~t0 ~t1 =
  recorded := { id; name; parent; req; t0; t1 } :: !recorded

let with_span ?(req = "") name f =
  let id = fresh () and parent = current () in
  stack := id :: !stack;
  let t0 = Measure.now () in
  Fun.protect f ~finally:(fun () ->
      stack := List.tl !stack;
      recorded := { id; name; parent; req; t0; t1 = Measure.now () } :: !recorded)

let all () = List.rev !recorded
let duration s = Int64.to_float (Int64.sub s.t1 s.t0)

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* self time of every span, by id: duration minus the union of its
   children's intervals (clipped to the parent) *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
        |> List.filter (fun (a, b) -> Int64.compare a b < 0)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if Int64.compare a b < 0 then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
          (0L, Int64.min_int) kids
      in
      (s, duration s -. Int64.to_float covered))
    spans

let durations spans name = List.filter_map (fun s -> if s.name = name then Some (duration s) else None) spans
let total_ns spans name = Measure.sum (durations spans name)
let mean_ns spans name = Measure.mean (durations spans name)

(* per-layer totals: (layer, spans, self ns), by descending self time *)
let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let k = layer s.name in
      let n, t = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0.0) in
      Hashtbl.replace tbl k (n + 1, t +. self))
    (self_times spans);
  Hashtbl.fold (fun k (n, t) acc -> (k, n, t) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.parent s.req s.t0 s.t1)
    spans;
  close_out oc

(* What a workload's traced run hands back: whether every output it
   checked held, its spans, its per-layer metrics, its end-to-end cost
   per request traced and, for the overhead, untraced — one untraced
   repetition run just before the traced one, so both see the same heap
   and the same moment on the host — and reconciliation rows: a whole in
   ms beside the parts that should account for it. *)
type traced = {
  ok : bool;
  spans : span list;
  metrics : (string * float * string) list;
  per_request_ns : float;
  untraced_ns : float;
  recon : (string * float * (string * float) list) list;
}
