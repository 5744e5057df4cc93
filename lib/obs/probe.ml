(* Multi-domain collection: one collector per (recording, domain), found
   through a Domain.DLS slot so the hot path never takes a lock.

   - [current] is the installed recording (or None), read with one
     atomic load. The disabled path reads it and returns — no
     allocation, no branch beyond the [None] check.
   - An enabled probe looks up its domain's slot; a slot cached for this
     recording id resolves in two loads. On the first probe of a
     (recording, domain) pair the slot misses and the domain registers a
     collector under the recording's mutex — once per domain per
     recording, never on the steady-state path.
   - Each collector is mutated only by its own domain; harvest happens
     after [f] returns, when any worker domains spawned inside [f] have
     been joined (Parallel.map_results joins before returning). *)

type agg = { mutable calls : int; mutable ns : int64 }
type frame = { path : string; start : int64 }

type collector = {
  domain : int;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
  spans : (string, agg) Hashtbl.t;
  mutable events_rev : (int * Event.t) list;  (* (per-domain seq, event) *)
  mutable nevents : int;
  mutable dropped : int;
  mutable stack : frame list;  (* innermost first *)
}

type recording = {
  id : int;  (* process-unique, so stale DLS slots never alias *)
  lock : Mutex.t;  (* guards [collectors] registration only *)
  mutable collectors : collector list;
}

let current : recording option Atomic.t = Atomic.make None
let enabled () = Atomic.get current != None

let fresh_collector domain =
  {
    domain;
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 8;
    spans = Hashtbl.create 16;
    events_rev = [];
    nevents = 0;
    dropped = 0;
    stack = [];
  }

type slot = { mutable rid : int; mutable coll : collector }

let slot_key : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { rid = -1; coll = fresh_collector (-1) })

let collector_of r =
  let s = Domain.DLS.get slot_key in
  if s.rid = r.id then s.coll
  else begin
    let d = (Domain.self () :> int) in
    Mutex.lock r.lock;
    let c =
      (* a nested recording ending can leave the slot pointing at the
         inner id while this domain is already registered here: reuse
         the registered collector so sequences stay per-domain *)
      match List.find_opt (fun c -> c.domain = d) r.collectors with
      | Some c -> c
      | None ->
        let c = fresh_collector d in
        r.collectors <- c :: r.collectors;
        c
    in
    Mutex.unlock r.lock;
    s.rid <- r.id;
    s.coll <- c;
    c
  end

let count ?(n = 1) name =
  match Atomic.get current with
  | None -> ()
  | Some r -> (
    let c = collector_of r in
    match Hashtbl.find_opt c.counters name with
    | Some v -> v := !v + n
    | None -> Hashtbl.add c.counters name (ref n))

let observe name v =
  match Atomic.get current with
  | None -> ()
  | Some r ->
    let c = collector_of r in
    let h =
      match Hashtbl.find_opt c.hists name with
      | Some h -> h
      | None ->
        let h = Hist.create () in
        Hashtbl.add c.hists name h;
        h
    in
    Hist.record h v

let event ev =
  match Atomic.get current with
  | None -> ()
  | Some r ->
    let c = collector_of r in
    if c.nevents >= Report.event_cap then c.dropped <- c.dropped + 1
    else begin
      c.events_rev <- (c.nevents, ev) :: c.events_rev;
      c.nevents <- c.nevents + 1
    end

(* A span token is the frame's depth (1-based); [leave] unwinds to it, so
   an exception that skips inner [leave]s cannot misattribute time to the
   wrong path — the skipped frames are closed when the ancestor leaves. *)
type span = int

let enter name =
  match Atomic.get current with
  | None -> 0
  | Some r ->
    let c = collector_of r in
    let path = match c.stack with [] -> name | parent :: _ -> parent.path ^ "/" ^ name in
    c.stack <- { path; start = Monotonic_clock.now () } :: c.stack;
    List.length c.stack

let record c frame now =
  let elapsed = Int64.max 0L (Int64.sub now frame.start) in
  (match Hashtbl.find_opt c.spans frame.path with
  | Some a ->
    a.calls <- a.calls + 1;
    a.ns <- Int64.add a.ns elapsed
  | None -> Hashtbl.add c.spans frame.path { calls = 1; ns = elapsed });
  (* every span path doubles as a per-call latency histogram *)
  let h =
    match Hashtbl.find_opt c.hists frame.path with
    | Some h -> h
    | None ->
      let h = Hist.create () in
      Hashtbl.add c.hists frame.path h;
      h
  in
  Hist.record h (Int64.to_float elapsed)

let leave tok =
  match Atomic.get current with
  | None -> ()
  | Some r ->
    let c = collector_of r in
    let depth = List.length c.stack in
    if tok >= 1 && depth >= tok then begin
      let now = Monotonic_clock.now () in
      let rec pop st d =
        match st with
        | f :: rest when d >= tok ->
          record c f now;
          pop rest (d - 1)
        | st -> st
      in
      c.stack <- pop c.stack depth
    end

let span name f =
  if Atomic.get current == None then f ()
  else begin
    let tok = enter name in
    Fun.protect ~finally:(fun () -> leave tok) f
  end

let harvest c =
  let sorted_bindings to_value tbl =
    Hashtbl.fold (fun k v acc -> (k, to_value v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let counters = sorted_bindings (fun r -> !r) c.counters in
  let counters =
    if c.dropped = 0 then counters
    else
      List.merge
        (fun (a, _) (b, _) -> compare a b)
        counters
        [ ("obs.events.dropped", c.dropped) ]
  in
  let spans = sorted_bindings (fun (a : agg) -> { Report.calls = a.calls; ns = a.ns }) c.spans in
  {
    Report.counters;
    hists = sorted_bindings Hist.snapshot c.hists;
    spans;
    by_domain = [ (c.domain, spans) ];
    events =
      List.rev_map (fun (seq, event) -> { Report.domain = c.domain; seq; event }) c.events_rev;
    dropped_events = c.dropped;
  }

let next_id = Atomic.make 1

let with_recording f =
  let r = { id = Atomic.fetch_and_add next_id 1; lock = Mutex.create (); collectors = [] } in
  let prev = Atomic.get current in
  Atomic.set current (Some r);
  let result =
    try f ()
    with e ->
      Atomic.set current prev;
      raise e
  in
  Atomic.set current prev;
  let report =
    List.sort (fun a b -> compare a.domain b.domain) r.collectors
    |> List.fold_left (fun acc c -> Report.merge acc (harvest c)) Report.empty
  in
  (result, report)
