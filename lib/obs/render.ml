open Bss_util

let ms ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e6)
let num = Printf.sprintf "%.4g"

let dropped_warning (r : Report.t) =
  Printf.sprintf "!! %d event(s) dropped beyond the %d-event cap — counters are complete, the event stream is not"
    r.Report.dropped_events Report.event_cap

let table ?(events = false) (r : Report.t) =
  let buf = Buffer.create 1024 in
  if r.dropped_events > 0 then begin
    Buffer.add_string buf (dropped_warning r);
    Buffer.add_char buf '\n'
  end;
  if r.spans <> [] then begin
    Buffer.add_string buf
      (Table.render
         ~header:[ "span"; "calls"; "total ms" ]
         ~align:[ Table.Left; Table.Right; Table.Right ]
         (List.map
            (fun (path, (s : Report.span_total)) -> [ path; string_of_int s.calls; ms s.ns ])
            r.spans));
    Buffer.add_char buf '\n'
  end;
  if r.hists <> [] then begin
    Buffer.add_string buf
      (Table.render
         ~header:[ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ]
         ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
         (List.map
            (fun (name, (h : Hist.snapshot)) ->
              [
                name;
                string_of_int h.Hist.count;
                num (Hist.quantile h 0.5);
                num (Hist.quantile h 0.9);
                num (Hist.quantile h 0.99);
                num h.Hist.max;
              ])
            r.hists));
    Buffer.add_char buf '\n'
  end;
  if r.counters <> [] then begin
    Buffer.add_string buf
      (Table.render ~header:[ "counter"; "value" ]
         ~align:[ Table.Left; Table.Right ]
         (List.map (fun (name, v) -> [ name; string_of_int v ]) r.counters));
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf
    (Printf.sprintf "events: %d recorded%s\n" (List.length r.events)
       (if r.dropped_events > 0 then Printf.sprintf " (+%d dropped)" r.dropped_events else ""));
  if events then
    List.iter
      (fun (e : Report.event_entry) ->
        Buffer.add_string buf (Format.asprintf "  %a\n" Event.pp e.Report.event))
      r.events;
  Buffer.contents buf

let json (r : Report.t) =
  Json.obj
    ((if r.dropped_events > 0 then [ ("warning", Json.str (dropped_warning r)) ] else [])
    @ [
        ("counters", Json.obj (List.map (fun (name, v) -> (name, Json.int v)) r.counters));
        ("hists", Json.obj (List.map (fun (name, h) -> (name, Hist.to_json h)) r.hists));
        ( "spans",
          Json.obj
            (List.map
               (fun (path, (s : Report.span_total)) ->
                 (path, Json.obj [ ("calls", Json.int s.calls); ("ns", Json.int64 s.ns) ]))
               r.spans) );
        ( "events",
          Json.arr (List.map (fun (e : Report.event_entry) -> Event.to_json e.Report.event) r.events)
        );
        ("dropped_events", Json.int r.dropped_events);
      ])

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv (r : Report.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kind,name,value,detail\n";
  let row kind name value detail =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s\n" kind (csv_cell name) (csv_cell value) (csv_cell detail))
  in
  List.iter (fun (name, v) -> row "counter" name (string_of_int v) "") r.counters;
  List.iter
    (fun (name, (h : Hist.snapshot)) ->
      row "hist" name (string_of_int h.Hist.count)
        (Printf.sprintf "p50=%s;p90=%s;p99=%s;max=%s" (num (Hist.quantile h 0.5))
           (num (Hist.quantile h 0.9)) (num (Hist.quantile h 0.99)) (num h.Hist.max)))
    r.hists;
  List.iter
    (fun (path, (s : Report.span_total)) ->
      row "span" path (string_of_int s.calls) (Int64.to_string s.ns))
    r.spans;
  List.iter
    (fun (e : Report.event_entry) ->
      let tag, value, detail = Event.summary e.Report.event in
      row "event" tag value detail)
    r.events;
  Buffer.contents buf

(* ---------------- Chrome trace_event export ---------------- *)

(* ts/dur are microseconds; emit with fixed precision so output is
   stable across float formatting quirks *)
let us ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e3)

let leaf path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let metadata ~pid ~tid which name =
  Json.obj
    [
      ("ph", Json.str "M");
      ("name", Json.str which);
      ("pid", Json.int pid);
      ("tid", Json.int tid);
      ("args", Json.obj [ ("name", Json.str name) ]);
    ]

(* Lay one domain's aggregated span tree out as a flamegraph: children
   nest inside their parent's interval, siblings go end to end in path
   order. The cursor is a synthetic offset — span totals carry no start
   times. *)
let domain_events ~pid (spans : (string * Report.span_total) list) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (p, s) -> Hashtbl.replace tbl p s) spans;
  let children = Hashtbl.create 16 in
  List.iter
    (fun (p, s) ->
      let parent =
        match String.rindex_opt p '/' with
        | Some i ->
          let par = String.sub p 0 i in
          if Hashtbl.mem tbl par then par else ""
        | None -> ""
      in
      Hashtbl.replace children parent
        ((p, s) :: Option.value ~default:[] (Hashtbl.find_opt children parent)))
    spans;
  let kids parent = List.rev (Option.value ~default:[] (Hashtbl.find_opt children parent)) in
  let out = ref [] in
  let add e = out := e :: !out in
  (* both metadata records: Perfetto only groups tracks under a named
     process when the thread is named too *)
  add (metadata ~pid ~tid:0 "process_name" (Printf.sprintf "domain %d" pid));
  add (metadata ~pid ~tid:0 "thread_name" (Printf.sprintf "domain %d spans" pid));
  let rec emit cursor (path, (s : Report.span_total)) =
    add
      (Json.obj
         [
           ("ph", Json.str "X");
           ("name", Json.str (leaf path));
           ("cat", Json.str "span");
           ("ts", us cursor);
           ("dur", us s.Report.ns);
           ("pid", Json.int pid);
           ("tid", Json.int 0);
           ("args", Json.obj [ ("path", Json.str path); ("calls", Json.int s.Report.calls) ]);
         ]);
    ignore
      (List.fold_left
         (fun c child ->
           emit c child;
           Int64.add c (snd child).Report.ns)
         cursor (kids path))
  in
  ignore
    (List.fold_left
       (fun c root ->
         emit c root;
         Int64.add c (snd root).Report.ns)
       0L (kids ""));
  List.rev !out

(* Request traces live in their own trace process: one thread (tid =
   admission sequence) per trace, named by its trace id, every span
   event carrying the trace/request ids in [args] so Perfetto's flow and
   search find them. Spans inside a request are genuinely sequential
   (queue wait, attempts, journal), so the cursor layout is close to the
   real request timeline, with real durations. *)
let request_pid = 1000

let request_trace_events (t : Trace_ctx.trace) =
  let out = ref [] in
  let add e = out := e :: !out in
  add (metadata ~pid:request_pid ~tid:t.Trace_ctx.seq "thread_name" t.Trace_ctx.trace_id);
  let attr_json (k, v) =
    ( k,
      match v with
      | Trace_ctx.S s -> Json.str s
      | Trace_ctx.I i -> Json.int i
      | Trace_ctx.B b -> Json.bool b )
  in
  let rec emit cursor (s : Trace_ctx.span) =
    add
      (Json.obj
         [
           ("ph", Json.str "X");
           ("name", Json.str s.Trace_ctx.name);
           ("cat", Json.str "request");
           ("ts", us cursor);
           ("dur", us s.Trace_ctx.dur_ns);
           ("pid", Json.int request_pid);
           ("tid", Json.int t.Trace_ctx.seq);
           ( "args",
             Json.obj
               ([
                  ("trace_id", Json.str t.Trace_ctx.trace_id);
                  ("request_id", Json.str t.Trace_ctx.request_id);
                ]
               @ List.map attr_json s.Trace_ctx.attrs) );
         ]);
    ignore
      (List.fold_left
         (fun c child ->
           emit c child;
           Int64.add c child.Trace_ctx.dur_ns)
         cursor s.Trace_ctx.children)
  in
  emit 0L t.Trace_ctx.root;
  List.rev !out

let chrome_trace ?(traces = []) (r : Report.t) =
  let span_events =
    List.concat_map
      (fun (dom, spans) -> domain_events ~pid:(max dom 0) spans)
      r.Report.by_domain
  in
  let trace_events =
    if traces = [] then []
    else
      metadata ~pid:request_pid ~tid:0 "process_name" "requests"
      :: List.concat_map request_trace_events traces
  in
  let counter_events =
    List.map
      (fun (name, v) ->
        Json.obj
          [
            ("ph", Json.str "C");
            ("name", Json.str name);
            ("pid", Json.int 0);
            ("tid", Json.int 0);
            ("ts", "0");
            ("args", Json.obj [ ("value", Json.int v) ]);
          ])
      r.Report.counters
  in
  Json.obj
    [
      ("traceEvents", Json.arr (span_events @ trace_events @ counter_events));
      ("displayTimeUnit", Json.str "ms");
    ]
