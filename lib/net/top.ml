module Timeseries = Bss_obs.Timeseries
module Hist = Bss_obs.Hist

type config = {
  connect_path : string;
  connect_timeout_ms : int;
  idle_timeout_ms : int;
  max_windows : int option;
  json : bool;
  clear : bool;
}

type summary = {
  windows : int;
  alerts : int;
  final_seen : bool;
  last : Timeseries.window option;
}

(* ---------------- the dashboard rendering ---------------- *)

let state_name = function
  | 0 -> "closed"
  | 1 -> "open"
  | 2 -> "half-open"
  | n -> string_of_int n

let solve_prefix = "service.solve_ns."

let ms_of_ns ns = ns /. 1e6

let render (w : Timeseries.window) =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "bss top — window %d%s  processed=%d (+%d)\n" w.Timeseries.id
    (if w.Timeseries.final then " [final]" else if w.Timeseries.live then " [live]" else "")
    w.Timeseries.upto w.Timeseries.span;
  let c k = Option.value ~default:0 (List.assoc_opt k w.Timeseries.counters) in
  add "  requests  +%d done  +%d aborted  +%d rejected  +%d retries  +%d breaker-transitions\n"
    (c "service.completed") (c "service.aborted") (c "service.rejected") (c "service.retries")
    (c "service.breaker.transitions");
  (* any counter series beyond the known five still shows — the
     dashboard renders the window, not a fixed schema *)
  List.iter
    (fun (k, v) ->
      match k with
      | "service.completed" | "service.aborted" | "service.rejected" | "service.retries"
      | "service.breaker.transitions" ->
        ()
      | _ -> add "  counter   %s +%d\n" k v)
    w.Timeseries.counters;
  let l k = Option.value ~default:0 (List.assoc_opt k w.Timeseries.load) in
  add "  queue     depth=%d peak=%d waves=%d\n" (l "service.queue.depth")
    (l "service.queue.peak") (l "service.waves");
  List.iter
    (fun (k, v) ->
      let variant =
        if String.length k > String.length "service.breaker.state." then
          String.sub k (String.length "service.breaker.state.")
            (String.length k - String.length "service.breaker.state.")
        else k
      in
      add "  breaker   %-16s %s\n" variant (state_name v))
    w.Timeseries.gauges;
  List.iter
    (fun (k, (h : Hist.snapshot)) ->
      if
        String.length k > String.length solve_prefix
        && String.sub k 0 (String.length solve_prefix) = solve_prefix
        && h.Hist.count > 0
      then
        let variant =
          String.sub k (String.length solve_prefix) (String.length k - String.length solve_prefix)
        in
        add "  solve     %-16s %5d req  p50=%.2fms p90=%.2fms p99=%.2fms\n" variant h.Hist.count
          (ms_of_ns (Hist.quantile h 0.50))
          (ms_of_ns (Hist.quantile h 0.90))
          (ms_of_ns (Hist.quantile h 0.99)))
    w.Timeseries.hists;
  (match List.assoc_opt "service.queue.wait_ns" w.Timeseries.hists with
  | Some h when h.Hist.count > 0 ->
    add "  wait      %5d obs  p50=%.2fms p99=%.2fms\n" h.Hist.count
      (ms_of_ns (Hist.quantile h 0.50))
      (ms_of_ns (Hist.quantile h 0.99))
  | _ -> ());
  List.iter
    (fun (a : Timeseries.alert) ->
      add "  ALERT     %s %s value=%.6g baseline=%.6g\n" a.Timeseries.kind a.Timeseries.series
        a.Timeseries.value a.Timeseries.baseline)
    w.Timeseries.alerts;
  Buffer.contents b

(* ---------------- the stream loop ---------------- *)

let run ?(out = print_string) config =
  Client.with_connection ~path:config.connect_path ~timeout_ms:config.connect_timeout_ms
    ~hello:Wire.watch_frame (fun fd ->
      let read = Client.line_reader fd ~idle_timeout_ms:config.idle_timeout_ms in
      let windows = ref 0 and alerts = ref 0 in
      let final_seen = ref false in
      let last = ref None in
      let stop = ref false in
      let err = ref None in
      let handle_line line =
        if (not !stop) && line <> "" then
          match Wire.parse_reply line with
          | Ok (Wire.Window w) ->
            incr windows;
            alerts := !alerts + List.length w.Timeseries.alerts;
            last := Some w;
            if config.json then out (line ^ "\n")
            else begin
              if config.clear then out "\027[H\027[2J";
              out (render w)
            end;
            if w.Timeseries.final then begin
              final_seen := true;
              stop := true
            end;
            (match config.max_windows with
            | Some n when !windows >= n -> stop := true
            | _ -> ())
          | Ok (Wire.Shutdown _) -> stop := true
          | Ok (Wire.Error_frame { error; _ }) ->
            err := Some ("server refused watch: " ^ error);
            stop := true
          | Ok _ -> ()
          | Error e ->
            err := Some ("malformed frame: " ^ e);
            stop := true
      in
      while not !stop do
        match read () with None -> stop := true | Some lines -> List.iter handle_line lines
      done;
      match !err with
      | Some e -> Error e
      | None -> Ok { windows = !windows; alerts = !alerts; final_seen = !final_seen; last = !last })
