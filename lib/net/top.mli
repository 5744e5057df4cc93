(** The [bss top] client: subscribes to a server's live window stream
    ([watch] frame, docs/observability.md) and renders each window as a
    refreshing dashboard — or, with [json], re-emits the raw
    [bss-watch/1] lines verbatim (the machine-readable mode the CI
    top-smoke job parses).

    The stream ends at the server's [final] window or [shutdown] frame,
    at [max_windows], on EOF, or after [idle_timeout_ms] of silence;
    all of those return [Ok] with what was received. [Error] is
    reserved for a failed connect, a malformed frame, or the server
    refusing the subscription (telemetry plane not armed). *)

type config = {
  connect_path : string;
  connect_timeout_ms : int;
  idle_timeout_ms : int;
  max_windows : int option;  (** stop after this many windows; [None] = stream to the end *)
  json : bool;  (** re-emit raw window lines instead of rendering *)
  clear : bool;  (** ANSI clear before each rendered window (interactive refresh) *)
}

type summary = {
  windows : int;
  alerts : int;  (** total alerts carried by the received windows *)
  final_seen : bool;  (** the stream terminated with the server's [final] window *)
  last : Bss_obs.Timeseries.window option;
}

(** [run ?out config] subscribes and pumps the stream, writing rendered
    dashboards (or raw lines) through [out] (default: [print_string]). *)
val run : ?out:(string -> unit) -> config -> (summary, string) result
