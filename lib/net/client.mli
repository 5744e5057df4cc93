(** The netsoak client: drives a seeded request stream at a [bss-net/1]
    server under a bounded pipeline window, reconnecting and re-sending
    only unanswered ids until everything is answered exactly once —
    the client half of the kill-and-resume acceptance soak.

    Duplicate responses (an id answered twice) are counted, never
    silently merged: a nonzero [duplicates] fails {!ok}, which is the
    exactly-once check. Quota sheds come back as [status:"shed"] rows
    and count as answers (the shed, not the silence, is the contract).
    With an SLO spec armed, the client rebuilds the latency histograms
    the server-side gate reads — per-variant [service.solve_ns.*] and
    [service.queue.wait_ns] — from the durations carried in result
    frames, and {!ok} includes the verdict. *)

type config = {
  connect_path : string;
  window : int;  (** max in-flight requests per connection *)
  rounds : int;  (** max connection attempts; each re-sends only unanswered ids *)
  connect_timeout_ms : int;  (** per-round budget to reach the socket (retries inside) *)
  idle_timeout_ms : int;  (** give up a round when the server sends nothing this long *)
  slo : Bss_obs.Slo.t option;
}

(** window 8, 1 round, 5 s connect, 10 s idle, no SLO, empty path. *)
val default_config : config

type row = {
  id : string;
  tenant : string;
  status : string;
  variant : string;
  rung : string option;
  makespan : string option;
  retries : int;
  checkpointed : bool;
  solve_ns : int64;
  queue_wait_ns : int64;
}

type summary = {
  sent : int;  (** frames written, re-sends included *)
  answered : int;  (** distinct ids with a result row *)
  completed : int;
  shed : int;
  rejected : int;
  aborted : int;
  duplicates : int;  (** ids answered more than once — must be 0 *)
  protocol_errors : int;  (** error frames and unparseable replies *)
  reconnects : int;
  rows : row list;  (** answered rows in request-stream order *)
  unanswered : string list;
  shed_by_tenant : (string * int) list;
  slo_verdict : Bss_obs.Slo.verdict option;
}

(** [with_connection ~path ~timeout_ms ?hello f] connects to the
    Unix-domain socket at [path], writes the line [hello] when given, runs
    [f] on the connection and closes it however [f] ends — the one
    connection path of {!soak}, {!send_raw} and [Top.run]. The connect
    retries every 50 ms while the socket is missing or refuses, for up to
    [timeout_ms]: [Error "connect: timed out"] when that budget runs out.
    SIGPIPE is ignored first, so a peer gone before [hello] is written
    gives [Error "connection reset"]. Other connect errors are raised. *)
val with_connection :
  path:string ->
  timeout_ms:int ->
  ?hello:string ->
  (Unix.file_descr -> ('a, string) result) ->
  ('a, string) result

(** [line_reader fd ~idle_timeout_ms] is the read step of every client
    loop ({!soak}, {!send_raw} and [Top.run]): each call waits up to
    [idle_timeout_ms] for bytes and returns the complete lines they
    finish, possibly none; [None] once the connection is over (idle
    timeout, EOF or reset). Partial lines carry over between calls. *)
val line_reader : Unix.file_descr -> idle_timeout_ms:int -> unit -> string list option

(** [soak config requests] runs the stream to completion or round/
    timeout exhaustion. Raises [Invalid_argument] on [window < 1] or
    [rounds < 1]. *)
val soak : config -> Bss_service.Request.t list -> summary

(** Every id answered exactly once, no protocol errors, SLO green. *)
val ok : summary -> bool

(** The deterministic per-request result table, one
    [id\tstatus\trung\tmakespan] line per answered row in stream order —
    the artifact CI joins across kill-and-resume for bit-identity. *)
val render_rows : summary -> string

(** Stable multi-line totals (plus the SLO verdict when armed). *)
val render_summary : summary -> string

(** [send_raw ~path ~connect_timeout_ms ~idle_timeout_ms frame] sends
    one raw line and returns the first reply line — the cram harness's
    protocol probe ([bss netsoak --frame]). *)
val send_raw :
  path:string -> connect_timeout_ms:int -> idle_timeout_ms:int -> string -> (string, string) result
