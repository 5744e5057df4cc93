(** The [bss-net/1] wire codec: newline-delimited JSON frames over a
    Unix-domain stream socket.

    Every frame is one JSON object on one line, terminated by ['\n'].
    Requests carry [{"schema":"bss-net/1","op":...}] with op [solve]
    (a {!Bss_service.Request.t}: id, tenant, variant, algorithm, and a
    source of either [{"file":path}] or
    [{"gen":{family,seed,m,n}}]), [ping], [stats] (one on-demand live
    telemetry window) or [watch] (subscribe this connection to the
    server-pushed window stream — see docs/observability.md). Responses
    carry op [result] (terminal per-request answer, status
    [done|rejected|aborted|shed]), [pong], [error] (protocol-level
    rejection of a malformed or duplicate frame — the connection stays
    open), or [shutdown] (the server is draining; no further frames
    will be answered). Telemetry windows are the exception to the op
    rule: they travel as bare [bss-watch/1] objects
    ({!Bss_obs.Timeseries.window_json}) with no [op], so the watch
    stream is exactly the line format [bss top --json] re-emits.

    Generator seeds span the full native-int range — beyond the 2{^53}
    window where JSON numbers survive the parser's float round-trip —
    so ["seed"] travels as a decimal string. Instance realization must
    be bit-identical on both sides of the socket. *)

type frame = Solve of Bss_service.Request.t | Ping | Stats | Watch

(** A parsed server->client frame, as the soak client sees it. *)
type reply =
  | Result of {
      id : string;
      tenant : string;
      status : string;  (** ["done"], ["rejected"], ["aborted"] or ["shed"] *)
      variant : string;
      rung : string option;
      makespan : string option;
      routed : string;
      retries : int;
      degraded : bool;
      checkpointed : bool;
      solve_ns : int64;
      queue_wait_ns : int64;
      error : string option;  (** the typed error's [kind], when present *)
    }
  | Pong
  | Error_frame of { id : string option; error : string }
  | Shutdown of { reason : string; served : int }
  | Window of Bss_obs.Timeseries.window
      (** a live telemetry window: a [stats] answer ([live = true]) or
          one element of the [watch] stream *)

(** [drain_lines buf] extracts the complete ['\n']-terminated lines from
    [buf] (oldest first) and leaves any unterminated remainder buffered —
    the shared read-side framing of server and client. *)
val drain_lines : Buffer.t -> string list

(** {1 Client -> server} *)

(** One-line request frame (no trailing newline). *)
val solve_frame : Bss_service.Request.t -> string

val ping_frame : string

val watch_frame : string
(** Subscribe the connection to the pushed window stream, starting with
    a ring backfill for contiguity. Quota-exempt, like [ping]/[stats]. *)

(** [parse_frame line] decodes a request frame; the typed error of a
    malformed one becomes the payload of the server's [error] frame. *)
val parse_frame : string -> (frame, Bss_resilience.Error.t) result

(** {1 Server -> client} *)

(** The terminal answer for an engine outcome. *)
val result_frame : Bss_service.Runtime.outcome -> string

(** A [status:"shed"] result for a request refused by its tenant's
    admission quota; [capacity]/[pending] render the bucket's burst and
    remaining tokens as typed [Overloaded] backpressure. *)
val shed_frame : Bss_service.Request.t -> capacity:int -> pending:int -> string

val pong_frame : string
val error_frame : ?id:string -> Bss_resilience.Error.t -> string
val shutdown_frame : reason:string -> served:int -> string

(** [parse_reply line] decodes a server frame on the client side. *)
val parse_reply : string -> (reply, string) result
