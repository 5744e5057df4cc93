(** Minimal JSON writer (no parser, no dependency).

    Combinators return already-serialized fragments; [obj]/[arr] compose
    them. Enough for the CLI's [--json] output and the telemetry sinks —
    exact rationals are emitted as strings to avoid float loss. *)

(** [str s] is the quoted, escaped string literal. *)
val str : string -> string

val int : int -> string
val int64 : int64 -> string
val bool : bool -> string

(** [float f] uses ["%.6g"]; non-finite values become [null]. *)
val float : float -> string

(** [obj fields] where each value is an already-serialized fragment. *)
val obj : (string * string) list -> string

val arr : string list -> string

(** {1 Parsing}

    A small recursive-descent reader, added for the benchmark
    regression gate ([bss bench --against]) which must read back the
    JSON this module wrote. It handles the full JSON grammar this
    writer can produce (objects, arrays, strings with escapes, numbers,
    booleans, null); numbers are read as [float] (exact for integers
    below 2{^53}, which covers every counter and nanosecond total we
    emit). *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list  (** fields in document order *)

(** [parse s] reads one JSON document (trailing whitespace allowed).
    [Error msg] carries the byte offset of the failure. *)
val parse : string -> (value, string) result

(** [member k v] is field [k] of object [v], if both exist. *)
val member : string -> value -> value option
