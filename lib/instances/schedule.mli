(** Explicit schedules: per-machine lists of time segments.

    A segment either performs the setup of a class or processes a piece of a
    job. All coordinates are exact rationals ({!Bss_util.Rat}), matching the
    fractional split points produced by wrapping and by rational makespan
    guesses. Segments may be appended in any order; accessors return them
    sorted by start time. *)

open Bss_util

type content =
  | Setup of int  (** class id *)
  | Work of int  (** job id *)

type seg = { start : Rat.t; dur : Rat.t; content : content }

type t

(** [create m] is an empty schedule on [m] machines.
    @raise Invalid_argument when [m < 1]. *)
val create : int -> t

val machines : t -> int

(** [add t ~machine seg] appends a segment. Zero-duration segments are
    silently dropped (wrapping can produce empty tail pieces).
    @raise Invalid_argument on a bad machine index or negative duration. *)
val add : t -> machine:int -> seg -> unit

(** [add_setup t ~machine ~cls ~start ~dur] convenience wrapper. *)
val add_setup : t -> machine:int -> cls:int -> start:Rat.t -> dur:Rat.t -> unit

(** [add_work t ~machine ~job ~start ~dur] convenience wrapper. *)
val add_work : t -> machine:int -> job:int -> start:Rat.t -> dur:Rat.t -> unit

(** [segments t u] is machine [u]'s segments sorted by start time, equal
    starts (which a feasible schedule does not have) latest-appended first.
    A machine whose segments were appended in strictly increasing start
    order is returned without sorting, in [O(k)] for its [k] segments. *)
val segments : t -> int -> seg list

(** [all_segments t] is [(machine, seg)] for every segment, unordered. *)
val all_segments : t -> (int * seg) list

(** [machine_end t u] is the end of the last segment on [u] ([0] if empty);
    idle gaps count, so this is the completion time, not the busy load. *)
val machine_end : t -> int -> Rat.t

(** [machine_load t u] is the total busy time (setups + work) on [u]. *)
val machine_load : t -> int -> Rat.t

(** [makespan t] is the maximum {!machine_end} over all machines. *)
val makespan : t -> Rat.t

(** [total_load t] is the sum of {!machine_load}. *)
val total_load : t -> Rat.t

(** [job_index ~n t] is an array mapping each job id in [\[0,n)] to its work
    pieces [(machine, start, dur)], unordered. *)
val job_index : n:int -> t -> (int * Rat.t * Rat.t) list array

(** [equal a b] holds when both schedules place the same segments (same
    start, duration and content under {!Bss_util.Rat.equal}) on the same
    machines. Semantic, not structural: rationals on different {!Rat} tiers
    compare by value, so a fast-tier schedule can be certified against a
    force-exact one. *)
val equal : t -> t -> bool
