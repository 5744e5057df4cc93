(** Drawing schedules: an ASCII Gantt chart, an SVG document and a CSV
    table.

    The Gantt chart regenerates the paper's schedule figures (Figs. 1–5,
    7–13) as text. Each machine is one row; setups render as the lowercase
    letter of their class, work as the uppercase letter, idle time as
    ['.']. An optional list of guide times (e.g. [T/2], [T], [3T/2]) draws
    a scale line. *)

open Bss_util

(** [gantt ?width ?guides inst sched] renders all machines to a string.
    [width] is the number of character cells for the busy horizon (default
    [72]); [guides] are labelled time marks shown in the header. *)
val gantt : ?width:int -> ?guides:(string * Rat.t) list -> Instance.t -> Schedule.t -> string

(** [svg ?width ?row_height ?guides inst sched] renders the schedule as a
    standalone SVG document: one row per machine, setups hatched in the
    class colour, work solid, optional vertical guide lines. Deterministic
    output (class colours from a fixed palette), suitable for golden
    tests. *)
val svg : ?width:int -> ?row_height:int -> ?guides:(string * Rat.t) list -> Instance.t -> Schedule.t -> string

(** [csv inst sched] renders one line per segment under a header:
    [machine,start,duration,kind,id,class] with exact rational times.
    Stable order: machine, then start. *)
val csv : Instance.t -> Schedule.t -> string
