(** The crash-safe checkpoint journal, with zero-downtime rotation.

    One line per completed request — tab-separated
    [id <TAB> rung <TAB> makespan]. The {e active} file at [path] is
    rewritten through {!Bss_util.Atomic_file.write} (temp file + rename in
    the journal's directory) at every flush, so a SIGKILL leaves either
    the previous active file or the new one, never a truncated mixture. A
    flush that fails (including an armed ["service.journal.flush"] chaos
    fault) leaves the previous on-disk state intact — checkpointing is
    delayed, results are never corrupted.

    {b Rotation.} With [rotate_every = Some k], a flush that brings the
    active file to [k] or more entries {e seals} it: the active file is
    [rename(2)]d to the next numbered segment ([path.1], [path.2], ...)
    and subsequent flushes start a fresh active file. Sealed segments are
    never rewritten, so flush cost stays proportional to the unsealed
    tail instead of the whole history, and rotation commutes with crash
    safety (the entries exist on disk under exactly one of the two names
    at every instant). {!load} resumes across the whole chain: segments
    in order, then the active file.

    {b Salvage.} A corrupt line — impossible under the atomic-write
    contract, but disks and operators exist — does not abort the resume:
    {!load} keeps the valid prefix of the torn file, abandons the rest of
    that file (entries after a tear are suspect; re-solving them is always
    safe), records a typed {!Bss_resilience.Error.t} detail retrievable
    via {!salvaged}, and bumps the ["service.journal.salvaged"] counter. *)

type entry = {
  id : string;  (** the request id (no tabs or newlines) *)
  rung : string;  (** ladder rung that produced the result *)
  makespan : string;  (** exact rational, as [Rat.to_string] *)
}

type t

(** [load ?rotate_every path] reads the journal chain at [path] — sealed
    segments [path.1 .. path.n] in order, then the active file; missing
    files are empty. Corrupt lines trigger the salvage path described
    above instead of raising. *)
val load : ?rotate_every:int -> string -> t

(** A fresh, empty journal backed by [path]. [rotate_every] enables
    rotation (raises [Invalid_argument] when [< 1]). *)
val fresh : ?rotate_every:int -> string -> t

val path : t -> string

(** [mem t id] is true when [id] is already checkpointed. *)
val mem : t -> string -> bool

(** The checkpointed entry for [id], O(1). *)
val find : t -> string -> entry option

(** Checkpointed entries, oldest first, spanning sealed segments and the
    active file. *)
val entries : t -> entry list

(** Typed details of corrupt lines salvaged around during {!load}, oldest
    first; [[]] on a healthy journal. Each is an [Invalid_input] whose
    [line] is the 1-based line of the first corrupt line in its file. *)
val salvaged : t -> Bss_resilience.Error.t list

(** Sealed segment files on disk ([path.1 .. path.(segments t)]). *)
val segments : t -> int

(** [add t entry] records a completion in memory; it reaches disk at the
    next {!flush}. Re-adding a checkpointed id is a no-op. *)
val add : t -> entry -> unit

(** Completions recorded since the last successful {!flush}. *)
val dirty : t -> int

(** [flush t] atomically rewrites the active file when dirty, then seals
    it into a numbered segment when rotation is enabled and the active
    file reached [rotate_every] entries. Fires
    {!Bss_resilience.Guard.point} ["service.journal.flush"] first; an
    armed chaos fault or an I/O error escapes — the caller contains it
    and retries at the next checkpoint. Six crash points fire along the
    way, one hit each per flush: ["journal.write.before"/".after"] and
    ["journal.rename.before"/".after"] from inside the atomic write,
    ["journal.seal.before"/".after"] around the rotation rename. A
    torture schedule finds them by census and can simulate a kill
    between any two steps of the protocol. *)
val flush : t -> unit
