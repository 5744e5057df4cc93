(** Solve requests: the unit of work the batch-service runtime schedules.

    A request names an instance — either an on-disk instance file or a
    seeded draw from a workload family — together with the problem variant
    and algorithm to run. Realization is deterministic: equal requests
    give equal instances, so a batch killed and resumed re-solves exactly
    the work the checkpoint journal does not cover. *)

open Bss_instances
open Bss_core

type source =
  | File of string  (** path to an {!Instance.of_string} file *)
  | Gen of { family : string; seed : int; m : int; n : int }
      (** a {!Bss_workloads.Generator} family drawn under [seed] *)

type t = {
  id : string;  (** unique within a batch; the journal key *)
  tenant : string;  (** admission-quota key; {!default_tenant} for batch work *)
  variant : Variant.t;
  algorithm : Solver.algorithm;
  source : source;
}

(** ["default"] — the tenant of batch-file and plain soak requests. The
    socket front end keys its per-tenant admission quotas by tenant; the
    worker pool treats every tenant alike. *)
val default_tenant : string

(** [instance t] realizes the request's instance.
    @raise Bss_resilience.Error.Error
      ([Invalid_input]) on a malformed instance file or an unknown
      family. *)
val instance : t -> Instance.t

(** [of_batch_string s] parses a batch file: one request per line,

    {v
    <id> <variant> <algorithm> file <path>
    <id> <variant> <algorithm> gen <family> <seed> <m> <n>
    v}

    where [<variant>] is [nonp]/[pmtn]/[split] and [<algorithm>] is [2],
    [3/2] or [3/2+1/<k>]. Blank lines and [#] comments are skipped.
    @raise Bss_resilience.Error.Error
      ([Invalid_input] with the 1-based line) on a malformed line or a
      duplicate id. *)
val of_batch_string : string -> t list

(** One batch-file line (inverse of {!of_batch_string} for one request).
    The tenant is not represented — batch files are single-tenant. *)
val to_line : t -> string

(** [variant_of_string ~line s] parses [nonp]/[pmtn]/[split] (and their
    long forms); [line] tags the typed error on failure.
    @raise Bss_resilience.Error.Error ([Invalid_input]) otherwise. *)
val variant_of_string : line:int -> string -> Variant.t

(** [algorithm_of_string ~line s] parses [2], [3/2] or [3/2+1/<k>] with
    [k >= 1].
    @raise Bss_resilience.Error.Error ([Invalid_input]) otherwise. *)
val algorithm_of_string : line:int -> string -> Solver.algorithm

(** Inverse of {!algorithm_of_string} (["3/2+1/4"] prints as ["3/2+1/4"]). *)
val algorithm_to_string : Solver.algorithm -> string

(** [soak_stream ?tenants ~seed ~requests ()] is a deterministic soak
    workload: [requests] generated requests round-robining the workload
    families and variants, algorithm 3/2, ids ["soak-<family>-<i>"], sizes
    drawn from a PRNG derived from [(seed, i)] (so any sub-batch realizes
    identically regardless of processing order). [tenants] round-robins
    tenant names over the stream (default: all {!default_tenant}); tenant
    assignment does not perturb the realized instances. *)
val soak_stream : ?tenants:string list -> seed:int -> requests:int -> unit -> t list
