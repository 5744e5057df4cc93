open Bss_util
open Bss_instances

type rejection =
  | Below_trivial_bound of { bound : Rat.t }
  | Load_exceeds of { required : Rat.t; available : Rat.t }
  | Machines_exceed of { required : int; available : int }

type outcome =
  | Accepted of Schedule.t
  | Rejected of rejection

type algorithm = Instance.t -> Rat.t -> outcome
type test = Instance.t -> Rat.t -> (unit, rejection) result
type t = { test : test; run : algorithm }

let pp_rejection fmt = function
  | Below_trivial_bound { bound } -> Format.fprintf fmt "rejected: T below trivial bound %a" Rat.pp bound
  | Load_exceeds { required; available } ->
    Format.fprintf fmt "rejected: load %a exceeds mT = %a" Rat.pp required Rat.pp available
  | Machines_exceed { required; available } ->
    Format.fprintf fmt "rejected: needs %d machines, have %d" required available

let pp_outcome fmt = function
  | Accepted s -> Format.fprintf fmt "accepted (makespan %a)" Rat.pp (Schedule.makespan s)
  | Rejected r -> pp_rejection fmt r

let accepted = function
  | Accepted s -> Some s
  | Rejected _ -> None

let is_accepted = function
  | Accepted _ -> true
  | Rejected _ -> false
