module Guard = Bss_resilience.Guard
module Probe = Bss_obs.Probe

type state =
  | Closed of { failures : int }
  | Open of { remaining : int }
  | Half_open of { probing : bool }

type route = Requested | Probe | Fallback

type t = {
  name : string;
  k : int;
  cooldown : int;
  lock : Mutex.t;
  mutable state : state;
  mutable transitions : string list;  (* newest first *)
}

let make ~name ~k ~cooldown () =
  if k < 1 then invalid_arg "Breaker.make: k < 1";
  if cooldown < 1 then invalid_arg "Breaker.make: cooldown < 1";
  { name; k; cooldown; lock = Mutex.create (); state = Closed { failures = 0 }; transitions = [] }

let state t = Mutex.protect t.lock (fun () -> t.state)

let code = function Closed _ -> 0 | Open _ -> 1 | Half_open _ -> 2

let state_name = function Closed _ -> "closed" | Open _ -> "open" | Half_open _ -> "half-open"

(* Every state change passes through here, so this is where it is
   counted: the per-state counter, the transition counter and its typed
   event, and the state gauge's delta (its running sum is the current
   {!code}). *)
let shift t next =
  let change = state_name t.state ^ "->" ^ state_name next in
  if Probe.enabled () then begin
    Probe.count ("service.breaker." ^ state_name next);
    Probe.count "service.breaker.transitions";
    Probe.event (Bss_obs.Event.Breaker_transition { variant = t.name; change });
    Probe.count ~n:(code next - code t.state) ("service.breaker.state." ^ t.name)
  end;
  t.transitions <- change :: t.transitions;
  t.state <- next

let route t =
  (* Decide-and-mark is one critical section: when several domains race a
     half-open breaker, exactly one caller observes [probing = false] and
     wins the probe; the rest see the marked state and fall back. The
     guard point fires inside the section so a chaos raise leaves the
     probe unmarked — the very next route may legitimately re-probe, and
     the lock is released on the way out ([Mutex.protect]). *)
  Mutex.protect t.lock (fun () ->
      match t.state with
      | Closed _ -> Requested
      | Open _ -> Fallback
      | Half_open { probing = true } -> Fallback
      | Half_open { probing = false } ->
        Guard.point "service.breaker.probe";
        t.state <- Half_open { probing = true };
        Probe)

let record_locked t ~route ~ok =
  match (t.state, route) with
  | Closed { failures }, Requested ->
    if ok then t.state <- Closed { failures = 0 }
    else if failures + 1 >= t.k then shift t (Open { remaining = t.cooldown })
    else t.state <- Closed { failures = failures + 1 }
  | Open { remaining }, Fallback ->
    if remaining <= 1 then shift t (Half_open { probing = false })
    else t.state <- Open { remaining = remaining - 1 }
  | Half_open _, Probe ->
    if ok then shift t (Closed { failures = 0 }) else shift t (Open { remaining = t.cooldown })
  | Half_open _, Fallback -> ()
  | _, _ ->
    (* a route decided under an older state (the wave was dispatched
       before a transition landed): requested-route outcomes still count
       in closed state above; anything else is informational only *)
    ()

let record t ~route ~ok = Mutex.protect t.lock (fun () -> record_locked t ~route ~ok)
let transitions t = Mutex.protect t.lock (fun () -> List.rev t.transitions)
