(* Like Probe, the disabled path must stay allocation-free: [tick] reads
   two domain-local slots (chaos, guard) and returns. *)

type t = {
  start : int64;
  deadline : int64 option;  (* absolute monotonic ns *)
  fuel : int option;
  mutable spent : int;
}

(* One installed-guard slot per domain: the service worker pool runs a
   guarded solve on every worker domain at once, so a process-global slot
   would let one worker's install/uninstall clobber another's budget. *)
let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let make ?deadline_ms ?fuel () =
  let start = match deadline_ms with None -> 0L | Some _ -> Monotonic_clock.now () in
  let deadline =
    Option.map (fun ms -> Int64.add start (Int64.mul (Int64.of_int ms) 1_000_000L)) deadline_ms
  in
  { start; deadline; fuel; spent = 0 }

let spent g = g.spent
let limited g = g.deadline <> None || g.fuel <> None
let active () = Domain.DLS.get key != None

let tick site =
  Chaos.fire site;
  match Domain.DLS.get key with
  | None -> ()
  | Some g ->
    g.spent <- g.spent + 1;
    (match g.fuel with
    | Some f when g.spent > f ->
      raise (Error.Error (Error.Budget_exhausted { phase = site; spent = g.spent }))
    | _ -> ());
    (match g.deadline with
    | Some d ->
      let now = Monotonic_clock.now () in
      if Int64.compare now d >= 0 then
        raise (Error.Error (Error.Deadline_exceeded { phase = site; elapsed_ns = Int64.sub now g.start }))
    | None -> ())

let point site = Chaos.fire site

let run g f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some g);
  let restore () = Domain.DLS.set key prev in
  match f () with
  | v ->
    restore ();
    Ok v
  | exception Error.Error e ->
    restore ();
    Error e
  | exception e ->
    restore ();
    Error (Error.Internal e)
