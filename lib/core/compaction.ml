open Bss_util
open Bss_instances
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event

(* [segs.(u)] is machine [u]'s segments in start order *)
let by_machine sched = Array.init (Schedule.machines sched) (Schedule.segments sched)

(* Every segment starts at its machine's front when [job_front] cannot
   bind: a splittable piece never waits for its job, and a job whose
   pieces share one machine (every non-preemptive job) finds that
   machine's front past its earlier pieces already. Each machine is then
   laid back to back from 0 on its own. *)
let per_machine segs =
  let out = Schedule.create (Array.length segs) in
  Array.iteri
    (fun u machine ->
      ignore
        (List.fold_left
           (fun front (seg : Schedule.seg) ->
             Schedule.add out ~machine:u { seg with Schedule.start = front };
             Rat.add front seg.Schedule.dur)
           Rat.zero machine))
    segs;
  out

(* [spanning inst segs] marks the jobs with pieces on two machines: only
   they can wait for their own earlier pieces *)
let spanning inst segs =
  let n = Instance.n inst in
  let home = Array.make n (-1) and spans = Array.make n false in
  Array.iteri
    (fun u ->
      List.iter (fun (seg : Schedule.seg) ->
          match seg.Schedule.content with
          | Schedule.Work j ->
            if home.(j) < 0 then home.(j) <- u else if home.(j) <> u then spans.(j) <- true
          | Schedule.Setup _ -> ()))
    segs;
  spans

(* The preemptive replay: each segment starts at [max(machine_front,
   job_front)], in (start, machine) order. Only a spanning job has a
   front that can bind, so a machine lays its other segments at its front
   as it reaches them, and only the spanning jobs' pieces need the order:
   the machines' next such pieces are merged through a binary min-heap of
   the [m] machine heads. That is O(S + K log m) for S segments, K of them
   spanning, against O(S log S) for sorting them all. Same-machine
   segments of a feasible schedule never share a start, so the order is
   total. [place u seg start] sees each segment placed; the result is the
   machines' final fronts. *)
let replay inst segs place =
  let spans = spanning inst segs in
  let m = Array.length segs in
  let machine_front = Array.make m Rat.zero in
  let job_front = Array.make (Instance.n inst) Rat.zero in
  let lay u (seg : Schedule.seg) =
    let start =
      match seg.Schedule.content with
      | Schedule.Work j when spans.(j) -> Rat.max machine_front.(u) job_front.(j)
      | Schedule.Work _ | Schedule.Setup _ -> machine_front.(u)
    in
    let finish = Rat.add start seg.Schedule.dur in
    (match seg.Schedule.content with
    | Schedule.Work j when spans.(j) -> job_front.(j) <- finish
    | Schedule.Work _ | Schedule.Setup _ -> ());
    machine_front.(u) <- finish;
    place u seg start
  in
  let rest = Array.copy segs in
  (* lay [u]'s segments up to its next spanning piece, left at the head of
     [rest.(u)]; false once [u] has none *)
  let rec advance u =
    match rest.(u) with
    | { Schedule.content = Schedule.Work j; _ } :: _ when spans.(j) -> true
    | seg :: tl ->
      lay u seg;
      rest.(u) <- tl;
      advance u
    | [] -> false
  in
  let start u = match rest.(u) with (seg : Schedule.seg) :: _ -> seg.Schedule.start | [] -> assert false in
  let before u v =
    let c = Rat.compare (start u) (start v) in
    c < 0 || (c = 0 && u < v)
  in
  (* [heap.(0 .. size-1)] holds the machines with a spanning piece left *)
  let heap = Array.make m 0 and size = ref 0 in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let c = if l + 1 < !size && before heap.(l + 1) heap.(l) then l + 1 else l in
      if before heap.(c) heap.(i) then begin
        let u = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- u;
        sift_down c
      end
    end
  in
  for u = 0 to m - 1 do
    if advance u then begin
      heap.(!size) <- u;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down i
  done;
  while !size > 0 do
    let u = heap.(0) in
    (match rest.(u) with
    | seg :: tl ->
      lay u seg;
      rest.(u) <- tl
    | [] -> assert false);
    if not (advance u) then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift_down 0
  done;
  machine_front

let compact variant inst sched =
  Probe.count "compaction.runs";
  let segs = by_machine sched in
  let out =
    match variant with
    | Variant.Nonpreemptive | Variant.Splittable -> per_machine segs
    | Variant.Preemptive ->
      let out = Schedule.create (Array.length segs) in
      ignore
        (replay inst segs (fun u seg start ->
             Schedule.add out ~machine:u { seg with Schedule.start = start }));
      out
  in
  if Probe.enabled () then begin
    (* gap volume closed = total leftward shift; busy time is invariant,
       so end-of-machine deltas sum exactly the idle removed *)
    let closed = ref Rat.zero in
    for u = 0 to Schedule.machines sched - 1 do
      closed := Rat.add !closed (Rat.sub (Schedule.machine_end sched u) (Schedule.machine_end out u))
    done;
    Probe.event (Event.Gap_closed { volume = !closed })
  end;
  out

let makespan variant inst sched =
  match variant with
  | Variant.Nonpreemptive | Variant.Splittable ->
    (* a machine laid back to back from 0 ends at its load *)
    let best = ref Rat.zero in
    for u = 0 to Schedule.machines sched - 1 do
      best := Rat.max !best (Schedule.machine_load sched u)
    done;
    !best
  | Variant.Preemptive -> Array.fold_left Rat.max Rat.zero (replay inst (by_machine sched) (fun _ _ _ -> ()))
