open Bss_util

type content =
  | Setup of int
  | Work of int

type seg = { start : Rat.t; dur : Rat.t; content : content }

(* [segs.(u)] is machine [u]'s segments in reverse append order;
   [in_order.(u)] holds while they were appended in strictly increasing
   start order, so that [segments] can return them without a sort *)
type t = { m : int; segs : seg list array; in_order : bool array }

let create m =
  if m < 1 then invalid_arg "Schedule.create: m < 1";
  { m; segs = Array.make m []; in_order = Array.make m true }

let machines t = t.m

let add t ~machine seg =
  if machine < 0 || machine >= t.m then invalid_arg "Schedule.add: bad machine";
  if Rat.sign seg.dur < 0 then invalid_arg "Schedule.add: negative duration";
  if Rat.sign seg.start < 0 then invalid_arg "Schedule.add: negative start";
  if not (Rat.is_zero seg.dur) then begin
    (match t.segs.(machine) with
    | last :: _ when Rat.compare last.start seg.start >= 0 -> t.in_order.(machine) <- false
    | _ -> ());
    t.segs.(machine) <- seg :: t.segs.(machine)
  end

let add_setup t ~machine ~cls ~start ~dur = add t ~machine { start; dur; content = Setup cls }
let add_work t ~machine ~job ~start ~dur = add t ~machine { start; dur; content = Work job }

let by_start a b = Rat.compare a.start b.start

(* an in-order machine's reversed list is what the stable sort returns:
   strictly increasing starts leave no tie for it to order *)
let segments t u = if t.in_order.(u) then List.rev t.segs.(u) else List.sort by_start t.segs.(u)

let all_segments t =
  let acc = ref [] in
  for u = 0 to t.m - 1 do
    List.iter (fun s -> acc := (u, s) :: !acc) t.segs.(u)
  done;
  !acc

let machine_end t u =
  List.fold_left (fun acc s -> Rat.max acc (Rat.add s.start s.dur)) Rat.zero t.segs.(u)

let machine_load t u = List.fold_left (fun acc s -> Rat.add acc s.dur) Rat.zero t.segs.(u)

let makespan t =
  let best = ref Rat.zero in
  for u = 0 to t.m - 1 do
    best := Rat.max !best (machine_end t u)
  done;
  !best

let total_load t =
  let acc = ref Rat.zero in
  for u = 0 to t.m - 1 do
    acc := Rat.add !acc (machine_load t u)
  done;
  !acc

let job_index ~n t =
  let idx = Array.make n [] in
  for u = 0 to t.m - 1 do
    List.iter
      (fun s ->
        match s.content with
        | Work j when j >= 0 && j < n -> idx.(j) <- (u, s.start, s.dur) :: idx.(j)
        | Work _ | Setup _ -> ())
      t.segs.(u)
  done;
  idx

let seg_equal a b =
  Rat.equal a.start b.start && Rat.equal a.dur b.dur
  &&
  match (a.content, b.content) with
  | Setup i, Setup i' -> i = i'
  | Work j, Work j' -> j = j'
  | Setup _, Work _ | Work _, Setup _ -> false

let equal a b =
  a.m = b.m
  &&
  let rec segs_eq xs ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs, y :: ys -> seg_equal x y && segs_eq xs ys
    | _ -> false
  in
  let rec machines_eq u = u >= a.m || (segs_eq (segments a u) (segments b u) && machines_eq (u + 1)) in
  machines_eq 0
