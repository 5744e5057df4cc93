open Bss_util
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

let bisect lo hi p =
  (* invariant: p lo false, p hi true *)
  let rec go lo hi =
    if hi - lo <= 1 then hi
    else begin
      let mid = (lo + hi) / 2 in
      if p mid then go lo mid else go mid hi
    end
  in
  go lo hi

let first_true a b p =
  if p a then Some a else if a = b || not (p b) then None else Some (bisect a b p)

let midpoint (lo, hi) = Rat.div_int (Rat.add lo hi) 2

let bisect_rat ~stop p lo hi =
  let rec go rounds lo hi =
    if stop ~rounds lo hi then (lo, hi)
    else begin
      let mid = midpoint (lo, hi) in
      if p mid then go (rounds + 1) lo mid else go (rounds + 1) mid hi
    end
  in
  go 0 lo hi

type probe = { source : string; site : string; guesses : string; accepted : string; rejected : string }

let probe source =
  {
    source;
    site = source ^ ".guess";
    guesses = source ^ ".guesses";
    accepted = source ^ ".accepted";
    rejected = source ^ ".rejected";
  }

let guess p test tee =
  Guard.tick p.site;
  Probe.count p.guesses;
  let sp = Probe.enter "dual" in
  let r = test tee in
  Probe.leave sp;
  (match r with
  | Ok () ->
    Probe.count p.accepted;
    if Probe.enabled () then Probe.event (Event.Guess_accepted { source = p.source; t = tee })
  | Error rej ->
    Probe.count p.rejected;
    if Probe.enabled () then
      Probe.event
        (Event.Guess_rejected
           { source = p.source; t = tee; reason = Format.asprintf "%a" Dual.pp_rejection rej }));
  r

let construct ~source run inst tee =
  match run inst tee with
  | Dual.Accepted schedule -> schedule
  | Dual.Rejected r ->
    failwith
      (Format.asprintf "%s: accepted guess %a rejected by the construction: %a" source Rat.pp tee
         Dual.pp_rejection r)

let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let region ~accept candidates =
  let last = Array.length candidates - 1 in
  (* the least to the front, then the greatest to the back: the ends
     [bisect] assumes and never probes *)
  let least = ref 0 in
  for k = 1 to last do
    if candidates.(k) < candidates.(!least) then least := k
  done;
  swap candidates 0 !least;
  let greatest = ref last in
  for k = 1 to last - 1 do
    if candidates.(k) > candidates.(!greatest) then greatest := k
  done;
  swap candidates last !greatest;
  (* [lo] and [hi] follow [bisect]'s range: positions [lo] and [hi] hold
     their ranks, and the ranks between lie at the positions between *)
  let lo = ref 0 and hi = ref last in
  let probe k =
    let ok = accept (Select.select ~cmp:Int.compare ~lo:(!lo + 1) ~hi:(!hi - 1) candidates k) in
    if ok then hi := k else lo := k;
    ok
  in
  let k = bisect !lo !hi probe in
  (candidates.(k - 1), candidates.(k))

let fastest key classes =
  List.fold_left (fun best i -> if key i > key best then i else best) (List.hd classes) classes

type family = { num : int; shift : int }

let point f kappa = Rat.of_ints f.num (kappa + f.shift)

let kappa_range ~cap f (lo, hi) =
  let num = Rat.of_int f.num in
  let kmin = Rat.floor_int (Rat.div num hi) + 1 - f.shift in
  let kmax = if Rat.sign lo <= 0 then cap else min cap (Rat.ceil_int (Rat.div num lo) - 1 - f.shift) in
  (max kmin (1 - f.shift), kmax)

let narrow ~accept ~cap f ((lo, hi) as interval) =
  let kmin, kmax = kappa_range ~cap f interval in
  if kmin > kmax then interval
  else
    (* points fall as κ grows, so "rejected" rises with κ *)
    match first_true kmin kmax (fun kappa -> not (accept (point f kappa))) with
    | None ->
      (* all accepted: had [cap] cut the range, its last point would be
         rejected, so no point of [f] lies below it in (lo, hi) *)
      (lo, point f kmax)
    | Some kappa -> (point f kappa, if kappa > kmin then point f (kappa - 1) else hi)

let single_jumps ~counter ~accept ~cap families ((lo, hi) as interval) =
  let jumps = ref [] in
  List.iter
    (fun f ->
      let kmin, kmax = kappa_range ~cap f interval in
      for kappa = kmin to min kmax (kmin + 3) do
        let t = point f kappa in
        if Rat.( < ) lo t && Rat.( < ) t hi then jumps := t :: !jumps
      done)
    families;
  let jumps = Array.of_list (List.sort_uniq Rat.compare !jumps) in
  let n = Array.length jumps in
  if Probe.enabled () then Probe.count ~n counter;
  if n = 0 then interval
  else
    match first_true 0 (n - 1) (fun k -> accept jumps.(k)) with
    | None -> (jumps.(n - 1), hi)
    | Some k -> ((if k > 0 then jumps.(k - 1) else lo), jumps.(k))
