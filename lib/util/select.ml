(* Randomized quickselect with three-way partitioning.  Pivot PRNGs are
   domain-local SplitMix64 streams: selection results are deterministic
   values regardless of pivot order, so the stream only affects running
   time — but keeping it domain-local avoids data races under
   Parallel.map_results. *)

let pivot_key =
  Domain.DLS.new_key (fun () -> Prng.create (0x5e1ec7 + ((Domain.self () :> int) * 0x9e3779b9)))

let pivot_rng_int bound = Prng.int (Domain.DLS.get pivot_key) bound

let swap a i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let select ~cmp a k =
  let n = Array.length a in
  if k < 0 || k >= n then invalid_arg "Select.select: rank out of bounds";
  (* Invariant: the rank-k element lies in [lo, hi]. *)
  let rec go lo hi =
    if lo = hi then a.(lo)
    else begin
      let p = a.(lo + pivot_rng_int (hi - lo + 1)) in
      (* Three-way partition (Dutch national flag) around p. *)
      let lt = ref lo and i = ref lo and gt = ref hi in
      while !i <= !gt do
        let c = cmp a.(!i) p in
        if c < 0 then begin
          swap a !lt !i;
          incr lt;
          incr i
        end
        else if c > 0 then begin
          swap a !i !gt;
          decr gt
        end
        else incr i
      done;
      if k < !lt then go lo (!lt - 1) else if k > !gt then go (!gt + 1) hi else a.(k)
    end
  in
  go 0 (n - 1)

let kth_smallest ~cmp a k = select ~cmp (Array.copy a) k

let weighted_median ~weight ~cmp a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Select.weighted_median: empty";
  let a = Array.copy a in
  let total = Array.fold_left (fun acc x ->
      let w = weight x in
      if w < 0.0 then invalid_arg "Select.weighted_median: negative weight";
      acc +. w) 0.0 a
  in
  let half = total /. 2.0 in
  (* Recurse on the side containing the weighted median, carrying the weight
     already known to lie strictly below the current window. *)
  let rec go lo hi below =
    if lo = hi then a.(lo)
    else begin
      let p = a.(lo + pivot_rng_int (hi - lo + 1)) in
      let lt = ref lo and i = ref lo and gt = ref hi in
      while !i <= !gt do
        let c = cmp a.(!i) p in
        if c < 0 then begin
          swap a !lt !i;
          incr lt;
          incr i
        end
        else if c > 0 then begin
          swap a !i !gt;
          decr gt
        end
        else incr i
      done;
      let w_lt = ref 0.0 in
      for j = lo to !lt - 1 do
        w_lt := !w_lt +. weight a.(j)
      done;
      let w_eq = ref 0.0 in
      for j = !lt to !gt do
        w_eq := !w_eq +. weight a.(j)
      done;
      if below +. !w_lt >= half then go lo (!lt - 1) below
      else if below +. !w_lt +. !w_eq >= half then p
      else go (!gt + 1) hi (below +. !w_lt +. !w_eq)
    end
  in
  go 0 (n - 1) 0.0
