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

let select ~cmp ?(lo = 0) ?hi a k =
  let hi = match hi with Some hi -> hi | None -> Array.length a - 1 in
  if lo < 0 || hi >= Array.length a || k < lo || k > hi then
    invalid_arg "Select.select: rank out of bounds";
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
  go lo hi
