(* Randomized quickselect with three-way partitioning on int arrays: the
   knapsack selects item positions, stage 1 of class jumping its integer
   breakpoints. An [int array] needs no float-tag check on a read and no
   write barrier on a swap, and a pivot draw allocates nothing. Pivot
   PRNGs are domain-local SplitMix64 streams: selection results are
   deterministic values regardless of pivot order, so the stream only
   affects running time — but keeping it domain-local avoids data races
   under Parallel.map_results. *)

let pivot_key =
  Domain.DLS.new_key (fun () -> Prng.create (0x5e1ec7 + ((Domain.self () :> int) * 0x9e3779b9)))

let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let select ~cmp ~lo ~hi (a : int array) k =
  if lo < 0 || hi >= Array.length a || k < lo || k > hi then
    invalid_arg "Select.select: rank out of bounds";
  let rng = Domain.DLS.get pivot_key in
  (* Invariant: the rank-k element lies in [lo, hi]. *)
  let lo = ref lo and hi = ref hi and found = ref false in
  while not !found do
    if !lo = !hi then found := true
    else begin
      let p = a.(!lo + Prng.int rng (!hi - !lo + 1)) in
      (* Three-way partition (Dutch national flag) around p. *)
      let lt = ref !lo and i = ref !lo and gt = ref !hi in
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
      if k < !lt then hi := !lt - 1
      else if k > !gt then lo := !gt + 1
      else found := true
    end
  done;
  a.(k)
