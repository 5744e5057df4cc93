open Bss_util
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event

type item = { id : int; profit : Rat.t; weight : Rat.t }

type solution = { take : Rat.t array; value : Rat.t; used : Rat.t; split : int option }

module type WEIGHT = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val compare : t -> t -> int
end

module Greedy (W : WEIGHT) = struct
  let is_positive w = W.compare w W.zero > 0
  let sum weights ps = List.fold_left (fun acc p -> W.add acc weights.(p)) W.zero ps

  (* Greedily fill positions [ps] in list order into [cap], marking whole
     ones in [full]; returns the split position and the capacity left
     for it. *)
  let fill_greedy weights full ps cap =
    let split = ref None in
    ignore
      (List.fold_left
         (fun cap p ->
           if not (is_positive cap) then cap
           else begin
             let w = weights.(p) in
             if W.compare w cap <= 0 then begin
               full.(p) <- true;
               W.sub cap w
             end
             else begin
               split := Some (p, cap);
               W.zero
             end
           end)
         cap ps);
    !split

  let fill ~density_compare weights full capacity =
    let zero = ref [] and positive = ref [] in
    Array.iteri
      (fun p w -> if W.compare w W.zero = 0 then zero := p :: !zero else positive := p :: !positive)
      weights;
    List.iter (fun p -> full.(p) <- true) !zero;
    (* Recurse on median density: each level halves the candidate count,
       so expected total work is linear. *)
    let rec go ps cap =
      match ps with
      | [] -> None
      | _ when not (is_positive cap) -> None
      | _ ->
        let arr = Array.of_list ps in
        let last = Array.length arr - 1 in
        let pivot = Select.select ~cmp:density_compare ~lo:0 ~hi:last arr (Array.length arr / 2) in
        let high = ref [] and equal = ref [] and low = ref [] in
        List.iter
          (fun p ->
            let c = density_compare p pivot in
            if c > 0 then high := p :: !high
            else if c = 0 then equal := p :: !equal
            else low := p :: !low)
          ps;
        let w_high = sum weights !high in
        if W.compare w_high cap > 0 then go !high cap
        else begin
          List.iter (fun p -> full.(p) <- true) !high;
          let cap = W.sub cap w_high in
          let w_equal = sum weights !equal in
          if W.compare w_equal cap <= 0 then begin
            List.iter (fun p -> full.(p) <- true) !equal;
            go !low (W.sub cap w_equal)
          end
          else fill_greedy weights full !equal cap
        end
    in
    go !positive capacity
end

module Exact = Greedy (Rat)

let validate items =
  Array.iter
    (fun it ->
      if Rat.sign it.weight < 0 then invalid_arg "Knapsack: negative weight";
      if Rat.sign it.profit < 0 then invalid_arg "Knapsack: negative profit")
    items

(* density(a) > density(b) ⟺ p_a w_b > p_b w_a; positions with zero weight
   are handled before any density comparison. *)
let density_compare items a b =
  let ia = items.(a) and ib = items.(b) in
  Rat.compare (Rat.mul ia.profit ib.weight) (Rat.mul ib.profit ia.weight)

(* The fractions of a greedy fill: whole positions take 1, the split one
   the capacity left for it over its weight. *)
let finish items full split =
  let take =
    Array.mapi
      (fun p it ->
        if full.(p) then Rat.one
        else match split with Some (e, cap) when e = p -> Rat.div cap it.weight | _ -> Rat.zero)
      items
  in
  let value = ref Rat.zero and used = ref Rat.zero in
  Array.iteri
    (fun p x ->
      if Rat.sign x > 0 then begin
        value := Rat.add !value (Rat.mul x items.(p).profit);
        used := Rat.add !used (Rat.mul x items.(p).weight)
      end)
    take;
  { take; value = !value; used = !used; split = Option.map fst split }

let solve_sorted items ~capacity =
  validate items;
  Probe.count "knapsack.sorted_calls";
  if Probe.enabled () then
    Probe.event (Event.Knapsack_path { path = "sorted"; items = Array.length items });
  let weights = Array.map (fun it -> it.weight) items in
  let full = Array.make (Array.length items) false in
  let positive = ref [] in
  Array.iteri (fun p w -> if Rat.is_zero w then full.(p) <- true else positive := p :: !positive) weights;
  let order = Array.of_list !positive in
  Array.sort
    (fun a b ->
      let c = density_compare items b a in
      if c <> 0 then c else compare a b)
    order;
  finish items full (Exact.fill_greedy weights full (Array.to_list order) capacity)

let note_linear ~items =
  Probe.count "knapsack.linear_calls";
  if Probe.enabled () then Probe.event (Event.Knapsack_path { path = "linear"; items })

let solve_linear items ~capacity =
  validate items;
  note_linear ~items:(Array.length items);
  let full = Array.make (Array.length items) false in
  let split =
    Exact.fill ~density_compare:(density_compare items) (Array.map (fun it -> it.weight) items) full capacity
  in
  finish items full split

let integral_oracle ~profits ~weights ~capacity =
  let k = Array.length profits in
  if Array.length weights <> k then invalid_arg "Knapsack.integral_oracle: length mismatch";
  if capacity < 0 then 0
  else begin
    let best = Array.make (capacity + 1) 0 in
    for i = 0 to k - 1 do
      if weights.(i) < 0 || profits.(i) < 0 then invalid_arg "Knapsack.integral_oracle: negative input";
      for cap = capacity downto weights.(i) do
        let candidate = best.(cap - weights.(i)) + profits.(i) in
        if candidate > best.(cap) then best.(cap) <- candidate
      done
    done;
    best.(capacity)
  end
