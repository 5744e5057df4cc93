open Bss_util

let buckets = 40
let exemplar_cap = 2

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  (* exemplar ring per bucket, allocated on first [record_exemplar]:
     slot (seen mod cap) is overwritten, so eviction is a pure function
     of the attach order — deterministic whenever the caller's record
     order is (the service runtime attaches in request order). *)
  mutable ex : string array;  (* buckets * exemplar_cap slots *)
  mutable ex_seen : int array;  (* attaches per bucket, ever *)
}

let create () =
  {
    counts = Array.make buckets 0;
    n = 0;
    sum = 0.;
    vmin = infinity;
    vmax = neg_infinity;
    ex = [||];
    ex_seen = [||];
  }

(* frexp gives v = m * 2^e with m in [0.5, 1), so e >= 1 iff v >= 1 and
   bucket e covers [2^(e-1), 2^e) — fixed boundaries, one flop, no
   branch on the data beyond the clamps. *)
let bucket_of v =
  if not (Float.is_finite v) || v < 1.0 then 0
  else
    let _, e = Float.frexp v in
    if e >= buckets then buckets - 1 else e

let record t v =
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let record_exemplar t v id =
  record t v;
  if Array.length t.ex = 0 then begin
    t.ex <- Array.make (buckets * exemplar_cap) "";
    t.ex_seen <- Array.make buckets 0
  end;
  let b = bucket_of v in
  t.ex.((b * exemplar_cap) + (t.ex_seen.(b) mod exemplar_cap)) <- id;
  t.ex_seen.(b) <- t.ex_seen.(b) + 1

let lower_bound i = if i <= 0 then 0. else Float.ldexp 1.0 (i - 1)
let upper_bound i = if i <= 0 then 1. else if i >= buckets - 1 then infinity else Float.ldexp 1.0 i

type snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  counts : (int * int) list;
  exemplars : (int * string list) list;
}

let empty = { count = 0; sum = 0.; min = 0.; max = 0.; counts = []; exemplars = [] }

(* reconstruct the kept ids oldest-first: a full ring's oldest slot is
   (seen mod cap), a partial ring starts at 0 *)
let bucket_exemplars t b =
  if Array.length t.ex = 0 || t.ex_seen.(b) = 0 then []
  else
    let seen = t.ex_seen.(b) in
    let kept = min seen exemplar_cap in
    let start = if seen <= exemplar_cap then 0 else seen mod exemplar_cap in
    List.init kept (fun i -> t.ex.((b * exemplar_cap) + ((start + i) mod exemplar_cap)))

let snapshot t =
  if t.n = 0 then empty
  else
    {
      count = t.n;
      sum = t.sum;
      min = t.vmin;
      max = t.vmax;
      counts =
        Array.to_list t.counts
        |> List.mapi (fun i c -> (i, c))
        |> List.filter (fun (_, c) -> c > 0);
      exemplars =
        (if Array.length t.ex = 0 then []
         else
           List.init buckets (fun b -> (b, bucket_exemplars t b))
           |> List.filter (fun (_, ids) -> ids <> []));
    }

(* merge two ascending sparse (bucket, 'a) lists with [add] on collisions *)
let rec add_sparse add xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | (i, ci) :: tx, (j, cj) :: ty ->
    if i < j then (i, ci) :: add_sparse add tx ys
    else if j < i then (j, cj) :: add_sparse add xs ty
    else (i, add ci cj) :: add_sparse add tx ty

(* Exemplar merge keeps the lexicographically smallest [exemplar_cap]
   ids of the union — commutative and associative, so merged reports
   are order-insensitive like the rest of {!Report.merge}. *)
let merge_exemplars a b =
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  take exemplar_cap (List.sort_uniq compare (a @ b))

let merge a b =
  if a.count = 0 then b
  else if b.count = 0 then a
  else
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      counts = add_sparse ( + ) a.counts b.counts;
      exemplars = add_sparse merge_exemplars a.exemplars b.exemplars;
    }

(* Bucket-wise subtraction: exact because the boundaries are fixed, so a
   later cumulative snapshot of the same histogram contains an earlier
   one bucket for bucket. Window min/max are unknowable from buckets
   alone: take the tightest bucket bounds, clamped into the cumulative
   [cur.min, cur.max], which is exact for the window holding the
   extreme. *)
let diff cur prev =
  if prev.count = 0 then cur
  else
    let counts =
      add_sparse ( + ) cur.counts (List.map (fun (i, c) -> (i, -c)) prev.counts)
      |> List.filter (fun (_, c) -> c > 0)
    in
    match counts with
    | [] -> empty
    | (lo, _) :: _ ->
      let hi = fst (List.nth counts (List.length counts - 1)) in
      {
        count = cur.count - prev.count;
        sum = cur.sum -. prev.sum;
        min = Float.max (lower_bound lo) cur.min;
        max = Float.min (upper_bound hi) cur.max;
        counts;
        exemplars = List.filter (fun (b, _) -> List.mem_assoc b counts) cur.exemplars;
      }

let quantile_bucket s p =
  if s.count = 0 then None
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int s.count)) in
    let rank = if rank < 1 then 1 else if rank > s.count then s.count else rank in
    let rec walk cum = function
      | [] -> None
      | (i, c) :: rest ->
        let cum = cum + c in
        if cum >= rank then Some i else walk cum rest
    in
    walk 0 s.counts

let quantile s p =
  match quantile_bucket s p with
  | None -> if s.count = 0 then 0. else s.max
  | Some i -> Float.max s.min (Float.min (lower_bound i) s.max)

let quantile_exemplars s p =
  match quantile_bucket s p with
  | None -> []
  | Some i -> Option.value ~default:[] (List.assoc_opt i s.exemplars)

let exemplar_ids s = List.concat_map snd s.exemplars

let to_json s =
  Json.obj
    ([
       ("count", Json.int s.count);
       ("sum", Json.float s.sum);
       ("min", Json.float s.min);
       ("max", Json.float s.max);
       ("p50", Json.float (quantile s 0.5));
       ("p90", Json.float (quantile s 0.9));
       ("p99", Json.float (quantile s 0.99));
       ("buckets", Json.arr (List.map (fun (i, c) -> Json.arr [ Json.int i; Json.int c ]) s.counts));
     ]
    @
    if s.exemplars = [] then []
    else
      [
        ( "exemplars",
          Json.arr
            (List.map
               (fun (i, ids) -> Json.arr [ Json.int i; Json.arr (List.map Json.str ids) ])
               s.exemplars) );
      ])

let snapshot_of_json v =
  let ( let* ) = Result.bind in
  let num field =
    match Json.member field v with
    | Some (Json.Num n) -> Ok n
    | _ -> Error (Printf.sprintf "histogram: missing numeric %S" field)
  in
  let* count = num "count" in
  let* sum = num "sum" in
  let* vmin = num "min" in
  let* vmax = num "max" in
  let* counts =
    match Json.member "buckets" v with
    | Some (Json.Arr pairs) ->
      List.fold_left
        (fun acc pair ->
          let* acc = acc in
          match pair with
          | Json.Arr [ Json.Num i; Json.Num c ] -> Ok ((int_of_float i, int_of_float c) :: acc)
          | _ -> Error "histogram: malformed bucket pair")
        (Ok []) pairs
      |> Result.map List.rev
    | _ -> Error "histogram: missing \"buckets\" array"
  in
  let exemplars =
    match Json.member "exemplars" v with
    | Some (Json.Arr entries) ->
      List.filter_map
        (function
          | Json.Arr [ Json.Num i; Json.Arr ids ] ->
            Some
              ( int_of_float i,
                List.filter_map (function Json.Str s -> Some s | _ -> None) ids )
          | _ -> None)
        entries
    | _ -> []
  in
  Ok { count = int_of_float count; sum; min = vmin; max = vmax; counts; exemplars }
