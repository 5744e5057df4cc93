let recommended () = Domain.recommended_domain_count ()

type failure = { index : int; attempts : int; exn : exn }

let attempt ~retries f x =
  let rec go n =
    match f x with
    | y -> Ok (y, n)
    | exception e -> if n > retries then Error (n, e) else go (n + 1)
  in
  go 1

let map_results ?domains ?(retries = 1) f xs =
  if retries < 0 then invalid_arg "Parallel.map_results: retries < 0";
  let wrap i = function
    | Ok (y, _) -> Ok y
    | Error (attempts, e) -> Error { index = i; attempts; exn = e }
  in
  match xs with
  | [] -> []
  | [ x ] -> [ wrap 0 (attempt ~retries f x) ]
  | _ ->
    let inputs = Array.of_list xs in
    let n = Array.length inputs in
    let domains =
      match domains with
      | Some d -> Intmath.clamp 1 n d
      | None -> Intmath.clamp 1 n (recommended ())
    in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* a failing item never drains the queue: its outcome is captured in
       place and the sweep keeps going *)
    let worker () =
      let continue_work = ref true in
      while !continue_work do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue_work := false else results.(i) <- Some (attempt ~retries f inputs.(i))
      done
    in
    let handles = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join handles;
    List.init n (fun i ->
        match results.(i) with
        | Some r -> wrap i r
        | None -> wrap i (Error (0, Failure "Parallel.map_results: missing result")))
