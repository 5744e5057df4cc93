let recommended () = Domain.recommended_domain_count ()

type failure = { index : int; exn : exn }

let map_results ?domains f xs =
  let eval i x = match f x with y -> Ok y | exception exn -> Error { index = i; exn } in
  match xs with
  | [] -> []
  | [ x ] -> [ eval 0 x ]
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
        if i >= n then continue_work := false else results.(i) <- Some (eval i inputs.(i))
      done
    in
    let handles = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join handles;
    List.init n (fun i ->
        match results.(i) with
        | Some r -> r
        | None -> Error { index = i; exn = Failure "Parallel.map_results: missing result" })
