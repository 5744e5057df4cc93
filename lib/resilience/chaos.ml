type action = Raise | Stall of int | Crash

exception Injected of { site : string; hit : int }
exception Crashed of { site : string; hit : int }

let sites =
  [
    "dual_search.guess";
    "nonp_search.guess";
    "pmtn_cj.bound_test";
    "pmtn_dual.test";
    "splittable_cj.bound_test";
    "two_approx.solve";
  ]

let service_sites =
  [ "service.admit"; "service.breaker.probe"; "service.journal.flush"; "service.solve" ]

let net_sites = [ "net.accept"; "net.read"; "net.write" ]

type state = {
  plan : (string * int * action) list;
  hits : (string, int ref) Hashtbl.t;
  census : bool;  (* count fires without injecting *)
  fired : (string * int * action) list ref;  (* matched entries, firing order (reversed) *)
}

(* One armed-plan slot per domain, like the guard's budget slot: a plan
   armed on one domain neither fires nor counts hits on another, so every
   worker of the service pool runs its own request's plan. *)
let key : state option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let armed () = Domain.DLS.get key != None

let stall_us us =
  let stop = Int64.add (Monotonic_clock.now ()) (Int64.mul (Int64.of_int us) 1_000L) in
  while Int64.compare (Monotonic_clock.now ()) stop < 0 do
    ()
  done

let fire site =
  match Domain.DLS.get key with
  | None -> ()
  | Some st ->
    let counter =
      match Hashtbl.find_opt st.hits site with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.add st.hits site r;
        r
    in
    let hit = !counter in
    incr counter;
    if not st.census then
      List.iter
        (fun ((s, h, action) as entry) ->
          if s = site && h = hit then begin
            st.fired := entry :: !(st.fired);
            match action with
            | Raise -> raise (Injected { site; hit })
            | Crash -> raise (Crashed { site; hit })
            | Stall us -> stall_us us
          end)
        st.plan

let fresh_state ?(census = false) plan =
  { plan; hits = Hashtbl.create 8; census; fired = ref [] }

(* arm [st] on this domain for the duration of [f] *)
let scoped st f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some st);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let with_plan plan f = match plan with [] -> f () | _ -> scoped (fresh_state plan) f

let run_plan plan f =
  let st = fresh_state plan in
  let result = scoped st (fun () -> try Ok (f ()) with e -> Error e) in
  (result, List.rev !(st.fired))

let with_census f =
  let st = fresh_state ~census:true [] in
  let r = scoped st f in
  let counts =
    Hashtbl.fold (fun site c acc -> (site, !c) :: acc) st.hits []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (r, counts)

let plan_of_seed ?(sites = sites) ?(spread = 12) seed =
  let rng = Bss_util.Prng.create (0x5eed_c4a0 lxor seed) in
  let arr = Array.of_list sites in
  let draw () =
    let site = Bss_util.Prng.choose rng arr in
    let hit = Bss_util.Prng.int rng spread in
    let action = if Bss_util.Prng.int rng 4 = 0 then Stall 2_000 else Raise in
    (site, hit, action)
  in
  let n = 1 + Bss_util.Prng.int rng 2 in
  List.init n (fun _ -> draw ())

let describe_action = function
  | Raise -> "raise"
  | Crash -> "crash"
  | Stall us -> Printf.sprintf "stall(%dus)" us

let describe_plan plan =
  String.concat " "
    (List.map
       (fun (site, hit, action) -> Printf.sprintf "%s@%d:%s" site hit (describe_action action))
       plan)
