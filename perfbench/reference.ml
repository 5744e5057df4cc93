(* The output check of the service workloads. A single-worker in-process
   [Runtime.run] over the same requests gives the expected
   (id, rung, makespan) set; it is built once per invocation, before any
   set-up or timed loop. Every timed result set must equal it. *)

open Bss_instances
open Bss_service

type expect = {
  rung : string;
  makespan : string;
  jobs : int;
  ratio : float;  (** makespan / [Lower_bounds.lower_bound] *)
}

type t = { table : (string, expect) Hashtbl.t; outcomes : Runtime.outcome list }

(* an exact rational as Rat.to_string prints it ("p" or "p/q") *)
let float_of_rat_string s =
  match String.index_opt s '/' with
  | None -> float_of_string s
  | Some i ->
    float_of_string (String.sub s 0 i) /. float_of_string (String.sub s (i + 1) (String.length s - i - 1))

let build requests =
  let summary = Runtime.run { Runtime.default_config with workers = Some 1 } requests in
  let table = Hashtbl.create (List.length requests) in
  List.iter
    (fun (o : Runtime.outcome) ->
      let r = o.Runtime.request in
      match (o.Runtime.status, o.Runtime.rung, o.Runtime.makespan) with
      | Runtime.Done, Some rung, Some makespan ->
        let inst = Request.instance r in
        Hashtbl.replace table r.Request.id
          {
            rung;
            makespan;
            jobs = Instance.n inst;
            ratio =
              float_of_rat_string makespan
              /. Bss_util.Rat.to_float (Lower_bounds.lower_bound r.Request.variant inst);
          }
      | _ -> failwith ("reference run did not complete " ^ r.Request.id))
    summary.Runtime.outcomes;
  { table; outcomes = summary.Runtime.outcomes }

let size t = Hashtbl.length t.table

(* jobs in the requests named by [ids] *)
let jobs t ids =
  List.fold_left (fun acc id -> match Hashtbl.find_opt t.table id with Some e -> acc + e.jobs | None -> acc) 0 ids

let ratios t = Hashtbl.fold (fun _ e acc -> e.ratio :: acc) t.table []

(* [matches t id ~status ~rung ~makespan]: the answer for [id] is the
   reference's *)
let matches t id ~status ~rung ~makespan =
  match Hashtbl.find_opt t.table id with
  | Some e -> status = "done" && rung = Some e.rung && makespan = Some e.makespan
  | None -> false

let status_string = function
  | Runtime.Done -> "done"
  | Runtime.Rejected -> "rejected"
  | Runtime.Aborted -> "aborted"

(* failed requests of one summary: a request counts once when its
   outcome is missing, duplicated, not done, or differs from the
   reference *)
let failures t (outcomes : Runtime.outcome list) =
  let seen = Hashtbl.create (size t) in
  let bad = ref 0 in
  List.iter
    (fun (o : Runtime.outcome) ->
      let id = o.Runtime.request.Request.id in
      if Hashtbl.mem seen id then incr bad
      else begin
        Hashtbl.replace seen id ();
        if
          not
            (matches t id ~status:(status_string o.Runtime.status) ~rung:o.Runtime.rung
               ~makespan:o.Runtime.makespan)
        then incr bad
      end)
    outcomes;
  Hashtbl.fold (fun id _ bad -> if Hashtbl.mem seen id then bad else bad + 1) t.table !bad
