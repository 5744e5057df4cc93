open Bss_util
open Bss_instances
open Bss_core
module Rerror = Bss_resilience.Error

type source = File of string | Gen of { family : string; seed : int; m : int; n : int }

type t = {
  id : string;
  tenant : string;
  variant : Variant.t;
  algorithm : Solver.algorithm;
  source : source;
}

let default_tenant = "default"

let instance t =
  match t.source with
  | File path ->
    let contents =
      try
        let ic = open_in path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        s
      with Sys_error msg -> Rerror.invalid_input ~field:"file" msg
    in
    Instance.of_string contents
  | Gen { family; seed; m; n } -> (
    match Bss_workloads.Generator.by_name family with
    | spec -> spec.Bss_workloads.Generator.generate (Prng.create seed) ~m ~n
    | exception Not_found -> Rerror.invalid_input ~field:"family" ("unknown family: " ^ family))

let variant_of_string ~line = function
  | "nonp" | "non-preemptive" -> Variant.Nonpreemptive
  | "pmtn" | "preemptive" -> Variant.Preemptive
  | "split" | "splittable" -> Variant.Splittable
  | s -> Rerror.invalid_input ~line ~field:"variant" ("unknown variant: " ^ s)

let algorithm_of_string ~line = function
  | "2" -> Solver.Approx2
  | "3/2" -> Solver.Approx3_2
  | s -> (
    match Scanf.sscanf_opt s "3/2+1/%d%!" Fun.id with
    | Some k when k >= 1 -> Solver.Approx3_2_eps (Rat.of_ints 1 k)
    | Some _ -> Rerror.invalid_input ~line ~field:"algorithm" ("epsilon 1/k needs k >= 1: " ^ s)
    | None -> Rerror.invalid_input ~line ~field:"algorithm" ("unknown algorithm: " ^ s))

let algorithm_to_string = function
  | Solver.Approx2 -> "2"
  | Solver.Approx3_2 -> "3/2"
  | Solver.Approx3_2_eps e -> "3/2+" ^ Rat.to_string e

let int_field ~line ~field s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> Rerror.invalid_input ~line ~field ("not an integer: " ^ s)

let of_batch_string s =
  let seen = Hashtbl.create 16 in
  let parse_line line text =
    match String.split_on_char ' ' text |> List.filter (fun w -> w <> "") with
    | [ id; variant; algorithm; "file"; path ] ->
      Some
        {
          id;
          tenant = default_tenant;
          variant = variant_of_string ~line variant;
          algorithm = algorithm_of_string ~line algorithm;
          source = File path;
        }
    | [ id; variant; algorithm; "gen"; family; seed; m; n ] ->
      Some
        {
          id;
          tenant = default_tenant;
          variant = variant_of_string ~line variant;
          algorithm = algorithm_of_string ~line algorithm;
          source =
            Gen
              {
                family;
                seed = int_field ~line ~field:"seed" seed;
                m = int_field ~line ~field:"m" m;
                n = int_field ~line ~field:"n" n;
              };
        }
    | [] -> None
    | _ -> Rerror.invalid_input ~line ~field:"request" ("malformed request line: " ^ text)
  in
  String.split_on_char '\n' s
  |> List.mapi (fun i text -> (i + 1, String.trim text))
  |> List.filter_map (fun (line, text) ->
         if text = "" || text.[0] = '#' then None
         else
           match parse_line line text with
           | None -> None
           | Some r ->
             if Hashtbl.mem seen r.id then
               Rerror.invalid_input ~line ~field:"id" ("duplicate request id: " ^ r.id);
             Hashtbl.add seen r.id ();
             Some r)

let to_line t =
  let head =
    Printf.sprintf "%s %s %s" t.id (Variant.to_string t.variant) (algorithm_to_string t.algorithm)
  in
  match t.source with
  | File path -> Printf.sprintf "%s file %s" head path
  | Gen { family; seed; m; n } -> Printf.sprintf "%s gen %s %d %d %d" head family seed m n

let soak_stream ?(tenants = []) ~seed ~requests () =
  let families = Array.of_list Bss_workloads.Generator.all in
  let variants = Array.of_list Variant.all in
  let tenants = Array.of_list tenants in
  List.init requests (fun i ->
      let family = families.(i mod Array.length families).Bss_workloads.Generator.name in
      (* per-request avalanche: realization is a pure function of
         (seed, i), independent of processing order *)
      let rng = Prng.create (seed lxor ((i + 1) * 0x9e3779b9)) in
      {
        id = Printf.sprintf "soak-%s-%d" family i;
        tenant =
          (if Array.length tenants = 0 then default_tenant else tenants.(i mod Array.length tenants));
        variant = variants.(Prng.int rng (Array.length variants));
        algorithm = Solver.Approx3_2;
        source =
          Gen { family; seed = Prng.int rng max_int; m = Prng.int_in rng 2 6; n = Prng.int_in rng 8 32 };
      })
