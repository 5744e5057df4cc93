open Bss_util
open Bss_instances
open Bss_core

type config = {
  master : int;
  cases : int;
  families : Bss_workloads.Generator.spec list;
  variants : Variant.t list;
  algorithms : (string * Solver.algorithm) list;
  max_m : int;
  max_n : int;
  domains : int option;
  shrink_budget : int;
}

let default_config =
  {
    master = 0;
    cases = 100;
    families = Bss_workloads.Generator.all;
    variants = Variant.all;
    algorithms = Context.default_algorithms;
    max_m = 8;
    max_n = 48;
    domains = None;
    shrink_budget = 400;
  }

type failure = {
  case : Case.t;
  property : string;
  message : string;
  instance : Instance.t;
  shrunk : Instance.t;
  shrink_steps : int;
}

type prop_stats = {
  property : string;
  theorem : string;
  cases : int;
  passed : int;
  skipped : int;
  failed : int;
}

type crash = { case : Case.t; message : string }

type report = {
  config : config;
  stats : prop_stats list;
  failures : failure list;
  crashes : crash list;
}

let properties = Property.all @ Metamorphic.all

let case_of_index (config : config) i =
  let nf = List.length config.families in
  if nf = 0 then invalid_arg "Harness: no families configured";
  let spec = List.nth config.families (i mod nf) in
  Case.make ~master:config.master ~family:spec.Bss_workloads.Generator.name ~index:i

let check_on (config : config) prop inst =
  try
    let ctx = Context.create ~variants:config.variants ~algorithms:config.algorithms inst in
    prop.Property.check ctx
  with e -> Property.Fail ("exception: " ^ Printexc.to_string e)

let run_case (config : config) case =
  let inst = Case.instance ~max_m:config.max_m ~max_n:config.max_n case in
  (* one memoizing context shared by all properties of the case *)
  let ctx = Context.create ~variants:config.variants ~algorithms:config.algorithms inst in
  List.map
    (fun p ->
      ( p,
        try p.Property.check ctx
        with e -> Property.Fail ("exception: " ^ Printexc.to_string e) ))
    properties

let run (config : config) =
  let cases = List.init config.cases (case_of_index config) in
  (* per-case crash containment: a case whose realization or property run
     dies (outside the per-property try) is reported, not fatal *)
  let contained =
    Parallel.map_results ?domains:config.domains (fun c -> (c, run_case config c)) cases
  in
  let outcomes = List.filter_map (function Ok o -> Some o | Error _ -> None) contained in
  let crashes =
    List.filter_map
      (function
        | Ok _ -> None
        | Error { Parallel.index; exn } ->
          Some { case = List.nth cases index; message = Printexc.to_string exn })
      contained
  in
  let stats =
    List.map
      (fun p ->
        let tally f =
          List.fold_left
            (fun acc (_, os) ->
              List.fold_left
                (fun acc (p', o) -> if p'.Property.name = p.Property.name && f o then acc + 1 else acc)
                acc os)
            0 outcomes
        in
        {
          property = p.Property.name;
          theorem = p.Property.theorem;
          cases = config.cases;
          passed = tally (function Property.Pass -> true | _ -> false);
          skipped = tally (function Property.Skip _ -> true | _ -> false);
          failed = tally (function Property.Fail _ -> true | _ -> false);
        })
      properties
  in
  let failures =
    List.concat_map
      (fun (case, os) ->
        List.filter_map
          (function
            | p, Property.Fail message ->
              let instance = Case.instance ~max_m:config.max_m ~max_n:config.max_n case in
              let keep i =
                match check_on config p i with Property.Fail _ -> true | _ -> false
              in
              let shrunk, shrink_steps =
                (* the failure may be flaky only through exceptions; guard
                   the initial keep so shrinking never raises *)
                if keep instance then Shrink.minimize ~budget:config.shrink_budget ~keep instance
                else (instance, 0)
              in
              Some { case; property = p.Property.name; message; instance; shrunk; shrink_steps }
            | _ -> None)
          os)
      outcomes
  in
  { config; stats; failures; crashes }

let indent s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> "    " ^ l)
  |> String.concat "\n"

let render_failure master (f : failure) =
  Printf.sprintf
    "FAIL %s on case %s\n  %s\n  shrunk counterexample (%d steps, %d jobs):\n%s\n  replay: bss fuzz --seed %d --replay %s\n"
    f.property (Case.id f.case) f.message f.shrink_steps (Instance.n f.shrunk)
    (indent (Instance.to_string f.shrunk))
    master (Case.id f.case)

let render report =
  let header = [ "property"; "theorem"; "cases"; "pass"; "skip"; "fail" ] in
  let align = Table.[ Left; Left; Right; Right; Right; Right ] in
  let rows =
    List.map
      (fun s ->
        [
          s.property;
          s.theorem;
          string_of_int s.cases;
          string_of_int s.passed;
          string_of_int s.skipped;
          string_of_int s.failed;
        ])
      report.stats
  in
  let table = Table.render ~header ~align rows in
  let total_failed = List.fold_left (fun acc s -> acc + s.failed) 0 report.stats in
  let verdict =
    Printf.sprintf "%d cases x %d properties: %d violation%s%s" report.config.cases
      (List.length report.stats) total_failed
      (if total_failed = 1 then "" else "s")
      (match report.crashes with
      | [] -> ""
      | cs -> Printf.sprintf ", %d crashed case%s" (List.length cs) (if List.length cs = 1 then "" else "s"))
  in
  let blocks = List.map (render_failure report.config.master) report.failures in
  let crash_blocks =
    List.map
      (fun cr ->
        Printf.sprintf "CRASH case %s\n  %s\n  replay: bss fuzz --seed %d --replay %s\n"
          (Case.id cr.case) cr.message report.config.master (Case.id cr.case))
      report.crashes
  in
  String.concat "\n" ((table :: blocks) @ crash_blocks @ [ verdict; "" ])

(* ---------------- chaos sweeps ---------------- *)

module Chaos = Bss_resilience.Chaos

type chaos_report = {
  chaos_config : config;
  chaos_seed : int;
  sweeps : int;  (* (case, variant, algorithm) ladder runs *)
  rung_counts : (string * int) list;  (* sorted by rung name *)
  degraded : Case.t list;  (* cases where at least one run left the requested rung *)
  chaos_crashes : (Case.t * string) list;  (* escaped exceptions — must stay empty *)
  chaos_infeasible : (Case.t * string) list;  (* checker rejections — must stay empty *)
}

let chaos_sweep (config : config) ~chaos =
  (* Each case arms its plan on this domain, where the case runs. The
     sweep stays sequential: its accumulators are plain refs, and it is
     small next to the property sweep, which does fan out. *)
  let rungs = Hashtbl.create 8 in
  let bump r = Hashtbl.replace rungs r (1 + Option.value ~default:0 (Hashtbl.find_opt rungs r)) in
  let degraded = ref [] and crashes = ref [] and infeasible = ref [] and sweeps = ref 0 in
  for i = 0 to config.cases - 1 do
    let case = case_of_index config i in
    (* the plan derives from (master, family, index, chaos): replaying the
       same sweep re-injects the same faults at the same sites *)
    let plan = Chaos.plan_of_seed (chaos lxor Case.seed case) in
    match
      Chaos.with_plan plan (fun () ->
          let inst = Case.instance ~max_m:config.max_m ~max_n:config.max_n case in
          List.iter
            (fun variant ->
              List.iter
                (fun (_, algorithm) ->
                  incr sweeps;
                  let r = Solver.solve_robust ~algorithm variant inst in
                  bump r.Solver.rung;
                  if r.Solver.attempts <> [] && not (List.memq case !degraded) then
                    degraded := case :: !degraded;
                  if not (Checker.is_feasible variant inst r.Solver.schedule) then
                    infeasible :=
                      (case, Variant.to_string variant ^ ": degraded schedule infeasible") :: !infeasible)
                config.algorithms)
            config.variants)
    with
    | () -> ()
    | exception e -> crashes := (case, Printexc.to_string e) :: !crashes
  done;
  {
    chaos_config = config;
    chaos_seed = chaos;
    sweeps = !sweeps;
    rung_counts =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rungs []);
    degraded = List.rev !degraded;
    chaos_crashes = List.rev !crashes;
    chaos_infeasible = List.rev !infeasible;
  }

let render_chaos (r : chaos_report) =
  let rows = List.map (fun (rung, k) -> [ rung; string_of_int k ]) r.rung_counts in
  let table = Table.render ~header:[ "rung"; "runs" ] ~align:Table.[ Left; Right ] rows in
  let problems =
    List.map (fun (c, msg) -> Printf.sprintf "CRASH case %s: %s" (Case.id c) msg) r.chaos_crashes
    @ List.map (fun (c, msg) -> Printf.sprintf "INFEASIBLE case %s: %s" (Case.id c) msg) r.chaos_infeasible
  in
  let verdict =
    Printf.sprintf "chaos: %d cases, %d ladder runs, %d degraded case%s, %d crashes, %d infeasible"
      r.chaos_config.cases r.sweeps (List.length r.degraded)
      (if List.length r.degraded = 1 then "" else "s")
      (List.length r.chaos_crashes) (List.length r.chaos_infeasible)
  in
  String.concat "\n" ((table :: problems) @ [ verdict; "" ])

let replay (config : config) case =
  let inst = Case.instance ~max_m:config.max_m ~max_n:config.max_n case in
  let outcomes = run_case config case in
  let verdict = function
    | Property.Pass -> "pass"
    | Property.Skip _ -> "skip"
    | Property.Fail _ -> "FAIL"
  in
  let rows =
    List.map (fun (p, o) -> [ p.Property.name; p.Property.theorem; verdict o ]) outcomes
  in
  let table = Table.render ~header:[ "property"; "theorem"; "verdict" ] rows in
  let notes =
    List.filter_map
      (function
        | p, Property.Fail msg -> Some (Printf.sprintf "FAIL %s: %s" p.Property.name msg)
        | p, Property.Skip msg -> Some (Printf.sprintf "skip %s: %s" p.Property.name msg)
        | _, Property.Pass -> None)
      outcomes
  in
  let ok = List.for_all (fun (_, o) -> match o with Property.Fail _ -> false | _ -> true) outcomes in
  let txt =
    String.concat "\n"
      ([ Printf.sprintf "case %s (seed %d)" (Case.id case) config.master;
         String.trim (Instance.to_string inst);
         table ]
      @ notes
      @ [ (if ok then "ok" else "violations found"); "" ])
  in
  (txt, ok)
