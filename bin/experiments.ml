(* experiments — regenerate the paper's quality claims.

   Usage: dune exec bin/experiments.exe [-- table1|families|ratios|crossover|all]

   table1    measured ratio vs the certified lower bound for every
             algorithm/variant on the standard suite — the empirical
             counterpart of the paper's Table 1.
   families  per-family mean ratio of the exact 3/2 algorithms.
   ratios    true approximation ratios against exact optima (tiny suite).
   crossover Monma-Potts vs Theorem 6 as m grows on the anti-wrap family:
             the wrap's guarantee degrades toward 2, Theorem 6 stays 3/2.

   Every number is deterministic, so the output is pinned by
   test/cram/experiments.t. Running times are measured by `bss bench`. *)

open Bss_util
open Bss_instances
open Bss_core
open Bss_baselines
open Bss_workloads

(* all-or-nothing fan-out: every case runs, then the first failure (in
   input order) is re-raised *)
let parallel_map f xs =
  List.map
    (function Ok y -> y | Error (e : Parallel.failure) -> raise e.Parallel.exn)
    (Parallel.map_results f xs)

type contender = { name : string; variant : Variant.t; run : Instance.t -> Schedule.t }

let contenders =
  let solver algorithm variant inst = (Solver.solve ~algorithm variant inst).Solver.schedule in
  let eps = Rat.of_ints 1 10 in
  List.concat_map
    (fun v ->
      [
        { name = "2-approx"; variant = v; run = solver Solver.Approx2 v };
        { name = "3/2+1/10"; variant = v; run = solver (Solver.Approx3_2_eps eps) v };
        { name = "3/2 exact"; variant = v; run = solver Solver.Approx3_2 v };
      ])
    Variant.all
  @ [
      { name = "MP wrap"; variant = Variant.Preemptive; run = Monma_potts.schedule };
      { name = "MP batch-split"; variant = Variant.Preemptive; run = Batch_split.schedule };
      { name = "batch greedy"; variant = Variant.Nonpreemptive; run = List_scheduling.greedy };
      { name = "batch LPT"; variant = Variant.Nonpreemptive; run = List_scheduling.lpt };
    ]

let table1 () =
  print_endline "Table 1 (empirical): max / mean makespan ratio vs certified LB";
  print_endline "(the paper's Table 1 lists guarantees; we measure the implementations)\n";
  let cases = Suite.table1 () in
  let rows =
    List.map
      (fun cont ->
        let ratios =
          List.map
            (fun case ->
              let inst = case.Suite.instance in
              let sched = cont.run inst in
              Checker.check_exn cont.variant inst sched;
              let lb = Lower_bounds.lower_bound cont.variant inst in
              Rat.to_float (Schedule.makespan sched) /. Rat.to_float lb)
            cases
          |> Array.of_list
        in
        [
          cont.name;
          Variant.to_string cont.variant;
          Printf.sprintf "%.3f" (Stats.max ratios);
          Printf.sprintf "%.3f" (Stats.mean ratios);
        ])
      contenders
  in
  Table.print
    ~header:[ "algorithm"; "variant"; "max ratio/LB"; "mean ratio/LB" ]
    ~align:[ Table.Left; Table.Left; Table.Right; Table.Right ]
    rows

let ratios () =
  print_endline "True ratios vs exact optima (tiny suite; OPT_pmtn bracketed by OPT_nonp)\n";
  let cases = Suite.tiny_exact () in
  let measure name variant run opt_of =
    (* the exact oracles dominate the cost; fan the cases out over domains *)
    let rs =
      parallel_map
        (fun case ->
          let inst = case.Suite.instance in
          let sched = run inst in
          Checker.check_exn variant inst sched;
          let opt = opt_of inst in
          Rat.to_float (Schedule.makespan sched) /. Rat.to_float opt)
        cases
    in
    let rs = Array.of_list rs in
    [ name; Printf.sprintf "%.4f" (Stats.max rs); Printf.sprintf "%.4f" (Stats.mean rs) ]
  in
  let nonp_opt inst = Rat.of_int (Exact.nonpreemptive_opt inst) in
  let split_opt inst = Exact.splittable_opt_small inst in
  let rows =
    [
      measure "nonp 3/2 (Thm 8) vs OPT_nonp" Variant.Nonpreemptive
        (fun i -> (Nonp_search.solve i).Nonp_search.schedule)
        nonp_opt;
      measure "split 3/2 (Thm 3) vs OPT_split" Variant.Splittable
        (fun i -> (Splittable_cj.solve i).Splittable_cj.schedule)
        split_opt;
      measure "pmtn 3/2 (Thm 6) vs OPT_nonp >= OPT_pmtn" Variant.Preemptive
        (fun i -> (Pmtn_cj.solve i).Pmtn_cj.schedule)
        nonp_opt;
      measure "nonp 2-approx vs OPT_nonp" Variant.Nonpreemptive Two_approx.nonpreemptive nonp_opt;
      measure "MP wrap vs OPT_nonp" Variant.Preemptive Monma_potts.schedule nonp_opt;
      measure "MP batch-split vs OPT_nonp" Variant.Preemptive Batch_split.schedule nonp_opt;
      measure "batch LPT vs OPT_nonp" Variant.Nonpreemptive List_scheduling.lpt nonp_opt;
    ]
  in
  Table.print ~header:[ "algorithm"; "worst ratio"; "mean ratio" ]
    ~align:[ Table.Left; Table.Right; Table.Right ]
    rows;
  print_endline "\npaper's guarantees: 3/2 for the exact algorithms, 2 for Theorem 1; all hold."

let by_family () =
  print_endline "Per-family hardness (3/2 exact algorithms, ratio vs certified LB)\n";
  let rows =
    parallel_map
      (fun (family : Generator.spec) ->
        let per_variant v =
          let ratios =
            List.map
              (fun run ->
                let rng = Prng.create ((Hashtbl.hash family.Generator.name * 97) + run) in
                let inst = family.Generator.generate rng ~m:8 ~n:96 in
                let r = Solver.solve ~algorithm:Solver.Approx3_2 v inst in
                Checker.check_exn v inst r.Solver.schedule;
                Rat.to_float (Schedule.makespan r.Solver.schedule)
                /. Rat.to_float (Lower_bounds.lower_bound v inst))
              [ 0; 1; 2; 3 ]
          in
          Printf.sprintf "%.3f" (Stats.mean (Array.of_list ratios))
        in
        [
          family.Generator.name;
          per_variant Variant.Nonpreemptive;
          per_variant Variant.Preemptive;
          per_variant Variant.Splittable;
        ])
      Generator.all
  in
  Table.print
    ~header:[ "family"; "nonp"; "pmtn"; "split" ]
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    rows

let crossover () =
  print_endline "Monma-Potts vs Theorem 6 on the anti-wrap family as m grows";
  print_endline "(ratios vs the certified lower bound; MP's guarantee 2-1/(floor(m/2)+1) -> 2)\n";
  let rows =
    List.map
      (fun m ->
        let ratios_mp = ref [] and ratios_cj = ref [] in
        for run = 0 to 4 do
          let rng = Prng.create ((m * 1000) + run) in
          let inst = Generator.anti_wrap.Generator.generate rng ~m ~n:(m * 6) in
          let lb = Rat.to_float (Lower_bounds.lower_bound Variant.Preemptive inst) in
          let mp = Monma_potts.schedule inst in
          Checker.check_exn Variant.Preemptive inst mp;
          let cj = (Solver.solve ~algorithm:Solver.Approx3_2 Variant.Preemptive inst).Solver.schedule in
          Checker.check_exn Variant.Preemptive inst cj;
          ratios_mp := (Rat.to_float (Schedule.makespan mp) /. lb) :: !ratios_mp;
          ratios_cj := (Rat.to_float (Schedule.makespan cj) /. lb) :: !ratios_cj
        done;
        let guarantee = 2.0 -. (1.0 /. float_of_int ((m / 2) + 1)) in
        [
          string_of_int m;
          Printf.sprintf "%.3f" guarantee;
          Printf.sprintf "%.3f" (Stats.mean (Array.of_list !ratios_mp));
          Printf.sprintf "%.3f" (Stats.mean (Array.of_list !ratios_cj));
        ])
      [ 2; 4; 8; 16; 32 ]
  in
  Table.print
    ~header:[ "m"; "MP guarantee"; "MP measured"; "Thm 6 measured" ]
    ~align:[ Table.Right; Table.Right; Table.Right; Table.Right ]
    rows

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match which with
  | "table1" -> table1 ()
  | "families" -> by_family ()
  | "ratios" -> ratios ()
  | "crossover" -> crossover ()
  | "all" ->
    table1 ();
    print_newline ();
    by_family ();
    print_newline ();
    ratios ();
    print_newline ();
    crossover ()
  | other ->
    Printf.eprintf "unknown experiment %s (table1|families|ratios|crossover|all)\n" other;
    exit 1
