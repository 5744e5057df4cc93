(* Splitting one solve's time across the core layers for the traced
   run. [solve] times [Solver.solve_robust ~algorithm:Approx3_2] as a
   whole, then replays the same work through the public calls it is
   made of — the variant's search, [Compaction.compact] on the search's
   schedule, [Two_approx.solve] and its compaction, and the
   [Checker.is_feasible] re-validation — each under its own span. The
   replay must reproduce the solver's schedule exactly, or the split
   does not describe the call it claims to. *)

open Bss_util
open Bss_instances
open Bss_core

type search = { schedule : Schedule.t; tests : int }

let search variant inst =
  match variant with
  | Variant.Nonpreemptive ->
    let r = Nonp_search.solve inst in
    { schedule = r.Nonp_search.schedule; tests = r.Nonp_search.dual_calls }
  | Variant.Preemptive ->
    let r = Pmtn_cj.solve inst in
    { schedule = r.Pmtn_cj.schedule; tests = r.Pmtn_cj.bound_tests }
  | Variant.Splittable ->
    let r = Splittable_cj.solve inst in
    { schedule = r.Splittable_cj.schedule; tests = r.Splittable_cj.bound_tests }

(* per-variant sums the per-layer metrics are read from *)
type tally = { mutable solves : int; mutable jobs : int; mutable tests : int; mutable search_words : float }

let tallies = List.map (fun v -> (v, { solves = 0; jobs = 0; tests = 0; search_words = 0.0 })) Variant.all

let span_name part v = part ^ "." ^ Measure.short_variant v

(* true when the replay reproduced [solve_robust]'s schedule *)
let solve ~req variant inst =
  let name part = span_name part variant in
  let robust =
    Spans.with_span ~req (name "core.solve_robust") (fun () ->
        Solver.solve_robust ~algorithm:Solver.Approx3_2 variant inst)
  in
  let replay =
    Spans.with_span ~req (name "core.replay") (fun () ->
        let w0 = Gc.minor_words () in
        let s = Spans.with_span ~req (name "core.search") (fun () -> search variant inst) in
        let words = Gc.minor_words () -. w0 in
        let primary = Spans.with_span ~req (name "core.compact") (fun () -> Compaction.compact variant inst s.schedule) in
        let two = Spans.with_span ~req (name "core.two_approx") (fun () -> Two_approx.solve variant inst) in
        let fallback = Spans.with_span ~req (name "core.compact") (fun () -> Compaction.compact variant inst two) in
        let best =
          if Rat.( <= ) (Schedule.makespan fallback) (Schedule.makespan primary) then fallback else primary
        in
        let feasible =
          Spans.with_span ~req (name "instances.check") (fun () -> Checker.is_feasible variant inst best)
        in
        let t = List.assoc variant tallies in
        t.solves <- t.solves + 1;
        t.jobs <- t.jobs + Instance.n inst;
        t.tests <- t.tests + s.tests;
        t.search_words <- t.search_words +. words;
        if feasible then Some best else None)
  in
  robust.Solver.rung = "requested"
  && match replay with Some s -> Schedule.equal s robust.Solver.schedule | None -> false

(* mean ms per solve of [v] in the spans called [part.<v>] *)
let per_solve spans v part =
  Spans.total_ns spans (span_name part v) /. float_of_int (List.assoc v tallies).solves /. 1e6

(* The core per-layer metrics for one variant, as means per solve; none
   when the traced pass solved nothing of it. The residual is what
   [solve_robust] spent outside the replayed parts: its guard, the
   shorter-of-two choice, dispatch. *)
let layer_metrics spans v =
  let t = List.assoc v tallies in
  if t.solves = 0 then []
  else
    let ms = per_solve spans v and sv = Measure.short_variant v in
    let parts = [ "core.search"; "core.compact"; "core.two_approx"; "instances.check" ] in
    [
      ("core.search_ms." ^ sv, ms "core.search", "ms");
      ("core.bound_tests." ^ sv, float_of_int t.tests /. float_of_int t.solves, "count");
      ("core.compact_ms." ^ sv, ms "core.compact", "ms");
      ("core.two_approx_ms." ^ sv, ms "core.two_approx", "ms");
      ("instances.check_ms." ^ sv, ms "instances.check", "ms");
      ("core.residual_ms." ^ sv, ms "core.solve_robust" -. Measure.sum (List.map ms parts), "ms");
      ("core.search_words_per_job." ^ sv, t.search_words /. float_of_int t.jobs, "words/job");
    ]

(* the reconciliation rows: search + polish + check against the whole
   call, per variant, as means per solve in ms *)
let reconcile spans =
  List.filter_map
    (fun v ->
      if (List.assoc v tallies).solves = 0 then None
      else
        let ms = per_solve spans v in
        Some
          ( "solve_robust." ^ Measure.short_variant v,
            ms "core.solve_robust",
            [
              ("search", ms "core.search");
              ("polish", ms "core.compact" +. ms "core.two_approx");
              ("check", ms "instances.check");
            ] ))
    Variant.all
