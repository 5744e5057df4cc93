(* Clocks, order statistics and process gauges shared by the workloads. *)

open Bss_instances

let now () = Monotonic_clock.now ()

(* nanoseconds elapsed since [t0] *)
let since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* Collect the heap before a timed unit, outside its timing, so that no
   unit pays for the garbage of the one before it. *)
let stabilize () = Gc.full_major ()

(* [another ~t_start ~seconds ~last reps]: start another repetition?
   Always a first one; after that, only if one as long as the last
   ([last] ns, set-up included) would end within the run's [seconds]. *)
let another ~t_start ~seconds ~last reps = reps = [] || since t_start +. last <= seconds *. 1e9

let time f =
  let t0 = now () in
  let y = f () in
  (y, since t0)

let percentile p = function
  | [] -> 0.0
  | xs -> Bss_util.Stats.percentile p (Array.of_list xs)

let median xs = percentile 50.0 xs

(* The central value of samples taken through a run: their mean once the
   highest and lowest tenth are dropped (at least one each way from five
   samples on). On a shared host the machine's speed can switch between
   a fast and a slow state every few seconds, so a run's samples are a
   mixture of the two; the median of such a mixture jumps whenever the
   share of slow samples crosses one half, while the trimmed mean moves
   only in step with that share, and the trimming keeps one disturbed
   sample from moving it. *)
let central = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let k = if n >= 5 then (n + 9) / 10 else 0 in
    let sum = ref 0.0 in
    for i = k to n - 1 - k do
      sum := !sum +. a.(i)
    done;
    !sum /. float_of_int (n - (2 * k))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.0

(* all domains' minor words, joined workers included ([Gc.minor_words]
   would count only the calling domain) *)
let words () = (Gc.quick_stat ()).Gc.minor_words

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* high-water resident set size, from /proc; 0 where it is unavailable *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
      | _ -> scan ()
    in
    let mb = scan () in
    close_in ic;
    mb

let short_variant = function
  | Variant.Nonpreemptive -> "nonp"
  | Variant.Preemptive -> "pmtn"
  | Variant.Splittable -> "split"

(* ---------------- one run's end-to-end figures ---------------- *)

(* A run repeats a unit of work — one batch, one server lifetime —
   while another fits in its time, with its set-up at the start of every
   repetition, so that set-ups and repetitions alike are spread over the
   whole run. Each repetition starts from a collected heap and is reduced
   to its summary as soon as it ends, so the benchmark's own bookkeeping
   does not grow with the run. Latency percentiles are taken within a
   repetition and reported as their [central] value across repetitions,
   as set-up times are across set-ups. *)
type rep = {
  wall_ns : float;  (** timed wall clock, set-ups and output checks excluded *)
  latencies : (Variant.t * float) list;  (** ns, one per completed request *)
  jobs : int;  (** jobs in the requests completed *)
  words : float;  (** minor words allocated, all domains *)
}

type summary = {
  rps : float;
  p50 : float;
  p99 : float;
  by_variant : (Variant.t * (float * float)) list;  (** p50, p99 *)
  rep_jobs : int;
  rep_words : float;
  completed : int;
}

let summarize (r : rep) =
  let ms = List.map (fun (_, ns) -> ns /. 1e6) r.latencies in
  let of_variant v = List.filter_map (fun (v', ns) -> if v = v' then Some (ns /. 1e6) else None) r.latencies in
  {
    rps = float_of_int (List.length ms) /. (r.wall_ns /. 1e9);
    p50 = median ms;
    p99 = percentile 99.0 ms;
    by_variant = List.map (fun v -> (v, (median (of_variant v), percentile 99.0 (of_variant v)))) Variant.all;
    rep_jobs = r.jobs;
    rep_words = r.words;
    completed = List.length ms;
  }

type run = {
  setup_ns : float list;  (** one sample per set-up *)
  reps : summary list;
  ratios : float list;  (** makespan / lower bound, one per checked request *)
  attempted : int;
  failed : int;
}

(* Every end-to-end figure, as (name, value, unit, bounded). The bounded
   ones are the metrics BENCHMARK.json lists. Throughput and tail
   latency are printed beside them but not bounded: on a shared host
   CPU time lost to other guests moves them by far more than any bound
   a regression gate could use, while the typical short operation,
   allocation and memory hold. *)
let metrics r =
  let across f = central (List.map f r.reps) in
  let variant v pick = across (fun s -> pick (List.assoc v s.by_variant)) in
  let jobs = List.fold_left (fun acc s -> acc + s.rep_jobs) 0 r.reps in
  [
    ("setup_s", central r.setup_ns /. 1e9, "s", true);
    ("latency_p50_ms", across (fun s -> s.p50), "ms", true);
  ]
  @ List.map (fun v -> ("latency_p50_ms." ^ short_variant v, variant v fst, "ms", true)) Variant.all
  @ [
      ("words_per_job", sum (List.map (fun s -> s.rep_words) r.reps) /. float_of_int (max 1 jobs), "words/job", true);
      ("peak_rss_mb", peak_rss_mb (), "MB", true);
      ("makespan_ratio", mean r.ratios, "ratio", true);
      ("throughput_rps", across (fun s -> s.rps), "1/s", false);
      ("latency_p99_ms", across (fun s -> s.p99), "ms", false);
    ]
  @ List.map (fun v -> ("latency_p99_ms." ^ short_variant v, variant v snd, "ms", false)) Variant.all
  @ [ ("failed_frac", float_of_int r.failed /. float_of_int (max 1 r.attempted), "fraction", false) ]
