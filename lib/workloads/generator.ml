open Bss_util
open Bss_instances

type spec = { name : string; description : string; generate : Prng.t -> m:int -> n:int -> Instance.t }

(* Build an instance from per-class setup and a list of job times,
   guaranteeing non-empty classes. *)
let build ~m ~setups ~jobs = Instance.make ~m ~setups ~jobs:(Array.of_list jobs)

let spread rng c n =
  (* distribute n jobs over c classes, each at least one *)
  let counts = Array.make c 1 in
  for _ = 1 to max 0 (n - c) do
    let i = Prng.int rng c in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let uniform =
  {
    name = "uniform";
    description = "uniform setups [1,50], times [1,100], c ~ n/8 balanced classes";
    generate =
      (fun rng ~m ~n ->
        ignore m;
        let c = max 1 (n / 8) in
        let setups = Array.init c (fun _ -> Prng.int_in rng 1 50) in
        let counts = spread rng c n in
        let jobs = ref [] in
        Array.iteri
          (fun i k ->
            for _ = 1 to k do
              jobs := (i, Prng.int_in rng 1 100) :: !jobs
            done)
          counts;
        build ~m ~setups ~jobs:!jobs);
  }

let small_batches =
  {
    name = "small-batches";
    description = "many light classes: s_i + P(C_i) well below the machine share";
    generate =
      (fun rng ~m ~n ->
        let c = max m (n / 3) in
        let setups = Array.init c (fun _ -> Prng.int_in rng 1 5) in
        let counts = spread rng c n in
        let jobs = ref [] in
        Array.iteri
          (fun i k ->
            for _ = 1 to k do
              jobs := (i, Prng.int_in rng 1 12) :: !jobs
            done)
          counts;
        build ~m ~setups ~jobs:!jobs);
  }

let single_job =
  {
    name = "single-job";
    description = "|C_i| = 1 with job-dependent setups (Schuurman-Woeginger regime)";
    generate =
      (fun rng ~m ~n ->
        ignore m;
        let c = max 1 n in
        let setups = Array.init c (fun _ -> Prng.int_in rng 1 40) in
        let jobs = List.init c (fun i -> (i, Prng.int_in rng 1 60)) in
        build ~m ~setups ~jobs);
  }

let expensive =
  {
    name = "expensive";
    description = "few classes with setups comparable to OPT (exercises I_exp)";
    generate =
      (fun rng ~m ~n ->
        let c = max 2 (min 8 (m + 1)) in
        let setups = Array.init c (fun _ -> Prng.int_in rng 120 200) in
        let counts = spread rng c n in
        let jobs = ref [] in
        Array.iteri
          (fun i k ->
            for _ = 1 to k do
              jobs := (i, Prng.int_in rng 10 60) :: !jobs
            done)
          counts;
        build ~m ~setups ~jobs:!jobs);
  }

let zipf =
  {
    name = "zipf";
    description = "Zipf class sizes (alpha = 1.2): dominant classes plus a long tail";
    generate =
      (fun rng ~m ~n ->
        ignore m;
        let c = max 2 (n / 6) in
        let setups = Array.init c (fun _ -> Prng.int_in rng 1 60) in
        let counts = Array.make c 1 in
        for _ = 1 to max 0 (n - c) do
          let i = Prng.zipf rng ~alpha:1.2 ~n:c - 1 in
          counts.(i) <- counts.(i) + 1
        done;
        let jobs = ref [] in
        Array.iteri
          (fun i k ->
            for _ = 1 to k do
              jobs := (i, Prng.int_in rng 1 80) :: !jobs
            done)
          counts;
        build ~m ~setups ~jobs:!jobs);
  }

let anti_list =
  {
    name = "anti-list";
    description = "one giant class that must be split across machines, plus filler";
    generate =
      (fun rng ~m ~n ->
        let c = max 2 (min 10 n) in
        let setups = Array.init c (fun i -> if i = 0 then 2 else Prng.int_in rng 1 4) in
        let jobs = ref [] in
        (* class 0 holds ~ half the volume in m·3 jobs *)
        let giant_jobs = max 1 (min (n / 2) (m * 3)) in
        for _ = 1 to giant_jobs do
          jobs := (0, Prng.int_in rng 40 60) :: !jobs
        done;
        let rest = max (c - 1) (n - giant_jobs) in
        for k = 1 to rest do
          jobs := (1 + ((k - 1) mod (c - 1)), Prng.int_in rng 1 10) :: !jobs
        done;
        build ~m ~setups ~jobs:!jobs);
  }

let anti_wrap =
  {
    name = "anti-wrap";
    description = "m expensive classes with tiny jobs: the wrap level N/m + s_max is ~2*OPT";
    generate =
      (fun rng ~m ~n ->
        ignore n;
        let c = max m 2 in
        let setups = Array.init c (fun _ -> Prng.int_in rng 90 110) in
        let jobs = List.init c (fun i -> (i, Prng.int_in rng 1 5)) in
        build ~m ~setups ~jobs);
  }

let tiny =
  {
    name = "tiny";
    description = "exact-oracle-sized instances (m <= 3, n <= 9)";
    generate =
      (fun rng ~m ~n ->
        let m = Intmath.clamp 1 3 m in
        let n = Intmath.clamp 1 9 n in
        let c = 1 + Prng.int rng (min 3 n) in
        let setups = Array.init c (fun _ -> Prng.int_in rng 1 10) in
        let counts = spread rng c n in
        let jobs = ref [] in
        Array.iteri
          (fun i k ->
            for _ = 1 to k do
              jobs := (i, Prng.int_in rng 1 12) :: !jobs
            done)
          counts;
        build ~m ~setups ~jobs:!jobs);
  }

let near_overflow =
  {
    name = "near-overflow";
    description = "setups/times near the max_int/16 cap: exercises Rat tier promotion";
    generate =
      (fun rng ~m ~n ->
        ignore m;
        (* Few huge values: every cross-multiplication in the searches
           overflows native ints, forcing the Bigint tier. The total
           stays under 18 units, about max_int/227, so a fuzz case whose
           mutations double a class's jobs twice (×4), then scaled ×3 by
           the scale-equivariance property, stays under Instance.make's
           max_int/16 construction cap. *)
        let c = 1 + Prng.int rng 3 in
        let n = Intmath.clamp c 8 n in
        let unit = max_int / 4096 in
        let setups = Array.init c (fun _ -> unit + Prng.int rng unit) in
        let counts = spread rng c n in
        let jobs = ref [] in
        Array.iteri
          (fun i k ->
            for _ = 1 to k do
              jobs := (i, (unit / 2) + Prng.int rng unit) :: !jobs
            done)
          counts;
        build ~m ~setups ~jobs:!jobs);
  }

let all =
  [ uniform; small_batches; single_job; expensive; zipf; anti_list; anti_wrap; tiny; near_overflow ]

let by_name name = List.find (fun s -> s.name = name) all
