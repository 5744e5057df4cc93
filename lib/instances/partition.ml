open Bss_util

type t = {
  tee : Rat.t;
  exp : int list;
  chp : int list;
  exp_plus : int list;
  exp_zero : int list;
  exp_minus : int list;
  chp_plus : int list;
  chp_minus : int list;
  chp_star : int list;
  big_jobs : int array array;
}

(* [s_i > T/2] without building T/2: [2 s_i > T]. [Rat.compare_int] keeps
   the whole test on the native fast tier with zero allocation. *)
let is_expensive inst tee i = Rat.compare_int tee (2 * inst.Instance.setups.(i)) < 0

let ratio_load_over_slack inst tee i =
  let s = inst.Instance.setups.(i) in
  let slack = Rat.sub tee (Rat.of_int s) in
  if Rat.sign slack <= 0 then invalid_arg "Partition: T <= s_i";
  Rat.div (Rat.of_int inst.Instance.class_load.(i)) slack

let alpha inst tee i = Rat.ceil_int (ratio_load_over_slack inst tee i)
let alpha' inst tee i = Rat.floor_int (ratio_load_over_slack inst tee i)

let beta inst tee i = Rat.ceil_int (Rat.div (Rat.of_int (2 * inst.Instance.class_load.(i))) tee)
let beta' inst tee i = Rat.floor_int (Rat.div (Rat.of_int (2 * inst.Instance.class_load.(i))) tee)

let gamma inst tee i =
  let b' = beta' inst tee i in
  (* P(C_i) - β'_i T/2 <= T - s_i  ⟺  2 P(C_i) + 2 s_i <= (β'_i + 2) T *)
  let lhs = Rat.of_int (2 * (inst.Instance.class_load.(i) + inst.Instance.setups.(i))) in
  let rhs = Rat.mul_int tee (b' + 2) in
  if Rat.( <= ) lhs rhs then max b' 1 else beta inst tee i

let make inst tee =
  let c = Instance.c inst in
  let exp = ref [] and chp = ref [] in
  let exp_plus = ref [] and exp_zero = ref [] and exp_minus = ref [] in
  let chp_plus = ref [] and chp_minus = ref [] and chp_star = ref [] in
  let big_jobs = Array.make c [||] in
  for i = c - 1 downto 0 do
    let s = inst.Instance.setups.(i) in
    let s_plus_load = s + inst.Instance.class_load.(i) in
    if is_expensive inst tee i then begin
      exp := i :: !exp;
      if Rat.compare_int tee s_plus_load <= 0 then exp_plus := i :: !exp_plus
      else if (* 4 (s_i + P(C_i)) > 3 T *) Rat.compare_scaled tee 3 (4 * s_plus_load) < 0 then
        exp_zero := i :: !exp_zero
      else exp_minus := i :: !exp_minus
    end
    else begin
      chp := i :: !chp;
      (* cheap: T/4 <= s_i splits I+chp from I-chp *)
      if Rat.compare_int tee (4 * s) <= 0 then chp_plus := i :: !chp_plus
      else begin
        chp_minus := i :: !chp_minus;
        let stars =
          Instance.fold_class_jobs
            (fun acc j ->
              if Rat.compare_int tee (2 * (s + inst.Instance.job_time.(j))) < 0 then j :: acc else acc)
            [] inst i
          |> List.rev
        in
        if stars <> [] then begin
          big_jobs.(i) <- Array.of_list stars;
          chp_star := i :: !chp_star
        end
      end
    end
  done;
  {
    tee;
    exp = !exp;
    chp = !chp;
    exp_plus = !exp_plus;
    exp_zero = !exp_zero;
    exp_minus = !exp_minus;
    chp_plus = !chp_plus;
    chp_minus = !chp_minus;
    chp_star = !chp_star;
    big_jobs;
  }

let j_plus inst tee =
  let acc = ref [] in
  for j = Instance.n inst - 1 downto 0 do
    if Rat.compare_int tee (2 * inst.Instance.job_time.(j)) < 0 then acc := j :: !acc
  done;
  Array.of_list !acc

let k_set inst tee =
  let acc = ref [] in
  for j = Instance.n inst - 1 downto 0 do
    let i = inst.Instance.job_class.(j) in
    let tj = inst.Instance.job_time.(j) in
    let small = Rat.compare_int tee (2 * tj) >= 0 in
    let heavy = Rat.compare_int tee (2 * (inst.Instance.setups.(i) + tj)) < 0 in
    if (not (is_expensive inst tee i)) && small && heavy then acc := j :: !acc
  done;
  Array.of_list !acc

let m_i inst tee i =
  if is_expensive inst tee i then alpha inst tee i
  else begin
    let s = inst.Instance.setups.(i) in
    let slack = Rat.sub tee (Rat.of_int s) in
    if Rat.sign slack <= 0 then invalid_arg "Partition.m_i: T <= s_i";
    let big = ref 0 and k_load = ref 0 in
    Instance.iter_class_jobs
      (fun j ->
        let tj = inst.Instance.job_time.(j) in
        if Rat.compare_int tee (2 * tj) < 0 then incr big
        else if Rat.compare_int tee (2 * (s + tj)) < 0 then k_load := !k_load + tj)
      inst i;
    !big + Rat.ceil_int (Rat.div (Rat.of_int !k_load) slack)
  end

(* ⌈a / b⌉ for [a >= 0] and [b > 0], without the overflow of [a + b − 1] *)
let ceil_div a b = if a = 0 then 0 else ((a - 1) / b) + 1

(* [0 < p <= 4Nq] and [16Nq] native: every threshold product below, and
   each the native dual tests form from them, stays under [12Nq]. The
   cap [N <= max_int/16] keeps [16N] itself native. *)
let native_guess inst p q =
  let n = inst.Instance.total in
  q >= 1 && q <= max_int / (16 * n) && 0 < p && p <= 4 * n * q

(* [m_i] at the guess [p/q]: the same thresholds scaled by [q], on native
   ints, in a loop over the CSR slice so that it allocates nothing. *)
let m_i_int inst p q i =
  let s = inst.Instance.setups.(i) in
  if p <= s * q then invalid_arg "Partition.m_i_int: T <= s_i";
  (* (T − s_i) q *)
  let slack = p - (s * q) in
  if 2 * s * q > p then ceil_div (inst.Instance.class_load.(i) * q) slack
  else begin
    let big = ref 0 and k_load = ref 0 in
    for x = inst.Instance.class_off.(i) to inst.Instance.class_off.(i + 1) - 1 do
      let tj = inst.Instance.job_time.(inst.Instance.class_job_ids.(x)) in
      if 2 * tj * q > p then incr big else if 2 * (s + tj) * q > p then k_load := !k_load + tj
    done;
    !big + ceil_div (!k_load * q) slack
  end
