open Bss_util
open Bss_instances
open Bss_wrap
open Bss_knapsack
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event
module Guard = Bss_resilience.Guard

(* ---- the analysis in Rat: the reference, and the construction's input ---- *)

(* Shared analysis of (instance, T): partitions, free time, obligatory
   loads, and the knapsack decision of case 3.a. Building it moves no
   counter: [note_analysis] records it. *)
type analysis = {
  mode : Pmtn_nice.mode;
  part : Partition.t;
  l : int;  (* number of large machines, |I0exp| *)
  free : Rat.t;  (* F: time for I-chp load on the non-large machines *)
  obligatory : Rat.t;  (* L*: obligatory I*chp load outside large machines *)
  star_load : Rat.t;  (* Σ_{I*chp} (s_i + P(C_i)) *)
  case_a : bool;
  infeasible_outside : bool;  (* case 3.a with capacity F − L* < 0 *)
  selected : bool array;  (* per class: lives entirely in the nice instance *)
  split : (int * Rat.t) option;  (* class e and its knapsack fraction *)
}

let half_of tee = Rat.div_int tee 2

let plus_exp_machines inst tee ~mode i =
  match mode with
  | Pmtn_nice.Alpha_prime -> Partition.alpha' inst tee i
  | Pmtn_nice.Gamma -> Partition.gamma inst tee i

module Exact_greedy = Knapsack.Greedy (Rat)
module Native_greedy = Knapsack.Greedy (Int)

let analyze ~mode inst tee =
  let p = Partition.make inst tee in
  let half = half_of tee in
  let l = List.length p.Partition.exp_zero in
  let class_total i = Rat.of_int (inst.Instance.setups.(i) + inst.Instance.class_load.(i)) in
  let free =
    let used_plus =
      List.fold_left
        (fun acc i ->
          let k_s = Rat.mul_int (Rat.of_int inst.Instance.setups.(i)) (plus_exp_machines inst tee ~mode i) in
          Rat.add acc (Rat.add_int k_s inst.Instance.class_load.(i)))
        Rat.zero p.Partition.exp_plus
    in
    let used_rest =
      List.fold_left (fun acc i -> Rat.add acc (class_total i)) Rat.zero
        (p.Partition.exp_minus @ p.Partition.chp_plus)
    in
    Rat.sub (Rat.mul_int tee (inst.Instance.m - l)) (Rat.add used_plus used_rest)
  in
  (* L*_i = P(C*_i) − |C*_i| (T/2 − s_i) *)
  let l_star_i i =
    let s = Rat.of_int inst.Instance.setups.(i) in
    let stars = p.Partition.big_jobs.(i) in
    let p_star =
      Array.fold_left (fun acc j -> Rat.add acc (Rat.of_int inst.Instance.job_time.(j))) Rat.zero stars
    in
    Rat.sub p_star (Rat.mul_int (Rat.sub half s) (Array.length stars))
  in
  let obligatory =
    List.fold_left
      (fun acc i -> Rat.add acc (Rat.add (Rat.of_int inst.Instance.setups.(i)) (l_star_i i)))
      Rat.zero p.Partition.chp_star
  in
  let star_load =
    List.fold_left (fun acc i -> Rat.add acc (class_total i)) Rat.zero p.Partition.chp_star
  in
  let case_a = Rat.( < ) free star_load in
  let selected = Array.make (Instance.c inst) false in
  let split = ref None in
  let infeasible_outside = ref false in
  if case_a then begin
    let capacity = Rat.sub free obligatory in
    (* DESIGN.md §7.1: with capacity F − L* < 0 the paper's two tests
       would accept, but the obligatory outside load cannot fit in F —
       reject later. *)
    if Rat.sign capacity < 0 then infeasible_outside := true
    else begin
      let ids = Array.of_list p.Partition.chp_star in
      let profits = Array.map (fun i -> Rat.of_int inst.Instance.setups.(i)) ids in
      let weights = Array.map (fun i -> Rat.sub (Rat.of_int inst.Instance.class_load.(i)) (l_star_i i)) ids in
      let density_compare a b =
        Rat.compare (Rat.mul profits.(a) weights.(b)) (Rat.mul profits.(b) weights.(a))
      in
      let full = Array.make (Array.length ids) false in
      let fraction = Exact_greedy.fill ~density_compare weights full capacity in
      Array.iteri (fun pos i -> if full.(pos) then selected.(i) <- true) ids;
      split := Option.map (fun (pos, cap) -> (ids.(pos), Rat.div cap weights.(pos))) fraction
    end
  end
  else List.iter (fun i -> selected.(i) <- true) p.Partition.chp_star;
  {
    mode;
    part = p;
    l;
    free;
    obligatory;
    star_load;
    case_a;
    infeasible_outside = !infeasible_outside;
    selected;
    split = !split;
  }

(* The counters and events of one analysis, in both arithmetics:
   [y_guard] builds the guess and the deficit [L* − F] when the Y-guard
   fires; otherwise case 3.a ran the knapsack over [items] items. *)
let note ~case_a ~items y_guard =
  Probe.count (if case_a then "pmtn_dual.case_a" else "pmtn_dual.case_b");
  match y_guard with
  | Some fired ->
    Probe.count "pmtn_dual.y_guard";
    if Probe.enabled () then begin
      let t, deficit = fired () in
      Probe.event (Event.Y_guard_fired { t; deficit })
    end
  | None -> if case_a then Knapsack.note_linear ~items

let note_analysis tee a =
  note ~case_a:a.case_a ~items:(List.length a.part.Partition.chp_star)
    (if a.infeasible_outside then Some (fun () -> (tee, Rat.sub a.obligatory a.free)) else None)

(* [(L_low, m')], L_low being L_pmtn without its knapsack term:
   P(J) + Σ_{I+exp} k_i s_i + Σ_{other} s_i for k_i machines per I+exp
   class, i.e. N + Σ_{I+exp} (k_i − 1) s_i. No per-class membership test,
   and the sum runs in Rat, so it cannot overflow. *)
let low_bounds inst tee a =
  let l_low = ref (Rat.of_int inst.Instance.total) and m' = ref a.l in
  List.iter
    (fun i ->
      let k = plus_exp_machines inst tee ~mode:a.mode i in
      m' := !m' + k;
      l_low := Rat.add !l_low (Rat.mul_int (Rat.of_int inst.Instance.setups.(i)) (k - 1)))
    a.part.Partition.exp_plus;
  (!l_low, !m' + ((List.length a.part.Partition.exp_minus + 1) / 2))

(* The knapsack term of L_pmtn: the extra setup of every unselected I*chp
   class (Lemma 4). *)
let unselected inst a =
  List.fold_left
    (fun acc i ->
      let is_split = match a.split with Some (e, _) -> e = i | None -> false in
      if (not a.selected.(i)) && not is_split then acc + inst.Instance.setups.(i) else acc)
    0 a.part.Partition.chp_star

let test_of_analysis inst tee a =
  let m = inst.Instance.m in
  let l_low, m' = low_bounds inst tee a in
  let l_pmtn = Rat.add_int l_low (unselected inst a) in
  let m_t = Rat.mul_int tee m in
  if Rat.( < ) m_t l_pmtn then Error (Dual.Load_exceeds { required = l_pmtn; available = m_t })
  else if m < m' then Error (Dual.Machines_exceed { required = m'; available = m })
  else if a.infeasible_outside then
    (* even with every class unselected the obligatory load beats F *)
    Error
      (Dual.Load_exceeds
         { required = Rat.add a.obligatory (Rat.sub (Rat.mul_int tee (m - a.l)) a.free); available = Rat.mul_int tee (m - a.l) })
  else Ok ()

let trivial_rejection inst tee =
  let trivial = Lower_bounds.setup_plus_tmax inst in
  if Rat.compare_int tee trivial < 0 then Some (Dual.Below_trivial_bound { bound = Rat.of_int trivial })
  else None

let exact ~mode inst tee =
  match trivial_rejection inst tee with
  | Some r -> Error r
  | None ->
    let a = analyze ~mode inst tee in
    note_analysis tee a;
    test_of_analysis inst tee a

(* ---- the analysis on native ints, at a guess p/q ----

   Time is counted in units of 1/(2q), so T is 2p units, T/2 is p and an
   integer x is 2qx. Partition.native_guess bounds every threshold
   product and every per-class and per-job quantity below by 12Nq; what
   it cannot bound — k_i s_i, (m − l)·T and the sums built on them, and
   the knapsack's cross products s_a·w_b — goes through Intmath's [_exn]
   operations. A failed guard raises before any counter moves, and the
   guess reruns in Rat. *)

(* k_i for an I+exp class: α'_i = ⌊P/(T − s)⌋ or γ_i *)
let machines_native mode load s p q =
  match mode with
  | Pmtn_nice.Alpha_prime ->
    let slack = p - (s * q) in
    (* T <= s_i, below the trivial bound: Partition.alpha' raises there *)
    if slack <= 0 then raise_notrace Intmath.Overflow;
    load * q / slack
  | Pmtn_nice.Gamma ->
    let b' = 2 * load * q / p in
    (* P − β' T/2 <= T − s  ⟺  2 (P + s) <= (β' + 2) T *)
    if 2 * (load + s) * q <= (b' + 2) * p then max b' 1
    else if b' * p = 2 * load * q then b'
    else b' + 1

(* s_i + L*_i of an I-chp class in units, L*_i = P(C*_i) − |C*_i| (T/2 − s_i)
   over its big jobs (s_i + t_j > T/2); 0 when it has none, as s_i + L*_i
   is positive otherwise. Each big job has t_j > T/2 − s_i, so the
   subtracted term is below 2q·P(C*_i). *)
let star_obligatory inst i p q =
  let s = inst.Instance.setups.(i) and scale = 2 * q in
  let count = ref 0 and p_star = ref 0 in
  for x = inst.Instance.class_off.(i) to inst.Instance.class_off.(i + 1) - 1 do
    let t = inst.Instance.job_time.(inst.Instance.class_job_ids.(x)) in
    if 2 * (s + t) * q > p then begin
      incr count;
      p_star := !p_star + t
    end
  done;
  if !count = 0 then 0 else (scale * (s + !p_star)) - (!count * (p - (scale * s)))

(* The knapsack term of case 3.a over the [stars] I*chp classes, with
   capacity [y] >= 0: profits s_i and weights P(C_i) − L*_i in ascending
   class order, filled by the greedy Knapsack.solve_linear runs. *)
let unselected_native inst p q ~stars y =
  let setups = inst.Instance.setups and scale = 2 * q in
  let profits = Array.make stars 0 and weights = Array.make stars 0 in
  let next = ref 0 in
  for i = 0 to Instance.c inst - 1 do
    let s = setups.(i) in
    (* I-chp: T/4 > s_i *)
    if p > 4 * s * q then begin
      let obligatory = star_obligatory inst i p q in
      if obligatory > 0 then begin
        profits.(!next) <- s;
        weights.(!next) <- (scale * (s + inst.Instance.class_load.(i))) - obligatory;
        incr next
      end
    end
  done;
  let density_compare a b =
    Int.compare (Intmath.mul_exn profits.(a) weights.(b)) (Intmath.mul_exn profits.(b) weights.(a))
  in
  let full = Array.make stars false in
  let split = match Native_greedy.fill ~density_compare weights full y with Some (e, _) -> e | None -> -1 in
  let sum = ref 0 in
  for pos = 0 to stars - 1 do
    if (not full.(pos)) && pos <> split then sum := !sum + profits.(pos)
  done;
  !sum

(* The analysis at p/q, for a guess with Partition.native_guess: one
   pass over the classes (and the jobs of I-chp), a second over I*chp
   in case 3.a, then the counters, then [k] with what its caller reads.
   Loops and a closed [k], so case 3.b allocates nothing. *)
let native ~mode inst p q k =
  let scale = 2 * q and m = inst.Instance.m in
  let l = ref 0 and minus = ref 0 and machines = ref 0 in
  (* Σ_{I+exp} k_i s_i, Σ_{I+exp} s_i, and the rest of (m − l) T − F:
     Σ_{I+exp} P_i + Σ_{I-exp ∪ I+chp} (s_i + P_i) *)
  let k_setups = ref 0 and plus_setups = ref 0 and rest = ref 0 in
  let stars = ref 0 and star_setups = ref 0 and star_load = ref 0 and obligatory = ref 0 in
  for i = 0 to Instance.c inst - 1 do
    let s = inst.Instance.setups.(i) and load = inst.Instance.class_load.(i) in
    let s_plus_load = s + load in
    if 2 * s * q > p then begin
      (* expensive: I+exp, I0exp or I-exp *)
      if p <= s_plus_load * q then begin
        let k = machines_native mode load s p q in
        machines := !machines + k;
        k_setups := Intmath.add_exn !k_setups (Intmath.mul_exn k s);
        plus_setups := !plus_setups + s;
        rest := !rest + load
      end
      else if 4 * s_plus_load * q > 3 * p then incr l
      else begin
        incr minus;
        rest := !rest + s_plus_load
      end
    end
    else if p <= 4 * s * q then rest := !rest + s_plus_load
    else begin
      let star = star_obligatory inst i p q in
      if star > 0 then begin
        incr stars;
        star_setups := !star_setups + s;
        star_load := !star_load + s_plus_load;
        obligatory := !obligatory + star
      end
    end
  done;
  let fixed = Intmath.add_exn !k_setups !rest in
  let free = Intmath.sub_exn (Intmath.mul_exn (m - !l) (2 * p)) (Intmath.mul_exn scale fixed) in
  let case_a = free < scale * !star_load in
  let y = if case_a then Intmath.sub_exn free !obligatory else 0 in
  let y_guard = y < 0 in
  (* the Y-guard selects no I*chp class, case 3.b every one *)
  let unselected =
    if not case_a then 0 else if y_guard then !star_setups else unselected_native inst p q ~stars:!stars y
  in
  (* No guard from here on. 2q·fixed fits, so q·Σ k_i s_i <= max_int/2
     and l_pmtn·q < max_int/2 + 2Nq; (m − l)·2p fits, and each large
     machine's class has 2 s_i q > p, so m·p < max_int/2 + 2Nq. *)
  let l_low = inst.Instance.total + !k_setups - !plus_setups in
  let l_pmtn = l_low + unselected in
  let load_exceeds = m * p < l_pmtn * q in
  let m' = !l + !machines + ((!minus + 1) / 2) in
  let obligatory = !obligatory and l = !l in
  note ~case_a ~items:!stars
    (if y_guard then
       Some (fun () -> (Rat.of_ints p q, Rat.sub (Rat.of_ints obligatory scale) (Rat.of_ints free scale)))
     else None);
  k inst p q ~l_low ~unselected ~m' ~load_exceeds ~y_guard ~l ~fixed ~obligatory

let verdict inst p q ~l_low ~unselected ~m' ~load_exceeds ~y_guard ~l ~fixed ~obligatory =
  let m = inst.Instance.m in
  if load_exceeds then
    Error
      (Dual.Load_exceeds { required = Rat.of_int (l_low + unselected); available = Rat.of_ints (m * p) q })
  else if m < m' then Error (Dual.Machines_exceed { required = m'; available = m })
  else if y_guard then
    Error
      (Dual.Load_exceeds
         {
           required = Rat.add (Rat.of_ints obligatory (2 * q)) (Rat.of_int fixed);
           available = Rat.mul_int (Rat.of_ints p q) (m - l);
         })
  else Ok ()

let native_test ~mode inst p q =
  if not (Partition.native_guess inst p q) then raise_notrace Intmath.Overflow;
  let trivial = Lower_bounds.setup_plus_tmax inst in
  if p < trivial * q then Error (Dual.Below_trivial_bound { bound = Rat.of_int trivial })
  else native ~mode inst p q verdict

let test ?(mode = Pmtn_nice.Alpha_prime) inst tee =
  Guard.tick "pmtn_dual.test";
  match Rat.tier tee with
  | `Small when not (Rat.force_exact_enabled ()) -> (
    try native_test ~mode inst (Rat.small_num tee) (Rat.small_den tee)
    with Intmath.Overflow -> exact ~mode inst tee)
  | `Small | `Big -> exact ~mode inst tee

let test_fraction ?(mode = Pmtn_nice.Alpha_prime) inst p q =
  Guard.tick "pmtn_dual.test";
  if Rat.force_exact_enabled () then exact ~mode inst (Rat.of_ints p q)
  else try native_test ~mode inst p q with Intmath.Overflow -> exact ~mode inst (Rat.of_ints p q)

let test_exact ?(mode = Pmtn_nice.Alpha_prime) inst tee =
  Guard.tick "pmtn_dual.test";
  exact ~mode inst tee

let construct inst tee a =
  let m = inst.Instance.m in
  let half = half_of tee in
  let quarter = Rat.div_int tee 4 in
  let sched = Schedule.create m in
  (* Step 1: large machines, content from T/2 upward. *)
  List.iteri
    (fun u i ->
      let s = Rat.of_int inst.Instance.setups.(i) in
      Schedule.add_setup sched ~machine:u ~cls:i ~start:half ~dur:s;
      let pos = ref (Rat.add half s) in
      Instance.iter_class_jobs
        (fun j ->
          let t = Rat.of_int inst.Instance.job_time.(j) in
          Schedule.add_work sched ~machine:u ~job:j ~start:!pos ~dur:t;
          pos := Rat.add !pos t)
        inst i)
    a.part.Partition.exp_zero;
  (* Piece bookkeeping for I*chp: t1 = T/2 − s_i (inside, below the line),
     t2 = s_i + t_j − T/2 (obligatory, outside). *)
  let t1 i = Rat.sub half (Rat.of_int inst.Instance.setups.(i)) in
  let t2 i j = Rat.sub (Rat.of_int (inst.Instance.setups.(i) + inst.Instance.job_time.(j))) half in
  let is_star i j = Array.exists (fun j' -> j' = j) a.part.Partition.big_jobs.(i) in
  (* Nice batches and K batches (class, pieces) accumulate here. *)
  let nice = ref [] and kay = ref [] in
  let add_nice b = if b.Pmtn_nice.pieces <> [] then nice := b :: !nice in
  let add_k ?(front = false) cls pieces =
    let pieces = List.filter (fun (_, t) -> Rat.sign t > 0) pieces in
    if pieces <> [] then kay := (if front then ((cls, pieces) :: !kay) else !kay @ [ (cls, pieces) ])
  in
  List.iter
    (fun i -> add_nice (Pmtn_nice.batch_of_class inst i))
    (a.part.Partition.exp_plus @ a.part.Partition.exp_minus @ a.part.Partition.chp_plus);
  (* I*chp: selected fully inside; unselected split at the T/2 line; the
     knapsack's fractional class e split by Eq. (6). *)
  List.iter
    (fun i ->
      let is_split = match a.split with Some (e, _) -> e = i | None -> false in
      if a.selected.(i) then add_nice (Pmtn_nice.batch_of_class inst i)
      else if not is_split then begin
        let stars = Array.to_list a.part.Partition.big_jobs.(i) in
        add_nice { Pmtn_nice.cls = i; pieces = List.map (fun j -> (j, t2 i j)) stars };
        let others =
          Array.to_list (Instance.jobs_of_class inst i) |> List.filter (fun j -> not (is_star i j))
        in
        add_k i (List.map (fun j -> (j, t1 i)) stars @ List.map (fun j -> (j, Rat.of_int inst.Instance.job_time.(j))) others)
      end)
    a.part.Partition.chp_star;
  (match a.split with
  | None -> ()
  | Some (e, frac) ->
    let inside = ref [] and outside = ref [] in
    Instance.iter_class_jobs
      (fun j ->
        let tj = Rat.of_int inst.Instance.job_time.(j) in
        let inside_t =
          if is_star e j then Rat.add (Rat.mul frac (t1 e)) (t2 e j) else Rat.mul frac tj
        in
        let outside_t = Rat.sub tj inside_t in
        if Rat.sign inside_t > 0 then inside := (j, inside_t) :: !inside;
        if Rat.sign outside_t > 0 then outside := (j, outside_t) :: !outside)
      inst e;
    add_nice { Pmtn_nice.cls = e; pieces = List.rev !inside };
    add_k ~front:true e (List.rev !outside));
  (* I-chp \ I*chp: in case 3.a everything goes to K; in case 3.b fill the
     nice instance up to the budget F − Σ_{I*chp}(s_i + P(C_i)), with at
     most one class split across both sides. *)
  let plain_cheap =
    List.filter (fun i -> not (List.mem i a.part.Partition.chp_star)) a.part.Partition.chp_minus
  in
  if a.case_a then
    List.iter
      (fun i ->
        add_k i
          (Array.to_list (Instance.jobs_of_class inst i)
          |> List.map (fun j -> (j, Rat.of_int inst.Instance.job_time.(j)))))
      plain_cheap
  else begin
    let budget = ref (Rat.sub a.free a.star_load) in
    let partial_used = ref false in
    List.iter
      (fun i ->
        let s = Rat.of_int inst.Instance.setups.(i) in
        let need = Rat.add s (Rat.of_int inst.Instance.class_load.(i)) in
        let jobs = Array.to_list (Instance.jobs_of_class inst i) in
        let whole = List.map (fun j -> (j, Rat.of_int inst.Instance.job_time.(j))) jobs in
        if Rat.( <= ) need !budget then begin
          add_nice { Pmtn_nice.cls = i; pieces = whole };
          budget := Rat.sub !budget need
        end
        else if Rat.( > ) !budget s && not !partial_used then begin
          partial_used := true;
          let room = ref (Rat.sub !budget s) in
          budget := Rat.zero;
          let inside = ref [] and outside = ref [] in
          List.iter
            (fun (j, t) ->
              if Rat.sign !room <= 0 then outside := (j, t) :: !outside
              else if Rat.( <= ) t !room then begin
                inside := (j, t) :: !inside;
                room := Rat.sub !room t
              end
              else begin
                inside := (j, !room) :: !inside;
                outside := (j, Rat.sub t !room) :: !outside;
                room := Rat.zero
              end)
            whole;
          add_nice { Pmtn_nice.cls = i; pieces = List.rev !inside };
          add_k ~front:true i (List.rev !outside)
        end
        else add_k i whole)
      plain_cheap
  end;
  (* Nice instance on the non-large machines. *)
  (match
     Pmtn_nice.place ~mode:a.mode inst sched ~tee ~first_machine:a.l ~machines:(m - a.l)
       (List.rev !nice)
   with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (* K at the bottom of the large machines: big pieces (t > T/4) one per
     machine, small ones wrapped into (0, T/2) and (T/4, T/2) gaps. *)
  let k_big = ref [] and k_small = ref [] in
  List.iter
    (fun (cls, pieces) ->
      let big, small = List.partition (fun (_, t) -> Rat.( > ) t quarter) pieces in
      List.iter (fun piece -> k_big := (cls, piece) :: !k_big) big;
      if small <> [] then k_small := (cls, small) :: !k_small)
    !kay;
  let k_big = List.rev !k_big and k_small = List.rev !k_small in
  let l' = List.length k_big in
  if l' > a.l then failwith "Pmtn_dual: more big K pieces than large machines";
  List.iteri
    (fun u (cls, (j, t)) ->
      let s = Rat.of_int inst.Instance.setups.(cls) in
      Schedule.add_setup sched ~machine:u ~cls ~start:Rat.zero ~dur:s;
      Schedule.add_work sched ~machine:u ~job:j ~start:s ~dur:t;
      if Rat.( > ) (Rat.add s t) half then failwith "Pmtn_dual: big K piece exceeds T/2")
    k_big;
  if k_small <> [] then begin
    if l' >= a.l then failwith "Pmtn_dual: no large machines left for small K pieces";
    let first = { Template.machine = l'; lo = Rat.zero; hi = half } in
    let rest = Template.uniform_run ~first_machine:(l' + 1) ~count:(a.l - l' - 1) ~lo:quarter ~hi:half in
    let omega = Template.concat [ [ first ]; rest ] in
    let q = Sequence.of_batches inst k_small in
    let _ = Wrap.wrap inst sched q omega in
    ()
  end;
  sched

let run ?(mode = Pmtn_nice.Alpha_prime) inst tee =
  Guard.tick "pmtn_dual.test";
  match trivial_rejection inst tee with
  | Some r -> Dual.Rejected r
  | None -> (
    let a = analyze ~mode inst tee in
    note_analysis tee a;
    match test_of_analysis inst tee a with
    | Error r -> Dual.Rejected r
    | Ok () -> Dual.Accepted (construct inst tee a))

type bounds = { l_low : int; m' : int; unselected : int }

let bounds_of _inst _p _q ~l_low ~unselected ~m' ~load_exceeds:_ ~y_guard:_ ~l:_ ~fixed:_ ~obligatory:_ =
  { l_low; m'; unselected }

let bounds ?(mode = Pmtn_nice.Alpha_prime) inst tee =
  let exact () =
    let a = analyze ~mode inst tee in
    note_analysis tee a;
    let l_low, m' = low_bounds inst tee a in
    { l_low = Rat.floor_int l_low; m'; unselected = unselected inst a }
  in
  match Rat.tier tee with
  | `Small when not (Rat.force_exact_enabled ()) -> (
    let p = Rat.small_num tee and q = Rat.small_den tee in
    if not (Partition.native_guess inst p q) then exact ()
    else try native ~mode inst p q bounds_of with Intmath.Overflow -> exact ())
  | `Small | `Big -> exact ()

type line = { at0 : Rat.t; slope : Rat.t }

type item = { profit : int; weight : line }

type quantities = { capacity : line; items : item array }

(* Inside a jump-free interval only T moves: F = (m − l) T − (the fixed
   loads), and each I*chp class contributes |C*_i| pieces whose size
   moves with T/2, so L*_i = P(C*_i) + |C*_i| s_i − |C*_i| T/2. *)
let quantities ?(mode = Pmtn_nice.Alpha_prime) inst tee =
  let a = analyze ~mode inst tee in
  let free_slope = Rat.of_int (inst.Instance.m - a.l) in
  let free_at0 = Rat.sub a.free (Rat.mul free_slope tee) in
  (* Rat sums: |C*_i| s_i counts a setup once per big job *)
  let star_fixed = ref Rat.zero and star_count = ref 0 in
  let items =
    Array.of_list
      (List.map
         (fun i ->
           let s = inst.Instance.setups.(i) and stars = a.part.Partition.big_jobs.(i) in
           let count = Array.length stars in
           let p_star = Array.fold_left (fun acc j -> acc + inst.Instance.job_time.(j)) 0 stars in
           let fixed = Rat.mul_int (Rat.of_int s) count in
           star_fixed := Rat.add !star_fixed (Rat.add_int fixed (s + p_star));
           star_count := !star_count + count;
           (* the weight P(C_i) − L*_i *)
           let at0 = Rat.sub (Rat.of_int (inst.Instance.class_load.(i) - p_star)) fixed in
           { profit = s; weight = { at0; slope = Rat.of_ints count 2 } })
         a.part.Partition.chp_star)
  in
  let capacity =
    { at0 = Rat.sub free_at0 !star_fixed; slope = Rat.add free_slope (Rat.of_ints !star_count 2) }
  in
  { capacity; items }
