open Bss_util
open Bss_instances
open Bss_wrap
open Bss_knapsack
module Probe = Bss_obs.Probe
module Event = Bss_obs.Event

(* Shared analysis of (instance, T): partitions, free time, obligatory
   loads, and the knapsack decision of case 3.a. *)
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

let analyze ?(mode = Pmtn_nice.Alpha_prime) inst tee =
  let p = Partition.make inst tee in
  let half = half_of tee in
  let l = List.length p.Partition.exp_zero in
  let class_total i = Rat.of_int (inst.Instance.setups.(i) + inst.Instance.class_load.(i)) in
  let free =
    let used_plus =
      List.fold_left
        (fun acc i ->
          Rat.add acc
            (Rat.of_int
               ((plus_exp_machines inst tee ~mode i * inst.Instance.setups.(i)) + inst.Instance.class_load.(i))))
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
  Probe.count (if case_a then "pmtn_dual.case_a" else "pmtn_dual.case_b");
  let selected = Array.make (Instance.c inst) false in
  let split = ref None in
  let infeasible_outside = ref false in
  if case_a then begin
    let capacity = Rat.sub free obligatory in
    if Rat.sign capacity < 0 then begin
      (* DESIGN.md §7.1: the paper's two tests would accept, but the
         obligatory outside load cannot fit in F — reject later. *)
      Probe.count "pmtn_dual.y_guard";
      if Probe.enabled () then
        Probe.event (Event.Y_guard_fired { t = tee; deficit = Rat.neg capacity });
      infeasible_outside := true
    end
    else begin
      let items =
        Array.of_list
          (List.map
             (fun i ->
               {
                 Knapsack.id = i;
                 profit = Rat.of_int inst.Instance.setups.(i);
                 weight = Rat.sub (Rat.of_int inst.Instance.class_load.(i)) (l_star_i i);
               })
             p.Partition.chp_star)
      in
      let sol = Knapsack.solve_linear items ~capacity in
      Array.iteri
        (fun pos take ->
          let i = items.(pos).Knapsack.id in
          if Rat.equal take Rat.one then selected.(i) <- true
          else if Rat.sign take > 0 then split := Some (i, take))
        sol.Knapsack.take
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
      l_low := Rat.add !l_low (Rat.of_int ((k - 1) * inst.Instance.setups.(i))))
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

let bounds_of_analysis inst tee a =
  let l_low, m' = low_bounds inst tee a in
  (Rat.add_int l_low (unselected inst a), m')

let test_of_analysis inst tee a =
  let m = inst.Instance.m in
  let l_pmtn, m' = bounds_of_analysis inst tee a in
  let m_t = Rat.mul_int tee m in
  if Rat.( < ) m_t l_pmtn then Error (Dual.Load_exceeds { required = l_pmtn; available = m_t })
  else if m < m' then Error (Dual.Machines_exceed { required = m'; available = m })
  else if a.infeasible_outside then
    (* even with every class unselected the obligatory load beats F *)
    Error
      (Dual.Load_exceeds
         { required = Rat.add a.obligatory (Rat.sub (Rat.mul_int tee (m - a.l)) a.free); available = Rat.mul_int tee (m - a.l) })
  else Ok ()

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

let test ?mode inst tee =
  Bss_resilience.Guard.tick "pmtn_dual.test";
  let trivial = Rat.of_int (Lower_bounds.setup_plus_tmax inst) in
  if Rat.( < ) tee trivial then Error (Dual.Below_trivial_bound { bound = trivial })
  else test_of_analysis inst tee (analyze ?mode inst tee)

let run ?mode inst tee =
  Bss_resilience.Guard.tick "pmtn_dual.test";
  let trivial = Rat.of_int (Lower_bounds.setup_plus_tmax inst) in
  if Rat.( < ) tee trivial then Dual.Rejected (Dual.Below_trivial_bound { bound = trivial })
  else begin
    let a = analyze ?mode inst tee in
    match test_of_analysis inst tee a with
    | Error r -> Dual.Rejected r
    | Ok () -> Dual.Accepted (construct inst tee a)
  end

type line = { at0 : Rat.t; slope : Rat.t }

type item = { profit : int; weight : line }

type quantities = { l_low : Rat.t; m' : int; capacity : line; items : item array; unselected : int }

(* Inside a jump-free interval only T moves: F = (m − l) T − (the fixed
   loads), and each I*chp class contributes |C*_i| pieces whose size
   moves with T/2, so L*_i = P(C*_i) + |C*_i| s_i − |C*_i| T/2. *)
let quantities inst tee a =
  let l_low, m' = low_bounds inst tee a in
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
  { l_low; m'; capacity; items; unselected = unselected inst a }
