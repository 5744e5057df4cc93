open Bss_util
open Bss_instances
open Bss_wrap

let splittable inst =
  let m = inst.Instance.m in
  let smax = Rat.of_int inst.Instance.s_max in
  let volume = Rat.of_ints inst.Instance.total m in
  let omega =
    Template.concat
      [ Template.uniform_run ~first_machine:0 ~count:m ~lo:smax ~hi:(Rat.add smax volume) ]
  in
  let q = Sequence.of_classes inst (List.init (Instance.c inst) (fun i -> i)) in
  let sched = Schedule.create m in
  let _ = Wrap.wrap inst sched q omega in
  sched

(* --- next-fit for the non-preemptive / preemptive case (Lemma 9) ------- *)

(* Next-fit over the item stream [s_0, C_0, s_1, C_1, ...] with threshold
   [T_min], laying each machine's items back to back from 0 as they are
   placed. The item that pushes a machine's load over [T_min] closes it
   and opens the next machine instead, behind its class's setup when it
   is a job; that carried setup does not count toward the new machine's
   load. A setup is written only once a job follows it on its machine:
   one that ends up last on a machine is dropped. Since every class has a
   job and every item fits under [T_min], at most one setup waits. *)
let nonpreemptive inst =
  let m = inst.Instance.m in
  let tmin = Lower_bounds.t_min Variant.Nonpreemptive inst in
  let setups = inst.Instance.setups and job_time = inst.Instance.job_time in
  let sched = Schedule.create m in
  (* [u] is the open machine, [load] its next-fit load and [t] the end of
     what is laid out on it; [waiting] is the class whose setup ends at
     [t] but is not yet written, or -1 *)
  let u = ref 0 and load = ref 0 and t = ref 0 and waiting = ref (-1) in
  let crosses d =
    load := !load + d;
    Rat.compare_int tmin !load < 0
  in
  let next_machine () =
    assert (!u + 1 < m);
    incr u;
    load := 0;
    t := 0;
    waiting := -1
  in
  let setup i =
    waiting := i;
    t := !t + setups.(i)
  in
  let job j =
    let i = !waiting in
    if i >= 0 then begin
      let s = setups.(i) in
      Schedule.add_setup sched ~machine:!u ~cls:i ~start:(Rat.of_int (!t - s)) ~dur:(Rat.of_int s);
      waiting := -1
    end;
    let d = job_time.(j) in
    Schedule.add_work sched ~machine:!u ~job:j ~start:(Rat.of_int !t) ~dur:(Rat.of_int d);
    t := !t + d
  in
  for i = 0 to Instance.c inst - 1 do
    if crosses setups.(i) then next_machine ();
    setup i;
    for k = 0 to Instance.class_size inst i - 1 do
      let j = Instance.class_job inst i k in
      if crosses job_time.(j) then begin
        next_machine ();
        setup i
      end;
      job j
    done
  done;
  sched

let preemptive = nonpreemptive

let solve variant inst =
  (* fault-only chaos point, no budget charge: the 2-approximation is the
     ladder's certified fallback and must finish even on an exhausted
     guard, but tests still need to crash it to reach the terminal rung *)
  Bss_resilience.Guard.point "two_approx.solve";
  match variant with
  | Variant.Splittable -> splittable inst
  | Variant.Nonpreemptive -> nonpreemptive inst
  | Variant.Preemptive -> preemptive inst
