open Bss_util

type t = {
  makespan : Rat.t;
  total_load : Rat.t;
  total_setup_time : Rat.t;
  setup_count : int;
  preemption_count : int;
  machines_used : int;
  idle_within_makespan : Rat.t;
}

let compute inst sched =
  let makespan = Schedule.makespan sched in
  let total_load = Schedule.total_load sched in
  let setup_time = ref Rat.zero and setup_count = ref 0 in
  let work_segs = ref 0 in
  let used = ref 0 in
  for u = 0 to Schedule.machines sched - 1 do
    let segs = Schedule.segments sched u in
    if segs <> [] then incr used;
    List.iter
      (fun (seg : Schedule.seg) ->
        match seg.content with
        | Schedule.Setup _ ->
          incr setup_count;
          setup_time := Rat.add !setup_time seg.dur
        | Schedule.Work _ -> incr work_segs)
      segs
  done;
  {
    makespan;
    total_load;
    total_setup_time = !setup_time;
    setup_count = !setup_count;
    preemption_count = max 0 (!work_segs - Instance.n inst);
    machines_used = !used;
    idle_within_makespan = Rat.sub (Rat.mul_int makespan (Schedule.machines sched)) total_load;
  }

let ratio_vs lb metrics =
  if Rat.is_zero lb then infinity else Rat.to_float (Rat.div metrics.makespan lb)
