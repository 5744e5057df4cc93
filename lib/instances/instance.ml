module Error = Bss_resilience.Error

type t = {
  m : int;
  setups : int array;
  job_class : int array;
  job_time : int array;
  class_off : int array;
  class_job_ids : int array;
  class_load : int array;
  class_tmax : int array;
  total : int;
  s_max : int;
  t_max : int;
}

(* Headroom cap: the searches evaluate breakpoints in native ints — the
   preemptive ones in thirds, up to [6N] and [12 s_i] — so construction
   rejects instances whose total size N could make those overflow. *)
let max_total = max_int / 16

let checked_total ~setups ~job_time =
  let acc = ref 0 in
  let add v =
    let s = !acc + v in
    if s < 0 then Error.invalid_input ~field:"total" "instance size overflows max_int";
    acc := s
  in
  Array.iter add setups;
  Array.iter add job_time;
  if !acc > max_total then
    Error.invalid_input ~field:"total"
      (Printf.sprintf "instance size %d exceeds the supported maximum max_int/16" !acc);
  !acc

let make ~m ~setups ~jobs =
  let c = Array.length setups in
  if m < 1 then Error.invalid_input ~field:"m" "m < 1";
  if c < 1 then Error.invalid_input ~field:"setups" "no classes";
  Array.iteri
    (fun i s -> if s < 1 then Error.invalid_input ~field:"setup" (Printf.sprintf "setup of class %d < 1" i))
    setups;
  let n = Array.length jobs in
  if n < 1 then Error.invalid_input ~field:"jobs" "no jobs";
  let job_class = Array.make n 0 and job_time = Array.make n 0 in
  let count = Array.make c 0 in
  Array.iteri
    (fun j (cls, time) ->
      if cls < 0 || cls >= c then
        Error.invalid_input ~field:"class" (Printf.sprintf "job %d: class %d out of range [0, %d)" j cls c);
      if time < 1 then Error.invalid_input ~field:"time" (Printf.sprintf "job %d: time < 1" j);
      job_class.(j) <- cls;
      job_time.(j) <- time;
      count.(cls) <- count.(cls) + 1)
    jobs;
  Array.iteri
    (fun i k -> if k = 0 then Error.invalid_input ~field:"class" (Printf.sprintf "class %d empty" i))
    count;
  let total = checked_total ~setups ~job_time in
  (* CSR class layout: class [i]'s job ids are the flat slice
     [class_job_ids.(class_off.(i) .. class_off.(i+1) - 1)] — one contiguous
     array instead of [c] heap-separated ones, so the hot per-class loops
     walk cache lines, not pointers. *)
  let class_off = Array.make (c + 1) 0 in
  for i = 0 to c - 1 do
    class_off.(i + 1) <- class_off.(i) + count.(i)
  done;
  let class_job_ids = Array.make n 0 in
  let fill = Array.copy class_off in
  for j = 0 to n - 1 do
    let i = job_class.(j) in
    class_job_ids.(fill.(i)) <- j;
    fill.(i) <- fill.(i) + 1
  done;
  let class_load = Array.make c 0 and class_tmax = Array.make c 0 in
  for j = 0 to n - 1 do
    let i = job_class.(j) in
    class_load.(i) <- class_load.(i) + job_time.(j);
    if job_time.(j) > class_tmax.(i) then class_tmax.(i) <- job_time.(j)
  done;
  {
    m;
    setups = Array.copy setups;
    job_class;
    job_time;
    class_off;
    class_job_ids;
    class_load;
    class_tmax;
    total;
    s_max = Bss_util.Intmath.max_array setups;
    t_max = Bss_util.Intmath.max_array job_time;
  }

let n t = Array.length t.job_time
let c t = Array.length t.setups
let class_size t i = t.class_off.(i + 1) - t.class_off.(i)
let jobs_of_class t i = Array.sub t.class_job_ids t.class_off.(i) (class_size t i)
let class_job t i k = t.class_job_ids.(t.class_off.(i) + k)

let iter_class_jobs f t i =
  for p = t.class_off.(i) to t.class_off.(i + 1) - 1 do
    f t.class_job_ids.(p)
  done

let fold_class_jobs f acc t i =
  let acc = ref acc in
  for p = t.class_off.(i) to t.class_off.(i + 1) - 1 do
    acc := f !acc t.class_job_ids.(p)
  done;
  !acc
let delta t = max t.s_max t.t_max

let describe t =
  Printf.sprintf "instance: m=%d c=%d n=%d N=%d smax=%d tmax=%d" t.m (c t) (n t) t.total t.s_max t.t_max

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "m %d\n" t.m);
  Buffer.add_string buf "setups";
  Array.iter (fun s -> Buffer.add_string buf (" " ^ string_of_int s)) t.setups;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun j cls -> Buffer.add_string buf (Printf.sprintf "job %d %d\n" cls t.job_time.(j)))
    t.job_class;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let m = ref None and setups = ref None and jobs = ref [] in
  let parse_int ~line ~field w =
    (* [int_of_string_opt] rejects both garbage and numbers beyond
       max_int, so overflow-adjacent literals surface here, typed *)
    match int_of_string_opt w with
    | Some v -> v
    | None -> Error.invalid_input ~line ~field ("not a machine integer: " ^ w)
  in
  let parse_line idx raw =
    let line = idx + 1 in
    let text = String.trim raw in
    if text = "" || text.[0] = '#' then ()
    else begin
      match String.split_on_char ' ' text |> List.filter (fun w -> w <> "") with
      | [ "m"; v ] ->
        if !m <> None then Error.invalid_input ~line ~field:"m" "duplicate m line";
        m := Some (parse_int ~line ~field:"m" v)
      | "setups" :: vs ->
        if !setups <> None then Error.invalid_input ~line ~field:"setups" "duplicate setups line";
        if vs = [] then Error.invalid_input ~line ~field:"setups" "setups line has no values";
        setups := Some (Array.of_list (List.map (fun v -> parse_int ~line ~field:"setup" v) vs))
      | [ "job"; cls; time ] ->
        jobs := (parse_int ~line ~field:"class" cls, parse_int ~line ~field:"time" time) :: !jobs
      | _ -> Error.invalid_input ~line ~field:"line" ("unrecognized: " ^ text)
    end
  in
  List.iteri parse_line lines;
  match (!m, !setups) with
  | Some m, Some setups -> make ~m ~setups ~jobs:(Array.of_list (List.rev !jobs))
  | None, _ -> Error.invalid_input ~field:"m" "missing m line"
  | _, None -> Error.invalid_input ~field:"setups" "missing setups line"

let equal a b =
  a.m = b.m && a.setups = b.setups && a.job_class = b.job_class && a.job_time = b.job_time
