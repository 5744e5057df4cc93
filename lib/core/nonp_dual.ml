open Bss_util
open Bss_instances

(* Intermediate representation: machines are gap-free stacks of items grown
   from time 0. Positions stay implicit until materialization, so the
   repair step (replacing split pieces by whole jobs, moving border
   crossers) is pure list surgery. *)

type kind =
  | Setup of int
  | Whole of int
  | Piece of { job : int; dur : Rat.t; first : bool }

type item = { uid : int; kind : kind }

(* ---- the test ---- *)

(* The reference, in {!Rat}: Partition's m_i, then L_nonp and m'. *)
let bounds inst tee =
  let c = Instance.c inst in
  let l_nonp = ref (Rat.of_int (Intmath.sum_array inst.Instance.class_load)) in
  let m' = ref 0 in
  for i = 0 to c - 1 do
    let s = inst.Instance.setups.(i) in
    let mi = Partition.m_i inst tee i in
    m' := !m' + mi;
    l_nonp := Rat.add !l_nonp (Rat.mul_int (Rat.of_int s) mi);
    (* x_i > 0 ⟺ P(C_i) > m_i (T − s_i) *)
    let xi_pos =
      Rat.( > ) (Rat.of_int inst.Instance.class_load.(i)) (Rat.mul_int (Rat.sub tee (Rat.of_int s)) mi)
    in
    if xi_pos then l_nonp := Rat.add !l_nonp (Rat.of_int s)
  done;
  (!l_nonp, !m')

let test_exact inst tee =
  let m = inst.Instance.m in
  let trivial = Rat.of_int (Lower_bounds.setup_plus_tmax inst) in
  if Rat.( < ) tee trivial then Error (Dual.Below_trivial_bound { bound = trivial })
  else begin
    let l_nonp, m' = bounds inst tee in
    let m_t = Rat.mul_int tee m in
    if Rat.( < ) m_t l_nonp then Error (Dual.Load_exceeds { required = l_nonp; available = m_t })
    else if m < m' then Error (Dual.Machines_exceed { required = m'; available = m })
    else Ok ()
  end

(* [test_exact] at the guess [p/q], on native ints: m_i from
   Partition.m_i_int. [Partition.native_guess] keeps Σ m_i (at most
   n + N) and m_i (p − s_i q) (under 7Nq) native; the products m_i·s_i,
   m·p and L_nonp·q and the sum L_nonp are guarded, a failed guard
   raising [Intmath.Overflow]. Loops, not closures, so an accepted guess
   allocates nothing. *)
let test_native inst p q =
  let trivial = Lower_bounds.setup_plus_tmax inst in
  if p < trivial * q then Error (Dual.Below_trivial_bound { bound = Rat.of_int trivial })
  else begin
    let m = inst.Instance.m in
    let l_nonp = ref (Intmath.sum_array inst.Instance.class_load) and m' = ref 0 in
    for i = 0 to Instance.c inst - 1 do
      let s = inst.Instance.setups.(i) in
      (* T >= trivial > s_i *)
      let mi = Partition.m_i_int inst p q i in
      m' := !m' + mi;
      l_nonp := Intmath.add_exn !l_nonp (Intmath.mul_exn mi s);
      (* x_i > 0 ⟺ P(C_i) > m_i (T − s_i) *)
      if inst.Instance.class_load.(i) * q > mi * (p - (s * q)) then l_nonp := Intmath.add_exn !l_nonp s
    done;
    let m_p = Intmath.mul_exn m p in
    if m_p < Intmath.mul_exn !l_nonp q then
      Error (Dual.Load_exceeds { required = Rat.of_int !l_nonp; available = Rat.of_ints m_p q })
    else if m < !m' then Error (Dual.Machines_exceed { required = !m'; available = m })
    else Ok ()
  end

let test inst tee =
  match Rat.tier tee with
  | `Small when not (Rat.force_exact_enabled ()) -> (
    let p = Rat.small_num tee and q = Rat.small_den tee in
    if not (Partition.native_guess inst p q) then test_exact inst tee
    else try test_native inst p q with Intmath.Overflow -> test_exact inst tee)
  | `Small | `Big -> test_exact inst tee

let construct inst tee =
  let m = inst.Instance.m in
  let stacks = Array.make m [] (* top-first *) in
  let loads = Array.make m Rat.zero in
  let next_uid = ref 0 in
  let push u kind dur =
    let it = { uid = !next_uid; kind } in
    incr next_uid;
    stacks.(u) <- it :: stacks.(u);
    loads.(u) <- Rat.add loads.(u) dur;
    it
  in
  let push_setup u i = ignore (push u (Setup i) (Rat.of_int inst.Instance.setups.(i))) in
  let cursor = ref 0 in
  let fresh_machine () =
    assert (!cursor < m);
    let u = !cursor in
    incr cursor;
    u
  in
  (* Sequential split-fill of class [i]'s jobs (supplied as an
     iteration [iter_jobs], so CSR slices and lists both feed it without
     copying) onto fresh machines: setup at 0, jobs until T, split at
     the border, new machine starts with a new setup. Every job fits a
     fresh machine whole, so at most one split per job here. *)
  let wrap_class i iter_jobs =
    let u = ref (fresh_machine ()) in
    push_setup !u i;
    iter_jobs
      (fun j ->
        let tj = Rat.of_int inst.Instance.job_time.(j) in
        let room = Rat.sub tee loads.(!u) in
        if Rat.( <= ) tj room then ignore (push !u (Whole j) tj)
        else begin
          if Rat.sign room > 0 then
            ignore (push !u (Piece { job = j; dur = room; first = true }) room);
          let rest = Rat.sub tj (Rat.max Rat.zero room) in
          u := fresh_machine ();
          push_setup !u i;
          assert (Rat.( <= ) rest (Rat.sub tee loads.(!u)));
          if Rat.sign room > 0 then
            ignore (push !u (Piece { job = j; dur = rest; first = false }) rest)
          else ignore (push !u (Whole j) rest)
        end);
    !u
  in
  (* ---- step 1: the exclusive jobs L ---- *)
  let c = Instance.c inst in
  let fill_machines = Array.make c [] (* reversed *) in
  let rest_jobs = Array.make c [] (* cheap classes' J \ L, reversed *) in
  for i = 0 to c - 1 do
    let s = inst.Instance.setups.(i) in
    if Partition.is_expensive inst tee i then
      ignore (wrap_class i (fun f -> Instance.iter_class_jobs f inst i))
    else begin
      let jplus = ref [] and kset = ref [] in
      Instance.iter_class_jobs
        (fun j ->
          let tj = inst.Instance.job_time.(j) in
          if Rat.compare_int tee (2 * tj) < 0 then jplus := j :: !jplus
          else if Rat.compare_int tee (2 * (s + tj)) < 0 then kset := j :: !kset
          else rest_jobs.(i) <- j :: rest_jobs.(i))
        inst i;
      List.iter
        (fun j ->
          let u = fresh_machine () in
          push_setup u i;
          ignore (push u (Whole j) (Rat.of_int inst.Instance.job_time.(j)));
          fill_machines.(i) <- u :: fill_machines.(i))
        (List.rev !jplus);
      match List.rev !kset with
      | [] -> ()
      | ks ->
        let last = wrap_class i (fun f -> List.iter f ks) in
        fill_machines.(i) <- last :: fill_machines.(i)
    end
  done;
  (* ---- step 2: fill each cheap class's own machines, splitting at T ---- *)
  let residual = Array.make c [] (* (job, remaining, fragments) queue *) in
  for i = 0 to c - 1 do
    let queue = ref (List.rev_map (fun j -> (j, Rat.of_int inst.Instance.job_time.(j), 0)) rest_jobs.(i)) in
    let fills = List.rev fill_machines.(i) in
    List.iter
      (fun u ->
        let continue_filling = ref true in
        while !continue_filling do
          match !queue with
          | [] -> continue_filling := false
          | (j, rem, nfrag) :: tail ->
            let room = Rat.sub tee loads.(u) in
            if Rat.sign room <= 0 then continue_filling := false
            else if Rat.( <= ) rem room then begin
              if nfrag = 0 then ignore (push u (Whole j) rem)
              else ignore (push u (Piece { job = j; dur = rem; first = false }) rem);
              queue := tail
            end
            else begin
              ignore (push u (Piece { job = j; dur = room; first = nfrag = 0 }) room);
              queue := (j, Rat.sub rem room, nfrag + 1) :: tail;
              continue_filling := false
            end
        done)
      fills;
    residual.(i) <- !queue
  done;
  (* ---- step 3: greedy stacking of the residual chunks ---- *)
  let q_items =
    List.concat_map
      (fun i ->
        match residual.(i) with
        | [] -> []
        | queue ->
          `S i
          :: List.map
               (fun (j, rem, nfrag) ->
                 if nfrag = 0 then `W j else `P (j, rem))
               queue)
      (List.init c (fun i -> i))
  in
  (* placement log: every step-3 item in order, with its machine;
     [crossed] marks items whose placement pushed the load strictly
     over T, [exact_fill] marks items landing exactly on T (the chunk
     may silently continue on the next machine and will need a setup
     delivered by the repair step). *)
  let placed = ref [] in
  let crossed = Hashtbl.create 16 in
  let exact_fill = Hashtbl.create 16 in
  let rec next_open w =
    if w >= m then failwith "Nonp_dual: ran out of machines in step 3 (should be unreachable)"
    else if Rat.( < ) loads.(w) tee then w
    else next_open (w + 1)
  in
  if q_items <> [] then begin
    let w = ref (next_open 0) in
    List.iter
      (fun entry ->
        if Rat.( >= ) loads.(!w) tee then w := next_open (!w + 1);
        let it =
          match entry with
          | `S i -> push !w (Setup i) (Rat.of_int inst.Instance.setups.(i))
          | `W j -> push !w (Whole j) (Rat.of_int inst.Instance.job_time.(j))
          | `P (j, rem) -> push !w (Piece { job = j; dur = rem; first = false }) rem
        in
        placed := (it.uid, !w) :: !placed;
        if Rat.( > ) loads.(!w) tee then Hashtbl.replace crossed it.uid ()
        else if Rat.equal loads.(!w) tee then Hashtbl.replace exact_fill it.uid ())
      q_items
  end;
  let placed = Array.of_list (List.rev !placed) in
  (* ---- step 4a: make jobs integral ---- *)
  let zeroed = Hashtbl.create 16 in
  for u = 0 to m - 1 do
    stacks.(u) <-
      List.map
        (fun it ->
          match it.kind with
          | Piece { job; first = true; _ } -> { it with kind = Whole job }
          | Piece p ->
            Hashtbl.replace zeroed it.uid ();
            { it with kind = Piece { p with dur = Rat.zero } }
          | Setup _ | Whole _ -> it)
        stacks.(u)
  done;
  (* ---- step 4b: move border crossers below their successors ----
     The successor of a crossing item is the next SURVIVING step-3 item
     (zero-dur sibling pieces vanished in 4a). A surviving crosser
     moves below its successor with a fresh setup; a vanished crosser
     still owes the continuation its setup, unless an earlier insertion
     below the same successor already supplies same-class support. *)
  let item_class it =
    match it.kind with
    | Setup i -> i
    | Whole j -> inst.Instance.job_class.(j)
    | Piece { job; _ } -> inst.Instance.job_class.(job)
  in
  let find_item w uid = List.find (fun it -> it.uid = uid) stacks.(w) in
  let insert_below w' s_uid insertion =
    let rec go = function
      | [] -> assert false
      | it :: rest when it.uid = s_uid -> (it :: insertion) @ rest
      | it :: rest -> it :: go rest
    in
    stacks.(w') <- go stacks.(w')
  in
  let supported = Hashtbl.create 16 in
  let received = Array.make m false in
  let next_surviving idx =
    let rec go k =
      if k >= Array.length placed then None
      else begin
        let uid, w = placed.(k) in
        if Hashtbl.mem zeroed uid then go (k + 1) else Some (uid, w)
      end
    in
    go (idx + 1)
  in
  let support_successor s_uid w' =
    (* the chunk continues at the successor without its crosser: give
       it a setup when it is a job and nothing supports it yet *)
    let succ_item = find_item w' s_uid in
    match succ_item.kind with
    | Setup _ -> ()
    | Whole _ | Piece _ ->
      if not (Hashtbl.mem supported s_uid) then begin
        let s = { uid = !next_uid; kind = Setup (item_class succ_item) } in
        incr next_uid;
        insert_below w' s_uid [ s ];
        received.(w') <- true;
        Hashtbl.replace supported s_uid ()
      end
  in
  let stayer = ref None in
  let with_setup q =
    (* top-first: the job above its fresh setup *)
    match q.kind with
    | Setup _ -> [ q ]
    | Whole _ | Piece _ ->
      let s = { uid = !next_uid; kind = Setup (item_class q) } in
      incr next_uid;
      [ q; s ]
  in
  Array.iteri
    (fun idx (q_uid, w) ->
      if Hashtbl.mem crossed q_uid || Hashtbl.mem exact_fill q_uid then begin
        match next_surviving idx with
        | None ->
          if Hashtbl.mem crossed q_uid && not (Hashtbl.mem zeroed q_uid) then stayer := Some (q_uid, w)
        | Some (s_uid, w') ->
          if Hashtbl.mem crossed q_uid && not (Hashtbl.mem zeroed q_uid) then begin
            let q = find_item w q_uid in
            stacks.(w) <- List.filter (fun it -> it.uid <> q_uid) stacks.(w);
            insert_below w' s_uid (with_setup q);
            received.(w') <- true;
            Hashtbl.replace supported s_uid ()
          end
          else support_successor s_uid w'
      end)
    placed;
  (* The very last crossing item has no successor and stays — unless
     its machine received an insertion, in which case it cascades to
     the next machine ("u+ passes away its last item too"): that
     machine holds at most T of load, so it ends within 3T/2. *)
  (match !stayer with
  | Some (q_uid, w) when received.(w) ->
    let stack_load u =
      List.fold_left
        (fun acc it ->
          match it.kind with
          | Setup i -> Rat.add acc (Rat.of_int inst.Instance.setups.(i))
          | Whole j -> Rat.add acc (Rat.of_int inst.Instance.job_time.(j))
          | Piece { dur; _ } -> Rat.add acc dur)
        Rat.zero stacks.(u)
    in
    let rec target u = if u >= m then None else if Rat.( <= ) (stack_load u) tee then Some u else target (u + 1) in
    (match target (w + 1) with
    | None -> () (* every later machine already exceeds T: impossible when
                    the load bound held; leave the stayer in place *)
    | Some u ->
      let q = find_item w q_uid in
      stacks.(w) <- List.filter (fun it -> it.uid <> q_uid) stacks.(w);
      (match q.kind with
      | Setup _ -> () (* a trailing setup is simply dropped *)
      | Whole _ | Piece _ -> stacks.(u) <- with_setup q @ stacks.(u)))
  | Some _ | None -> ());
  (* ---- materialize ---- *)
  let sched = Schedule.create m in
  for u = 0 to m - 1 do
    let t = ref Rat.zero in
    List.iter
      (fun it ->
        match it.kind with
        | Setup i ->
          let dur = Rat.of_int inst.Instance.setups.(i) in
          Schedule.add_setup sched ~machine:u ~cls:i ~start:!t ~dur;
          t := Rat.add !t dur
        | Whole j ->
          let dur = Rat.of_int inst.Instance.job_time.(j) in
          Schedule.add_work sched ~machine:u ~job:j ~start:!t ~dur;
          t := Rat.add !t dur
        | Piece { job; dur; _ } ->
          Schedule.add_work sched ~machine:u ~job ~start:!t ~dur;
          t := Rat.add !t dur)
      (List.rev stacks.(u))
  done;
  sched

let run inst tee =
  match test inst tee with
  | Error r -> Dual.Rejected r
  | Ok () -> Dual.Accepted (construct inst tee)
