(* Request-scoped tracing: one context per service request, owned by
   whoever currently processes the request (coordinator at admission and
   completion, one worker domain in between — never two writers at
   once), so recording is plain mutation with no locks.

   The trace id is derived from the run seed and the admission sequence
   number — no wall clock, no randomness — so a seeded run names its
   requests identically across processes, worker counts and resumes.
   Span durations are monotonic-clock and are not deterministic; tests
   pin ids and structure, never timings. *)

type value = S of string | I of int | B of bool

type span = {
  name : string;
  dur_ns : int64;
  attrs : (string * value) list;
  children : span list;
}

type trace = { trace_id : string; seq : int; request_id : string; root : span }

type frame = {
  fname : string;
  start : int64;
  mutable attrs_rev : (string * value) list;
  mutable children_rev : span list;
}

type active = {
  id : string;
  aseq : int;
  arequest_id : string;
  (* innermost first; the root frame is always last and only [finish]
     closes it *)
  mutable stack : frame list;
}

type t = Disabled | Active of active

let disabled = Disabled
let enabled = function Disabled -> false | Active _ -> true
let trace_id = function Disabled -> "" | Active a -> a.id

(* same deterministic mixing discipline as the service runtime's
   [id_hash]: stable across OCaml versions and processes *)
let derive_id ~seed ~seq ~request_id =
  let h = ref (seed lxor ((seq + 1) * 0x9e3779b9)) in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land max_int) request_id;
  Printf.sprintf "%08x-%04d" (!h land 0xffffffff) seq

let fresh_frame name =
  { fname = name; start = Monotonic_clock.now (); attrs_rev = []; children_rev = [] }

let make ~seed ~seq ~request_id =
  Active
    {
      id = derive_id ~seed ~seq ~request_id;
      aseq = seq;
      arequest_id = request_id;
      stack = [ fresh_frame "request" ];
    }

type token = int

let enter t name =
  match t with
  | Disabled -> 0
  | Active a ->
    a.stack <- fresh_frame name :: a.stack;
    List.length a.stack

let close_frame f now =
  {
    name = f.fname;
    dur_ns = Int64.max 0L (Int64.sub now f.start);
    attrs = List.rev f.attrs_rev;
    children = List.rev f.children_rev;
  }

(* unwind to the token's depth, like Probe.leave: a raise that skips
   inner leaves closes the skipped frames when the ancestor leaves; the
   root frame (depth 1) is only ever closed by [finish] *)
let leave t tok =
  match t with
  | Disabled -> ()
  | Active a ->
    if tok >= 2 then begin
      let now = Monotonic_clock.now () in
      let rec pop st d =
        match st with
        | f :: (parent :: _ as rest) when d >= tok ->
          parent.children_rev <- close_frame f now :: parent.children_rev;
          pop rest (d - 1)
        | st -> st
      in
      let depth = List.length a.stack in
      if depth >= tok then a.stack <- pop a.stack depth
    end

let span t name f =
  match t with
  | Disabled -> f ()
  | Active _ ->
    let tok = enter t name in
    Fun.protect ~finally:(fun () -> leave t tok) f

let add_attr t key v =
  match t with
  | Disabled -> ()
  | Active a -> (
    match a.stack with [] -> () | f :: _ -> f.attrs_rev <- (key, v) :: f.attrs_rev)

(* a pre-measured child (queue waits, journal appends: the duration was
   observed before or outside the context's ownership window) *)
let add_span t name ~dur_ns ~attrs =
  match t with
  | Disabled -> ()
  | Active a -> (
    match a.stack with
    | [] -> ()
    | f :: _ ->
      f.children_rev <- { name; dur_ns; attrs; children = [] } :: f.children_rev)

let finish t =
  match t with
  | Disabled -> None
  | Active a ->
    let now = Monotonic_clock.now () in
    let rec unwind = function
      | [ root ] -> close_frame root now
      | f :: (parent :: _ as rest) ->
        parent.children_rev <- close_frame f now :: parent.children_rev;
        unwind rest
      | [] -> close_frame (fresh_frame "request") now
    in
    let root = unwind a.stack in
    a.stack <- [];
    Some { trace_id = a.id; seq = a.aseq; request_id = a.arequest_id; root }

(* ---------------- tail sampling ---------------- *)

(* Algorithm R over the candidate list, driven by a run-seeded Prng:
   which items survive is a pure function of (seed, k, length) plus the
   list order, so coordinators sampling in admission order replay
   identically. Kept items come back in their input order. *)
let reservoir ~seed ~k items =
  if k <= 0 then []
  else begin
    let rng = Bss_util.Prng.create (seed lxor 0x5e1ec7ed) in
    let slots = Array.make (min k (List.length items)) (-1) in
    List.iteri
      (fun i _ ->
        if i < k then slots.(i) <- i
        else
          let j = Bss_util.Prng.int rng (i + 1) in
          if j < k then slots.(j) <- i)
      items;
    let kept = Array.to_list slots |> List.sort_uniq compare in
    List.filteri (fun i _ -> List.mem i kept) items
  end

let attr t key =
  match List.assoc_opt key t.root.attrs with
  | Some (S s) -> Some s
  | Some (I i) -> Some (string_of_int i)
  | Some (B b) -> Some (string_of_bool b)
  | None -> None
