(** Problem instances of scheduling with batch setup times.

    An instance has [m] identical machines, [c] job classes with setup times
    [s_i >= 1], and [n] jobs, each belonging to one class with a processing
    time [t_j >= 1] (the paper's ℕ). Construction validates all invariants
    and precomputes the derived quantities every algorithm needs:
    [P(C_i)], [t^(i)_max], [N], [s_max], [t_max]. *)

type t = private {
  m : int;  (** number of machines, [>= 1] *)
  setups : int array;  (** [c] setup times, each [>= 1] *)
  job_class : int array;  (** class of job [j], in [\[0, c)] *)
  job_time : int array;  (** processing time of job [j], [>= 1] *)
  class_off : int array;
      (** CSR offsets, length [c + 1]: class [i]'s job ids live at indices
          [\[class_off.(i), class_off.(i+1))] of [class_job_ids] *)
  class_job_ids : int array;  (** flat job ids grouped by class, length [n] *)
  class_load : int array;  (** [P(C_i)] *)
  class_tmax : int array;  (** [t^(i)_max] *)
  total : int;  (** [N = Σ s_i + Σ t_j] *)
  s_max : int;
  t_max : int;
}

(** [make ~m ~setups ~jobs] builds an instance from [(class, time)] pairs.
    @raise Bss_resilience.Error.Error
      ([Invalid_input]) when [m < 1], any setup or time is [< 1], a class
      index is out of range, some class has no job, or the instance size
      [N] overflows the arithmetic headroom the searches need
      ([N <= max_int/16] — they evaluate points like [4(s_i + P_i)/3] in
      thirds, up to [12 s_i]). *)
val make : m:int -> setups:int array -> jobs:(int * int) array -> t

(** [n t] is the number of jobs. *)
val n : t -> int

(** [c t] is the number of classes. *)
val c : t -> int

(** [jobs_of_class t i] is the array of job ids in class [i] (a fresh copy
    of the CSR slice; hot paths should prefer {!iter_class_jobs} or
    {!fold_class_jobs}, which allocate nothing). *)
val jobs_of_class : t -> int -> int array

(** [class_size t i] is [|C_i|]. *)
val class_size : t -> int -> int

(** [class_job t i k] is the [k]-th job id of class [i], [0 <= k < |C_i|]. *)
val class_job : t -> int -> int -> int

(** [iter_class_jobs f t i] applies [f] to each job id of class [i] in CSR
    order, without copying. *)
val iter_class_jobs : (int -> unit) -> t -> int -> unit

(** [fold_class_jobs f acc t i] folds over class [i]'s job ids in CSR order,
    without copying. *)
val fold_class_jobs : ('a -> int -> 'a) -> 'a -> t -> int -> 'a

(** [delta t] is [max(s_max, t_max)], the largest input value [Δ]. *)
val delta : t -> int

(** Render a compact human-readable description. *)
val describe : t -> string

(** Serialize to a simple line-oriented text format (see {!of_string}). *)
val to_string : t -> string

(** Parse the format produced by {!to_string}:
    {v
    m <machines>
    setups <s_1> ... <s_c>
    job <class> <time>        (one line per job)
    v}
    Blank lines and [#] comments are ignored.
    @raise Bss_resilience.Error.Error
      ([Invalid_input], carrying the 1-based line and field) on malformed
      input: unparseable or overflowing numbers, duplicate [m]/[setups]
      lines, trailing garbage on a line, or a missing [m]/[setups] line —
      plus everything {!make} rejects. *)
val of_string : string -> t

(** Structural equality (same machines, setups, and job multiset per class in
    the given order). *)
val equal : t -> t -> bool
