(* The run's working directory for journals, the socket and the span
   dump, inside the directory the benchmark runs from. Its name starts
   with '_' so dune never looks into it. *)

let root = "_perfbench"

let dir () =
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  root
