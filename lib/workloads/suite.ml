open Bss_util
open Bss_instances

type case = { label : string; instance : Instance.t }

let seed_of family m n run =
  (* stable, collision-free seeding from the case coordinates *)
  (Hashtbl.hash family * 1_000_003) + (m * 7919) + (n * 131) + run

let table1 () =
  List.concat_map
    (fun (family : Generator.spec) ->
      List.concat_map
        (fun m ->
          List.map
            (fun run ->
              let n = 120 in
              let rng = Prng.create (seed_of family.Generator.name m n run) in
              {
                label = Printf.sprintf "%s m=%d #%d" family.Generator.name m run;
                instance = family.Generator.generate rng ~m ~n;
              })
            [ 1; 2; 3 ])
        [ 4; 16 ])
    Generator.all

let tiny_exact () =
  List.concat_map
    (fun run ->
      List.map
        (fun m ->
          let rng = Prng.create (seed_of "tiny" m 8 run) in
          {
            label = Printf.sprintf "tiny m=%d #%d" m run;
            instance = Generator.tiny.Generator.generate rng ~m ~n:8;
          })
        [ 2; 3 ])
    (List.init 20 (fun i -> i))
