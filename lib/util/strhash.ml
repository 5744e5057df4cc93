let djb2 s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land max_int) s;
  !h
