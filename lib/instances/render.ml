open Bss_util

let class_letter i = Char.chr (Char.code 'a' + (i mod 26))

let gantt ?(width = 72) ?(guides = []) inst sched =
  ignore inst;
  let horizon =
    List.fold_left (fun acc (_, g) -> Rat.max acc g) (Schedule.makespan sched) guides
  in
  let horizon = if Rat.is_zero horizon then Rat.one else horizon in
  let cell_of time =
    (* Position of a rational time in [0, width]. *)
    let scaled = Rat.mul_int (Rat.div time horizon) width in
    Intmath.clamp 0 width (Rat.floor_int scaled)
  in
  let buf = Buffer.create 1024 in
  (* Guide line. *)
  if guides <> [] then begin
    let line = Bytes.make (width + 1) ' ' in
    List.iter
      (fun (label, g) ->
        let p = cell_of g in
        let label = if String.length label > width - p then String.sub label 0 (width - p) else label in
        Bytes.blit_string label 0 line p (String.length label))
      guides;
    Buffer.add_string buf ("      " ^ Bytes.to_string line ^ "\n");
    let marks = Bytes.make (width + 1) '-' in
    List.iter (fun (_, g) -> Bytes.set marks (cell_of g) '+') guides;
    Buffer.add_string buf ("      " ^ Bytes.to_string marks ^ "\n")
  end;
  for u = 0 to Schedule.machines sched - 1 do
    let row = Bytes.make width '.' in
    List.iter
      (fun (seg : Schedule.seg) ->
        let a = cell_of seg.start in
        let b = max (a + 1) (cell_of (Rat.add seg.start seg.dur)) in
        let ch =
          match seg.content with
          | Schedule.Setup i -> class_letter i
          | Schedule.Work j -> Char.uppercase_ascii (class_letter inst.Instance.job_class.(j))
        in
        for p = a to min (b - 1) (width - 1) do
          Bytes.set row p ch
        done)
      (Schedule.segments sched u);
    Buffer.add_string buf (Printf.sprintf "m%-3d |%s|\n" u (Bytes.to_string row))
  done;
  Buffer.add_string buf
    (Printf.sprintf "      horizon = %s (cells of %s time units)\n" (Rat.to_string horizon)
       (Rat.to_string (Rat.div_int horizon width)));
  Buffer.contents buf

(* A fixed qualitative palette; classes cycle through it. *)
let palette =
  [| "#4e79a7"; "#f28e2b"; "#e15759"; "#76b7b2"; "#59a14f"; "#edc948"; "#b07aa1"; "#ff9da7"; "#9c755f"; "#bab0ac" |]

let svg ?(width = 720) ?(row_height = 26) ?(guides = []) inst sched =
  let m = Schedule.machines sched in
  let horizon =
    List.fold_left (fun acc (_, g) -> Rat.max acc g) (Schedule.makespan sched) guides
  in
  let horizon = if Rat.is_zero horizon then Rat.one else horizon in
  let margin_left = 40 and margin_top = 18 in
  let height = margin_top + (m * row_height) + 24 in
  let xpos time = margin_left + Rat.floor_int (Rat.mul_int (Rat.div time horizon) (width - margin_left - 10)) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" font-family=\"monospace\" font-size=\"10\">\n"
       width height);
  Buffer.add_string buf
    "<defs><pattern id=\"hatch\" width=\"4\" height=\"4\" patternUnits=\"userSpaceOnUse\" patternTransform=\"rotate(45)\"><rect width=\"4\" height=\"4\" fill=\"white\" opacity=\"0.45\"/><line x1=\"0\" y1=\"0\" x2=\"0\" y2=\"4\" stroke=\"black\" stroke-width=\"1\" opacity=\"0.35\"/></pattern></defs>\n";
  for u = 0 to m - 1 do
    let y = margin_top + (u * row_height) in
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"2\" y=\"%d\">m%d</text>\n" (y + (row_height / 2) + 3) u);
    List.iter
      (fun (seg : Schedule.seg) ->
        let x0 = xpos seg.Schedule.start in
        let x1 = xpos (Rat.add seg.Schedule.start seg.Schedule.dur) in
        let w = max 1 (x1 - x0) in
        let cls, is_setup =
          match seg.Schedule.content with
          | Schedule.Setup i -> (i, true)
          | Schedule.Work j -> (inst.Instance.job_class.(j), false)
        in
        let colour = palette.(cls mod Array.length palette) in
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" stroke=\"#333\" stroke-width=\"0.5\"/>\n"
             x0 (y + 2) w (row_height - 6) colour);
        if is_setup then
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"url(#hatch)\"/>\n" x0 (y + 2) w
               (row_height - 6)))
      (Schedule.segments sched u)
  done;
  List.iter
    (fun (label, g) ->
      let x = xpos g in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#888\" stroke-dasharray=\"4 3\"/>\n" x
           (margin_top - 4) x
           (margin_top + (m * row_height)));
      Buffer.add_string buf (Printf.sprintf "<text x=\"%d\" y=\"%d\" fill=\"#555\">%s</text>\n" (x + 2) (margin_top - 6) label))
    guides;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let csv inst sched =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "machine,start,duration,kind,id,class\n";
  for u = 0 to Schedule.machines sched - 1 do
    List.iter
      (fun (seg : Schedule.seg) ->
        let kind, id, cls =
          match seg.Schedule.content with
          | Schedule.Setup i -> ("setup", i, i)
          | Schedule.Work j -> ("work", j, inst.Instance.job_class.(j))
        in
        Buffer.add_string buf
          (Printf.sprintf "%d,%s,%s,%s,%d,%d\n" u
             (Rat.to_string seg.Schedule.start)
             (Rat.to_string seg.Schedule.dur)
             kind id cls))
      (Schedule.segments sched u)
  done;
  Buffer.contents buf
