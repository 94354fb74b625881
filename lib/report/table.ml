(** ASCII tables for the experiment harness. *)

(** Render rows (first row = header) with column alignment. *)
let render ?(title = "") (rows : string list list) : string =
  match rows with
  | [] -> ""
  | header :: _ ->
      let n_cols = List.length header in
      let width c =
        List.fold_left
          (fun acc row -> max acc (String.length (try List.nth row c with _ -> "")))
          0 rows
      in
      let widths = List.init n_cols width in
      let buf = Buffer.create 256 in
      if title <> "" then Buffer.add_string buf (title ^ "\n");
      let sep =
        "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+\n"
      in
      let render_row row =
        Buffer.add_string buf "|";
        List.iteri
          (fun c w ->
            let cell = try List.nth row c with _ -> "" in
            Buffer.add_string buf (Printf.sprintf " %-*s |" w cell))
          widths;
        Buffer.add_char buf '\n'
      in
      Buffer.add_string buf sep;
      render_row header;
      Buffer.add_string buf sep;
      List.iter render_row (List.tl rows);
      Buffer.add_string buf sep;
      Buffer.contents buf

let print ?title rows = print_string (render ?title rows)
