type align = Left | Right

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
  width : int;
}

let create ~title ~columns =
  {
    title;
    headers = List.map fst columns;
    aligns = List.map snd columns;
    rows = [];
    width = List.length columns;
  }

let add_row t row =
  if List.length row <> t.width then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" t.width
         (List.length row));
  t.rows <- row :: t.rows

let add_rows t rows = List.iter (add_row t) rows

let row_count t = List.length t.rows

let rows_in_order t = List.rev t.rows

let column_widths t =
  let widths = Array.of_list (List.map String.length t.headers) in
  List.iter
    (fun row -> List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    (rows_in_order t);
  widths

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | Left -> s ^ String.make n ' '
    | Right -> String.make n ' ' ^ s

let render t =
  let widths = column_widths t in
  let buf = Buffer.create 1024 in
  let sep =
    "+"
    ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+"
  in
  let render_row cells =
    let padded =
      List.mapi
        (fun i c ->
          let a = List.nth t.aligns i in
          " " ^ pad a widths.(i) c ^ " ")
        cells
    in
    "|" ^ String.concat "|" padded ^ "|"
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (render_row t.headers ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) (rows_in_order t);
  Buffer.add_string buf sep;
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let line cells = String.concat "," (List.map csv_escape cells) in
  String.concat "\n" (line t.headers :: List.map line (rows_in_order t))

let print t =
  print_string (render t);
  print_newline ();
  print_newline ()

let fmt_pct v = Printf.sprintf "%.2f%%" v

let fmt_ratio v = Printf.sprintf "%.3f" v

let fmt_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let fmt_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + len / 3 + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
