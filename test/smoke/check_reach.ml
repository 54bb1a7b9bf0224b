(* check_reach LIB ROOT...: every module of LIB must be reached from the
   sources under the ROOTs.

   A source mentions the capitalized identifiers left once its comments,
   string literals and character literals are blanked out. The names the
   ROOT sources mention are reached; a reached LIB module's own .ml and
   .mli mention more. The check fails naming every LIB module left over:
   code that no command runs. *)

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' || name.[0] = '_' then []
         else if Sys.is_directory path then sources path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then [ path ]
         else [])

(* Comments nest and lex the string literals inside them. *)
let strip s =
  let n = String.length s and b = Bytes.of_string s in
  let at i c = i < n && s.[i] = c in
  let blank i j = Bytes.fill b i (min n j - i) ' ' in
  let rec string_end i =
    if i >= n || s.[i] = '"' then i + 1 else string_end (if s.[i] = '\\' then i + 2 else i + 1)
  in
  let rec go depth i =
    if i < n then
      if at i '(' && at (i + 1) '*' then (blank i (i + 2); go (depth + 1) (i + 2))
      else if depth > 0 && at i '*' && at (i + 1) ')' then (blank i (i + 2); go (depth - 1) (i + 2))
      else if at i '"' then begin
        let j = string_end (i + 1) in
        blank i j;
        go depth j
      end
      else if at i '\'' && (at (i + 2) '\'' || at (i + 1) '\\') then begin
        let j = try String.index_from s (i + 2) '\'' + 1 with Not_found -> n in
        blank i j;
        go depth j
      end
      else (if depth > 0 then blank i (i + 1); go depth (i + 1))
  in
  go 0 0;
  Bytes.to_string b

let mentions path =
  let s = strip (In_channel.with_open_bin path In_channel.input_all) in
  let ident = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false in
  let rec go i acc =
    if i >= String.length s then acc
    else if not (ident s.[i]) then go (i + 1) acc
    else
      let j = ref i in
      while !j < String.length s && ident s.[!j] do incr j done;
      go !j (if 'A' <= s.[i] && s.[i] <= 'Z' then String.sub s i (!j - i) :: acc else acc)
  in
  go 0 []

let () =
  match Array.to_list Sys.argv with
  | _ :: lib :: (_ :: _ as roots) ->
    let modules = Hashtbl.create 128 and reached = Hashtbl.create 128 in
    let name p = String.capitalize_ascii (Filename.remove_extension (Filename.basename p)) in
    List.iter (fun p -> Hashtbl.add modules (name p) p) (sources lib);
    let rec visit path =
      List.iter
        (fun name ->
          if Hashtbl.mem modules name && not (Hashtbl.mem reached name) then begin
            Hashtbl.replace reached name ();
            List.iter visit (Hashtbl.find_all modules name)
          end)
        (mentions path)
    in
    List.iter visit (List.concat_map sources roots);
    let unreached =
      Hashtbl.fold (fun m _ acc -> if Hashtbl.mem reached m then acc else m :: acc) modules []
      |> List.sort_uniq compare
    in
    List.iter
      (fun name ->
        Printf.printf "UNREACHED %s (%s)\n" name
          (String.concat ", " (List.sort compare (Hashtbl.find_all modules name))))
      unreached;
    Printf.printf "check_reach: %d of %d modules of %s reached from %s\n" (Hashtbl.length reached)
      (Hashtbl.length reached + List.length unreached) lib (String.concat ", " roots);
    if unreached <> [] then exit 1
  | _ ->
    prerr_endline "usage: check_reach LIB ROOT...";
    exit 2
