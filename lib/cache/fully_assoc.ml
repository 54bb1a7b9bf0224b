open Colayout_util

type t = {
  capacity : int;
  list : int Dlist.t; (* MRU at front *)
  nodes : (int, int Dlist.node) Hashtbl.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Fully_assoc.create";
  { capacity; list = Dlist.create (); nodes = Hashtbl.create (2 * capacity) }

let access_line t line =
  match Hashtbl.find_opt t.nodes line with
  | Some node ->
    Dlist.move_to_front t.list node;
    true
  | None ->
    if Dlist.length t.list >= t.capacity then begin
      match Dlist.back t.list with
      | Some victim ->
        Hashtbl.remove t.nodes (Dlist.value victim);
        Dlist.remove t.list victim
      | None -> ()
    end;
    Hashtbl.replace t.nodes line (Dlist.push_front t.list line);
    false

let occupancy t = Dlist.length t.list

let resident_lines t = List.sort compare (Dlist.to_list t.list)
