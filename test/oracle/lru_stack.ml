open Colayout_util

type t = {
  list : int Dlist.t;
  nodes : (int, int Dlist.node) Hashtbl.t;
}

let create () = { list = Dlist.create (); nodes = Hashtbl.create 1024 }

let depth t = Dlist.length t.list

(* 1-based depth by walking from the top. Only used on a hit, where the cost
   is proportional to the distance itself — the same work any list-based
   stack simulation does (Mattson et al. 1970). [Stack_dist] provides the
   O(log n) tree-based alternative for long-distance-heavy traces. *)
let stack_depth_of t node =
  let rec from_front n acc =
    match n with
    | None -> assert false
    | Some x -> if x == node then acc else from_front (Dlist.next x) (acc + 1)
  in
  from_front (Dlist.front t.list) 1

let access t sym =
  match Hashtbl.find_opt t.nodes sym with
  | Some node ->
    let d = stack_depth_of t node in
    Dlist.move_to_front t.list node;
    Some d
  | None ->
    let node = Dlist.push_front t.list sym in
    Hashtbl.replace t.nodes sym node;
    None

let iter_until t f =
  let rec loop n =
    match n with
    | None -> ()
    | Some x -> if f (Dlist.value x) then loop (Dlist.next x)
  in
  loop (Dlist.front t.list)

let position t sym =
  match Hashtbl.find_opt t.nodes sym with
  | None -> None
  | Some node -> Some (stack_depth_of t node - 1)

let contents t = Dlist.to_list t.list

let top_k t ~k = List.filteri (fun i _ -> i < k) (contents t)
