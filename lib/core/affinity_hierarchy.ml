open Colayout_util
open Colayout_trace

type node =
  | Leaf of int
  | Group of { w : int; children : node list }

type t = {
  roots : node list;
  ws : int list;
}

type algo = Efficient | Exact

let default_ws = List.init 19 (fun i -> i + 2)

let rec members = function
  | Leaf b -> [ b ]
  | Group { children; _ } -> List.concat_map members children

let check_ws ws =
  let rec ok = function
    | [] -> true
    | [ w ] -> w >= 1
    | w1 :: (w2 :: _ as rest) -> w1 >= 1 && w1 < w2 && ok rest
  in
  if ws = [] || not (ok ws) then
    invalid_arg "Affinity_hierarchy: ws must be positive and strictly ascending"

(* A working group: the dendrogram node plus its member list and the first
   trace position of any member (for deterministic ordering). *)
type work = {
  node : node;
  mems : int list;
  first_pos : int;
}

(* A cluster under construction: its first group, the groups that joined,
   newest first, and their count. *)
type cluster = {
  head : work;
  mutable joined : work list;
  mutable count : int;
}

let merge_level ?decisions ?(stage = "affinity") ~w ~affine groups =
  (* Greedy agglomeration: in first-occurrence order, each group joins the
     first accumulated cluster with which every cross pair is affine. *)
  let clusters = Vec.create () in
  List.iter
    (fun g ->
      let compatible c =
        List.for_all
          (fun (g' : work) ->
            List.for_all (fun a -> List.for_all (fun b -> affine a b) g'.mems) g.mems)
          (c.head :: c.joined)
      in
      let rec place k =
        if k = Vec.length clusters then Vec.push clusters { head = g; joined = []; count = 1 }
        else begin
          let c = Vec.get clusters k in
          if compatible c then begin
            Decision_trace.emit decisions ~stage ~action:"join" ~x:(List.hd g.mems)
              ~y:(List.hd c.head.mems) ~weight:w ~group:k ~size:(c.count + 1) ();
            c.joined <- g :: c.joined;
            c.count <- c.count + 1
          end
          else place (k + 1)
        end
      in
      place 0)
    groups;
  List.map
    (fun c ->
      match c.joined with
      | [] -> c.head
      | joined ->
        let gs = c.head :: List.rev joined in
        {
          node = Group { w; children = List.map (fun g -> g.node) gs };
          mems = List.concat_map (fun g -> g.mems) gs;
          first_pos = List.fold_left (fun acc g -> min acc g.first_pos) max_int gs;
        })
    (Vec.to_list clusters)

let build ?decisions ?(algo = Efficient) ?(ws = default_ws) trace =
  check_ws ws;
  if not (Trim.is_trimmed trace) then
    invalid_arg "Affinity_hierarchy.build: trace must be trimmed";
  let first = Trace.first_occurrence trace in
  let present =
    List.init (Trace.num_symbols trace) Fun.id
    |> List.filter (fun s -> first.(s) >= 0)
    |> List.sort (fun a b -> compare first.(a) first.(b))
  in
  let groups =
    ref (List.map (fun b -> { node = Leaf b; mems = [ b ]; first_pos = first.(b) }) present)
  in
  (* The efficient kernel runs once, at the largest window, and every
     level reads its cut; nothing runs when no level has two groups. *)
  let wmax = List.fold_left max 1 ws in
  let thresholds = lazy (Affinity.thresholds trace ~wmax) in
  List.iter
    (fun w ->
      if List.length !groups > 1 then begin
        let ps =
          match algo with
          | Efficient -> Affinity.cut (Lazy.force thresholds) ~w
          | Exact -> Affinity.affine_pairs_naive trace ~w
        in
        groups := merge_level ?decisions ~w ~affine:(Affinity.is_affine ps) !groups;
        Decision_trace.emit decisions ~stage:"affinity" ~action:"level" ~weight:w
          ~size:(List.length !groups) ()
      end)
    ws;
  let roots = List.sort (fun a b -> compare a.first_pos b.first_pos) !groups in
  { roots = List.map (fun g -> g.node) roots; ws }

let order t = List.concat_map members t.roots

let partition_at t ~w =
  let rec cut node =
    match node with
    | Leaf b -> [ [ b ] ]
    | Group { w = gw; children } ->
      if gw <= w then [ members node ]
      else List.concat_map cut children
  in
  List.concat_map cut t.roots

let rec pp_node ppf = function
  | Leaf b -> Format.fprintf ppf "B%d" b
  | Group { w; children } ->
    Format.fprintf ppf "(@[w=%d:%a@])" w
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ") pp_node)
      children

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ") pp_node)
    t.roots
