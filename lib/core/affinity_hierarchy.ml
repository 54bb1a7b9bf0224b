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
  if List.is_empty ws || not (ok ws) then
    invalid_arg "Affinity_hierarchy: ws must be positive and strictly ascending"

(* A working group: the dendrogram node plus its member list and the first
   trace position of any member (for deterministic ordering). *)
type work = {
  node : node;
  mems : int list;
  first_pos : int;
}

(* A cluster under construction: its first group, the groups that joined,
   newest first, their count, and every member of them all. *)
type cluster = {
  head : work;
  mutable joined : work list;
  mutable count : int;
  mutable all : int list;
}

(* Each symbol's affine partners, built once per hierarchy from the
   threshold table: row [x] is [nbr.(start.(x)) .. nbr.(start.(x+1) - 1)],
   in ascending threshold ([thr]), so the partners at window [w] are the
   row's prefix with threshold <= [w]. The pairs enter the rows in
   threshold order, by a counting sort on their thresholds. *)
type partners = {
  start : int array;
  nbr : int array;
  thr : int array;
}

let partner_rows ~n th =
  let start = Array.make (n + 1) 0 and tmax = ref 0 in
  let xs = Int_vec.create () and ys = Int_vec.create () and ts = Int_vec.create () in
  Affinity.iter_thresholds
    (fun x y t ->
      start.(x + 1) <- start.(x + 1) + 1;
      start.(y + 1) <- start.(y + 1) + 1;
      if t > !tmax then tmax := t;
      Int_vec.push xs x;
      Int_vec.push ys y;
      Int_vec.push ts t)
    th;
  for x = 1 to n do
    start.(x) <- start.(x) + start.(x - 1)
  done;
  let m = Int_vec.length ts and xs = Int_vec.backing xs and ys = Int_vec.backing ys in
  let ts = Int_vec.backing ts in
  let at = Array.make (!tmax + 2) 0 in
  for j = 0 to m - 1 do
    at.(ts.(j) + 1) <- at.(ts.(j) + 1) + 1
  done;
  for t = 1 to !tmax + 1 do
    at.(t) <- at.(t) + at.(t - 1)
  done;
  let by_t = Array.make m 0 in
  for j = 0 to m - 1 do
    let t = ts.(j) in
    by_t.(at.(t)) <- j;
    at.(t) <- at.(t) + 1
  done;
  let nbr = Array.make (2 * m) 0 and thr = Array.make (2 * m) 0 in
  let cursor = Array.sub start 0 n in
  let add x y t =
    nbr.(cursor.(x)) <- y;
    thr.(cursor.(x)) <- t;
    cursor.(x) <- cursor.(x) + 1
  in
  Array.iter
    (fun j ->
      add xs.(j) ys.(j) ts.(j);
      add ys.(j) xs.(j) ts.(j))
    by_t;
  { start; nbr; thr }

(* Greedy agglomeration: in first-occurrence order, each group joins the
   first accumulated cluster with which every cross pair is affine. Such a
   cluster holds an affine partner of the group's first member — it is not
   empty, and its members lie in other groups — so only the clusters of
   that member's partners at [w] are tested, and the smallest compatible
   index among them is the first compatible cluster overall. [cluster_of]
   maps each member already placed to its cluster index. *)
let merge_level ?decisions ~w ~n ps partners groups =
  let cluster_of = Array.make n (-1) in
  let clusters = Vec.create () in
  List.iter
    (fun g ->
      let compatible c =
        List.for_all (fun a -> List.for_all (Affinity.is_affine ps a) c.all) g.mems
      in
      let best = ref max_int in
      let x = List.hd g.mems in
      let j = ref partners.start.(x) and stop = partners.start.(x + 1) in
      while !j < stop && partners.thr.(!j) <= w do
        let k = cluster_of.(partners.nbr.(!j)) in
        if k >= 0 && k < !best && compatible (Vec.get clusters k) then best := k;
        incr j
      done;
      let k = !best in
      let k =
        if k < max_int then begin
          let c = Vec.get clusters k in
          Decision_trace.emit decisions ~stage:"affinity" ~action:"join" ~x
            ~y:(List.hd c.head.mems) ~weight:w ~group:k ~size:(c.count + 1) ();
          c.joined <- g :: c.joined;
          c.count <- c.count + 1;
          c.all <- List.rev_append g.mems c.all;
          k
        end
        else begin
          Vec.push clusters { head = g; joined = []; count = 1; all = g.mems };
          Vec.length clusters - 1
        end
      in
      List.iter (fun a -> cluster_of.(a) <- k) g.mems)
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
          first_pos = List.fold_left (fun acc g -> Int.min acc g.first_pos) max_int gs;
        })
    (Vec.to_list clusters)

let build ?decisions ?(algo = Efficient) ?(ws = default_ws) trace =
  check_ws ws;
  if not (Trim.is_trimmed trace) then
    invalid_arg "Affinity_hierarchy.build: trace must be trimmed";
  let n = Trace.num_symbols trace in
  let first = Trace.first_occurrence trace in
  let present =
    List.init n Fun.id
    |> List.filter (fun s -> first.(s) >= 0)
    |> List.sort (fun a b -> compare first.(a) first.(b))
  in
  let groups =
    ref (List.map (fun b -> { node = Leaf b; mems = [ b ]; first_pos = first.(b) }) present)
  in
  (* One threshold table for every level, and the partner rows read from
     it once: the efficient kernel runs at the largest window; the oracle
     fills the table window by window. Nothing runs when no level has two
     groups. *)
  let thresholds =
    lazy
      (match algo with
      | Efficient -> Affinity.thresholds trace ~wmax:(List.fold_left Int.max 1 ws)
      | Exact -> Affinity.thresholds_naive trace ~ws)
  in
  let partners = lazy (partner_rows ~n (Lazy.force thresholds)) in
  List.iter
    (fun w ->
      if List.length !groups > 1 then begin
        let ps = Affinity.cut (Lazy.force thresholds) ~w in
        groups := merge_level ?decisions ~w ~n ps (Lazy.force partners) !groups;
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
