open Colayout_util

type result = {
  order : int list;
  slot_lists : int list array;
}

(* The decision order on edges: heaviest first, then by ascending canonical
   key [pack lo hi] — i.e. ascending (x, y) — so the reduction is
   deterministic. *)
let ahead (w1 : int) (k1 : int) (w2 : int) (k2 : int) = w1 > w2 || (w1 = w2 && k1 < k2)

let key x y = if x < y then Int_pair_tbl.pack x y else Int_pair_tbl.pack y x

(* The node tournament: an indexed max-heap (per [ahead]) of the unplaced
   nodes that have a live edge, each keyed by its best live edge — one
   whose other endpoint is unplaced or a slot's representative. The
   heaviest live edge with an unplaced endpoint is the top node's best. *)
type tournament = {
  bw : int array; (* per node: its best live edge's weight *)
  bk : int array; (* and that edge's canonical key *)
  heap : int array; (* nodes, heap-ordered *)
  pos : int array; (* node -> its index in [heap], -1 when absent *)
  mutable len : int;
}

let above t (a : int) (b : int) = ahead t.bw.(a) t.bk.(a) t.bw.(b) t.bk.(b)

let put t i u =
  t.heap.(i) <- u;
  t.pos.(u) <- i

(* Settle node [u] into the hole at index [i], moving the hole up
   ([sift_up]) or down ([sift_down]). *)
let rec sift_up t i u =
  let p = (i - 1) / 2 in
  if i > 0 && above t u t.heap.(p) then begin
    put t i t.heap.(p);
    sift_up t p u
  end
  else put t i u

let rec sift_down t i u =
  let l = (2 * i) + 1 in
  if l >= t.len then put t i u
  else begin
    let c = if l + 1 < t.len && above t t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    if above t t.heap.(c) u then begin
      put t i t.heap.(c);
      sift_down t c u
    end
    else put t i u
  end

let remove t u =
  let i = t.pos.(u) in
  t.pos.(u) <- -1;
  t.len <- t.len - 1;
  if i < t.len then begin
    let last = t.heap.(t.len) in
    if i > 0 && above t last t.heap.((i - 1) / 2) then sift_up t i last else sift_down t i last
  end

(* Rekey [u]'s best edge to [(w, k)]: up when it is ahead of the old one,
   down otherwise. *)
let rekey t u w k =
  let up = ahead w k t.bw.(u) t.bk.(u) in
  t.bw.(u) <- w;
  t.bk.(u) <- k;
  if up then sift_up t t.pos.(u) u else sift_down t t.pos.(u) u

let reduce ?decisions trg ~slots =
  if slots < 1 then invalid_arg "Trg_reduce.reduce: slots must be >= 1";
  let n = Trg.num_nodes trg in
  (* Current edge weights, one entry per canonical pair; an absent pair
     reads 0. Weights only grow. A universe within
     [Int_pair_tbl.max_grid_universe] keeps them in a dense grid at
     [lo * n + hi], larger ones in a packed-pair table: the same values
     either way, so the same decisions. *)
  let dense = n <= Int_pair_tbl.max_grid_universe in
  let grid = Array.make (if dense then n * n else 0) 0 in
  let cell x y = if x < y then (x * n) + y else (y * n) + x in
  (* Neighbour lists: the initial graph as symmetric flat rows, plus a
     per-node vector of the slot nodes it gains an edge to through merges.
     Only unplaced nodes' lists are ever read. *)
  let row = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    row.(x + 1) <- row.(x) + Trg.degree trg x
  done;
  let adj = Array.make row.(n) 0 in
  let fill = Array.sub row 0 n in
  let no_extra = Int_vec.create ~capacity:1 () in
  let extra = Array.make n no_extra in
  let add_neighbour x y =
    if extra.(x) == no_extra then extra.(x) <- Int_vec.create ~capacity:8 ();
    Int_vec.push extra.(x) y
  in
  let iter_neighbours f v =
    for i = row.(v) to row.(v + 1) - 1 do
      f adj.(i)
    done;
    Int_vec.iter f extra.(v)
  in
  let cur = Int_pair_tbl.create ~capacity:(if dense then 0 else row.(n) / 2) () in
  let cur_w x y =
    if dense then Array.unsafe_get grid (cell x y) else Int_pair_tbl.find cur (key x y) ~default:0
  in
  (* Adds [dw] to the weight of [{x, y}] and returns the sum. *)
  let cur_add x y dw =
    if dense then begin
      let i = cell x y in
      let w = Array.unsafe_get grid i + dw in
      Array.unsafe_set grid i w;
      w
    end
    else Int_pair_tbl.add_to cur (key x y) dw
  in
  (* Every node starts unplaced, so its best live edge is its heaviest
     edge. *)
  let t =
    {
      bw = Array.make n 0;
      bk = Array.make n 0;
      heap = Array.make n 0;
      pos = Array.make n (-1);
      len = 0;
    }
  in
  let offer x w k =
    if ahead w k t.bw.(x) t.bk.(x) then begin
      t.bw.(x) <- w;
      t.bk.(x) <- k
    end
  in
  Trg.iter_edges
    (fun x y w ->
      if dense then grid.((x * n) + y) <- w else Int_pair_tbl.replace cur (Int_pair_tbl.pack x y) w;
      adj.(fill.(x)) <- y;
      fill.(x) <- fill.(x) + 1;
      adj.(fill.(y)) <- x;
      fill.(y) <- fill.(y) + 1;
      let k = Int_pair_tbl.pack x y in
      offer x w k;
      offer y w k)
    trg;
  for x = 0 to n - 1 do
    if row.(x + 1) > row.(x) then begin
      put t t.len x;
      t.len <- t.len + 1
    end
  done;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i t.heap.(i)
  done;
  let slot_of = Array.make n (-1) in
  let rep_of_slot = Array.make slots (-1) in
  let filled = ref 0 in
  let slot_vecs = Array.init slots (fun _ -> Int_vec.create ()) in
  let placed v = slot_of.(v) >= 0 in
  let live v = (not (placed v)) || rep_of_slot.(slot_of.(v)) = v in
  let choose_slot v =
    (* Slots fill in index order, so the first empty slot (which wins
       outright) is [!filled]; otherwise the strict minimum conflict weight
       against each slot's merged node, first slot on ties. *)
    if !filled < slots then !filled
    else begin
      let best = ref 0 and best_w = ref (cur_w v rep_of_slot.(0)) in
      for k = 1 to slots - 1 do
        let w = cur_w v rep_of_slot.(k) in
        if w < !best_w then begin
          best := k;
          best_w := w
        end
      done;
      !best
    end
  in
  (* [u]'s best live edge, from scratch, starting from the live edge
     [(w, k)]. *)
  let rescan u w k =
    let bw = ref w and bk = ref k in
    iter_neighbours
      (fun m ->
        if live m then begin
          let w = cur_w u m and k = key u m in
          if ahead w k !bw !bk then begin
            bw := w;
            bk := k
          end
        end)
      u;
    rekey t u !bw !bk
  in
  (* Steps 19-21 drop the edges between slots, and a merge drops the merged
     node's edges. Both only ever remove edges whose endpoints are both
     placed, and no decision depends on such an edge: the tournament holds
     only unplaced nodes and their live edges; [choose_slot] asks about an
     unplaced node; a merge reads the unplaced neighbours of the node being
     placed. So the dropped edges are simply left behind, and every weight
     a decision reads is the seed's. *)
  let place ~w v =
    remove t v;
    let k = choose_slot v in
    Int_vec.push slot_vecs.(k) v;
    slot_of.(v) <- k;
    if rep_of_slot.(k) < 0 then begin
      (* A new representative keeps every edge live. *)
      rep_of_slot.(k) <- v;
      incr filled;
      Decision_trace.emit decisions ~stage:"trg-reduce" ~action:"place" ~x:v ~weight:w ~group:k
        ~size:(Int_vec.length slot_vecs.(k)) ()
    end
    else begin
      (* Merge v into the slot's node r: v's edge to each unplaced
         neighbour dies, and its weight moves onto that neighbour's edge
         to r. The replacement is never lighter than the dying edge, so a
         neighbour's best only moves up — except when the dying edge was
         its best and the new edge to r only ties it with a larger key:
         then some other edge of the same weight may lead, and the
         neighbour is rescanned. *)
      let r = rep_of_slot.(k) in
      Decision_trace.emit decisions ~stage:"trg-reduce" ~action:"merge" ~x:v ~y:r ~weight:w
        ~group:k ~size:(Int_vec.length slot_vecs.(k)) ();
      iter_neighbours
        (fun nb ->
          if not (placed nb) then begin
            let wv = cur_w v nb in
            let w' = cur_add r nb wv in
            if w' = wv then add_neighbour nb r;
            let kr = key r nb in
            if t.bk.(nb) = key v nb then begin
              if w' > wv || kr < t.bk.(nb) then rekey t nb w' kr else rescan nb w' kr
            end
            else if ahead w' kr t.bw.(nb) t.bk.(nb) then rekey t nb w' kr
          end)
        v
    end
  in
  (* Nodes without edges never enter the tournament, so they are never
     placed; the drain stops once every other node is. *)
  while t.len > 0 do
    let u = t.heap.(0) in
    let w = t.bw.(u) and k = t.bk.(u) in
    let x = Int_pair_tbl.fst_of k and y = Int_pair_tbl.snd_of k in
    if not (placed x) then place ~w x;
    if not (placed y) then place ~w y
  done;
  let slot_arrays = Array.map Int_vec.to_array slot_vecs in
  let slot_lists = Array.map Array.to_list slot_arrays in
  (* Round-robin output: one head per non-empty list per round. *)
  let rounds = Array.fold_left (fun acc a -> Int.max acc (Array.length a)) 0 slot_arrays in
  let order = ref [] in
  for i = 0 to rounds - 1 do
    Array.iter (fun a -> if i < Array.length a then order := a.(i) :: !order) slot_arrays
  done;
  { order = List.rev !order; slot_lists }

let slots_for ~params ~block_bytes ~cache_multiplier =
  if block_bytes <= 0 then invalid_arg "Trg_reduce.slots_for";
  let open Colayout_cache in
  let ab = params.Params.assoc * params.Params.line_bytes in
  let c = int_of_float (float_of_int params.Params.size_bytes *. cache_multiplier) in
  let total_sets = Int.max 1 (c / ab) in
  let sets_per_block = Int.max 1 ((block_bytes + ab - 1) / ab) in
  Int.max 1 (total_sets / sets_per_block)
