open Colayout_util

type result = {
  order : int list;
  slot_lists : int list array;
}

(* Candidate edges are popped heaviest first, then by ascending canonical
   key [pack lo hi] — i.e. ascending (x, y) — so the reduction is
   deterministic. They come from two sources merged on that order: the
   initial edges, already sorted by [Trg.weight_sorted], and a flat heap of
   the edges that merges create. Stale candidates (weight no longer current,
   or an endpoint gone) are discarded on pop. *)

let ahead w1 k1 w2 k2 = w1 > w2 || (w1 = w2 && k1 < k2)

(* Max-heap (per [ahead]) of merge-created candidates, as parallel unboxed
   weight and key arrays. *)
type edge_heap = {
  mutable hw : int array;
  mutable hk : int array;
  mutable len : int;
}

let heap_push h w k =
  if h.len = Array.length h.hw then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    h.hw <- grow h.hw;
    h.hk <- grow h.hk
  end;
  let i = ref h.len in
  h.len <- h.len + 1;
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    ahead w k h.hw.(p) h.hk.(p)
  do
    let p = (!i - 1) / 2 in
    h.hw.(!i) <- h.hw.(p);
    h.hk.(!i) <- h.hk.(p);
    i := p
  done;
  h.hw.(!i) <- w;
  h.hk.(!i) <- k

(* Drop the top entry. *)
let heap_pop h =
  h.len <- h.len - 1;
  let n = h.len in
  let w = h.hw.(n) and k = h.hk.(n) in
  let i = ref 0 and settled = ref (n = 0) in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= n then settled := true
    else begin
      let c = if l + 1 < n && ahead h.hw.(l + 1) h.hk.(l + 1) h.hw.(l) h.hk.(l) then l + 1 else l in
      if ahead h.hw.(c) h.hk.(c) w k then begin
        h.hw.(!i) <- h.hw.(c);
        h.hk.(!i) <- h.hk.(c);
        i := c
      end
      else settled := true
    end
  done;
  if n > 0 then begin
    h.hw.(!i) <- w;
    h.hk.(!i) <- k
  end

let key x y = if x < y then Int_pair_tbl.pack x y else Int_pair_tbl.pack y x

let reduce ?decisions trg ~slots =
  if slots < 1 then invalid_arg "Trg_reduce.reduce: slots must be >= 1";
  let n = Trg.num_nodes trg in
  let { Trg.src; nbr; wt; order = stream } = Trg.weight_sorted trg in
  let e = Array.length stream in
  (* Current edge weights, one entry per canonical pair; an absent pair
     reads 0. Weights only grow. A universe within
     [Int_pair_tbl.max_grid_universe] keeps them in a dense grid at
     [lo * n + hi], larger ones in a packed-pair table: the same values
     either way, so the same decisions. *)
  let dense = n <= Int_pair_tbl.max_grid_universe in
  let grid = Array.make (if dense then n * n else 0) 0 in
  let cell x y = if x < y then (x * n) + y else (y * n) + x in
  let cur = Int_pair_tbl.create ~capacity:(if dense then 0 else e) () in
  for j = 0 to e - 1 do
    if dense then grid.(cell src.(j) nbr.(j)) <- wt.(j)
    else Int_pair_tbl.replace cur (Int_pair_tbl.pack src.(j) nbr.(j)) wt.(j)
  done;
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
  (* Neighbour lists: the initial graph as symmetric flat rows, plus a
     per-node vector of the slot nodes it gains an edge to through merges.
     Only unplaced nodes' lists are ever read. *)
  let row = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    row.(x + 1) <- row.(x) + Trg.degree trg x
  done;
  let adj = Array.make (2 * e) 0 in
  let fill = Array.sub row 0 n in
  for j = 0 to e - 1 do
    let x = src.(j) and y = nbr.(j) in
    adj.(fill.(x)) <- y;
    fill.(x) <- fill.(x) + 1;
    adj.(fill.(y)) <- x;
    fill.(y) <- fill.(y) + 1
  done;
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
  let slot_of = Array.make n (-1) in
  let rep_of_slot = Array.make slots (-1) in
  let filled = ref 0 in
  let slot_vecs = Array.init slots (fun _ -> Int_vec.create ()) in
  let placed v = slot_of.(v) >= 0 in
  let is_rep v = placed v && rep_of_slot.(slot_of.(v)) = v in
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
  let heap = { hw = Array.make 256 0; hk = Array.make 256 0; len = 0 } in
  (* Steps 19-21 drop the edges between slots, and a merge drops the merged
     node's edges. Both only ever remove edges whose endpoints are both
     placed, and no decision depends on such an edge: a candidate with both
     endpoints placed places nothing, whatever its weight; [choose_slot]
     asks about an unplaced node; a merge reads the unplaced neighbours of
     the node being placed. So the dropped edges are simply left behind,
     and every weight a decision reads is the seed's. *)
  let place ~w v =
    let k = choose_slot v in
    Int_vec.push slot_vecs.(k) v;
    slot_of.(v) <- k;
    if rep_of_slot.(k) < 0 then begin
      rep_of_slot.(k) <- v;
      incr filled;
      Decision_trace.emit decisions ~stage:"trg-reduce" ~action:"place" ~x:v ~weight:w ~group:k
        ~size:(Int_vec.length slot_vecs.(k)) ()
    end
    else begin
      (* Merge v into the slot's node r: v's edges to unplaced nodes move
         onto r, adding weights where r already has the neighbour. *)
      let r = rep_of_slot.(k) in
      Decision_trace.emit decisions ~stage:"trg-reduce" ~action:"merge" ~x:v ~y:r ~weight:w
        ~group:k ~size:(Int_vec.length slot_vecs.(k)) ();
      iter_neighbours
        (fun nb ->
          if not (placed nb) then begin
            let wv = cur_w v nb in
            let w' = cur_add r nb wv in
            if w' = wv then add_neighbour nb r;
            heap_push heap w' (key r nb)
          end)
        v
    end
  in
  (* Nodes without edges are never placed; once every other node is, any
     remaining candidate has both endpoints placed and places nothing, so
     the drain stops there instead of emptying both sources. *)
  let unplaced = ref 0 in
  for x = 0 to n - 1 do
    if Trg.degree trg x > 0 then incr unplaced
  done;
  let next = ref 0 in
  while !unplaced > 0 && (!next < e || heap.len > 0) do
    let w, k =
      if
        !next < e
        && (heap.len = 0
           ||
           let j = stream.(!next) in
           ahead wt.(j) (Int_pair_tbl.pack src.(j) nbr.(j)) heap.hw.(0) heap.hk.(0))
      then begin
        let j = stream.(!next) in
        incr next;
        (wt.(j), Int_pair_tbl.pack src.(j) nbr.(j))
      end
      else begin
        let top = (heap.hw.(0), heap.hk.(0)) in
        heap_pop heap;
        top
      end
    in
    let x = Int_pair_tbl.fst_of k and y = Int_pair_tbl.snd_of k in
    let px = placed x and py = placed y in
    let stale =
      (px && not (is_rep x)) || (py && not (is_rep y)) || cur_w x y <> w
    in
    if not stale then begin
      if not px then begin
        place ~w x;
        decr unplaced
      end;
      if not py then begin
        place ~w y;
        decr unplaced
      end
    end
  done;
  let slot_arrays = Array.map Int_vec.to_array slot_vecs in
  let slot_lists = Array.map Array.to_list slot_arrays in
  (* Round-robin output: one head per non-empty list per round. *)
  let rounds = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 slot_arrays in
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
  let total_sets = max 1 (c / ab) in
  let sets_per_block = max 1 ((block_bytes + ab - 1) / ab) in
  max 1 (total_sets / sets_per_block)
