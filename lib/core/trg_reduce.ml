open Colayout_util

type result = {
  order : int list;
  slot_lists : int list array;
}

(* The decision order on edges: heaviest first, then by ascending canonical
   key [pack lo hi] — i.e. ascending (x, y) — so the reduction is
   deterministic. *)
let ahead (w1 : int) (k1 : int) (w2 : int) (k2 : int) = w1 > w2 || (w1 = w2 && k1 < k2)

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

(* The reduction's state. Current edge weights, one entry per canonical
   pair, where an absent pair reads 0; weights only grow. A universe
   within [Int_pair_tbl.max_grid_universe] keeps them in the domain's
   [Pair_grid] at [lo * n + hi], larger ones in a packed-pair table: the
   same values either way, so the same decisions. *)
type state = {
  n : int;
  grid : Pair_grid.t; (* dense: the weights *)
  cur : Int_pair_tbl.t; (* otherwise: the weights *)
  (* Neighbour lists: the initial graph as symmetric flat rows (node
     [x]'s neighbours at [adj.{row.{x}} .. adj.{row.{x+1} - 1}], in the
     domain's lent rows), plus a per-node vector of the slot nodes it
     gains an edge to through merges. Only unplaced nodes' lists are ever
     read. *)
  row : Lent.ints;
  adj : Lent.ints;
  no_extra : Int_vec.t;
  extra : Int_vec.t array;
  t : tournament;
  slot_of : int array;
  rep_of_slot : int array;
  mutable filled : int;
  slot_vecs : Int_vec.t array;
  decisions : Decision_trace.t option;
}

(* [Int_pair_tbl.pack] of the canonical pair, open-coded: a call across
   modules is never inlined under [-opaque], and the merge loop makes
   this one per neighbour. *)
let[@inline] key x y = if x < y then (x lsl 31) lor y else (y lsl 31) lor x

let[@inline] key_fst k = k lsr 31

let[@inline] key_snd k = k land Int_pair_tbl.max_coord

let[@inline] cell st x y = if x < y then (x * st.n) + y else (y * st.n) + x

let[@inline] cur_w ~dense st x y =
  if dense then Bigarray.Array1.unsafe_get st.grid (cell st x y)
  else Int_pair_tbl.find st.cur (key x y) ~default:0

(* Adds [dw] to the weight of [{x, y}] and returns the sum. *)
let[@inline] cur_add ~dense st x y dw =
  if dense then begin
    let i = cell st x y in
    let w = Bigarray.Array1.unsafe_get st.grid i + dw in
    Bigarray.Array1.unsafe_set st.grid i w;
    w
  end
  else Int_pair_tbl.add_to st.cur (key x y) dw

let add_neighbour st x y =
  if st.extra.(x) == st.no_extra then st.extra.(x) <- Int_vec.create ~capacity:8 ();
  Int_vec.push st.extra.(x) y

let[@inline] placed st v = Array.unsafe_get st.slot_of v >= 0

let[@inline] live st v = (not (placed st v)) || st.rep_of_slot.(st.slot_of.(v)) = v

(* The symmetric rows and their offsets: one pair of off-heap buffers
   per domain, lent to one reduction at a time and grown to the largest
   graph reduced there, 8 * (2E + n + 1) bytes, never shrunk. *)
type rows = {
  mutable offsets : Lent.ints;
  mutable entries : Lent.ints;
}

let domain_rows = Lent.create (fun () -> { offsets = Lent.ints 0; entries = Lent.ints 0 })

let hold_rows who f =
  Lent.hold domain_rows ~refused:(who ^ ": the reduction rows are already held on this domain") f

let with_rows f = hold_rows "Trg_reduce.with_rows" (fun _ -> f ())

let create trg rows ~slots ~grid ~decisions =
  let n = Trg.num_nodes trg in
  rows.offsets <- Lent.grow rows.offsets (n + 1);
  let row = rows.offsets in
  row.{0} <- 0;
  for x = 0 to n - 1 do
    row.{x + 1} <- row.{x} + Trg.degree trg x
  done;
  rows.entries <- Lent.grow rows.entries row.{n};
  let no_extra = Int_vec.create ~capacity:1 () in
  {
    n;
    grid;
    cur =
      Int_pair_tbl.create
        ~capacity:(if n <= Int_pair_tbl.max_grid_universe then 0 else row.{n} / 2)
        ();
    row;
    adj = rows.entries;
    no_extra;
    extra = Array.make n no_extra;
    (* Every node starts unplaced, so its best live edge is its heaviest
       edge. *)
    t =
      {
        bw = Array.make n 0;
        bk = Array.make n 0;
        heap = Array.make n 0;
        pos = Array.make n (-1);
        len = 0;
      };
    slot_of = Array.make n (-1);
    rep_of_slot = Array.make slots (-1);
    filled = 0;
    slot_vecs = Array.init slots (fun _ -> Int_vec.create ());
    decisions;
  }

let[@inline] offer t x w k =
  if ahead w k t.bw.(x) t.bk.(x) then begin
    t.bw.(x) <- w;
    t.bk.(x) <- k
  end

(* The weights, adjacency rows and every node's best edge from the CSR,
   in its edge order, then the tournament heapified. *)
let[@inline] setup ~dense st trg =
  let row_ptr, nbr, wt = Trg.csr trg in
  let n = st.n and adj = st.adj and t = st.t in
  let fill = Array.init n (fun x -> st.row.{x}) in
  for x = 0 to n - 1 do
    for j = row_ptr.(x) to row_ptr.(x + 1) - 1 do
      let y = Array.unsafe_get nbr j and w = Array.unsafe_get wt j in
      if dense then Bigarray.Array1.unsafe_set st.grid ((x * n) + y) w
      else Int_pair_tbl.replace st.cur (key x y) w;
      Bigarray.Array1.unsafe_set adj fill.(x) y;
      fill.(x) <- fill.(x) + 1;
      Bigarray.Array1.unsafe_set adj fill.(y) x;
      fill.(y) <- fill.(y) + 1;
      let k = key x y in
      offer t x w k;
      offer t y w k
    done
  done;
  for x = 0 to n - 1 do
    if st.row.{x + 1} > st.row.{x} then begin
      put t t.len x;
      t.len <- t.len + 1
    end
  done;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i t.heap.(i)
  done

(* Slots fill in index order, so the first empty slot (which wins
   outright) is [filled]; otherwise the strict minimum conflict weight
   against each slot's merged node, first slot on ties. *)
let[@inline] choose_slot ~dense st v =
  let slots = Array.length st.rep_of_slot in
  if st.filled < slots then st.filled
  else begin
    let best = ref 0 and best_w = ref (cur_w ~dense st v st.rep_of_slot.(0)) in
    for k = 1 to slots - 1 do
      let w = cur_w ~dense st v st.rep_of_slot.(k) in
      if w < !best_w then begin
        best := k;
        best_w := w
      end
    done;
    !best
  end

(* [u]'s best live edge, from scratch, starting from the live edge
   [(w, k)]: its initial neighbours, then the slot nodes it gained. *)
let[@inline] rescan ~dense st u w k =
  let bw = ref w and bk = ref k in
  let e = st.extra.(u) and last = st.row.{u + 1} in
  for i = st.row.{u} to last + Int_vec.length e - 1 do
    let m = if i < last then Bigarray.Array1.unsafe_get st.adj i else Int_vec.unsafe_get e (i - last) in
    if live st m then begin
      let w = cur_w ~dense st u m and k = key u m in
      if ahead w k !bw !bk then begin
        bw := w;
        bk := k
      end
    end
  done;
  rekey st.t u !bw !bk

(* Steps 19-21 drop the edges between slots, and a merge drops the merged
   node's edges. Both only ever remove edges whose endpoints are both
   placed, and no decision depends on such an edge: the tournament holds
   only unplaced nodes and their live edges; [choose_slot] asks about an
   unplaced node; a merge reads the unplaced neighbours of the node being
   placed. So the dropped edges are simply left behind, and every weight
   a decision reads is the seed's. *)
let[@inline] place ~dense st ~w v =
  let t = st.t in
  remove t v;
  let k = choose_slot ~dense st v in
  Int_vec.push st.slot_vecs.(k) v;
  st.slot_of.(v) <- k;
  if st.rep_of_slot.(k) < 0 then begin
    (* A new representative keeps every edge live. *)
    st.rep_of_slot.(k) <- v;
    st.filled <- st.filled + 1;
    Decision_trace.emit st.decisions ~stage:"trg-reduce" ~action:"place" ~x:v ~weight:w ~group:k
      ~size:(Int_vec.length st.slot_vecs.(k)) ()
  end
  else begin
    (* Merge v into the slot's node r: v's edge to each unplaced
       neighbour dies, and its weight moves onto that neighbour's edge
       to r. The replacement is never lighter than the dying edge, so a
       neighbour's best only moves up — except when the dying edge was
       its best and the new edge to r only ties it with a larger key:
       then some other edge of the same weight may lead, and the
       neighbour is rescanned. Only v's initial neighbours can be
       unplaced: the slot nodes it gained are placed. *)
    let r = st.rep_of_slot.(k) in
    Decision_trace.emit st.decisions ~stage:"trg-reduce" ~action:"merge" ~x:v ~y:r ~weight:w
      ~group:k ~size:(Int_vec.length st.slot_vecs.(k)) ();
    for i = st.row.{v} to st.row.{v + 1} - 1 do
      let nb = Bigarray.Array1.unsafe_get st.adj i in
      if not (placed st nb) then begin
        let wv = cur_w ~dense st v nb in
        let w' = cur_add ~dense st r nb wv in
        if w' = wv then add_neighbour st nb r;
        let kr = key r nb in
        if t.bk.(nb) = key v nb then begin
          if w' > wv || kr < t.bk.(nb) then rekey t nb w' kr else rescan ~dense st nb w' kr
        end
        else if ahead w' kr t.bw.(nb) t.bk.(nb) then rekey t nb w' kr
      end
    done
  end

let place_dense st ~w v = place ~dense:true st ~w v

let place_table st ~w v = place ~dense:false st ~w v

(* Nodes without edges never enter the tournament, so they are never
   placed; the drain stops once every other node is. *)
let[@inline] drain ~dense st =
  let t = st.t in
  while t.len > 0 do
    let u = t.heap.(0) in
    let w = t.bw.(u) and k = t.bk.(u) in
    let x = key_fst k and y = key_snd k in
    if not (placed st x) then if dense then place_dense st ~w x else place_table st ~w x;
    if not (placed st y) then if dense then place_dense st ~w y else place_table st ~w y
  done

let result st =
  let slot_arrays = Array.map Int_vec.to_array st.slot_vecs in
  let slot_lists = Array.map Array.to_list slot_arrays in
  (* Round-robin output: one head per non-empty list per round. *)
  let rounds = Array.fold_left (fun acc a -> Int.max acc (Array.length a)) 0 slot_arrays in
  let order = ref [] in
  for i = 0 to rounds - 1 do
    Array.iter (fun a -> if i < Array.length a then order := a.(i) :: !order) slot_arrays
  done;
  { order = List.rev !order; slot_lists }

let reduce ?decisions trg ~slots =
  if slots < 1 then invalid_arg "Trg_reduce.reduce: slots must be >= 1";
  let who = "Trg_reduce.reduce" in
  let n = Trg.num_nodes trg in
  hold_rows who (fun rows ->
      if n <= Int_pair_tbl.max_grid_universe then
        Pair_grid.with_grid who ~n (fun grid ->
            let st = create trg rows ~slots ~grid ~decisions in
            setup ~dense:true st trg;
            drain ~dense:true st;
            (* The reduction has no read-out pass over its cells: one fill
               zeroes them, ~4x faster than revisiting the ~2E scattered
               cells it wrote. *)
            Bigarray.Array1.fill grid 0;
            result st)
      else begin
        let st = create trg rows ~slots ~grid:(Lent.ints 0) ~decisions in
        setup ~dense:false st trg;
        drain ~dense:false st;
        result st
      end)

let slots_for ~params ~block_bytes ~cache_multiplier =
  if block_bytes <= 0 then invalid_arg "Trg_reduce.slots_for";
  let open Colayout_cache in
  let ab = params.Params.assoc * params.Params.line_bytes in
  let c = int_of_float (float_of_int params.Params.size_bytes *. cache_multiplier) in
  let total_sets = Int.max 1 (c / ab) in
  let sets_per_block = Int.max 1 ((block_bytes + ab - 1) / ab) in
  Int.max 1 (total_sets / sets_per_block)
