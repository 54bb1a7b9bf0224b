open Colayout_util
open Colayout_trace

(* Two construction paths, one form: CSR, where row [x] holds the
   neighbours [y > x] in ascending order with parallel weights, so point
   queries are a binary search and whole-graph iteration is a contiguous
   array sweep. [build] on a universe of at most
   [Int_pair_tbl.max_grid_universe] symbols counts into the domain's
   dense directed [Pair_grid] and emits the CSR straight from it (see
   [walk] and [of_grid]). Larger universes, and [of_edges], accumulate
   into one local flat packed-key table, each undirected edge stored
   exactly once under its canonical (min, max) key — no boxed tuples, no
   per-node hash tables, no symmetric double storage — which [of_table]
   sorts into the CSR. The table does not outlive construction, and the grid goes back
   to its domain zeroed. *)

let imin (a : int) b = if a <= b then a else b

let imax (a : int) b = if a >= b then a else b

type t = {
  num_nodes : int;
  deg : int array; (* undirected degree *)
  row_ptr : int array; (* length num_nodes + 1 *)
  nbr : int array; (* length E: the larger endpoint, ascending within a row *)
  wt : int array; (* length E *)
  mutable by_weight : int array option; (* edge indices, heaviest first; lazy *)
}

let num_nodes t = t.num_nodes

let check_universe n =
  if n > Int_pair_tbl.max_coord then
    invalid_arg "Trg: num_symbols >= 2^31 exceeds the packed-key coordinate bound"

(* Add [dw] to edge [{x, y}] in a construction table, counting a new
   edge in both endpoints' degrees. *)
let bump tbl deg x y dw =
  let lo = if x < y then x else y in
  let hi = if x < y then y else x in
  let w' = Int_pair_tbl.add_to tbl (Int_pair_tbl.pack lo hi) dw in
  if w' = dw then begin
    (* First occurrence of this edge. *)
    deg.(x) <- deg.(x) + 1;
    deg.(y) <- deg.(y) + 1
  end

(* The graph of a construction table and its degrees. *)
let of_table n deg tbl =
  let e = Int_pair_tbl.length tbl in
  let keys = Array.make (imax e 1) 0 in
  let cursor = ref 0 in
  Int_pair_tbl.iter
    (fun k _ ->
      keys.(!cursor) <- k;
      incr cursor)
    tbl;
  let keys = if e = Array.length keys then keys else Array.sub keys 0 e in
  (* Canonical packed keys sort as (x, y) lexicographically, so one int
     sort yields row-major CSR order directly. *)
  Array.sort (fun (a : int) b -> compare a b) keys;
  let row_ptr = Array.make (n + 1) 0 in
  let nbr = Array.make e 0 and wt = Array.make e 0 in
  Array.iteri
    (fun j k ->
      let x = Int_pair_tbl.fst_of k in
      nbr.(j) <- Int_pair_tbl.snd_of k;
      wt.(j) <- Int_pair_tbl.find tbl k ~default:0;
      row_ptr.(x + 1) <- row_ptr.(x + 1) + 1)
    keys;
  for x = 1 to n do
    row_ptr.(x) <- row_ptr.(x) + row_ptr.(x - 1)
  done;
  { num_nodes = n; deg; row_ptr; nbr; wt; by_weight = None }

let weight t x y =
  if x = y then 0
  else
    let lo = if x < y then x else y in
    let hi = if x < y then y else x in
    let rec search l r =
      if l >= r then 0
      else
        let m = (l + r) / 2 in
        let v = Array.unsafe_get t.nbr m in
        if v = hi then Array.unsafe_get t.wt m
        else if v < hi then search (m + 1) r
        else search l m
    in
    search t.row_ptr.(lo) t.row_ptr.(lo + 1)

let degree t x = t.deg.(x)

let csr t = (t.row_ptr, t.nbr, t.wt)

let iter_edges f t =
  for x = 0 to t.num_nodes - 1 do
    for j = t.row_ptr.(x) to t.row_ptr.(x + 1) - 1 do
      f x t.nbr.(j) t.wt.(j)
    done
  done

(* Bits needed to write [v >= 0]. *)
let bit_width v =
  let rec go b = if v lsr b = 0 then b else go (b + 1) in
  go 0

(* The largest entry of [a], 0 when every entry is below 0. *)
let array_max (a : int array) =
  let m = ref 0 in
  for j = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a j in
    if v > !m then m := v
  done;
  !m

(* Heaviest first, then the canonical (x, y) order — which is the
   ascending CSR index. One stable LSD radix sort of the identity
   permutation on the key [wmax - w]: stability keeps equal weights in
   ascending index order, and the key is non-negative whatever the weight
   span. The key's width is split into the fewest digits of at most 16
   bits (one pass while the weight span is below 2^16); each pass
   scatters the keys beside the indices, so no pass reads the weights
   through the permutation. *)
let sorted_edge_index c =
  match c.by_weight with
  | Some idx -> idx
  | None ->
    let e = Array.length c.nbr in
    let wmax = array_max c.wt in
    let key = Array.make e 0 in
    for j = 0 to e - 1 do
      Array.unsafe_set key j (wmax - Array.unsafe_get c.wt j)
    done;
    let width = bit_width (array_max key) in
    let passes = (width + 15) / 16 in
    let digit = if passes = 0 then 0 else (width + passes - 1) / passes in
    let mask = (1 lsl digit) - 1 in
    let count = Array.make (mask + 1) 0 in
    let rec pass p key idx =
      if p = passes then idx
      else begin
        let shift = p * digit in
        Array.fill count 0 (mask + 1) 0;
        for j = 0 to e - 1 do
          let d = (Array.unsafe_get key j lsr shift) land mask in
          Array.unsafe_set count d (Array.unsafe_get count d + 1)
        done;
        let sum = ref 0 in
        for d = 0 to mask do
          let n = Array.unsafe_get count d in
          Array.unsafe_set count d !sum;
          sum := !sum + n
        done;
        let key' = Array.make e 0 and idx' = Array.make e 0 in
        for j = 0 to e - 1 do
          let k = Array.unsafe_get key j in
          let d = (k lsr shift) land mask in
          let at = Array.unsafe_get count d in
          Array.unsafe_set count d (at + 1);
          Array.unsafe_set key' at k;
          Array.unsafe_set idx' at (Array.unsafe_get idx j)
        done;
        pass (p + 1) key' idx'
      end
    in
    let idx = pass 0 key (Array.init e Fun.id) in
    c.by_weight <- Some idx;
    idx

(* The row of edge [j]: the last [x] with [row_ptr.(x) <= j]. *)
let row_of t j =
  let a = ref 0 and b = ref t.num_nodes in
  while !b - !a > 1 do
    let m = (!a + !b) / 2 in
    if t.row_ptr.(m) <= j then a := m else b := m
  done;
  !a

let iter_edges_by_weight f t =
  Array.iter (fun j -> f (row_of t j) t.nbr.(j) t.wt.(j)) (sorted_edge_index t)

let edges t =
  let acc = ref [] in
  iter_edges_by_weight (fun x y w -> acc := (x, y, w) :: !acc) t;
  List.rev !acc

(* Side of the square tiles [of_grid] folds the grid in. *)
let grid_tile = 32

(* A directed count grid to its graph: [m.{x * n + y}] counts
   the recurrences of [x] that had [y] above it on the stack, so the
   undirected weight of [{x, y}] is [m.{x * n + y} + m.{y * n + x}] — the
   sum of exactly the [bump]s the table path makes under its canonical key.
   Folds the lower triangle onto the upper one in place, zeroing it and
   the diagonal; then reads the upper triangle row by row, which yields
   the CSR's row-major order directly, with no key sort, and zeroes each
   cell it reads: the grid is left all 0, as [Pair_grid] requires.
   The fold goes tile by tile and reads each lower tile row by row into a
   small transposed buffer: walking a column of the grid instead touches
   a new page at every cell, which measured ~5x slower per cell than a
   row walk on a 2-vCPU Xeon guest. *)
let of_grid ~num_nodes:n (m : Pair_grid.t) =
  if n < 0 || Bigarray.Array1.dim m <> n * n then invalid_arg "Trg.of_grid: grid is not n * n";
  check_universe n;
  (* Fold, counting edges and degrees on the way. *)
  let deg = Array.make n 0 and e = ref 0 in
  let buf = Array.make (grid_tile * grid_tile) 0 in
  let x0 = ref 0 in
  while !x0 < n do
    let x1 = imin n (!x0 + grid_tile) in
    let y0 = ref !x0 in
    while !y0 < n do
      let y1 = imin n (!y0 + grid_tile) in
      (* The lower tile's cells [m.{y * n + x}], [x <= y], zeroed on the
         way; [buf] keeps them at [(x - x0) * grid_tile + (y - y0)]. *)
      for y = !y0 to y1 - 1 do
        let b = y - !y0 - (!x0 * grid_tile) in
        for x = !x0 to imin x1 (y + 1) - 1 do
          let i = (y * n) + x in
          let v = Bigarray.Array1.unsafe_get m i in
          if v <> 0 then Bigarray.Array1.unsafe_set m i 0;
          Array.unsafe_set buf ((x * grid_tile) + b) v
        done
      done;
      for x = !x0 to x1 - 1 do
        let b = ((x - !x0) * grid_tile) - !y0 in
        for y = imax !y0 (x + 1) to y1 - 1 do
          let up = (x * n) + y in
          let lo = Array.unsafe_get buf (b + y) in
          let w = Bigarray.Array1.unsafe_get m up + lo in
          if lo <> 0 then Bigarray.Array1.unsafe_set m up w;
          if w > 0 then begin
            incr e;
            Array.unsafe_set deg x (Array.unsafe_get deg x + 1);
            Array.unsafe_set deg y (Array.unsafe_get deg y + 1)
          end
        done
      done;
      y0 := y1
    done;
    x0 := x1
  done;
  let row_ptr = Array.make (n + 1) 0 in
  let nbr = Array.make !e 0 and wt = Array.make !e 0 in
  let j = ref 0 in
  for x = 0 to n - 1 do
    for y = x + 1 to n - 1 do
      let i = (x * n) + y in
      let w = Bigarray.Array1.unsafe_get m i in
      if w <> 0 then begin
        Bigarray.Array1.unsafe_set m i 0;
        if w > 0 then begin
          Array.unsafe_set nbr !j y;
          Array.unsafe_set wt !j w;
          incr j
        end
      end
    done;
    row_ptr.(x + 1) <- !j
  done;
  { num_nodes = n; deg; row_ptr; nbr; wt; by_weight = None }

(* The walk of [build] over the trace's backing array, on the flagged
   [Window_stack]. A block on the stack recurs within the window, so every
   block above it occurred between its two successive occurrences: one
   potential conflict each. A block with its flag set is found by the one
   pass that counts it against each entry above it and shifts those
   entries down a slot; a block without it is pushed, which shifts the whole stack. No
   event scans the stack to look for its block. [dense] is a literal at
   each use: the grid instance bumps [m.{x * n + y}] for each block [y]
   above a recurring [x] and makes no call per entry; the table instance
   [bump]s the canonical edge. The pass stays single: a fused
   find-and-shift followed by a separate bump loop took 9.8 ms against
   8.2 on 445.gobmk's bb profile (2-vCPU AMD EPYC guest). *)
let[@inline] walk ~dense (m : Pair_grid.t) tbl deg ~k trace =
  let n = Trace.num_symbols trace in
  let ev = Int_vec.backing (Trace.events trace) in
  let ws = Window_stack.create ~k ~num_symbols:n in
  let stk = ws.stk and on = ws.on in
  for t = 0 to Trace.length trace - 1 do
    let x = Array.unsafe_get ev t in
    if Bytes.unsafe_get on x <> '\000' then begin
      let row = x * n in
      let i = ref 0 and carry = ref x and y = ref (Array.unsafe_get stk 0) in
      while !y <> x do
        if dense then begin
          let j = row + !y in
          Bigarray.Array1.unsafe_set m j (Bigarray.Array1.unsafe_get m j + 1)
        end
        else bump tbl deg x !y 1;
        Array.unsafe_set stk !i !carry;
        carry := !y;
        incr i;
        y := Array.unsafe_get stk !i
      done;
      Array.unsafe_set stk !i !carry
    end
    else Window_stack.push ws x
  done

let build ?(window = max_int) trace =
  if window < 1 then invalid_arg "Trg.build: window must be >= 1";
  if not (Trim.is_trimmed trace) then invalid_arg "Trg.build: trace must be trimmed";
  let n = Trace.num_symbols trace in
  check_universe n;
  (* The walk never reads past depth [window], so the top [window] entries
     of the LRU stack are all it needs (fewer when the universe is
     smaller). *)
  let k = imax 1 (imin window n) in
  if n <= Int_pair_tbl.max_grid_universe then
    Pair_grid.with_grid "Trg.build" ~n (fun m ->
        walk ~dense:true m (Int_pair_tbl.create ~capacity:0 ()) [||] ~k trace;
        of_grid ~num_nodes:n m)
  else begin
    let tbl = Int_pair_tbl.create ~capacity:1024 () and deg = Array.make n 0 in
    let no_grid = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0 in
    walk ~dense:false no_grid tbl deg ~k trace;
    of_table n deg tbl
  end

let of_edges ~num_nodes edge_list =
  check_universe num_nodes;
  let tbl = Int_pair_tbl.create ~capacity:1024 () and deg = Array.make num_nodes 0 in
  List.iter
    (fun (x, y, w) ->
      if x = y then invalid_arg "Trg.of_edges: self loop";
      if w <= 0 then invalid_arg "Trg.of_edges: non-positive weight";
      if x < 0 || y < 0 || x >= num_nodes || y >= num_nodes then
        invalid_arg "Trg.of_edges: node out of range";
      bump tbl deg x y w)
    edge_list;
  of_table num_nodes deg tbl

let recommended_window ~params ~block_bytes ~cache_multiplier =
  if block_bytes <= 0 then invalid_arg "Trg.recommended_window";
  let c = float_of_int params.Colayout_cache.Params.size_bytes *. cache_multiplier in
  imax 1 (int_of_float (c /. float_of_int block_bytes))
