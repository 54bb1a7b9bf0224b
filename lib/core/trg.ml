open Colayout_util
open Colayout_trace

(* Two construction paths, one finalized form. [build] on a universe of at
   most [Int_pair_tbl.max_grid_universe] symbols counts into a dense
   directed grid and emits the CSR straight from it (see [build_grid]).
   Larger universes, and [of_edges], accumulate into one flat packed-key
   table, each undirected edge stored exactly once under its canonical
   (min, max) key — no boxed tuples, no per-node hash tables, no symmetric
   double storage. [finalize] converts that table to CSR: row [x] holds the
   neighbours [y > x] in ascending order with parallel weights, so point
   queries are a binary search and whole-graph iteration is a contiguous
   array sweep. Neither the grid nor the table outlives construction. *)

type csr = {
  row_ptr : int array; (* length num_nodes + 1 *)
  src : int array; (* length E: the smaller endpoint of each edge *)
  nbr : int array; (* length E: the larger endpoint, ascending within a row *)
  wt : int array; (* length E *)
  mutable by_weight : int array option; (* edge indices, heaviest first; lazy *)
}

type repr =
  | Building of Int_pair_tbl.t
  | Csr of csr

type t = {
  num_nodes : int;
  deg : int array; (* undirected degree, maintained in both representations *)
  mutable repr : repr;
}

let num_nodes t = t.num_nodes

let check_universe n =
  if n > Int_pair_tbl.max_coord then
    invalid_arg "Trg: num_symbols >= 2^31 exceeds the packed-key coordinate bound"

let create_building n =
  check_universe n;
  { num_nodes = n; deg = Array.make n 0; repr = Building (Int_pair_tbl.create ~capacity:1024 ()) }

let bump t x y dw =
  match t.repr with
  | Csr _ -> invalid_arg "Trg.bump: graph already finalized"
  | Building tbl ->
    let lo = if x < y then x else y in
    let hi = if x < y then y else x in
    let w' = Int_pair_tbl.add_to tbl (Int_pair_tbl.pack lo hi) dw in
    if w' = dw then begin
      (* First occurrence of this edge. *)
      t.deg.(x) <- t.deg.(x) + 1;
      t.deg.(y) <- t.deg.(y) + 1
    end

let finalize t =
  match t.repr with
  | Csr _ -> ()
  | Building tbl ->
    let e = Int_pair_tbl.length tbl in
    let keys = Array.make (max e 1) 0 in
    let cursor = ref 0 in
    Int_pair_tbl.iter
      (fun k _ ->
        keys.(!cursor) <- k;
        incr cursor)
      tbl;
    let keys = if e = Array.length keys then keys else Array.sub keys 0 e in
    (* Canonical packed keys sort as (src, nbr) lexicographically, so one
       int sort yields row-major CSR order directly. *)
    Array.sort (fun (a : int) b -> compare a b) keys;
    let row_ptr = Array.make (t.num_nodes + 1) 0 in
    let src = Array.make e 0 and nbr = Array.make e 0 and wt = Array.make e 0 in
    Array.iteri
      (fun j k ->
        let x = Int_pair_tbl.fst_of k in
        src.(j) <- x;
        nbr.(j) <- Int_pair_tbl.snd_of k;
        wt.(j) <- Int_pair_tbl.find tbl k ~default:0;
        row_ptr.(x + 1) <- row_ptr.(x + 1) + 1)
      keys;
    for x = 1 to t.num_nodes do
      row_ptr.(x) <- row_ptr.(x) + row_ptr.(x - 1)
    done;
    t.repr <- Csr { row_ptr; src; nbr; wt; by_weight = None }

let weight t x y =
  if x = y then 0
  else
    let lo = if x < y then x else y in
    let hi = if x < y then y else x in
    match t.repr with
    | Building tbl -> Int_pair_tbl.find tbl (Int_pair_tbl.pack lo hi) ~default:0
    | Csr c ->
      let rec search l r =
        if l >= r then 0
        else
          let m = (l + r) / 2 in
          let v = Array.unsafe_get c.nbr m in
          if v = hi then Array.unsafe_get c.wt m
          else if v < hi then search (m + 1) r
          else search l m
      in
      search c.row_ptr.(lo) c.row_ptr.(lo + 1)

let degree t x = t.deg.(x)

let csr_of t =
  finalize t;
  match t.repr with Csr c -> c | Building _ -> assert false

let iter_edges f t =
  let c = csr_of t in
  for j = 0 to Array.length c.nbr - 1 do
    f c.src.(j) c.nbr.(j) c.wt.(j)
  done

(* Bits needed to write [v >= 0]. *)
let bit_width v =
  let rec go b = if v lsr b = 0 then b else go (b + 1) in
  go 0

(* Heaviest first, then the canonical (src, nbr) order — which is the
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
    let wmax = Array.fold_left max 0 c.wt in
    let key = Array.make e 0 in
    for j = 0 to e - 1 do
      Array.unsafe_set key j (wmax - Array.unsafe_get c.wt j)
    done;
    let width = bit_width (Array.fold_left max 0 key) in
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

let iter_edges_by_weight f t =
  let c = csr_of t in
  let idx = sorted_edge_index c in
  Array.iter (fun j -> f c.src.(j) c.nbr.(j) c.wt.(j)) idx

let edges t =
  let acc = ref [] in
  iter_edges_by_weight (fun x y w -> acc := (x, y, w) :: !acc) t;
  List.rev !acc

(* A directed count grid to the finalized graph: [m.(x * n + y)] counts
   the recurrences of [x] that had [y] above it on the stack, so the
   undirected weight of [{x, y}] is [m.(x * n + y) + m.(y * n + x)] — the
   sum of exactly the [bump]s the table path makes under its canonical key.
   Folds the lower triangle onto the upper one in place, then reads the
   upper triangle row by row, which yields the CSR's row-major order
   directly, with no key sort. *)
let of_grid ~num_nodes:n m =
  if n < 0 || Array.length m <> n * n then invalid_arg "Trg.of_grid: grid is not n * n";
  check_universe n;
  (* Fold, counting edges and degrees on the way. *)
  let deg = Array.make n 0 and e = ref 0 in
  for x = 0 to n - 1 do
    for y = x + 1 to n - 1 do
      let w = Array.unsafe_get m ((x * n) + y) + Array.unsafe_get m ((y * n) + x) in
      Array.unsafe_set m ((x * n) + y) w;
      if w > 0 then begin
        incr e;
        deg.(x) <- deg.(x) + 1;
        deg.(y) <- deg.(y) + 1
      end
    done
  done;
  let row_ptr = Array.make (n + 1) 0 in
  let src = Array.make !e 0 and nbr = Array.make !e 0 and wt = Array.make !e 0 in
  let j = ref 0 in
  for x = 0 to n - 1 do
    for y = x + 1 to n - 1 do
      let w = Array.unsafe_get m ((x * n) + y) in
      if w > 0 then begin
        src.(!j) <- x;
        nbr.(!j) <- y;
        wt.(!j) <- w;
        incr j
      end
    done;
    row_ptr.(x + 1) <- !j
  done;
  { num_nodes = n; deg; repr = Csr { row_ptr; src; nbr; wt; by_weight = None } }

(* The grid path of [build]: one bump of [m.(x * n + y)] per block [y]
   above a recurring [x], then [of_grid]; the grid is garbage once [build]
   returns. *)
let build_grid ~k trace =
  let n = Trace.num_symbols trace in
  let m = Array.make (n * n) 0 in
  let ws = Window_stack.create ~k in
  let stk = ws.stk in
  Trace.iter
    (fun x ->
      let pos = Window_stack.find ws x in
      let row = x * n in
      for i = 0 to pos - 1 do
        let j = row + Array.unsafe_get stk i in
        Array.unsafe_set m j (Array.unsafe_get m j + 1)
      done;
      Window_stack.move_to_front ws ~pos x)
    trace;
  of_grid ~num_nodes:n m

let build ?(window = max_int) trace =
  if window < 1 then invalid_arg "Trg.build: window must be >= 1";
  if not (Trim.is_trimmed trace) then invalid_arg "Trg.build: trace must be trimmed";
  let n = Trace.num_symbols trace in
  check_universe n;
  (* The walk never reads past depth [window], so the top [window] entries
     of the LRU stack are all it needs (fewer when the universe is
     smaller). *)
  let k = max 1 (min window n) in
  if n <= Int_pair_tbl.max_grid_universe then build_grid ~k trace
  else begin
    let t = create_building n in
    let ws = Window_stack.create ~k in
    let stk = ws.stk in
    Trace.iter
      (fun x ->
        (* If x recurs within the window (it is on the bounded stack), every
           block above it occurred between its two successive occurrences:
           one potential conflict each. *)
        let pos = Window_stack.find ws x in
        for i = 0 to pos - 1 do
          bump t x (Array.unsafe_get stk i) 1
        done;
        Window_stack.move_to_front ws ~pos x)
      trace;
    finalize t;
    t
  end

let of_edges ~num_nodes edge_list =
  let t = create_building num_nodes in
  List.iter
    (fun (x, y, w) ->
      if x = y then invalid_arg "Trg.of_edges: self loop";
      if w <= 0 then invalid_arg "Trg.of_edges: non-positive weight";
      if x < 0 || y < 0 || x >= num_nodes || y >= num_nodes then
        invalid_arg "Trg.of_edges: node out of range";
      bump t x y w)
    edge_list;
  finalize t;
  t

let recommended_window ~params ~block_bytes ~cache_multiplier =
  if block_bytes <= 0 then invalid_arg "Trg.recommended_window";
  let c = float_of_int params.Colayout_cache.Params.size_bytes *. cache_multiplier in
  max 1 (int_of_float (c /. float_of_int block_bytes))
