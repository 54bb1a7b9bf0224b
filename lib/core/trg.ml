open Colayout_util
open Colayout_trace

(* Two representations. During construction the graph accumulates into one
   flat packed-key table, each undirected edge stored exactly once under its
   canonical (min, max) key — no boxed tuples, no per-node hash tables, no
   symmetric double storage. [finalize] converts to CSR: row [x] holds the
   neighbours [y > x] in ascending order with parallel weights, so point
   queries are a binary search and whole-graph iteration is a contiguous
   array sweep. The packed table is dropped at that point, which is what
   halves resident memory versus the old double-stored adjacency. *)

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

(* Bits needed to hold any index below [e]. *)
let index_bits e =
  let rec go b = if 1 lsl b >= e then b else go (b + 1) in
  go 0

let sorted_edge_index c =
  match c.by_weight with
  | Some idx -> idx
  | None ->
    let e = Array.length c.nbr in
    (* Heaviest first, then the canonical (src, nbr) order — which is the
       ascending CSR index, so ties compare by index. Packing [(wmax - w)]
       above the index turns that order into one ascending int sort, with
       no closure reading the weight array per comparison. *)
    let wmax = Array.fold_left max 0 c.wt and wmin = Array.fold_left min max_int c.wt in
    let bits = index_bits e in
    let idx =
      if wmax - wmin <= max_int lsr bits then begin
        let keys = Array.init e (fun j -> ((wmax - c.wt.(j)) lsl bits) lor j) in
        Array.stable_sort (fun (a : int) b -> compare a b) keys;
        let mask = (1 lsl bits) - 1 in
        Array.map (fun k -> k land mask) keys
      end
      else begin
        let idx = Array.init e Fun.id in
        Array.sort
          (fun a b -> if c.wt.(a) <> c.wt.(b) then compare c.wt.(b) c.wt.(a) else compare a b)
          idx;
        idx
      end
    in
    c.by_weight <- Some idx;
    idx

type weight_sorted = {
  src : int array;
  nbr : int array;
  wt : int array;
  order : int array;
}

let weight_sorted t =
  let c = csr_of t in
  { src = c.src; nbr = c.nbr; wt = c.wt; order = sorted_edge_index c }

let iter_edges_by_weight f t =
  let c = csr_of t in
  let idx = sorted_edge_index c in
  Array.iter (fun j -> f c.src.(j) c.nbr.(j) c.wt.(j)) idx

let edges t =
  let acc = ref [] in
  iter_edges_by_weight (fun x y w -> acc := (x, y, w) :: !acc) t;
  List.rev !acc

let build ?(window = max_int) trace =
  if window < 1 then invalid_arg "Trg.build: window must be >= 1";
  if not (Trim.is_trimmed trace) then invalid_arg "Trg.build: trace must be trimmed";
  let n = Trace.num_symbols trace in
  let t = create_building n in
  (* The walk never reads past depth [window], so the top [window] entries
     of the LRU stack are all it needs (fewer when the universe is
     smaller). *)
  let ws = Window_stack.create ~k:(max 1 (min window n)) in
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
