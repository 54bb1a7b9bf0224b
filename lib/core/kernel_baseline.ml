open Colayout_util
open Colayout_trace

(* ------------------------------------------------------------ TRG (seed) *)

type legacy_trg = {
  num_nodes : int;
  adj : (int, int) Hashtbl.t array;
}

let bump t x y dw =
  let upd a b =
    let cur = Option.value ~default:0 (Hashtbl.find_opt t.adj.(a) b) in
    Hashtbl.replace t.adj.(a) b (cur + dw)
  in
  upd x y;
  upd y x

let trg_build ?(window = max_int) trace =
  if window < 1 then invalid_arg "Kernel_baseline.trg_build: window must be >= 1";
  if not (Trim.is_trimmed trace) then
    invalid_arg "Kernel_baseline.trg_build: trace must be trimmed";
  let t =
    {
      num_nodes = Trace.num_symbols trace;
      adj = Array.init (Trace.num_symbols trace) (fun _ -> Hashtbl.create 8);
    }
  in
  let stack = Lru_stack.create () in
  Trace.iter
    (fun x ->
      (* If x recurs within the window, every block above it on the stack
         occurred between its two successive occurrences: one potential
         conflict each. *)
      let d = ref 0 in
      let betweens = ref [] in
      let found = ref false in
      Lru_stack.iter_until stack (fun y ->
          incr d;
          if y = x then begin
            found := true;
            false
          end
          else if !d >= window then false
          else begin
            betweens := y :: !betweens;
            true
          end);
      (* Only count when x was actually found within the window: the walk
         must have stopped on x, not on depth exhaustion. *)
      if !found then List.iter (fun y -> bump t x y 1) !betweens;
      ignore (Lru_stack.access stack x))
    trace;
  t

let trg_weight t x y =
  if x = y then 0
  else
    match Hashtbl.find_opt t.adj.(x) y with
    | Some w -> w
    | None -> 0

let trg_edges t =
  let acc = ref [] in
  Array.iteri
    (fun x h -> Hashtbl.iter (fun y w -> if x < y then acc := (x, y, w) :: !acc) h)
    t.adj;
  List.sort
    (fun (x1, y1, w1) (x2, y2, w2) ->
      if w1 <> w2 then compare w2 w1 else compare (x1, y1) (x2, y2))
    !acc

(* ------------------------------------------------- TRG reduction (seed) *)

(* The seed polymorphic binary max-heap, used with lazy deletion by the seed
   reduction below and nowhere else. *)
module Heap = struct
  type 'a t = {
    cmp : 'a -> 'a -> int;
    data : 'a Vec.t;
  }

  let create ~cmp () = { cmp; data = Vec.create () }

  let length t = Vec.length t.data

  let is_empty t = Vec.length t.data = 0

  let swap t i j =
    let tmp = Vec.get t.data i in
    Vec.set t.data i (Vec.get t.data j);
    Vec.set t.data j tmp

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.cmp (Vec.get t.data i) (Vec.get t.data parent) > 0 then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let n = Vec.length t.data in
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let largest = ref i in
    if l < n && t.cmp (Vec.get t.data l) (Vec.get t.data !largest) > 0 then largest := l;
    if r < n && t.cmp (Vec.get t.data r) (Vec.get t.data !largest) > 0 then largest := r;
    if !largest <> i then begin
      swap t i !largest;
      sift_down t !largest
    end

  let push t x =
    Vec.push t.data x;
    sift_up t (Vec.length t.data - 1)

  let peek t = if is_empty t then None else Some (Vec.get t.data 0)

  let pop t =
    if is_empty t then None
    else begin
      let top = Vec.get t.data 0 in
      let n = Vec.length t.data in
      Vec.set t.data 0 (Vec.get t.data (n - 1));
      ignore (Vec.pop t.data);
      if not (is_empty t) then sift_down t 0;
      Some top
    end

  let of_list ~cmp l =
    let t = create ~cmp () in
    List.iter (push t) l;
    t

  let to_sorted_list t =
    let rec loop acc = match pop t with None -> List.rev acc | Some x -> loop (x :: acc) in
    loop []
end

(* Heap entries are (weight, x, y) with x < y; heavier first, then smaller
   ids, so the reduction is deterministic. Stale entries (weight no longer
   current, or an endpoint gone) are discarded lazily on pop. *)
let edge_cmp (w1, x1, y1) (w2, x2, y2) =
  if w1 <> w2 then compare w1 w2 else compare (x2, y2) (x1, y1)

let trg_reduce ?decisions trg ~slots : Trg_reduce.result =
  if slots < 1 then invalid_arg "Kernel_baseline.trg_reduce: slots must be >= 1";
  let n = Trg.num_nodes trg in
  (* Mutable working copy of the adjacency. *)
  let adj = Array.init n (fun _ -> Hashtbl.create 8) in
  let set_w x y w =
    Hashtbl.replace adj.(x) y w;
    Hashtbl.replace adj.(y) x w
  in
  let del_edge x y =
    Hashtbl.remove adj.(x) y;
    Hashtbl.remove adj.(y) x
  in
  let cur_w x y = Option.value ~default:0 (Hashtbl.find_opt adj.(x) y) in
  let heap = Heap.create ~cmp:edge_cmp () in
  (* Seed the working adjacency and the heap straight from the finalized CSR
     arrays; the heap's total order on (w, x, y) makes the pop sequence
     independent of insertion order, so no pre-sorted edge list is needed. *)
  Trg.finalize trg;
  Trg.iter_edges
    (fun x y w ->
      set_w x y w;
      Heap.push heap (w, x, y))
    trg;
  let slot_of = Array.make n (-1) in
  let rep_of_slot = Array.make slots (-1) in
  let slot_vecs = Array.init slots (fun _ -> Vec.create ()) in
  let is_rep v = slot_of.(v) >= 0 && rep_of_slot.(slot_of.(v)) = v in
  let placed v = slot_of.(v) >= 0 in
  (* Steps 19-21: a (possibly merged) node in one slot keeps no edges to the
     nodes of other slots. *)
  let drop_cross_slot_edges v =
    let to_remove =
      Hashtbl.fold
        (fun nb _ acc -> if is_rep nb && slot_of.(nb) <> slot_of.(v) then nb :: acc else acc)
        adj.(v) []
    in
    List.iter (fun nb -> del_edge v nb) to_remove
  in
  let choose_slot v =
    (* Empty slot in index order wins outright; otherwise the strict minimum
       conflict weight against each slot's merged node, first slot on ties. *)
    let rec scan k best best_w =
      if k >= slots then best
      else if rep_of_slot.(k) < 0 then k
      else begin
        let w = cur_w v rep_of_slot.(k) in
        if w < best_w then scan (k + 1) k w else scan (k + 1) best best_w
      end
    in
    scan 0 (-1) max_int
  in
  let place ~w v =
    let k = choose_slot v in
    Vec.push slot_vecs.(k) v;
    slot_of.(v) <- k;
    if rep_of_slot.(k) < 0 then begin
      rep_of_slot.(k) <- v;
      Decision_trace.emit decisions ~stage:"trg-reduce" ~action:"place" ~x:v ~weight:w ~group:k
        ~size:(Vec.length slot_vecs.(k)) ();
      drop_cross_slot_edges v
    end
    else begin
      (* Merge v into the slot's node r: combine edge weights, then drop
         cross-slot edges of the merged node. *)
      let r = rep_of_slot.(k) in
      Decision_trace.emit decisions ~stage:"trg-reduce" ~action:"merge" ~x:v ~y:r ~weight:w
        ~group:k ~size:(Vec.length slot_vecs.(k)) ();
      let neighbours = Hashtbl.fold (fun nb w acc -> (nb, w) :: acc) adj.(v) [] in
      List.iter
        (fun (nb, w) ->
          del_edge v nb;
          if nb <> r then begin
            let w' = cur_w r nb + w in
            set_w r nb w';
            if not (placed nb) || is_rep nb then
              Heap.push heap (w', min r nb, max r nb)
          end)
        neighbours;
      drop_cross_slot_edges r
    end
  in
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (w, x, y) ->
      let stale =
        cur_w x y <> w
        || (placed x && not (is_rep x))
        || (placed y && not (is_rep y))
        || (is_rep x && is_rep y)
      in
      if not stale then begin
        if not (placed x) then place ~w x;
        if not (placed y) then place ~w y
      end;
      drain ()
  in
  drain ();
  let slot_lists = Array.map Vec.to_list slot_vecs in
  (* Round-robin output: one head per non-empty list per round. *)
  let order = ref [] in
  let idx = Array.make slots 0 in
  let remaining = ref (Array.fold_left (fun acc v -> acc + List.length v) 0 slot_lists) in
  while !remaining > 0 do
    for k = 0 to slots - 1 do
      let l = slot_lists.(k) in
      if idx.(k) < List.length l then begin
        order := List.nth l idx.(k) :: !order;
        idx.(k) <- idx.(k) + 1;
        decr remaining
      end
    done
  done;
  { Trg_reduce.order = List.rev !order; slot_lists }

(* ------------------------------------------------------- Affinity (seed) *)

let require_trimmed t =
  if not (Trim.is_trimmed t) then
    invalid_arg "Affinity: trace must be trimmed (no two consecutive equal blocks)"

type wit = {
  mutable sat : int;
  mutable last_occ : int;
}

let affine_pairs trace ~w =
  if w < 1 then invalid_arg "Kernel_baseline.affine_pairs: w must be >= 1";
  require_trimmed trace;
  let occ = Trace.occurrences trace in
  let occ_idx = Array.make (Trace.num_symbols trace) 0 in
  let wits : (int * int, wit) Hashtbl.t = Hashtbl.create 4096 in
  let witness a b a_occ =
    let key = (a, b) in
    let rec_ =
      match Hashtbl.find_opt wits key with
      | Some r -> r
      | None ->
        let r = { sat = 0; last_occ = 0 } in
        Hashtbl.replace wits key r;
        r
    in
    if rec_.last_occ < a_occ then begin
      rec_.last_occ <- a_occ;
      rec_.sat <- rec_.sat + 1
    end
  in
  let stack = Lru_stack.create () in
  Trace.iter
    (fun y ->
      occ_idx.(y) <- occ_idx.(y) + 1;
      let ky = occ_idx.(y) in
      let d = ref 0 in
      let y_seen = ref false in
      Lru_stack.iter_until stack (fun x ->
          incr d;
          if x = y then begin
            y_seen := true;
            true
          end
          else begin
            let fp = !d + if !y_seen then 0 else 1 in
            if fp <= w then begin
              witness y x ky;
              witness x y occ_idx.(x)
            end;
            !d < w
          end);
      ignore (Lru_stack.access stack y))
    trace;
  let pairs = ref [] in
  Hashtbl.iter
    (fun (a, b) r ->
      if a < b then begin
        let back =
          match Hashtbl.find_opt wits (b, a) with Some r' -> r'.sat | None -> 0
        in
        if r.sat = occ.(a) && back = occ.(b) && occ.(a) > 0 && occ.(b) > 0 then
          pairs := (a, b) :: !pairs
      end)
    wits;
  List.sort compare !pairs

(* ------------------------------------------------------------------ *)
(* The seed layout evaluator and annealer, kept verbatim as the
   differential oracle / honest bench baseline for [Layout_eval] (PR 5),
   exactly as [Trg.build]/[Affinity.affine_pairs] keep their seed twins
   above. Per candidate this path allocates a full [Layout.t], a tuple per
   trace event inside the line expansion, and a fresh simulator — the
   costs the engine exists to amortize. *)

let miss_ratio_of_function_order ~params program trace forder =
  let layout = Layout.of_function_order program forder in
  Colayout_cache.Cache_stats.miss_ratio
    (Colayout_cache.Icache.solo ~params ~layout:(Layout.to_icache layout)
       (Colayout_trace.Trace.events trace))

let miss_ratio_of_block_order ?function_stubs ~params program trace order =
  let layout = Layout.of_block_order ?function_stubs program order in
  Colayout_cache.Cache_stats.miss_ratio
    (Colayout_cache.Icache.solo ~params ~layout:(Layout.to_icache layout)
       (Colayout_trace.Trace.events trace))

let anneal_search ?(seed = 1) ?(steps = 300) ?initial ~params program trace =
  if steps <= 0 then invalid_arg "Anneal.search: steps must be positive";
  let nf = Colayout_ir.Program.num_funcs program in
  let current =
    match initial with
    | None -> Array.init nf Fun.id
    | Some o ->
      if Array.length o <> nf then invalid_arg "Anneal.search: initial order length mismatch";
      Array.copy o
  in
  let rng = Colayout_util.Prng.create ~seed in
  let eval order = miss_ratio_of_function_order ~params program trace order in
  let initial_mr = eval current in
  let cur_mr = ref initial_mr in
  let best = ref (Array.copy current) in
  let best_mr = ref initial_mr in
  let t0 = 0.02 in
  let decay = exp (log 1e-3 /. float_of_int steps) in
  let temp = ref t0 in
  for _ = 1 to steps do
    let a = Colayout_util.Prng.int rng nf and b = Colayout_util.Prng.int rng nf in
    if a <> b then begin
      let proposal = Array.copy current in
      if Colayout_util.Prng.bool rng ~p:0.5 then begin
        proposal.(a) <- current.(b);
        proposal.(b) <- current.(a)
      end
      else begin
        let v = current.(a) in
        if a < b then Array.blit current (a + 1) proposal a (b - a)
        else Array.blit current b proposal (b + 1) (a - b);
        proposal.(b) <- v
      end;
      let mr = eval proposal in
      let accept =
        mr <= !cur_mr
        || Colayout_util.Prng.float rng < exp ((!cur_mr -. mr) /. Float.max 1e-9 !temp)
      in
      if accept then begin
        Array.blit proposal 0 current 0 nf;
        cur_mr := mr;
        if mr < !best_mr then begin
          best_mr := mr;
          best := Array.copy proposal
        end
      end
    end;
    temp := !temp *. decay
  done;
  (!best, !best_mr, initial_mr)
