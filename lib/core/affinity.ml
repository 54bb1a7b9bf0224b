open Colayout_util
open Colayout_trace

(* A pair set is a cut of a threshold table: canonical (min, max) pairs
   packed as [(lo lsl 31) lor hi], each bound to the smallest window at
   which the pair is affine. The pairs affine at [w] are those with
   threshold <= [w], so every cut of one table shares it. *)
type pair_set = {
  thresholds : Int_pair_tbl.t;
  w : int;
}

type thresholds = {
  table : Int_pair_tbl.t;
  wmax : int;
}

let canon_key x y = if x < y then Int_pair_tbl.pack x y else Int_pair_tbl.pack y x

let is_affine ps x y =
  x = y || Int_pair_tbl.find ps.thresholds (canon_key x y) ~default:max_int <= ps.w

let pair_list ps =
  Int_pair_tbl.fold
    (fun k t acc ->
      if t <= ps.w then (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k) :: acc else acc)
    ps.thresholds []
  |> List.sort compare

let require_trimmed t =
  if not (Trim.is_trimmed t) then
    invalid_arg "Affinity: trace must be trimmed (no two consecutive equal blocks)"

let check_universe trace =
  if Trace.num_symbols trace > Int_pair_tbl.max_coord then
    invalid_arg "Affinity: num_symbols >= 2^31 exceeds the packed-key coordinate bound";
  if Trace.length trace > Int_pair_tbl.max_coord then
    invalid_arg "Affinity: trace length >= 2^31 exceeds the packed-payload bound"

(* Witness bookkeeping: an occurrence of [a] is witnessed for the ordered
   pair (a, b) when some occurrence of [b] lies within footprint [fp] of
   it; at window [w] the witnesses are exactly those with [fp <= w]. One
   walk to depth [wmax] keeps, per ordered pair, one packed int
   [(last lsl 2fb) lor (cur lsl fb) lor prev]: [last] is the occurrence of
   [a] most recently witnessed, [cur] the smallest [fp] among its
   witnesses, and [prev] the largest such minimum over the earlier
   occurrences. Occurrence indices only grow, so each occurrence's
   witnesses arrive together and in order; a skipped occurrence can never
   be witnessed later, so it marks the direction dead ([last] saturated)
   and every later witness is ignored. An absent pair reads as 0. *)

(* Smallest [b] with [2^b > n]. *)
let bits n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  go 0

let thresholds trace ~wmax =
  if wmax < 1 then invalid_arg "Affinity.thresholds: wmax must be >= 1";
  require_trimmed trace;
  check_universe trace;
  let pack = Int_pair_tbl.pack and fst_of = Int_pair_tbl.fst_of and snd_of = Int_pair_tbl.snd_of in
  let imax (a : int) b = if a >= b then a else b in
  let occ = Trace.occurrences trace in
  let occ_idx = Array.make (Trace.num_symbols trace) 0 in
  (* fp counts distinct blocks, so it never exceeds the universe either. *)
  let fb = bits (min wmax (Trace.num_symbols trace)) in
  let dead_bits = bits (Array.fold_left imax 0 occ + 1) in
  if dead_bits + (2 * fb) > 62 then
    invalid_arg "Affinity.thresholds: occurrence count and wmax exceed the packed-payload bound";
  let fmask = (1 lsl fb) - 1 and dead = (1 lsl dead_bits) - 1 in
  let wits = Int_pair_tbl.create ~capacity:4096 () in
  let witness a b a_occ fp =
    let key = pack a b in
    let v = Int_pair_tbl.find wits key ~default:0 in
    let last = v lsr (2 * fb) in
    if last < a_occ then begin
      if last + 1 = a_occ then begin
        let cur = (v lsr fb) land fmask and prev = v land fmask in
        Int_pair_tbl.replace wits key ((a_occ lsl (2 * fb)) lor (fp lsl fb) lor imax cur prev)
      end
      else Int_pair_tbl.replace wits key (dead lsl (2 * fb))
    end
    else if last <> dead && fp < (v lsr fb) land fmask then
      Int_pair_tbl.replace wits key ((v land lnot (fmask lsl fb)) lor (fp lsl fb))
  in
  let stack = Lru_stack.create () in
  Trace.iter
    (fun y ->
      occ_idx.(y) <- occ_idx.(y) + 1;
      let ky = occ_idx.(y) in
      (* Walk the stack top-down. A block [x] at 1-based depth [d] has
         fp<last(x), here> = d + 1, or d if [y]'s previous occurrence lies
         above [x] (then y is already among the d-1 more-recent blocks).
         The walk and the stack are the same at every window, so cutting
         this walk at [w] gives the depth-[w] walk's witnesses. *)
      let y_seen = ref false in
      Lru_stack.iter_until_depth stack (fun d x ->
          if x = y then begin
            y_seen := true;
            true
          end
          else begin
            let fp = d + if !y_seen then 0 else 1 in
            if fp <= wmax then begin
              (* This y-occurrence sees x (backward); x's latest occurrence
                 sees y (forward). *)
              witness y x ky fp;
              witness x y occ_idx.(x) fp
            end;
            d < wmax
          end);
      Lru_stack.touch stack y)
    trace;
  (* A pair is affine at [w] iff both directions witnessed every
     occurrence ([last] reached the occurrence count) and each
     occurrence's smallest [fp] is <= [w]: its threshold is the larger of
     the two directions' maxima. *)
  let table = Int_pair_tbl.create ~capacity:1024 () in
  let bound v = imax ((v lsr fb) land fmask) (v land fmask) in
  Int_pair_tbl.iter
    (fun key v ->
      let a = fst_of key and b = snd_of key in
      if a < b && v lsr (2 * fb) = occ.(a) then begin
        let v' = Int_pair_tbl.find wits (pack b a) ~default:0 in
        if v' lsr (2 * fb) = occ.(b) then
          Int_pair_tbl.replace table key (imax (bound v) (bound v'))
      end)
    wits;
  { table; wmax }

let cut th ~w =
  if w < 1 || w > th.wmax then
    invalid_arg "Affinity.cut: w must lie in [1, wmax] of the threshold table";
  { thresholds = th.table; w }

let affine_pairs trace ~w =
  if w < 1 then invalid_arg "Affinity.affine_pairs: w must be >= 1";
  cut (thresholds trace ~wmax:w) ~w

let window_footprint trace a b =
  let lo = min a b and hi = max a b in
  if lo < 0 || hi >= Trace.length trace then invalid_arg "Affinity.window_footprint";
  let seen = Hashtbl.create 16 in
  for i = lo to hi do
    Hashtbl.replace seen (Trace.get trace i) ()
  done;
  Hashtbl.length seen

let positions_by_symbol trace =
  let pos = Array.make (Trace.num_symbols trace) [] in
  Trace.iteri (fun i s -> pos.(s) <- i :: pos.(s)) trace;
  Array.map List.rev pos

let affine_pairs_naive trace ~w =
  if w < 1 then invalid_arg "Affinity.affine_pairs_naive: w must be >= 1";
  require_trimmed trace;
  check_universe trace;
  let pos = positions_by_symbol trace in
  let present =
    List.filter (fun s -> pos.(s) <> []) (List.init (Trace.num_symbols trace) Fun.id)
  in
  (* Definition 3, directly: x is satisfied w.r.t. y iff every occurrence of
     x has some occurrence of y with window footprint <= w. The minimum
     footprint is reached at the nearest y occurrence on either side, but we
     simply scan them all — this is the oracle, not the fast path. *)
  let satisfied x y =
    List.for_all
      (fun p -> List.exists (fun q -> window_footprint trace p q <= w) pos.(y))
      pos.(x)
  in
  let pairs = Int_pair_tbl.create ~capacity:64 () in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if x < y && satisfied x y && satisfied y x then
            Int_pair_tbl.replace pairs (Int_pair_tbl.pack x y) w)
        present)
    present;
  { thresholds = pairs; w }

let partition trace ~w =
  require_trimmed trace;
  let ps = affine_pairs trace ~w in
  let first = Trace.first_occurrence trace in
  let present =
    List.init (Trace.num_symbols trace) Fun.id
    |> List.filter (fun s -> first.(s) >= 0)
    |> List.sort (fun a b -> compare first.(a) first.(b))
  in
  (* Algorithm 1's greedy grouping: each block joins the first existing group
     in which it is affine with every member. *)
  let groups : int list list ref = ref [] in
  List.iter
    (fun blk ->
      let rec place = function
        | [] -> [ [ blk ] ]
        | g :: rest ->
          if List.for_all (fun m -> is_affine ps blk m) g then (blk :: g) :: rest
          else g :: place rest
      in
      groups := place !groups)
    present;
  List.map List.rev !groups
