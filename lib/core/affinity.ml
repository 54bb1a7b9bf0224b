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

let iter_pairs f ps =
  Int_pair_tbl.iter
    (fun k t -> if t <= ps.w then f (Int_pair_tbl.fst_of k) (Int_pair_tbl.snd_of k))
    ps.thresholds

let int_order (a : int) b = if a < b then -1 else if a > b then 1 else 0

let pair_list ps =
  let acc = ref [] in
  iter_pairs (fun x y -> acc := (x, y) :: !acc) ps;
  List.sort (fun (x, y) (x', y') -> if x <> x' then int_order x x' else int_order y y') !acc

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

let imin (a : int) b = if a <= b then a else b

let imax (a : int) b = if a >= b then a else b

(* The payload of a pair after witnessing occurrence [a_occ] at
   footprint [fp], in the layout above: [fb] bits per footprint field
   ([fmask] their mask) and [dead] the saturated [last]. An absent pair
   reads as 0 and is always overwritten: [a_occ >= 1]. *)
let[@inline] next ~fb ~fmask ~dead v a_occ fp =
  let last = v lsr (2 * fb) in
  if last < a_occ then
    if last + 1 = a_occ then begin
      let cur = (v lsr fb) land fmask and prev = v land fmask in
      (a_occ lsl (2 * fb)) lor (fp lsl fb) lor imax cur prev
    end
    else dead lsl (2 * fb)
  else if last <> dead && fp < (v lsr fb) land fmask then
    (v land lnot (fmask lsl fb)) lor (fp lsl fb)
  else v

(* The dense path's layout. Pair [lo < hi] is number
   [p = hi * (hi - 1) / 2 + lo], the lower triangle in row-major order.
   It owns grid cells [2p], the payload of (lo, hi), and [2p + 1], that
   of (hi, lo): both directions share a cache line, and one visit writes
   both; the cells fill [n * (n - 1)] of the [n * n] grid. It also owns
   byte [p] of the pair marks ([Pair_grid.marks]): untouched (0), live
   (both cells hold payloads) or dead (a direction died: both cells are
   0 again). [dead] is absorbing in [next] and one dead direction makes
   the threshold 0, so a dead pair's visits could change nothing: they
   read only its mark. *)
let live_mark = '\001'

let dead_mark = '\002'

(* One witness of the ordered pair (a, b), in the packed-pair table of a
   universe above [Int_pair_tbl.max_grid_universe]. *)
let[@inline] witness wits ~fb ~fmask ~dead a b a_occ fp =
  let s = Int_pair_tbl.slot wits (Int_pair_tbl.pack a b) in
  let v = Int_pair_tbl.slot_get wits s in
  let v' = next ~fb ~fmask ~dead v a_occ fp in
  if v' <> v then Int_pair_tbl.slot_set wits s v'

(* One walk step's visit to the pair {a, b}: a witness of (a, b) at
   occurrence [ka] and one of (b, a) at [kb], both at footprint [fp].
   Within [Int_pair_tbl.max_grid_universe] the payloads live in the
   domain's [Pair_grid], where an absent pair is a 0 cell, behind the
   pair's mark; larger universes keep them in a packed-pair table. Same
   values either way. [dense] is a literal at each use, so the grid
   instance makes no call. *)
let[@inline] visit ~dense (grid : Pair_grid.t) marks wits ~fb ~fmask ~dead a b ka kb fp =
  if dense then begin
    (* [d] is 1 when [a > b] (the sign bit of [b - a]): the pair's order
       without a branch on it. *)
    let d = (b - a) lsr 62 in
    let lo = a lxor ((a lxor b) land -d) in
    let hi = a lxor b lxor lo in
    let p = (hi * (hi - 1) / 2) + lo in
    if Bytes.unsafe_get marks p <> dead_mark then begin
      let i = (2 * p) + d and j = (2 * p) + 1 - d in
      let va = next ~fb ~fmask ~dead (Bigarray.Array1.unsafe_get grid i) ka fp in
      let vb = next ~fb ~fmask ~dead (Bigarray.Array1.unsafe_get grid j) kb fp in
      if va lsr (2 * fb) = dead || vb lsr (2 * fb) = dead then begin
        Bigarray.Array1.unsafe_set grid i 0;
        Bigarray.Array1.unsafe_set grid j 0;
        Bytes.unsafe_set marks p dead_mark
      end
      else begin
        Bigarray.Array1.unsafe_set grid i va;
        Bigarray.Array1.unsafe_set grid j vb;
        Bytes.unsafe_set marks p live_mark
      end
    end
  end
  else begin
    witness wits ~fb ~fmask ~dead a b ka fp;
    witness wits ~fb ~fmask ~dead b a kb fp
  end

(* The walk over the trace's events, in place, on the flagged
   [Window_stack]. [occ_idx] counts each symbol's occurrences so far. *)
let[@inline] walk ~dense grid marks wits n ~fb ~fmask ~dead ~wmax trace occ_idx =
  let ev = Int_vec.backing (Trace.events trace) in
  (* No walk reads past depth [wmax]: the top [wmax] LRU entries suffice. *)
  let ws = Window_stack.create ~k:(imax 1 (imin wmax n)) ~num_symbols:n in
  let stk = ws.stk and on = ws.on in
  for t = 0 to Trace.length trace - 1 do
    let y = Array.unsafe_get ev t in
    let ky = occ_idx.(y) + 1 in
    occ_idx.(y) <- ky;
    (* Walk the stack top-down. A block [x] at 0-based position [i] has
       fp<last(x), here> = i + 2, or i + 1 if [y]'s previous occurrence
       lies above [x] (then y is already among the more-recent blocks).
       The walk and the stack are the same at every window, so cutting
       this walk at [w] gives the depth-[w] walk's witnesses. Each
       position feeds both directions: this y-occurrence sees x
       (backward); x's latest occurrence sees y (forward). A [y] on the
       stack sits within the top [wmax] entries, so every block above it
       is within the window: the pass that reaches [y] witnesses each and
       shifts it down a slot, and the blocks below it do not move. *)
    let depth = ws.depth in
    if Bytes.unsafe_get on y <> '\000' then begin
      let i = ref 0 and carry = ref y and x = ref (Array.unsafe_get stk 0) in
      while !x <> y do
        let xi = !x in
        visit ~dense grid marks wits ~fb ~fmask ~dead y xi ky occ_idx.(xi) (!i + 2);
        Array.unsafe_set stk !i !carry;
        carry := xi;
        incr i;
        x := Array.unsafe_get stk !i
      done;
      Array.unsafe_set stk !i !carry;
      for i = !i + 1 to depth - 1 do
        let x = Array.unsafe_get stk i in
        visit ~dense grid marks wits ~fb ~fmask ~dead y x ky occ_idx.(x) (i + 1)
      done
    end
    else begin
      for i = 0 to imin depth (wmax - 1) - 1 do
        let x = Array.unsafe_get stk i in
        visit ~dense grid marks wits ~fb ~fmask ~dead y x ky occ_idx.(x) (i + 2)
      done;
      Window_stack.push ws y
    end
  done

(* A pair is affine at [w] iff both directions witnessed every
   occurrence ([last] reached the occurrence count) and each occurrence's
   smallest [fp] is <= [w]: its threshold is the larger of the two
   directions' maxima. [v] is (a, b)'s payload and [v'] (b, a)'s; 0 when
   the pair is not affine at any window up to [wmax] (a threshold is at
   least 1). *)
let[@inline] threshold occ ~fb ~fmask a b v v' =
  if v lsr (2 * fb) = occ.(a) && v' lsr (2 * fb) = occ.(b) then
    let bound v = imax ((v lsr fb) land fmask) (v land fmask) in
    imax (bound v) (bound v')
  else 0

(* The grid's read-out, which leaves it and the marks zeroed. One
   sequential pass over the marks, eight at a time where all eight are 0
   (most pairs are never visited), zeroes each mark it finds and reads
   and zeroes both cells of each live pair, keeping each affine pair's
   key and threshold in [found]; untouched and dead pairs' cells are
   already 0. Pair [p] lies in row [hi] of the lower triangle, which
   starts at [row = hi * (hi - 1) / 2]. The thresholds then go into
   [table] in ascending (a, b) order, so which slot each takes does not
   depend on the grid's cell order. *)
let read_grid (grid : Pair_grid.t) marks n occ ~fb ~fmask table =
  let found = Int_vec.create ~capacity:1024 () in
  let pairs = n * (n - 1) / 2 in
  let hi = ref 1 and row = ref 0 and p = ref 0 in
  while !p < pairs do
    let p0 = !p in
    if p0 land 7 = 0 && p0 + 8 <= pairs && Int64.equal (Bytes.get_int64_ne marks p0) 0L then
      p := p0 + 8
    else begin
      let m = Bytes.unsafe_get marks p0 in
      if m <> '\000' then begin
        while p0 >= !row + !hi do
          row := !row + !hi;
          incr hi
        done;
        let lo = p0 - !row and hi = !hi in
        Bytes.unsafe_set marks p0 '\000';
        if m = live_mark then begin
          let i = 2 * p0 in
          let v = Bigarray.Array1.unsafe_get grid i in
          let v' = Bigarray.Array1.unsafe_get grid (i + 1) in
          Bigarray.Array1.unsafe_set grid i 0;
          Bigarray.Array1.unsafe_set grid (i + 1) 0;
          let t = threshold occ ~fb ~fmask lo hi v v' in
          if t <> 0 then Int_vec.push found ((Int_pair_tbl.pack lo hi lsl fb) lor t)
        end
      end;
      p := p0 + 1
    end
  done;
  (* [found] holds [(key lsl fb) lor threshold] in ascending (hi, lo)
     order: a stable counting sort on [lo] puts it in ascending (lo, hi)
     order. *)
  let len = Int_vec.length found and f = Int_vec.backing found in
  let lo_of e = Int_pair_tbl.fst_of (e lsr fb) in
  let start = Array.make (n + 1) 0 in
  for j = 0 to len - 1 do
    let lo = lo_of f.(j) in
    start.(lo + 1) <- start.(lo + 1) + 1
  done;
  for lo = 1 to n do
    start.(lo) <- start.(lo) + start.(lo - 1)
  done;
  let sorted = Array.make len 0 in
  for j = 0 to len - 1 do
    let e = f.(j) in
    let lo = lo_of e in
    sorted.(start.(lo)) <- e;
    start.(lo) <- start.(lo) + 1
  done;
  Array.iter (fun e -> Int_pair_tbl.replace table (e lsr fb) (e land fmask)) sorted

let thresholds trace ~wmax =
  if wmax < 1 then invalid_arg "Affinity.thresholds: wmax must be >= 1";
  require_trimmed trace;
  check_universe trace;
  let n = Trace.num_symbols trace in
  let occ = Trace.occurrences trace in
  let occ_idx = Array.make n 0 in
  (* fp counts distinct blocks, so it never exceeds the universe either. *)
  let fb = bits (imin wmax n) in
  let dead_bits = bits (Array.fold_left imax 0 occ + 1) in
  if dead_bits + (2 * fb) > 62 then
    invalid_arg "Affinity.thresholds: occurrence count and wmax exceed the packed-payload bound";
  let fmask = (1 lsl fb) - 1 and dead = (1 lsl dead_bits) - 1 in
  let table = Int_pair_tbl.create ~capacity:1024 () in
  if n <= Int_pair_tbl.max_grid_universe then
    Pair_grid.with_grid_marks "Affinity.thresholds" ~n (fun grid marks ->
        let wits = Int_pair_tbl.create ~capacity:0 () in
        walk ~dense:true grid marks wits n ~fb ~fmask ~dead ~wmax trace occ_idx;
        read_grid grid marks n occ ~fb ~fmask table)
  else begin
    let wits = Int_pair_tbl.create ~capacity:4096 () in
    let no_grid = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0 in
    walk ~dense:false no_grid Bytes.empty wits n ~fb ~fmask ~dead ~wmax trace occ_idx;
    Int_pair_tbl.iter
      (fun key v ->
        let a = Int_pair_tbl.fst_of key and b = Int_pair_tbl.snd_of key in
        if a < b then begin
          let v' = Int_pair_tbl.find wits (Int_pair_tbl.pack b a) ~default:0 in
          let t = threshold occ ~fb ~fmask a b v v' in
          if t <> 0 then Int_pair_tbl.replace table key t
        end)
      wits
  end;
  { table; wmax }

let cut th ~w =
  if w < 1 || w > th.wmax then
    invalid_arg "Affinity.cut: w must lie in [1, wmax] of the threshold table";
  { thresholds = th.table; w }

let affine_pairs trace ~w =
  if w < 1 then invalid_arg "Affinity.affine_pairs: w must be >= 1";
  cut (thresholds trace ~wmax:w) ~w

let window_footprint trace a b =
  let lo = imin a b and hi = imax a b in
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

let thresholds_naive trace ~ws =
  let table = Int_pair_tbl.create ~capacity:64 () in
  (* Affinity is monotone in w, so each pair keeps the first window of
     [ws] at which the oracle finds it. *)
  List.iter
    (fun w ->
      Int_pair_tbl.iter
        (fun k _ -> if not (Int_pair_tbl.mem table k) then Int_pair_tbl.replace table k w)
        (affine_pairs_naive trace ~w).thresholds)
    ws;
  { table; wmax = List.fold_left imax 1 ws }

let iter_thresholds f th =
  Int_pair_tbl.iter (fun k t -> f (Int_pair_tbl.fst_of k) (Int_pair_tbl.snd_of k) t) th.table

let partition trace ~w =
  require_trimmed trace;
  let ps = affine_pairs trace ~w in
  let first = Trace.first_occurrence trace in
  let present =
    List.init (Trace.num_symbols trace) Fun.id
    |> List.filter (fun s -> first.(s) >= 0)
    |> List.sort (fun a b -> int_order first.(a) first.(b))
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
