type report = {
  kept_symbols : int;
  total_symbols : int;
  kept_events : int;
  total_events : int;
  coverage : float;
}

let prune_default_top = 10_000

(* Smallest [b] with [2^b > n]. *)
let bits n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  go 0

(* [a] sorted ascending, by a bottom-up merge sort with the int
   comparison inline; [a] itself may be reused. *)
let sort_ints a =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.make n 0) and width = ref 1 in
  while !width < n do
    let s = !src and d = !dst and w = !width in
    let lo = ref 0 in
    while !lo < n do
      let mid = min (!lo + w) n and hi = min (!lo + (2 * w)) n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !j >= hi || (!i < mid && s.(!i) <= s.(!j)) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  !src

(* One int sort: each present symbol packed as
   [((max_count - count) lsl sb) lor symbol], so ascending keys run by
   count descending, then by symbol ascending. *)
let hot_symbols t ~top =
  if top <= 0 then invalid_arg "Prune.hot_symbols: top must be positive";
  let occ = Trace.occurrences t in
  let max_count = Array.fold_left max 0 occ in
  let sb = bits (Array.length occ) in
  if bits max_count + sb > 62 then
    invalid_arg "Prune.hot_symbols: occurrence counts and symbols exceed the packed sort key";
  let present = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 occ in
  let keys = Array.make present 0 in
  let k = ref 0 in
  for sym = 0 to Array.length occ - 1 do
    let c = occ.(sym) in
    if c > 0 then begin
      keys.(!k) <- ((max_count - c) lsl sb) lor sym;
      incr k
    end
  done;
  let keys = sort_ints keys in
  let mask = (1 lsl sb) - 1 in
  Array.init (min top present) (fun i -> keys.(i) land mask)

(* One loop over the backing array into a buffer of the trace's length,
   handed to the output trace without a copy. *)
let prune t ~top =
  let hot = hot_symbols t ~top in
  let keep = Array.make (Trace.num_symbols t) false in
  Array.iter (fun s -> keep.(s) <- true) hot;
  let n = Trace.length t and ev = Colayout_util.Int_vec.backing (Trace.events t) in
  let buf = Array.make (max n 1) 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get ev i in
    if Array.unsafe_get keep s then begin
      Array.unsafe_set buf !k s;
      incr k
    end
  done;
  let out =
    Trace.of_buffer ~name:(Trace.name t ^ ".pruned") ~num_symbols:(Trace.num_symbols t) buf ~len:!k
  in
  let total_symbols = Trace.distinct_count t in
  let total_events = Trace.length t in
  let kept_events = Trace.length out in
  let report =
    {
      kept_symbols = Array.length hot;
      total_symbols;
      kept_events;
      total_events;
      coverage = (if total_events = 0 then 1.0 else float_of_int kept_events /. float_of_int total_events);
    }
  in
  (out, report)
