(* One flat tag array holds every set: set [s] owns the [assoc] slots from
   [s * assoc], way 0 is MRU and recency decreases with the way index.
   Lines only enter a set at the MRU slot and shift down, so a set's valid
   ways always form a prefix and one valid count per set replaces per-way
   validity bits. Associativities are small (4 in the paper's
   configuration), so the shifts are open-coded: an [Array.blit] pays a C
   call per access, more than the one or two moves it performs. *)

type t = {
  params : Params.t;
  assoc : int;
  set_mask : int;
  tags : int array; (* num_sets * assoc *)
  valid : int array; (* num_sets: valid-prefix length *)
  set_miss : int array; (* num_sets: demand misses since last emptied *)
  sink : Profile_sink.t option;
  mutable evictions : int;
}

let create ?sink params =
  {
    params;
    assoc = params.Params.assoc;
    set_mask = params.Params.num_sets - 1;
    tags = Array.make (params.Params.num_sets * params.Params.assoc) (-1);
    valid = Array.make params.Params.num_sets 0;
    set_miss = Array.make params.Params.num_sets 0;
    sink;
    evictions = 0;
  }

let evictions t = t.evictions

let params t = t.params

(* Shift ways [0, n) of the set at [base] down by one, freeing way 0. *)
let[@inline] shift_down (tags : int array) base n =
  let j = ref n in
  while !j > 0 do
    Array.unsafe_set tags (base + !j) (Array.unsafe_get tags (base + !j - 1));
    decr j
  done

let hit = -2

(* The one replacement step: a hit promotes the line to MRU; a miss
   inserts it at MRU, evicting the LRU way of a full set. Returns [hit],
   or on a miss the victim line ([-1] when an invalid way was filled).
   The arrays and geometry come in as arguments so a span loop can hoist
   them out of its body. *)
let[@inline] touch t (tags : int array) (valid : int array) assoc mask line =
  let s = line land mask in
  let base = s * assoc in
  let k = Array.unsafe_get valid s in
  (* MRU fast path: sequential code re-touches the line a fall-through
     neighbour just ended in, and a way-0 hit changes no state. *)
  if k > 0 && Array.unsafe_get tags base = line then hit
  else begin
    let i = ref 1 in
    while !i < k && Array.unsafe_get tags (base + !i) <> line do
      incr i
    done;
    if !i < k then begin
      shift_down tags base !i;
      Array.unsafe_set tags base line;
      hit
    end
    else if k = assoc then begin
      t.evictions <- t.evictions + 1;
      let victim = Array.unsafe_get tags (base + k - 1) in
      shift_down tags base (k - 1);
      Array.unsafe_set tags base line;
      victim
    end
    else begin
      Array.unsafe_set valid s (k + 1);
      shift_down tags base k;
      Array.unsafe_set tags base line;
      -1
    end
  end

let report sink ~thread ~block line r =
  Profile_sink.record sink ~thread ~block ~line ~hit:(r = hit) ~victim:(if r = hit then -1 else r)

let[@inline] count_miss (set_miss : int array) mask line =
  let s = line land mask in
  Array.unsafe_set set_miss s (Array.unsafe_get set_miss s + 1)

let access_line t ~thread ~block line =
  let r = touch t t.tags t.valid t.assoc t.set_mask line in
  (match t.sink with None -> () | Some s -> report s ~thread ~block line r);
  if r = hit then true
  else begin
    count_miss t.set_miss t.set_mask line;
    false
  end

let access_span t ~thread ~block ~first ~last =
  let tags = t.tags and valid = t.valid and assoc = t.assoc and mask = t.set_mask in
  let set_miss = t.set_miss in
  let misses = ref 0 in
  (match t.sink with
  | None ->
    for line = first to last do
      if touch t tags valid assoc mask line <> hit then begin
        count_miss set_miss mask line;
        incr misses
      end
    done
  | Some s ->
    for line = first to last do
      let r = touch t tags valid assoc mask line in
      report s ~thread ~block line r;
      if r <> hit then begin
        count_miss set_miss mask line;
        incr misses
      end
    done);
  !misses

let set_misses t s = t.set_miss.(s)

let probe_line t line =
  let s = line land t.set_mask in
  let base = s * t.assoc in
  let k = t.valid.(s) in
  let i = ref 0 in
  while !i < k && t.tags.(base + !i) <> line do
    incr i
  done;
  !i < k

let prefetch_line t line =
  if probe_line t line then false
  else begin
    ignore (touch t t.tags t.valid t.assoc t.set_mask line);
    true
  end

let invalidate_all t =
  Array.fill t.valid 0 (Array.length t.valid) 0;
  Array.fill t.set_miss 0 (Array.length t.set_miss) 0

let occupancy t = Array.fold_left ( + ) 0 t.valid
