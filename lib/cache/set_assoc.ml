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

(* Hit test without state change. The set index is masked and the scan
   stays inside the set's valid prefix, so every read is in bounds. *)
let[@inline] resident (tags : int array) (valid : int array) assoc mask line =
  let s = line land mask in
  let base = s * assoc in
  let k = Array.unsafe_get valid s in
  let i = ref 0 in
  while !i < k && Array.unsafe_get tags (base + !i) <> line do
    incr i
  done;
  !i < k

(* One demand access: -1 on a hit; on a miss, the number of next-line
   fills it triggered ([degree] 0: none). A fill is {!prefetch_line}:
   each of [line+1 .. line+degree] not already resident enters at MRU. *)
let[@inline] demand t tags valid assoc mask set_miss sink degree ~thread ~block line =
  let r = touch t tags valid assoc mask line in
  (match sink with None -> () | Some s -> report s ~thread ~block line r);
  if r = hit then -1
  else begin
    count_miss set_miss mask line;
    let fills = ref 0 in
    for l = line + 1 to line + degree do
      if not (resident tags valid assoc mask l) then begin
        ignore (touch t tags valid assoc mask l);
        incr fills
      end
    done;
    !fills
  end

let access_line t ~thread ~block line =
  demand t t.tags t.valid t.assoc t.set_mask t.set_miss t.sink 0 ~thread ~block line < 0

let access_span t ~thread ~block ~first ~last =
  let tags = t.tags and valid = t.valid and assoc = t.assoc and mask = t.set_mask in
  let set_miss = t.set_miss and sink = t.sink in
  let misses = ref 0 in
  (match sink with
  | None ->
    for line = first to last do
      if touch t tags valid assoc mask line <> hit then begin
        count_miss set_miss mask line;
        incr misses
      end
    done
  | Some _ ->
    for line = first to last do
      if demand t tags valid assoc mask set_miss sink 0 ~thread ~block line >= 0 then incr misses
    done);
  !misses

let set_misses t s = t.set_miss.(s)

(* Trace replays. A stream's trace and span tables are checked once up
   front, so the loops below read them without bounds checks; the
   geometry, the arrays and every cursor live in locals. *)

type stream = {
  trace : int array;
  first : int array;
  last : int array;
  offset : int;
}

type tally = {
  accesses : int array;
  misses : int array;
  fills : int;
}

let check_stream who s =
  let n = Array.length s.first in
  if Array.length s.last <> n then invalid_arg (who ^ ": span tables differ in length");
  Array.iter
    (fun b ->
      if b < 0 || b >= n then
        invalid_arg (Printf.sprintf "%s: block id %d outside the span tables (%d blocks)" who b n);
      if Array.unsafe_get s.last b < Array.unsafe_get s.first b then
        invalid_arg (Printf.sprintf "%s: block %d spans no line" who b))
    s.trace

let check_degree who degree = if degree < 0 then invalid_arg (who ^ ": negative prefetch degree")

let replay t ~prefetch:degree s =
  check_degree "Set_assoc.replay" degree;
  check_stream "Set_assoc.replay" s;
  let trace = s.trace and first = s.first and last = s.last and off = s.offset in
  let accesses = ref 0 and misses = ref 0 and fills = ref 0 in
  if degree = 0 then
    (* Nothing happens between a block's lines: one span walk per block. *)
    for i = 0 to Array.length trace - 1 do
      let b = Array.unsafe_get trace i in
      let lo = Array.unsafe_get first b + off and hi = Array.unsafe_get last b + off in
      accesses := !accesses + (hi - lo + 1);
      misses := !misses + access_span t ~thread:0 ~block:b ~first:lo ~last:hi
    done
  else begin
    let tags = t.tags and valid = t.valid and assoc = t.assoc and mask = t.set_mask in
    let set_miss = t.set_miss and sink = t.sink in
    for i = 0 to Array.length trace - 1 do
      let b = Array.unsafe_get trace i in
      let lo = Array.unsafe_get first b + off and hi = Array.unsafe_get last b + off in
      accesses := !accesses + (hi - lo + 1);
      for line = lo to hi do
        let f = demand t tags valid assoc mask set_miss sink degree ~thread:0 ~block:b line in
        if f >= 0 then begin
          incr misses;
          fills := !fills + f
        end
      done
    done
  end;
  { accesses = [| !accesses |]; misses = [| !misses |]; fills = !fills }

(* Each step adds a thread's rate to its credit and fetches one line per
   whole unit of credit, thread 0 first. A thread's cursor is the next
   line [cur] of its current block ([blk], ending at [hi]) and the trace
   position [pos] of the block after it; [cur > hi] means the block is
   spent. A fetch past the end of the trace counts a pass and, in the same
   fetch, restarts at block 0 (an empty trace counts the pass and fetches
   nothing). The loop ends between steps, once both threads have counted a
   pass. The two threads' bodies are written out twice so their cursors
   stay in locals. *)
let corun t ~prefetch:degree ~rates:(r0, r1) s0 s1 =
  check_degree "Set_assoc.corun" degree;
  let ok r = Float.is_finite r && r > 0.0 in
  if not (ok r0 && ok r1) then invalid_arg "Set_assoc.corun: rates must be positive and finite";
  check_stream "Set_assoc.corun" s0;
  check_stream "Set_assoc.corun" s1;
  let tags = t.tags and valid = t.valid and assoc = t.assoc and mask = t.set_mask in
  let set_miss = t.set_miss and sink = t.sink in
  let trace0 = s0.trace and first0 = s0.first and last0 = s0.last and off0 = s0.offset in
  let trace1 = s1.trace and first1 = s1.first and last1 = s1.last and off1 = s1.offset in
  let n0 = Array.length trace0 and n1 = Array.length trace1 in
  let pos0 = ref 0 and blk0 = ref 0 and cur0 = ref 0 and hi0 = ref (-1) and passes0 = ref 0 in
  let pos1 = ref 0 and blk1 = ref 0 and cur1 = ref 0 and hi1 = ref (-1) and passes1 = ref 0 in
  let acc0 = ref 0 and miss0 = ref 0 and acc1 = ref 0 and miss1 = ref 0 and fills = ref 0 in
  let credit0 = ref 0.0 and credit1 = ref 0.0 in
  while !passes0 < 1 || !passes1 < 1 do
    credit0 := !credit0 +. r0;
    credit1 := !credit1 +. r1;
    while !credit0 >= 1.0 do
      credit0 := !credit0 -. 1.0;
      if !cur0 > !hi0 then begin
        if !pos0 = n0 then begin
          incr passes0;
          pos0 := 0
        end;
        if n0 > 0 then begin
          let b = Array.unsafe_get trace0 !pos0 in
          pos0 := !pos0 + 1;
          blk0 := b;
          cur0 := Array.unsafe_get first0 b + off0;
          hi0 := Array.unsafe_get last0 b + off0
        end
      end;
      if !cur0 <= !hi0 then begin
        let line = !cur0 in
        cur0 := line + 1;
        incr acc0;
        let f = demand t tags valid assoc mask set_miss sink degree ~thread:0 ~block:!blk0 line in
        if f >= 0 then begin
          incr miss0;
          fills := !fills + f
        end
      end
    done;
    while !credit1 >= 1.0 do
      credit1 := !credit1 -. 1.0;
      if !cur1 > !hi1 then begin
        if !pos1 = n1 then begin
          incr passes1;
          pos1 := 0
        end;
        if n1 > 0 then begin
          let b = Array.unsafe_get trace1 !pos1 in
          pos1 := !pos1 + 1;
          blk1 := b;
          cur1 := Array.unsafe_get first1 b + off1;
          hi1 := Array.unsafe_get last1 b + off1
        end
      end;
      if !cur1 <= !hi1 then begin
        let line = !cur1 in
        cur1 := line + 1;
        incr acc1;
        let f = demand t tags valid assoc mask set_miss sink degree ~thread:1 ~block:!blk1 line in
        if f >= 0 then begin
          incr miss1;
          fills := !fills + f
        end
      end
    done
  done;
  { accesses = [| !acc0; !acc1 |]; misses = [| !miss0; !miss1 |]; fills = !fills }


let probe_line t line = resident t.tags t.valid t.assoc t.set_mask line

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
