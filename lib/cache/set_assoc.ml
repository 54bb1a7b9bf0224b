(* One flat tag array holds every set: set [s] owns the [assoc] slots from
   [s * assoc], way 0 is MRU and recency decreases with the way index.
   Lines only enter a set at the MRU slot and shift down, so a set's valid
   ways always form a prefix and one valid count per set replaces per-way
   validity bits. Associativities are small (4 in the paper's
   configuration), so the shifts are open-coded: an [Array.blit] pays a C
   call per access, more than the one or two moves it performs. The trace
   replays keep recency as per-slot stamps while they run (see below) and
   leave every set in this layout when they return. *)

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

(* Insert a line that is not resident at MRU of set [s] (slots from
   [base], [k] of them valid), evicting the LRU way of a full set.
   Returns the victim line, or -1 when an invalid way was filled. *)
let[@inline] insert t (tags : int array) (valid : int array) assoc s base k line =
  if k = assoc then begin
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

(* The one replacement step: a hit promotes the line to MRU; a miss
   inserts it. Returns [hit], or on a miss [insert]'s victim. The arrays
   and geometry come in as arguments so a span loop can hoist them out
   of its body. *)
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
    else insert t tags valid assoc s base k line
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

(* One demand access for the span and line entry points: [true] on a
   hit. A miss counts against its set. *)
let[@inline] demand t tags valid assoc mask set_miss sink ~thread ~block line =
  let r = touch t tags valid assoc mask line in
  (match sink with None -> () | Some s -> report s ~thread ~block line r);
  if r = hit then true
  else begin
    count_miss set_miss mask line;
    false
  end

let access_line t ~thread ~block line =
  demand t t.tags t.valid t.assoc t.set_mask t.set_miss t.sink ~thread ~block line

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
      if not (demand t tags valid assoc mask set_miss sink ~thread ~block line) then incr misses
    done);
  !misses

let set_misses t s = t.set_miss.(s)

(* Trace replays. A stream's trace view and span tables are checked once
   up front, so the loops below read them without bounds checks; the
   geometry, the arrays and every cursor live in locals.

   Each replay call builds a residency index over the lines its streams
   can touch: the executed blocks' spans plus [degree] prefetch lines past
   each. Sorted, those lines fall into maximal runs of consecutive lines,
   and a run's lines take consecutive ids, so the index has one entry per
   distinct line whatever the addresses, and a line two streams share has
   one id. The index maps an id to the slot holding its line (-1: not
   resident), so a hit test is one array read, and back to its line.

   Inside the call, LRU order is a last-use stamp per slot instead of the
   slot's position: a hit writes one stamp, a miss fills the set's next
   free way or evicts the way with the smallest stamp. Stamps are unique
   and increase, so within a set their descending order is the MRU order
   the per-line step keeps. The resident ways are imported at entry (MRU
   rank as stamp; a line outside the index keeps its way, can be evicted
   and is never hit) and every set is written back MRU-first on the way
   out, an escaping exception included, so the other entry points see
   exactly the per-line state. *)

type stream = {
  trace : int array;
  length : int;
  first : int array;
  last : int array;
  offset : int;
}

type tally = {
  accesses : int array;
  misses : int array;
  fills : int;
}

let check_degree who degree = if degree < 0 then invalid_arg (who ^ ": negative prefetch degree")

(* Check a stream and lay out the span table the loops read: three words
   per block id, its first and last line (offset applied) and the id of
   its first line, filled in for executed blocks only (their id word is 1
   until [build_index] assigns ids). Returns the table and the number of
   executed blocks. *)
let check_stream who degree s =
  let n = Array.length s.first in
  if Array.length s.last <> n then invalid_arg (who ^ ": span tables differ in length");
  let trace = s.trace in
  if s.length < 0 || s.length > Array.length trace then
    invalid_arg
      (Printf.sprintf "%s: trace length %d outside its array of %d" who s.length
         (Array.length trace));
  let spans = Array.make (3 * n) 0 and executed = ref 0 in
  for i = 0 to s.length - 1 do
    let b = Array.unsafe_get trace i in
    if b < 0 || b >= n then
      invalid_arg (Printf.sprintf "%s: block id %d outside the span tables (%d blocks)" who b n);
    if Array.unsafe_get spans ((3 * b) + 2) = 0 then begin
      if Array.unsafe_get s.last b < Array.unsafe_get s.first b then
        invalid_arg (Printf.sprintf "%s: block %d spans no line" who b);
      let lo = Array.unsafe_get s.first b + s.offset in
      let hi = Array.unsafe_get s.last b + s.offset in
      if hi < lo || hi > max_int - degree then
        invalid_arg (Printf.sprintf "%s: block %d's lines overflow" who b);
      Array.unsafe_set spans (3 * b) lo;
      Array.unsafe_set spans ((3 * b) + 1) hi;
      Array.unsafe_set spans ((3 * b) + 2) 1;
      incr executed
    end
  done;
  (spans, !executed)

type index = {
  where : int array; (* id -> slot holding its line, or -1 *)
  line_of : int array; (* id -> its line *)
  slot_id : int array; (* slot -> id of the line it holds, or -1 *)
  stamp : int array; (* slot -> last use *)
}

(* The positions [0 .. m-1] in ascending [key] order: an LSD radix sort
   of the keys less their least, eight bits a pass, as many passes as the
   largest difference has bytes. The differences are read unsigned
   ([lsr]), so any two ints' difference sorts right. Ties keep no
   particular order. *)
let sort_by_key key m =
  let least = ref max_int and most = ref min_int in
  for j = 0 to m - 1 do
    let k = key.(j) in
    if k < !least then least := k;
    if k > !most then most := k
  done;
  let least = !least and range = !most - !least in
  let src = ref (Array.init m Fun.id) and dst = ref (Array.make m 0) in
  let count = Array.make 257 0 and shift = ref 0 in
  while !shift < Sys.int_size && range lsr !shift <> 0 do
    let sh = !shift and a = !src and b = !dst in
    Array.fill count 0 257 0;
    for j = 0 to m - 1 do
      let d = ((key.(a.(j)) - least) lsr sh) land 255 in
      count.(d + 1) <- count.(d + 1) + 1
    done;
    for d = 1 to 256 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for j = 0 to m - 1 do
      let i = a.(j) in
      let d = ((key.(i) - least) lsr sh) land 255 in
      b.(count.(d)) <- i;
      count.(d) <- count.(d) + 1
    done;
    src := b;
    dst := a;
    shift := sh + 8
  done;
  !src

(* The index over checked span tables: assigns every executed block its
   first line's id, then imports the cache's resident ways. Executed
   blocks that share a first line fall in one run and take one id
   whatever their order, so the sort leaves ties as they come. *)
let build_index who t degree tables =
  (* One interval [lo, hi + degree] per executed block, in line order;
     [owner] is its table and [at] its block's offset there. *)
  let m = List.fold_left (fun m (_, k) -> m + k) 0 tables in
  let owner = Array.make m [||] and at = Array.make m 0 and key = Array.make m 0 in
  let i = ref 0 in
  List.iter
    (fun (spans, _) ->
      for b = 0 to (Array.length spans / 3) - 1 do
        if spans.((3 * b) + 2) = 1 then begin
          owner.(!i) <- spans;
          at.(!i) <- 3 * b;
          key.(!i) <- spans.(3 * b);
          incr i
        end
      done)
    tables;
  let lo i = key.(i) and hi i = owner.(i).(at.(i) + 1) + degree in
  let order = sort_by_key key m in
  (* Merge into runs: [starts], [ends] and [bases] (a run's first id). *)
  let runs = ref 0 and ids = ref 0 in
  let starts = Array.make m 0 and ends = Array.make m 0 and bases = Array.make m 0 in
  Array.iter
    (fun i ->
      let r = !runs - 1 in
      if r < 0 || lo i > ends.(r) + 1 then begin
        starts.(r + 1) <- lo i;
        ends.(r + 1) <- hi i;
        bases.(r + 1) <- !ids;
        incr runs
      end
      else if hi i > ends.(r) then ends.(r) <- hi i;
      let r = !runs - 1 in
      let len = ends.(r) - starts.(r) + 1 in
      if len <= 0 || len > Sys.max_array_length - bases.(r) then
        invalid_arg (who ^ ": the streams touch more lines than an array holds");
      owner.(i).(at.(i) + 2) <- bases.(r) + (lo i - starts.(r));
      ids := bases.(r) + len)
    order;
  let x =
    {
      where = Array.make !ids (-1);
      line_of = Array.make !ids 0;
      slot_id = Array.make (Array.length t.tags) (-1);
      stamp = Array.make (Array.length t.tags) 0;
    }
  in
  for r = 0 to !runs - 1 do
    for k = 0 to ends.(r) - starts.(r) do
      x.line_of.(bases.(r) + k) <- starts.(r) + k
    done
  done;
  (* A resident line's id, by binary search over the runs; -1 outside. *)
  let id_of line =
    let a = ref 0 and b = ref !runs in
    while !b - !a > 1 do
      let mid = (!a + !b) / 2 in
      if starts.(mid) <= line then a := mid else b := mid
    done;
    if !runs > 0 && starts.(!a) <= line && line <= ends.(!a) then bases.(!a) + (line - starts.(!a))
    else -1
  in
  for s = 0 to Array.length t.valid - 1 do
    let base = s * t.assoc and k = t.valid.(s) in
    for w = 0 to k - 1 do
      let id = id_of t.tags.(base + w) in
      x.stamp.(base + w) <- k - 1 - w;
      x.slot_id.(base + w) <- id;
      if id >= 0 then x.where.(id) <- base + w
    done
  done;
  x

(* Write every set back MRU-first: an insertion sort of its valid ways
   by descending stamp. *)
let write_back t x =
  let tags = t.tags and stamp = x.stamp in
  for s = 0 to Array.length t.valid - 1 do
    let base = s * t.assoc in
    for w = base + 1 to base + t.valid.(s) - 1 do
      let st = stamp.(w) and line = tags.(w) in
      let j = ref w in
      while !j > base && stamp.(!j - 1) < st do
        stamp.(!j) <- stamp.(!j - 1);
        tags.(!j) <- tags.(!j - 1);
        decr j
      done;
      stamp.(!j) <- st;
      tags.(!j) <- line
    done
  done

(* A miss on [line] (id [id]), stamped [now]: fill the set's next free
   way, or evict the way with the smallest stamp, found without branching
   on the stamps (which way is oldest is data the predictor cannot learn;
   stamps are non-negative, so a difference's sign is their order).
   Returns the victim line, or -1 when a free way was filled. *)
let[@inline] fill t x line id now =
  let assoc = t.assoc and stamp = x.stamp and tags = t.tags in
  let s = line land t.set_mask in
  let base = s * assoc in
  let k = Array.unsafe_get t.valid s in
  let w, victim =
    if k < assoc then begin
      Array.unsafe_set t.valid s (k + 1);
      (base + k, -1)
    end
    else begin
      t.evictions <- t.evictions + 1;
      let w = ref base and oldest = ref (Array.unsafe_get stamp base) in
      for j = base + 1 to base + assoc - 1 do
        let sj = Array.unsafe_get stamp j in
        let older = (sj - !oldest) asr 62 in
        w := !w lxor ((!w lxor j) land older);
        oldest := !oldest lxor ((!oldest lxor sj) land older)
      done;
      let gone = Array.unsafe_get x.slot_id !w in
      if gone >= 0 then Array.unsafe_set x.where gone (-1);
      (!w, Array.unsafe_get tags !w)
    end
  in
  Array.unsafe_set tags w line;
  Array.unsafe_set x.slot_id w id;
  Array.unsafe_set x.where id w;
  Array.unsafe_set stamp w now;
  victim

(* One demand access, to the line with id [id], at stamp [now]: -1 on a
   hit, which writes one stamp; on a miss, the number [f] of prefetch
   fills it made. A miss takes its line from the index, fills it, counts
   against its set and fills each of [line+1 .. line+degree] not resident
   as its set's newest way, stamped [now + 1 ..]; their ids follow [id],
   since the index extends every span by [degree] lines. The caller keeps
   the clock in a local: the next access's stamp is [now + 1], or
   [now + 1 + f] after a miss. Inlined into each replay loop, miss path
   included: every instance has [sink_on] constant, so in a sinkless loop
   the sink reports fold away and the loop body makes no call, which
   would spill every loop variable around it. *)
let[@inline] access ~sink_on t x where stamp sink degree ~thread ~block ~now id =
  let w = Array.unsafe_get where id in
  if w >= 0 then begin
    Array.unsafe_set stamp w now;
    (if sink_on then
       match sink with
       | None -> ()
       | Some s -> report s ~thread ~block (Array.unsafe_get x.line_of id) hit);
    -1
  end
  else begin
    let line = Array.unsafe_get x.line_of id in
    let victim = fill t x line id now in
    (if sink_on then match sink with None -> () | Some s -> report s ~thread ~block line victim);
    count_miss t.set_miss t.set_mask line;
    let fills = ref 0 in
    for k = 1 to degree do
      if Array.unsafe_get where (id + k) < 0 then begin
        incr fills;
        ignore (fill t x (line + k) (id + k) (now + !fills))
      end
    done;
    !fills
  end

(* The solo loop, block by block: a block's lines have consecutive ids
   from its span entry's third word. *)
let[@inline] replay_loop ~sink_on t degree spans s x =
  let sink = t.sink and where = x.where and stamp = x.stamp and trace = s.trace in
  let accesses = ref 0 and misses = ref 0 and fills = ref 0 and clock = ref t.assoc in
  for i = 0 to s.length - 1 do
    let b = Array.unsafe_get trace i in
    let span = Array.unsafe_get spans ((3 * b) + 1) - Array.unsafe_get spans (3 * b) in
    let id0 = Array.unsafe_get spans ((3 * b) + 2) in
    accesses := !accesses + span + 1;
    for id = id0 to id0 + span do
      let f = access ~sink_on t x where stamp sink degree ~thread:0 ~block:b ~now:!clock id in
      clock := !clock + 1;
      if f >= 0 then begin
        incr misses;
        fills := !fills + f;
        clock := !clock + f
      end
    done
  done;
  { accesses = [| !accesses |]; misses = [| !misses |]; fills = !fills }

let replay t ~prefetch:degree s =
  let who = "Set_assoc.replay" in
  check_degree who degree;
  let table = check_stream who degree s in
  let x = build_index who t degree [ table ] in
  let spans = fst table in
  match
    if Option.is_some t.sink then replay_loop ~sink_on:true t degree spans s x
    else replay_loop ~sink_on:false t degree spans s x
  with
  | r ->
    write_back t x;
    r
  | exception e ->
    write_back t x;
    raise e

(* Co-run streams, flat. Once per call each stream is expanded into the
   ids of the lines one pass fetches, in fetch order, so the loop keeps
   one position per thread instead of a block cursor; with a sink, a
   parallel buffer holds each line's block for the reports. The buffers
   are off-heap and lent by the calling domain ([Lent]): they grow
   geometrically to the longest stream co-run in their thread slot and
   are never shrunk, so a steady state allocates nothing for them, and
   co-runs on different domains never share one. The lender refuses a
   co-run nested inside another on the same domain, which would
   overwrite the outer call's streams. *)
module Lent = Colayout_util.Lent

type lines = Lent.ints

type buffers = {
  ids : lines array; (* per thread slot: the line ids of its stream *)
  blocks : lines array; (* per thread slot: the block of each line *)
}

let domain_buffers =
  let none () = Lent.ints 0 in
  Lent.create (fun () -> { ids = [| none (); none () |]; blocks = [| none (); none () |] })

(* Run [f] holding the domain's buffers; release them however it ends. *)
let hold who f =
  Lent.hold domain_buffers ~refused:(who ^ ": a co-run is already running on this domain") f

let with_corun_buffers f = hold "Set_assoc.with_corun_buffers" (fun _ -> f ())

(* Slot [i] of [bufs], with room for at least [n] entries; a grown
   buffer keeps the first [keep] entries of the old one. *)
let reserve (bufs : lines array) i n ~keep =
  let old = bufs.(i) in
  let cap = Bigarray.Array1.dim old in
  if cap < n then begin
    let b = Lent.ints (max n (2 * cap)) in
    Bigarray.Array1.blit (Bigarray.Array1.sub old 0 keep) (Bigarray.Array1.sub b 0 keep);
    bufs.(i) <- b
  end;
  bufs.(i)

(* Expand a checked, indexed stream into slot [i] of the buffers: its
   line ids and, when [labels], each line's block. Returns the count.
   Each block writes [expand_width] entries unconditionally, whatever its
   span, and the next block starts [span + 1] entries on, overwriting the
   surplus: spans vary from block to block, and a loop bounded by the
   span mispredicts its exit about once per block. Only blocks of more
   than [expand_width] lines loop over the rest. So the buffers keep
   [expand_width - 1] entries of slack past the last line, never read.
   They grow as the expansion reaches their end, which a steady state
   never does. *)
let expand_width = 4

let expand who spans s bufs i ~labels =
  let ids = ref bufs.ids.(i) and blocks = ref bufs.blocks.(i) in
  let room ids blocks =
    if labels then min (Bigarray.Array1.dim ids) (Bigarray.Array1.dim blocks)
    else Bigarray.Array1.dim ids
  in
  let cap = ref (room !ids !blocks) in
  let p = ref 0 in
  for j = 0 to s.length - 1 do
    let b = Array.unsafe_get s.trace j in
    let span = Array.unsafe_get spans ((3 * b) + 1) - Array.unsafe_get spans (3 * b) in
    let id0 = Array.unsafe_get spans ((3 * b) + 2) in
    let q = !p in
    if q + span + expand_width > !cap then begin
      if span + expand_width > Sys.max_array_length - q then
        invalid_arg (who ^ ": a pass fetches more lines than a buffer holds");
      let n = q + span + expand_width in
      ids := reserve bufs.ids i n ~keep:q;
      if labels then blocks := reserve bufs.blocks i n ~keep:q;
      cap := room !ids !blocks
    end;
    let ids = !ids in
    Bigarray.Array1.unsafe_set ids q id0;
    Bigarray.Array1.unsafe_set ids (q + 1) (id0 + 1);
    Bigarray.Array1.unsafe_set ids (q + 2) (id0 + 2);
    Bigarray.Array1.unsafe_set ids (q + 3) (id0 + 3);
    for k = expand_width to span do
      Bigarray.Array1.unsafe_set ids (q + k) (id0 + k)
    done;
    if labels then begin
      let blocks = !blocks in
      Bigarray.Array1.unsafe_set blocks q b;
      Bigarray.Array1.unsafe_set blocks (q + 1) b;
      Bigarray.Array1.unsafe_set blocks (q + 2) b;
      Bigarray.Array1.unsafe_set blocks (q + 3) b;
      for k = expand_width to span do
        Bigarray.Array1.unsafe_set blocks (q + k) b
      done
    end;
    p := q + span + 1
  done;
  !p

(* Each step adds a thread's rate to its credit and fetches one line per
   whole unit of credit, thread 0 first. A thread's cursor is its
   position [p] in its flat stream of [n] lines; a fetch at [p = n]
   counts a pass and, in the same fetch, restarts at position 0, the
   first line of its block 0 (an empty stream counts the pass and
   fetches nothing). The loop ends between steps, once both threads have
   counted a pass, and a thread's accesses are [passes * n + p]. The two
   threads' bodies are written out twice so their cursors stay in
   locals. *)
let[@inline] corun_loop ~sink_on t degree r0 r1 (ids0 : lines) (blocks0 : lines) n0
    (ids1 : lines) (blocks1 : lines) n1 x =
  let sink = t.sink and where = x.where and stamp = x.stamp in
  let p0 = ref 0 and passes0 = ref 0 and miss0 = ref 0 and credit0 = ref 0.0 in
  let p1 = ref 0 and passes1 = ref 0 and miss1 = ref 0 and credit1 = ref 0.0 in
  let fills = ref 0 and clock = ref t.assoc in
  while !passes0 < 1 || !passes1 < 1 do
    credit0 := !credit0 +. r0;
    credit1 := !credit1 +. r1;
    while !credit0 >= 1.0 do
      credit0 := !credit0 -. 1.0;
      if !p0 = n0 then begin
        incr passes0;
        p0 := 0
      end;
      if n0 > 0 then begin
        let p = !p0 in
        p0 := p + 1;
        let block = if sink_on then Bigarray.Array1.unsafe_get blocks0 p else 0 in
        let f =
          access ~sink_on t x where stamp sink degree ~thread:0 ~block ~now:!clock
            (Bigarray.Array1.unsafe_get ids0 p)
        in
        clock := !clock + 1;
        if f >= 0 then begin
          incr miss0;
          fills := !fills + f;
          clock := !clock + f
        end
      end
    done;
    while !credit1 >= 1.0 do
      credit1 := !credit1 -. 1.0;
      if !p1 = n1 then begin
        incr passes1;
        p1 := 0
      end;
      if n1 > 0 then begin
        let p = !p1 in
        p1 := p + 1;
        let block = if sink_on then Bigarray.Array1.unsafe_get blocks1 p else 0 in
        let f =
          access ~sink_on t x where stamp sink degree ~thread:1 ~block ~now:!clock
            (Bigarray.Array1.unsafe_get ids1 p)
        in
        clock := !clock + 1;
        if f >= 0 then begin
          incr miss1;
          fills := !fills + f;
          clock := !clock + f
        end
      end
    done
  done;
  {
    accesses = [| (!passes0 * n0) + !p0; (!passes1 * n1) + !p1 |];
    misses = [| !miss0; !miss1 |];
    fills = !fills;
  }

(* The rates a co-run accepts. A step subtracts 1.0 from a credit per
   fetch, which cannot lower a credit at or above 2^53, and a tiny rate
   spends ever more empty steps before its first fetch: bounds keep the
   loop's length proportional to the streams'. *)
let min_rate = 0x1p-10

let max_rate = 0x1p10

let corun t ~prefetch:degree ~rates:(r0, r1) s0 s1 =
  let who = "Set_assoc.corun" in
  check_degree who degree;
  let ok r = r >= min_rate && r <= max_rate in
  if not (ok r0 && ok r1) then invalid_arg "Set_assoc.corun: rates must lie in [2^-10, 2^10]";
  let table0 = check_stream who degree s0 in
  let table1 = check_stream who degree s1 in
  hold who (fun bufs ->
      let x = build_index who t degree [ table0; table1 ] in
      let labels = Option.is_some t.sink in
      let n0 = expand who (fst table0) s0 bufs 0 ~labels in
      let n1 = expand who (fst table1) s1 bufs 1 ~labels in
      let ids0 = bufs.ids.(0) and blocks0 = bufs.blocks.(0) in
      let ids1 = bufs.ids.(1) and blocks1 = bufs.blocks.(1) in
      match
        if labels then corun_loop ~sink_on:true t degree r0 r1 ids0 blocks0 n0 ids1 blocks1 n1 x
        else corun_loop ~sink_on:false t degree r0 r1 ids0 blocks0 n0 ids1 blocks1 n1 x
      with
      | r ->
        write_back t x;
        r
      | exception e ->
        write_back t x;
        raise e)

let probe_line t line = resident t.tags t.valid t.assoc t.set_mask line

let prefetch_line t line =
  if probe_line t line then false
  else begin
    let s = line land t.set_mask in
    ignore (insert t t.tags t.valid t.assoc s (s * t.assoc) (Array.unsafe_get t.valid s) line);
    true
  end

let invalidate_all t =
  Array.fill t.valid 0 (Array.length t.valid) 0;
  Array.fill t.set_miss 0 (Array.length t.set_miss) 0

let occupancy t = Array.fold_left ( + ) 0 t.valid
