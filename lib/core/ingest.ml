open Colayout_util
open Colayout_trace

(* Streaming profile ingest: the online, multi-walker form of the two
   batch analysis kernels ([Trg.build], [Affinity.affine_pairs]); the
   interface states the contract and the merge algebra.

   Each kept event costs one pass of the walker's flagged [Window_stack]
   ([walk]): the symbol's flag says whether it is on the stack, and the
   pass that shifts the blocks above it down a slot makes its TRG bumps
   and witness updates on the way, in the walker's store — dense pair
   grids on small universes, packed-pair tables otherwise (one [@inline]
   source, two instances). No event scans the stack to find its
   symbol. Both stores apply one witness rule: an
   occurrence of [a] is counted into sat(a, b) at most once, when [b] sits
   within footprint w of it ([last_occ < a_occ]). The grid store keeps
   that state per trace and closes each trace into trace counts
   ([close_grids]); the table store keeps it per walker, with cumulative
   occurrence indices, which the rule tolerates because windows never
   span trace boundaries.

   With [walkers = 1] the walker runs inline in [feed_trace], on the
   trace's own event array, without staging a copy. With [walkers > 1]
   the current trace is staged in memory until [end_trace] assigns it
   round-robin (by completed-trace index — a config-deterministic
   assignment) to a walker queue; queues are drained by [Pool] tasks, one
   task per walker, whenever every walker has work. Epoch maintenance
   (dead-witness pruning) is driven by the global trace counter, so the
   pool schedule moves *where* work runs, never what is computed. *)

type config = {
  num_symbols : int;
  walkers : int;
  trg_window : int;
  affinity_w : int;
  epoch_traces : int;
}

let config ?(walkers = 1) ?(trg_window = 256) ?(affinity_w = 16) ?(epoch_traces = 0) ~num_symbols
    () =
  if num_symbols < 1 then invalid_arg "Ingest.config: num_symbols must be >= 1";
  if num_symbols > Int_pair_tbl.max_coord then
    invalid_arg "Ingest.config: num_symbols >= 2^31 exceeds the packed-key coordinate bound";
  if walkers < 1 then invalid_arg "Ingest.config: walkers must be >= 1";
  if trg_window < 1 then invalid_arg "Ingest.config: trg_window must be >= 1";
  if affinity_w < 1 then invalid_arg "Ingest.config: affinity_w must be >= 1";
  if epoch_traces < 0 then invalid_arg "Ingest.config: epoch_traces must be >= 0";
  { num_symbols; walkers; trg_window; affinity_w; epoch_traces }

(* The table store: one TRG table (undirected pair -> weight), one
   witness table (ordered pair -> packed (last_occ, sat)) and
   walker-cumulative occurrence counts (the witness rule and dead-witness
   pruning read them). *)
type tables = { trg : Int_pair_tbl.t; wits : Int_pair_tbl.t; occ : int array }

(* The grid store of one walker, every grid [n * n] and indexed
   [a * n + b]. [dir] and the trace counts [aff] (upper triangle) and
   [trc] accumulate over the walker's traces; [wit], [cur_occ] and
   [present] describe the open trace only and are cleared by
   [close_grids]. *)
type grids = {
  n : int;
  dir : int array; (* directed TRG counts *)
  wit : int array; (* per-trace (last_occ, sat) of ordered (a, b), packed *)
  aff : int array; (* traces that saturated {a, b}, a < b *)
  trc : int array; (* traces containing each symbol *)
  cur_occ : int array; (* per-trace occurrence count *)
  present : int array; (* the open trace's distinct symbols, [0 .. npresent - 1] *)
  mutable npresent : int;
  mutable live : int; (* undirected TRG entries: pairs with a nonzero [dir] cell *)
}

type store = Tables of tables | Grids of grids

(* Declared before [walker] and [t] so their same-named mutable fields
   take label priority; [stats] constructions below are type-annotated. *)
type stats = {
  traces : int;
  events : int;
  kept_events : int;
  trg_ops : int;
  wit_ops : int;
  dispatches : int;
  epochs : int;
  merges : int;
  trg_live : int;
  wits_live : int;
  dead_pruned : int;
}

(* One independent stream walker: private window stack, trim state,
   counter store and stat counters. A walker is touched either by the
   calling domain (walkers = 1) or by exactly one pool task per dispatch
   (walkers > 1) — never concurrently. *)
type walker = {
  id : int;
  stack : Window_stack.t; (* top max(trg_window, affinity_w) LRU entries *)
  store : store;
  queue : Int_vec.t Queue.t; (* completed traces awaiting this walker *)
  delta : Metrics.t option; (* walker-private registry, folded per dispatch *)
  wh_trace : Metrics.histogram option; (* ingest.trace_ns in [delta] *)
  wh_walker : Metrics.histogram option; (* ingest.walker.<id>.trace_ns in [delta] *)
  mutable last_sym : int; (* per-trace inline trimming state *)
  mutable kept_events : int;
  mutable trg_ops : int;
  mutable wit_ops : int;
  mutable dead_pruned : int;
}

type t = {
  cfg : config;
  pool : Pool.t option;
  metrics : Metrics.t option;
  h_trace : Metrics.histogram option;
  h_merge : Metrics.histogram option;
  clock : unit -> int64;
  walkers : walker array;
  mutable stage : Int_vec.t; (* current-trace staging buffer (walkers > 1) *)
  mutable next_walker : int; (* round-robin assignment cursor *)
  mutable queued : int; (* completed traces enqueued since last dispatch *)
  mutable traces : int;
  mutable events : int;
  mutable epochs : int;
  mutable merges : int;
  mutable dispatches : int;
  mutable trace_started : bool;
  mutable trace_t0 : int64;
}

let uses_grids (cfg : config) = cfg.num_symbols <= Int_pair_tbl.max_grid_universe

let make_store (cfg : config) =
  let n = cfg.num_symbols in
  if uses_grids cfg then
    Grids
      {
        n;
        dir = Array.make (n * n) 0;
        wit = Array.make (n * n) 0;
        aff = Array.make (n * n) 0;
        trc = Array.make n 0;
        cur_occ = Array.make n 0;
        present = Array.make n 0;
        npresent = 0;
        live = 0;
      }
  else
    Tables
      {
        trg = Int_pair_tbl.create ~capacity:1024 ();
        wits = Int_pair_tbl.create ~capacity:1024 ();
        occ = Array.make n 0;
      }

let make_walker (cfg : config) metrics i : walker =
  let delta =
    match metrics with Some _ when cfg.walkers > 1 -> Some (Metrics.create ()) | _ -> None
  in
  {
    id = i;
    stack =
      Window_stack.create
        ~k:(min (max cfg.trg_window cfg.affinity_w) cfg.num_symbols)
        ~num_symbols:cfg.num_symbols;
    store = make_store cfg;
    queue = Queue.create ();
    delta;
    wh_trace = Option.map (fun d -> Metrics.histogram d "ingest.trace_ns") delta;
    wh_walker =
      Option.map (fun d -> Metrics.histogram d (Printf.sprintf "ingest.walker.%d.trace_ns" i)) delta;
    last_sym = -1;
    kept_events = 0;
    trg_ops = 0;
    wit_ops = 0;
    dead_pruned = 0;
  }

let create ?pool ?metrics cfg =
  {
    cfg;
    pool;
    metrics;
    h_trace = Option.map (fun m -> Metrics.histogram m "ingest.trace_ns") metrics;
    h_merge = Option.map (fun m -> Metrics.histogram m "ingest.merge_ns") metrics;
    clock = Metrics.default_clock;
    walkers = Array.init cfg.walkers (make_walker cfg metrics);
    stage = Int_vec.create ~capacity:0 ();
    next_walker = 0;
    queued = 0;
    traces = 0;
    events = 0;
    epochs = 0;
    merges = 0;
    dispatches = 0;
    trace_started = false;
    trace_t0 = 0L;
  }

(* Exact dead-witness pruning. An occurrence of [a] can only be witnessed
   (counted into sat of (a, b)) while it is a's *latest* occurrence in
   the current trace. Maintenance runs only at trace boundaries (epoch
   checks fire in [end_trace], after queues drain), where every
   occurrence is closed: the stack resets, so no past occurrence can ever
   be witnessed again. Hence an entry is provably dead as soon as
   sat < occ(a) — some closed occurrence was missed, and the final
   walker-local test sat = occ(a) can never pass. Dropping such an entry
   cannot change the final affine set, per walker or merged: absent and
   unsaturated entries fail the saturation test identically, and a merged
   sum that misses one walker's closed occurrence can never reach the
   merged occurrence total. *)
let prune_dead_tbl occ tbl =
  let dead = Int_vec.create ~capacity:64 () in
  Int_pair_tbl.iter
    (fun key p ->
      let a = Int_pair_tbl.fst_of key in
      let sat = Int_pair_tbl.snd_of p in
      if sat < occ.(a) then Int_vec.push dead key)
    tbl;
  Int_vec.iter (fun k -> Int_pair_tbl.remove tbl k) dead;
  Int_vec.length dead

(* Witness update: one more occurrence of [a] seen by [b], counted at most
   once per occurrence. An absent key reads as 0 and is always
   overwritten, since [a_occ >= 1]. *)
let witness tbl key a_occ =
  let s = Int_pair_tbl.slot tbl key in
  let p = Int_pair_tbl.slot_get tbl s in
  if Int_pair_tbl.fst_of p < a_occ then
    Int_pair_tbl.slot_set tbl s (Int_pair_tbl.pack a_occ (Int_pair_tbl.snd_of p + 1))

let imin (a : int) b = if a <= b then a else b

let imax (a : int) b = if a >= b then a else b

(* The grid store's witness cell: (last_occ, sat) packed as
   [(last_occ lsl 31) lor sat], updated by [witness]'s rule. Per-trace
   occurrence counts stay below 2^31 (the per-walker bound of [walk_event]). *)
let sat_mask = (1 lsl 31) - 1

let[@inline] grid_witness wit j a_occ =
  let p = Array.unsafe_get wit j in
  if p lsr 31 < a_occ then Array.unsafe_set wit j ((a_occ lsl 31) lor ((p land sat_mask) + 1))

(* The per-entry updates of the walk, in the walker's store: the grids
   [g] when [dense], else the tables [tb]. [dense] is a literal at each
   use, so the grid instance is open-coded array updates and the other
   store's argument is a placeholder. *)

(* One TRG bump: block [y] sat above a recurring [x]. *)
let[@inline] trg_bump ~dense g tb x y =
  if dense then begin
    let n = g.n and dir = g.dir in
    let c = Array.unsafe_get dir ((x * n) + y) in
    Array.unsafe_set dir ((x * n) + y) (c + 1);
    (* A first bump in either direction makes a new undirected entry. *)
    if c = 0 && Array.unsafe_get dir ((y * n) + x) = 0 then g.live <- g.live + 1
  end
  else begin
    let key = if x < y then Int_pair_tbl.pack x y else Int_pair_tbl.pack y x in
    ignore (Int_pair_tbl.add_to tb.trg key 1)
  end

(* Both witness directions for [x] at occurrence [kx] and [y] within
   footprint w: this x-occurrence sees y (backward); y's latest occurrence
   sees x (forward). *)
let[@inline] witness_pair ~dense g tb x kx y =
  if dense then begin
    let n = g.n in
    grid_witness g.wit ((x * n) + y) kx;
    grid_witness g.wit ((y * n) + x) (Array.unsafe_get g.cur_occ y)
  end
  else begin
    witness tb.wits (Int_pair_tbl.pack x y) kx;
    witness tb.wits (Int_pair_tbl.pack y x) tb.occ.(y)
  end

(* The per-event kernel: one pass of the walker's flagged [Window_stack]
   for kept event [x], updating its store in place; returns [x]'s 0-based
   position before the event, or -1 when it was not on the stack.

   A block at position [i] above [x]'s previous occurrence is a TRG
   neighbour when [x] is within the TRG window, and an affinity witness
   (footprint i + 2) when i < w - 1; one below it (footprint i + 1) when
   i < w; when [x] is not on the stack, every block is "above" it. A
   present [x] is found by the pass that does the per-entry work on the
   blocks above it and shifts them down a slot; the blocks below it do
   not move. An absent [x] costs the witness loop and one [push].

   The stack keeps [max trg_window affinity_w] entries (fewer on a small
   universe). When that is no more than [trg_window], every present [x]
   is within the TRG window and the pass bumps as it goes. Otherwise
   ([trg_window < affinity_w]) whether [x] gets any bump is known only
   once it is found, so the pass does the witnesses alone, and the bumps
   follow over the shifted entries [1 .. pos] when [pos < trg_window]:
   the same bumps, in the same order. *)
let[@inline] walk ~dense t g tb (ws : Window_stack.t) x =
  let kx =
    if dense then begin
      let occ = g.cur_occ in
      let kx = occ.(x) + 1 in
      occ.(x) <- kx;
      if kx = 1 then begin
        g.present.(g.npresent) <- x;
        g.npresent <- g.npresent + 1
      end;
      kx
    end
    else begin
      let occ = tb.occ in
      occ.(x) <- occ.(x) + 1;
      occ.(x)
    end
  in
  let stk = ws.stk and depth = ws.depth in
  let tw = t.cfg.trg_window and w = t.cfg.affinity_w in
  if Bytes.unsafe_get ws.on x <> '\000' then begin
    let bump_in_pass = tw >= Array.length stk in
    let i = ref 0 and carry = ref x and y = ref (Array.unsafe_get stk 0) in
    while !y <> x && !i < w - 1 do
      let yi = !y in
      if bump_in_pass then trg_bump ~dense g tb x yi;
      witness_pair ~dense g tb x kx yi;
      Array.unsafe_set stk !i !carry;
      carry := yi;
      incr i;
      y := Array.unsafe_get stk !i
    done;
    while !y <> x do
      if bump_in_pass then trg_bump ~dense g tb x !y;
      Array.unsafe_set stk !i !carry;
      carry := !y;
      incr i;
      y := Array.unsafe_get stk !i
    done;
    Array.unsafe_set stk !i !carry;
    let pos = !i in
    if (not bump_in_pass) && pos < tw then
      for j = 1 to pos do
        trg_bump ~dense g tb x (Array.unsafe_get stk j)
      done;
    for j = pos + 1 to imin depth w - 1 do
      witness_pair ~dense g tb x kx (Array.unsafe_get stk j)
    done;
    pos
  end
  else begin
    for i = 0 to imin depth (w - 1) - 1 do
      witness_pair ~dense g tb x kx (Array.unsafe_get stk i)
    done;
    Window_stack.push ws x;
    -1
  end

(* The placeholders for the store a walk instance does not use. *)
let no_tables = { trg = Int_pair_tbl.create (); wits = Int_pair_tbl.create (); occ = [||] }

let no_grids =
  { n = 0; dir = [||]; wit = [||]; aff = [||]; trc = [||]; cur_occ = [||]; present = [||];
    npresent = 0; live = 0 }

(* Close the open trace into the trace counts: every present symbol gains
   a trace, every present pair that the trace saturates in both directions
   gains an affine trace, and the witness cells and occurrence counts the
   trace touched (only pairs of present symbols) go back to zero. *)
let close_grids g =
  let n = g.n and occ = g.cur_occ and wit = g.wit and present = g.present in
  let np = g.npresent in
  for i = 0 to np - 1 do
    let a = present.(i) in
    g.trc.(a) <- g.trc.(a) + 1;
    let oa = occ.(a) in
    for j = i + 1 to np - 1 do
      let b = present.(j) in
      let ab = (a * n) + b and ba = (b * n) + a in
      if wit.(ab) land sat_mask = oa && wit.(ba) land sat_mask = occ.(b) then begin
        let k = if a < b then ab else ba in
        g.aff.(k) <- g.aff.(k) + 1
      end;
      wit.(ab) <- 0;
      wit.(ba) <- 0
    done
  done;
  for i = 0 to np - 1 do
    occ.(present.(i)) <- 0
  done;
  g.npresent <- 0

(* One kept event per call: inline trimming, the walk, and the counters. *)
let walk_event t (wk : walker) x =
  if x <> wk.last_sym then begin
    (* Inline trimming: the batch kernels require a trimmed trace, so the
       walker drops repeats of the previous kept event. [last_sym] resets
       at trace boundaries — each trace is trimmed independently. *)
    if wk.kept_events >= Int_pair_tbl.max_coord then
      invalid_arg "Ingest: per-walker stream length >= 2^31 exceeds the packed-payload bound";
    wk.last_sym <- x;
    wk.kept_events <- wk.kept_events + 1;
    let ws = wk.stack in
    let depth = ws.depth in
    let pos =
      match wk.store with
      | Grids g -> walk ~dense:true t g no_tables ws x
      | Tables tb -> walk ~dense:false t no_grids tb ws x
    in
    (* The counts of [walk]'s updates: [ntrg] bumps, and a witness pair
       per block within footprint w above ([above]) and below ([pos + 1 ..
       below - 1]) [x]'s previous occurrence. *)
    let w = t.cfg.affinity_w in
    let ntrg = if pos >= 0 && pos < t.cfg.trg_window then pos else 0 in
    let above = imin (if pos >= 0 then pos else depth) (w - 1) in
    let below = if pos >= 0 then imin depth w else 0 in
    let nwit = 2 * (above + imax 0 (below - pos - 1)) in
    wk.trg_ops <- wk.trg_ops + ntrg;
    wk.wit_ops <- wk.wit_ops + nwit
  end

(* End the walker's current stream: the next trace starts on an empty
   stack and fresh trim state, and the grid store closes the trace. *)
let end_stream (wk : walker) =
  Window_stack.clear wk.stack;
  wk.last_sym <- -1;
  match wk.store with Grids g -> close_grids g | Tables _ -> ()

(* Drain one walker's trace queue — the body of a dispatch task. Ends
   the walker's stream after each trace (per-trace streams) and records
   per-trace walk latency into the walker's private histogram registry,
   folded into the main registry after the dispatch barrier. *)
let walker_drain t (wk : walker) =
  while not (Queue.is_empty wk.queue) do
    let tr = Queue.pop wk.queue in
    let t0 = if Option.is_some wk.delta then t.clock () else 0L in
    let ev = Int_vec.backing tr in
    for i = 0 to Int_vec.length tr - 1 do
      walk_event t wk (Array.unsafe_get ev i)
    done;
    end_stream wk;
    match wk.wh_trace with
    | Some h ->
      let dt = Int64.to_int (Int64.sub (t.clock ()) t0) in
      Metrics.observe h dt;
      (match wk.wh_walker with Some hw -> Metrics.observe hw dt | None -> ())
    | None -> ()
  done

(* Run every walker's queued traces to completion, one pool task per
   walker, then fold the walker-private metric deltas into the shared
   registry. Which domain runs which walker is schedule-dependent; what
   each walker computes is not. *)
let dispatch t =
  if t.cfg.walkers > 1 && t.queued > 0 then begin
    let idx = Array.init t.cfg.walkers Fun.id in
    let run wi = walker_drain t t.walkers.(wi) in
    (match t.pool with
    | Some pool -> ignore (Pool.map_array pool run idx)
    | None -> Array.iter run idx);
    t.queued <- 0;
    t.dispatches <- t.dispatches + 1;
    match t.metrics with
    | Some m ->
      Array.iter
        (fun (wk : walker) ->
          match wk.delta with
          | Some d ->
            Metrics.merge ~into:m d;
            Metrics.reset d
          | None -> ())
        t.walkers
    | None -> ()
  end

(* Epoch maintenance, at a trace boundary with every queue drained:
   dead-witness pruning of each walker's tables. The grid store has
   nothing to prune (its witness state lasts one trace). *)
let prune_walkers t =
  dispatch t;
  Array.iter
    (fun (wk : walker) ->
      match wk.store with
      | Tables tb -> wk.dead_pruned <- wk.dead_pruned + prune_dead_tbl tb.occ tb.wits
      | Grids _ -> ())
    t.walkers

(* The single walker's trace clock starts at the trace's first event. *)
let start_trace t =
  if not t.trace_started then begin
    t.trace_started <- true;
    t.trace_t0 <- t.clock ()
  end

(* Events already inside the config's universe, with no range check:
   one walker walks the vector's array in place, more stage it with one
   copy. *)
let feed_events t ev =
  let len = Int_vec.length ev in
  if t.cfg.walkers = 1 then begin
    if len > 0 then begin
      start_trace t;
      let wk = t.walkers.(0) and a = Int_vec.backing ev in
      for i = 0 to len - 1 do
        t.events <- t.events + 1;
        walk_event t wk (Array.unsafe_get a i)
      done
    end
  end
  else begin
    t.events <- t.events + len;
    Int_vec.append t.stage ev
  end

(* [Trace] kept every event inside the trace's universe, which is the
   config's. *)
let feed_trace t tr =
  if Trace.num_symbols tr <> t.cfg.num_symbols then
    invalid_arg "Ingest.feed_trace: trace symbol universe does not match config";
  feed_events t (Trace.events tr)

let end_trace t =
  t.traces <- t.traces + 1;
  if t.cfg.walkers = 1 then begin
    end_stream t.walkers.(0);
    if t.trace_started then begin
      (match t.h_trace with
      | Some h -> Metrics.observe h (Int64.to_int (Int64.sub (t.clock ()) t.trace_t0))
      | None -> ());
      t.trace_started <- false
    end
  end
  else begin
    if not (Int_vec.is_empty t.stage) then begin
      (* The stage itself is queued, not a copy of it; the next trace
         stages into a fresh vector. *)
      let staged = t.stage in
      t.stage <- Int_vec.create ~capacity:0 ();
      (* Round-robin by completed non-empty trace index: a pure function
         of the feed order, independent of the pool schedule. *)
      Queue.push staged t.walkers.(t.next_walker).queue;
      t.next_walker <- (t.next_walker + 1) mod t.cfg.walkers;
      t.queued <- t.queued + 1;
      if t.queued >= t.cfg.walkers then dispatch t
    end
  end;
  (match t.metrics with Some m -> Metrics.add m "ingest.traces" 1 | None -> ());
  if t.cfg.epoch_traces > 0 && t.traces mod t.cfg.epoch_traces = 0 then begin
    prune_walkers t;
    t.epochs <- t.epochs + 1
  end

let ingest_trace t tr =
  feed_trace t tr;
  end_trace t

(* All or nothing: the whole file is decoded (and range-checked) before
   its first event is fed, so a truncated or corrupt file raises with [t]
   untouched and a retry starts from a clean trace. *)
let feed_file t ~path =
  let nsym = t.cfg.num_symbols in
  let events =
    Trace_io.with_reader ~path (fun r ->
        if Trace_io.reader_num_symbols r <> nsym then
          invalid_arg "Ingest.feed_file: trace symbol universe does not match config";
        let v = Int_vec.create ~capacity:(min (Trace_io.reader_length r) (1 lsl 16)) () in
        let buf = Array.make (1 lsl 16) 0 in
        let rec go () =
          let n = Trace_io.read_chunk r buf in
          if n > 0 then begin
            for i = 0 to n - 1 do
              let x = buf.(i) in
              if x < 0 || x >= nsym then invalid_arg "Ingest.feed_file: symbol out of range";
              Int_vec.push v x
            done;
            go ()
          end
        in
        go ();
        v)
  in
  feed_events t events;
  end_trace t

let stats t : stats =
  let sum f = Array.fold_left (fun a wk -> a + f wk) 0 t.walkers in
  let live ~grid sel =
    sum (fun (wk : walker) ->
        match wk.store with Grids g -> grid g | Tables tb -> Int_pair_tbl.length (sel tb))
  in
  {
    traces = t.traces;
    events = t.events;
    kept_events = sum (fun wk -> wk.kept_events);
    trg_ops = sum (fun wk -> wk.trg_ops);
    wit_ops = sum (fun wk -> wk.wit_ops);
    dispatches = t.dispatches;
    epochs = t.epochs;
    merges = t.merges;
    trg_live = live ~grid:(fun g -> g.live) (fun tb -> tb.trg);
    wits_live = live ~grid:(fun _ -> 0) (fun tb -> tb.wits);
    dead_pruned = sum (fun wk -> wk.dead_pruned);
  }

type consensus = { trg : Trg.t; affine : int array }

let affine_list c =
  Array.to_list (Array.map (fun k -> (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k)) c.affine)

(* The grid merge: directed TRG counts and both trace counts sum across
   walkers; a pair is affine iff aff = trc(a) = trc(b) > 0. The ascending
   (a, b) sweep yields the packed keys sorted. The TRG counts sum into the
   domain's [Pair_grid], which [Trg.of_grid] reads and leaves zeroed. *)
let merge_grids t pairs =
  let n = t.cfg.num_symbols in
  let gs =
    List.filter_map
      (fun (wk : walker) -> match wk.store with Grids g -> Some g | Tables _ -> None)
      (Array.to_list t.walkers)
  in
  let trc = Array.make n 0 in
  List.iter
    (fun g ->
      for s = 0 to n - 1 do
        trc.(s) <- trc.(s) + g.trc.(s)
      done)
    gs;
  for a = 0 to n - 1 do
    let ta = trc.(a) in
    if ta > 0 then
      for b = a + 1 to n - 1 do
        if trc.(b) = ta && List.fold_left (fun acc g -> acc + g.aff.((a * n) + b)) 0 gs = ta then
          Int_vec.push pairs (Int_pair_tbl.pack a b)
      done
  done;
  Pair_grid.with_grid "Ingest.finalize" ~n (fun dir ->
      List.iter
        (fun g ->
          for i = 0 to (n * n) - 1 do
            Bigarray.Array1.unsafe_set dir i
              (Bigarray.Array1.unsafe_get dir i + Array.unsafe_get g.dir i)
          done)
        gs;
      Trg.of_grid ~num_nodes:n dir)

(* The table merge: TRG edge weights sum per key ([Trg.of_edges] adds
   repeated edges); directed witness
   saturations sum per key; occurrence counts sum per symbol; the batch
   saturation test then runs against the merged totals. *)
let merge_tables t pairs =
  let nsym = t.cfg.num_symbols in
  let tbs =
    List.filter_map
      (fun (wk : walker) -> match wk.store with Tables tb -> Some tb | Grids _ -> None)
      (Array.to_list t.walkers)
  in
  let edges = ref [] and sat = Int_pair_tbl.create ~capacity:1024 () in
  let occ = Array.make nsym 0 in
  List.iter
    (fun (tb : tables) ->
      Int_pair_tbl.iter
        (fun k w -> edges := (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k, w) :: !edges)
        tb.trg;
      Int_pair_tbl.iter (fun k p -> ignore (Int_pair_tbl.add_to sat k (Int_pair_tbl.snd_of p))) tb.wits;
      Array.iteri (fun i o -> occ.(i) <- occ.(i) + o) tb.occ)
    tbs;
  Int_pair_tbl.iter
    (fun key sat_ab ->
      let a = Int_pair_tbl.fst_of key in
      let b = Int_pair_tbl.snd_of key in
      if a < b then begin
        let sat_ba = Int_pair_tbl.find sat (Int_pair_tbl.pack b a) ~default:0 in
        if sat_ab = occ.(a) && sat_ba = occ.(b) && occ.(a) > 0 && occ.(b) > 0 then
          Int_vec.push pairs key
      end)
    sat;
  Trg.of_edges ~num_nodes:nsym !edges

(* Non-destructive merge across walkers, one path per store. Accumulation
   continues afterwards. *)
let finalize t =
  dispatch t;
  let t0 = t.clock () in
  let pairs = Int_vec.create ~capacity:64 () in
  let trg = if uses_grids t.cfg then merge_grids t pairs else merge_tables t pairs in
  let affine = Int_vec.to_array pairs in
  Array.sort compare affine;
  t.merges <- t.merges + 1;
  (match t.h_merge with
  | Some h -> Metrics.observe h (Int64.to_int (Int64.sub (t.clock ()) t0))
  | None -> ());
  { trg; affine }

(* Digests — the bit-identity contract made checkable. Both sides digest
   the same canonical renderings: the CSR edge sweep (ascending (x, y))
   and the sorted packed affine-pair array. *)

let trg_digest trg =
  let b = Buffer.create 4096 in
  Trg.iter_edges
    (fun x y w ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int y);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int w);
      Buffer.add_char b ';')
    trg;
  Digest.to_hex (Digest.string (Buffer.contents b))

let affine_digest packed =
  let b = Buffer.create 1024 in
  Array.iter
    (fun k ->
      Buffer.add_string b (string_of_int k);
      Buffer.add_char b ';')
    packed;
  Digest.to_hex (Digest.string (Buffer.contents b))

let consensus_digests c = (trg_digest c.trg, affine_digest c.affine)

(* Batch-kernel reference for a partitioned stream: run both kernels on
   each (independently trimmed) part and combine by the same algebra the
   walkers use — TRG weights sum across parts; a pair is affine for the
   union iff every part either saturates it or contains neither symbol
   (an absent symbol contributes occ = 0 = sat, which is vacuously
   saturated). *)
let batch_digests_parts ~trg_window ~affinity_w traces =
  let num_symbols =
    match traces with
    | [] -> invalid_arg "Ingest.batch_digests_parts: empty trace list"
    | tr :: _ -> Trace.num_symbols tr
  in
  List.iter
    (fun tr ->
      if Trace.num_symbols tr <> num_symbols then
        invalid_arg "Ingest.batch_digests_parts: traces disagree on the symbol universe")
    traces;
  let trimmed = List.map (fun tr -> if Trim.is_trimmed tr then tr else Trim.trim tr) traces in
  let edges = ref [] in
  List.iter
    (fun tr ->
      Trg.iter_edges (fun x y w -> edges := (x, y, w) :: !edges) (Trg.build ~window:trg_window tr))
    trimmed;
  let trg = Trg.of_edges ~num_nodes:num_symbols !edges in
  let parts =
    List.map
      (fun tr ->
        let present = Array.make num_symbols false in
        Trace.iter (fun s -> present.(s) <- true) tr;
        let pairs = Hashtbl.create 64 in
        List.iter
          (fun (a, b) -> Hashtbl.replace pairs (Int_pair_tbl.pack a b) ())
          (Affinity.pair_list (Affinity.affine_pairs tr ~w:affinity_w));
        (present, pairs))
      trimmed
  in
  let cand = Hashtbl.create 64 in
  List.iter (fun (_, pairs) -> Hashtbl.iter (fun k () -> Hashtbl.replace cand k ()) pairs) parts;
  let keep =
    Hashtbl.fold
      (fun k () acc ->
        let a = Int_pair_tbl.fst_of k and b = Int_pair_tbl.snd_of k in
        if
          List.for_all
            (fun (present, pairs) ->
              Hashtbl.mem pairs k || ((not present.(a)) && not present.(b)))
            parts
        then k :: acc
        else acc)
      cand []
  in
  let packed = Array.of_list keep in
  Array.sort compare packed;
  (trg_digest trg, affine_digest packed)
