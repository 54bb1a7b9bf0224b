open Colayout_util
open Colayout_trace

(* Streaming profile ingest: the online, sharded, multi-walker form of the
   two batch analysis kernels ([Trg.build], [Affinity.affine_pairs]).

   Each event costs one walk: the walker keeps the top
   max(trg_window, affinity_w) entries of its LRU stack in a flat
   [Window_stack] (no kernel reads deeper), finds the event's symbol with
   one scan, then runs the TRG loop and the affinity loop over the same
   array and bumps its tables in place. The tables are flat int-packed
   open-addressing tables, sharded by a hash of the packed pair key (the
   caps of bounded mode apply per shard) and, with [walkers > 1],
   privatized per walker: no locks and no cross-walker writes anywhere.

   Stream semantics: every completed trace is an independent stream. Each
   walker resets its LRU stack and trimming state at trace boundaries, so
   the per-trace walk replicates the batch kernels on that trace alone
   (occurrence indices are walker-cumulative, which the witness update
   rule tolerates — see [finalize]). This is what makes the result a pure
   function of the *multiset* of traces, invariant under how they are
   partitioned across walkers:

   - TRG edge weights are sums of per-trace window co-occurrence counts,
     so walker-local tables merge by summing weights per key.
   - An affinity witness entry for directed (a, b) carries (last_occ,
     sat): sat counts occurrences of [a] witnessed by [b] within window
     footprint w. Within one walker, each global occurrence is counted at
     most once (the [last_occ < a_occ] guard), and since windows never
     span trace boundaries, sat decomposes as a sum of per-trace
     saturations. Across walkers sat values therefore merge by summing,
     and the final test "sat(a,b) = occ(a) in both directions" holds for
     the merged stream iff it holds per trace — exactly the batch
     kernels' saturated-pair condition on each part.

   So [finalize] digests are bit-identical at any (walkers, shards, jobs)
   point, in exact configurations. Bounded memory (caps, decay) is a
   deterministic function of the config *including* [walkers] — like
   [shards], the walker count selects which approximation you get, while
   [jobs] (the pool width) never changes any result.

   With [walkers = 1] the walker runs inline in [feed_sym] and can stream
   arbitrarily long traces without materializing them. With [walkers > 1]
   the current trace is staged in memory until [end_trace] assigns it
   round-robin (by completed-trace index — a config-deterministic
   assignment) to a walker queue; queues are drained by [Pool] tasks, one
   task per walker, whenever every walker has work. Flush points (cap
   eviction) are driven by walker-local update counts and epoch
   maintenance by the global trace counter, so the pool schedule moves
   *where* work runs, never what is computed. *)

type config = {
  num_symbols : int;
  walkers : int;
  shards : int;
  trg_window : int;
  affinity_w : int;
  trg_cap : int;
  wits_cap : int;
  decay_shift : int;
  epoch_traces : int;
  prune_dead : bool;
  flush_ops : int;
}

let config ?(walkers = 1) ?(shards = 1) ?(trg_window = 256) ?(affinity_w = 16) ?(trg_cap = 0)
    ?(wits_cap = 0) ?(decay_shift = 0) ?(epoch_traces = 0) ?(prune_dead = true)
    ?(flush_ops = 1 lsl 16) ~num_symbols () =
  if num_symbols < 1 then invalid_arg "Ingest.config: num_symbols must be >= 1";
  if num_symbols > Int_pair_tbl.max_coord then
    invalid_arg "Ingest.config: num_symbols >= 2^31 exceeds the packed-key coordinate bound";
  if walkers < 1 then invalid_arg "Ingest.config: walkers must be >= 1";
  if shards < 1 then invalid_arg "Ingest.config: shards must be >= 1";
  if trg_window < 1 then invalid_arg "Ingest.config: trg_window must be >= 1";
  if affinity_w < 1 then invalid_arg "Ingest.config: affinity_w must be >= 1";
  if trg_cap < 0 || wits_cap < 0 then invalid_arg "Ingest.config: caps must be >= 0";
  if decay_shift < 0 then invalid_arg "Ingest.config: decay_shift must be >= 0";
  if epoch_traces < 0 then invalid_arg "Ingest.config: epoch_traces must be >= 0";
  if flush_ops < 1 then invalid_arg "Ingest.config: flush_ops must be >= 1";
  {
    num_symbols;
    walkers;
    shards;
    trg_window;
    affinity_w;
    trg_cap;
    wits_cap;
    decay_shift;
    epoch_traces;
    prune_dead;
    flush_ops;
  }

type shard = { trg : Int_pair_tbl.t; wits : Int_pair_tbl.t }

(* Declared before [walker] and [t] so their same-named mutable fields
   take label priority; [stats] constructions below are type-annotated. *)
type stats = {
  traces : int;
  events : int;
  kept_events : int;
  trg_ops : int;
  wit_ops : int;
  flushes : int;
  dispatches : int;
  epochs : int;
  merges : int;
  trg_live : int;
  wits_live : int;
  trg_peak_shard : int;
  wits_peak_shard : int;
  trg_evicted : int;
  wits_evicted : int;
  decay_dropped : int;
  dead_pruned : int;
}

(* One independent stream walker: private window stack, trim state,
   shard tables, occurrence counts and stat counters. A walker is touched
   either by the calling domain (walkers = 1) or by exactly one pool task
   per dispatch (walkers > 1) — never concurrently. *)
type walker = {
  id : int;
  stack : Window_stack.t; (* top max(trg_window, affinity_w) LRU entries *)
  occ : int array; (* walker-cumulative occurrence count per symbol *)
  shards : shard array;
  queue : int array Queue.t; (* completed traces awaiting this walker *)
  delta : Metrics.t option; (* walker-private registry, folded per dispatch *)
  wh_trace : Metrics.histogram option; (* ingest.trace_ns in [delta] *)
  wh_walker : Metrics.histogram option; (* ingest.walker.<id>.trace_ns in [delta] *)
  mutable last_sym : int; (* per-trace inline trimming state *)
  mutable pending_ops : int;
  mutable kept_events : int;
  mutable trg_ops : int;
  mutable wit_ops : int;
  mutable flushes : int;
  mutable trg_peak_shard : int;
  mutable wits_peak_shard : int;
  mutable trg_evicted : int;
  mutable wits_evicted : int;
  mutable decay_dropped : int;
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
  stage : Int_vec.t; (* current-trace staging buffer (walkers > 1) *)
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

let make_walker (cfg : config) metrics i : walker =
  let delta =
    match metrics with Some _ when cfg.walkers > 1 -> Some (Metrics.create ()) | _ -> None
  in
  {
    id = i;
    stack =
      Window_stack.create ~k:(min (max cfg.trg_window cfg.affinity_w) cfg.num_symbols);
    occ = Array.make cfg.num_symbols 0;
    shards =
      Array.init cfg.shards (fun _ ->
          {
            trg = Int_pair_tbl.create ~capacity:1024 ();
            wits = Int_pair_tbl.create ~capacity:1024 ();
          });
    queue = Queue.create ();
    delta;
    wh_trace = Option.map (fun d -> Metrics.histogram d "ingest.trace_ns") delta;
    wh_walker =
      Option.map (fun d -> Metrics.histogram d (Printf.sprintf "ingest.walker.%d.trace_ns" i)) delta;
    last_sym = -1;
    pending_ops = 0;
    kept_events = 0;
    trg_ops = 0;
    wit_ops = 0;
    flushes = 0;
    trg_peak_shard = 0;
    wits_peak_shard = 0;
    trg_evicted = 0;
    wits_evicted = 0;
    decay_dropped = 0;
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
    stage = Int_vec.create ~capacity:(if cfg.walkers > 1 then 4096 else 0) ();
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

let config_of t = t.cfg

(* splitmix64-style finisher over the packed key. Shard choice must be a
   pure function of the key (never of arrival order) so one key's updates
   always land in one shard's table. *)
let mix k =
  let h = k lxor (k lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let shard_of t key = if t.cfg.shards = 1 then 0 else mix key mod t.cfg.shards

(* Deterministic cap eviction: drop the (rank, key) — smallest entries
   until the table is back under [cap]. The key tiebreak makes the order
   total, so the survivors depend only on the table contents, which are
   themselves determined by the walker's stream. *)
let evict_to_cap tbl ~cap ~rank =
  let n = Int_pair_tbl.length tbl in
  if cap <= 0 || n <= cap then 0
  else begin
    let entries = Array.make n (0, 0) in
    let i = ref 0 in
    Int_pair_tbl.iter
      (fun k v ->
        entries.(!i) <- (rank k v, k);
        incr i)
      tbl;
    Array.sort compare entries;
    let drop = n - cap in
    for j = 0 to drop - 1 do
      Int_pair_tbl.remove tbl (snd entries.(j))
    done;
    drop
  end

(* Halve-ish TRG weights at epoch boundaries; entries decayed to zero are
   forgotten. Rebuild rather than replace-in-place: a replace can resize
   the table mid-iteration. *)
let decay_tbl tbl shift =
  let n = Int_pair_tbl.length tbl in
  if n = 0 then 0
  else begin
    let ks = Array.make n 0 and vs = Array.make n 0 in
    let i = ref 0 in
    Int_pair_tbl.iter
      (fun k v ->
        ks.(!i) <- k;
        vs.(!i) <- v;
        incr i)
      tbl;
    Int_pair_tbl.clear tbl;
    let dropped = ref 0 in
    for j = 0 to n - 1 do
      let w = vs.(j) lsr shift in
      if w > 0 then Int_pair_tbl.replace tbl ks.(j) w else incr dropped
    done;
    !dropped
  end

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
   merged occurrence total. This is why pruning stays on even in
   digest-checked exact configurations. *)
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

(* A walker's maintenance point. Table updates are applied as the walk
   emits them, so a flush only runs epoch maintenance (decay, dead-witness
   pruning) when [maintain], then cap eviction, then records the shard
   peaks. Bounded-mode results depend only on where flush points fall
   ([flush_ops] updates, epochs): nothing evicts between two of them, so
   the tables a flush sees do not depend on when each update landed. *)
let flush_walker t (wk : walker) ~maintain =
  if wk.pending_ops > 0 || maintain then begin
    for s = 0 to t.cfg.shards - 1 do
      let sh = wk.shards.(s) in
      if maintain && t.cfg.decay_shift > 0 then
        wk.decay_dropped <- wk.decay_dropped + decay_tbl sh.trg t.cfg.decay_shift;
      if maintain && t.cfg.prune_dead then
        wk.dead_pruned <- wk.dead_pruned + prune_dead_tbl wk.occ sh.wits;
      wk.trg_evicted <- wk.trg_evicted + evict_to_cap sh.trg ~cap:t.cfg.trg_cap ~rank:(fun _ w -> w);
      wk.wits_evicted <-
        wk.wits_evicted
        + evict_to_cap sh.wits ~cap:t.cfg.wits_cap ~rank:(fun _ p -> Int_pair_tbl.fst_of p);
      wk.trg_peak_shard <- max wk.trg_peak_shard (Int_pair_tbl.length sh.trg);
      wk.wits_peak_shard <- max wk.wits_peak_shard (Int_pair_tbl.length sh.wits)
    done;
    wk.pending_ops <- 0;
    wk.flushes <- wk.flushes + 1
  end

(* Witness update: one more occurrence of [a] seen by [b], counted at most
   once per occurrence. An absent key reads as 0 and is always
   overwritten, since [a_occ >= 1]. *)
let witness tbl key a_occ =
  let s = Int_pair_tbl.slot tbl key in
  let p = Int_pair_tbl.slot_get tbl s in
  if Int_pair_tbl.fst_of p < a_occ then
    Int_pair_tbl.slot_set tbl s (Int_pair_tbl.pack a_occ (Int_pair_tbl.snd_of p + 1))

(* Both directions for blocks [x] and [y] within footprint w: this
   x-occurrence sees y (backward); y's latest occurrence sees x (forward). *)
let witness_both t (wk : walker) x kx y =
  let kxy = Int_pair_tbl.pack x y and kyx = Int_pair_tbl.pack y x in
  witness wk.shards.(shard_of t kxy).wits kxy kx;
  witness wk.shards.(shard_of t kyx).wits kyx wk.occ.(y)

(* The per-event kernel: one scan of the window stack finds [x], then the
   TRG loop ([Trg.build]'s) and the affinity loop ([Affinity.thresholds]'
   at the single window w) run over the same array, bumping the walker's
   shard tables directly. *)
let walk_event t (wk : walker) x =
  if x <> wk.last_sym then begin
    (* Inline trimming: the batch kernels require a trimmed trace, so the
       walker drops repeats of the previous kept event. [last_sym] resets
       at trace boundaries — each trace is trimmed independently. *)
    if wk.kept_events >= Int_pair_tbl.max_coord then
      invalid_arg "Ingest: per-walker stream length >= 2^31 exceeds the packed-payload bound";
    wk.last_sym <- x;
    wk.kept_events <- wk.kept_events + 1;
    let occ = wk.occ in
    occ.(x) <- occ.(x) + 1;
    let kx = occ.(x) in
    let ws = wk.stack in
    let stk = ws.stk in
    let pos = Window_stack.find ws x in
    let depth = ws.depth in
    (* TRG: x recurred within the window; one bump per block above it. *)
    let ntrg = if pos >= 0 && pos < t.cfg.trg_window then pos else 0 in
    for i = 0 to ntrg - 1 do
      let y = Array.unsafe_get stk i in
      let key = if x < y then Int_pair_tbl.pack x y else Int_pair_tbl.pack y x in
      ignore (Int_pair_tbl.add_to wk.shards.(shard_of t key).trg key 1)
    done;
    (* Affinity at window w: a block at position i has footprint i + 2
       above x's previous occurrence (or everywhere when x is not on the
       stack) and i + 1 below it; it is a witness when that is <= w. *)
    let w = t.cfg.affinity_w in
    let above = min (if pos >= 0 then pos else depth) (w - 1) in
    let below = if pos >= 0 then min depth w else 0 in
    for i = 0 to above - 1 do
      witness_both t wk x kx (Array.unsafe_get stk i)
    done;
    for i = pos + 1 to below - 1 do
      witness_both t wk x kx (Array.unsafe_get stk i)
    done;
    Window_stack.move_to_front ws ~pos x;
    let nwit = 2 * (above + max 0 (below - pos - 1)) in
    wk.trg_ops <- wk.trg_ops + ntrg;
    wk.wit_ops <- wk.wit_ops + nwit;
    wk.pending_ops <- wk.pending_ops + ntrg + nwit;
    if wk.pending_ops >= t.cfg.flush_ops then flush_walker t wk ~maintain:false
  end

(* Drain one walker's trace queue — the body of a dispatch task. Resets
   the stack and trim state before each trace (per-trace streams) and
   records per-trace walk latency into the walker's private histogram
   registry, folded into the main registry after the dispatch barrier. *)
let walker_drain t (wk : walker) =
  while not (Queue.is_empty wk.queue) do
    let arr = Queue.pop wk.queue in
    let t0 = if Option.is_some wk.delta then t.clock () else 0L in
    Window_stack.clear wk.stack;
    wk.last_sym <- -1;
    Array.iter (fun x -> walk_event t wk x) arr;
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

(* Walkers flush in parallel (each touches only its own tables); a
   single walker flushes inline. *)
let flush_all t ~maintain =
  dispatch t;
  if maintain || Array.exists (fun (wk : walker) -> wk.pending_ops > 0) t.walkers then begin
    let run wk = flush_walker t wk ~maintain in
    match t.pool with
    | Some pool when t.cfg.walkers > 1 -> ignore (Pool.map_array pool run t.walkers)
    | _ -> Array.iter run t.walkers
  end

let flush t = flush_all t ~maintain:false

let feed_sym t x =
  if x < 0 || x >= t.cfg.num_symbols then invalid_arg "Ingest.feed_sym: symbol out of range";
  t.events <- t.events + 1;
  if t.cfg.walkers = 1 then begin
    if not t.trace_started then begin
      t.trace_started <- true;
      t.trace_t0 <- t.clock ()
    end;
    walk_event t t.walkers.(0) x
  end
  else Int_vec.push t.stage x

let feed_trace t tr =
  if Trace.num_symbols tr <> t.cfg.num_symbols then
    invalid_arg "Ingest.feed_trace: trace symbol universe does not match config";
  Trace.iter (fun x -> feed_sym t x) tr

let feed_chunk t buf n =
  if n < 0 || n > Array.length buf then invalid_arg "Ingest.feed_chunk";
  for i = 0 to n - 1 do
    feed_sym t buf.(i)
  done

let end_trace t =
  t.traces <- t.traces + 1;
  if t.cfg.walkers = 1 then begin
    let wk = t.walkers.(0) in
    if t.trace_started then begin
      (match t.h_trace with
      | Some h -> Metrics.observe h (Int64.to_int (Int64.sub (t.clock ()) t.trace_t0))
      | None -> ());
      t.trace_started <- false
    end;
    (* Per-trace streams: the next trace starts on an empty stack. *)
    Window_stack.clear wk.stack;
    wk.last_sym <- -1
  end
  else begin
    let n = Int_vec.length t.stage in
    if n > 0 then begin
      let arr = Int_vec.to_array t.stage in
      Int_vec.clear t.stage;
      (* Round-robin by completed non-empty trace index: a pure function
         of the feed order, independent of the pool schedule. *)
      Queue.push arr t.walkers.(t.next_walker).queue;
      t.next_walker <- (t.next_walker + 1) mod t.cfg.walkers;
      t.queued <- t.queued + 1;
      if t.queued >= t.cfg.walkers then dispatch t
    end
  end;
  (match t.metrics with Some m -> Metrics.add m "ingest.traces" 1 | None -> ());
  if t.cfg.epoch_traces > 0 && t.traces mod t.cfg.epoch_traces = 0 then begin
    flush_all t ~maintain:true;
    t.epochs <- t.epochs + 1
  end

let ingest_trace t tr =
  feed_trace t tr;
  end_trace t

let feed_file t ~path =
  Trace_io.with_reader ~path (fun r ->
      if Trace_io.reader_num_symbols r <> t.cfg.num_symbols then
        invalid_arg "Ingest.feed_file: trace symbol universe does not match config";
      let buf = Array.make (1 lsl 16) 0 in
      let rec go () =
        let n = Trace_io.read_chunk r buf in
        if n > 0 then begin
          feed_chunk t buf n;
          go ()
        end
      in
      go ());
  end_trace t

let stats t : stats =
  let sum f = Array.fold_left (fun a wk -> a + f wk) 0 t.walkers in
  let maxw f = Array.fold_left (fun a wk -> max a (f wk)) 0 t.walkers in
  let live sel =
    Array.fold_left
      (fun a (wk : walker) ->
        Array.fold_left (fun a sh -> a + Int_pair_tbl.length (sel sh)) a wk.shards)
      0 t.walkers
  in
  {
    traces = t.traces;
    events = t.events;
    kept_events = sum (fun wk -> wk.kept_events);
    trg_ops = sum (fun wk -> wk.trg_ops);
    wit_ops = sum (fun wk -> wk.wit_ops);
    flushes = sum (fun wk -> wk.flushes);
    dispatches = t.dispatches;
    epochs = t.epochs;
    merges = t.merges;
    trg_live = live (fun sh -> sh.trg);
    wits_live = live (fun sh -> sh.wits);
    trg_peak_shard = maxw (fun wk -> wk.trg_peak_shard);
    wits_peak_shard = maxw (fun wk -> wk.wits_peak_shard);
    trg_evicted = sum (fun wk -> wk.trg_evicted);
    wits_evicted = sum (fun wk -> wk.wits_evicted);
    decay_dropped = sum (fun wk -> wk.decay_dropped);
    dead_pruned = sum (fun wk -> wk.dead_pruned);
  }

type consensus = { trg : Trg.t; affine : int array }

let affine_list c =
  Array.to_list (Array.map (fun k -> (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k)) c.affine)

(* Non-destructive merge across walkers and shards. TRG edge weights sum
   per key; directed witness saturations sum per key; occurrence counts
   sum per symbol; the batch saturation test then runs against the merged
   totals. With one walker the sums are identities, so the cheaper direct
   paths (no accumulator tables) are kept. Accumulation continues
   afterwards. *)
let finalize t =
  flush t;
  let t0 = t.clock () in
  let nsym = t.cfg.num_symbols in
  let trg =
    if t.cfg.walkers = 1 then begin
      let edges = ref [] in
      Array.iter
        (fun (sh : shard) ->
          Int_pair_tbl.iter
            (fun k w -> edges := (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k, w) :: !edges)
            sh.trg)
        t.walkers.(0).shards;
      Trg.of_edges ~num_nodes:nsym !edges
    end
    else begin
      let acc = Int_pair_tbl.create ~capacity:1024 () in
      Array.iter
        (fun (wk : walker) ->
          Array.iter
            (fun (sh : shard) -> Int_pair_tbl.iter (fun k w -> ignore (Int_pair_tbl.add_to acc k w)) sh.trg)
            wk.shards)
        t.walkers;
      let edges = ref [] in
      Int_pair_tbl.iter
        (fun k w -> edges := (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k, w) :: !edges)
        acc;
      Trg.of_edges ~num_nodes:nsym !edges
    end
  in
  let pairs = Int_vec.create ~capacity:64 () in
  if t.cfg.walkers = 1 then begin
    let wk = t.walkers.(0) in
    Array.iter
      (fun (sh : shard) ->
        Int_pair_tbl.iter
          (fun key p ->
            let a = Int_pair_tbl.fst_of key in
            let b = Int_pair_tbl.snd_of key in
            if a < b then begin
              let sat_ab = Int_pair_tbl.snd_of p in
              let rk = Int_pair_tbl.pack b a in
              let sat_ba =
                Int_pair_tbl.snd_of
                  (Int_pair_tbl.find wk.shards.(shard_of t rk).wits rk ~default:0)
              in
              if sat_ab = wk.occ.(a) && sat_ba = wk.occ.(b) && wk.occ.(a) > 0 && wk.occ.(b) > 0
              then Int_vec.push pairs key
            end)
          sh.wits)
      wk.shards
  end
  else begin
    let occ_tot = Array.make nsym 0 in
    Array.iter
      (fun (wk : walker) ->
        for i = 0 to nsym - 1 do
          occ_tot.(i) <- occ_tot.(i) + wk.occ.(i)
        done)
      t.walkers;
    let sat = Int_pair_tbl.create ~capacity:1024 () in
    Array.iter
      (fun (wk : walker) ->
        Array.iter
          (fun (sh : shard) ->
            Int_pair_tbl.iter
              (fun key p -> ignore (Int_pair_tbl.add_to sat key (Int_pair_tbl.snd_of p)))
              sh.wits)
          wk.shards)
      t.walkers;
    Int_pair_tbl.iter
      (fun key sat_ab ->
        let a = Int_pair_tbl.fst_of key in
        let b = Int_pair_tbl.snd_of key in
        if a < b then begin
          let sat_ba = Int_pair_tbl.find sat (Int_pair_tbl.pack b a) ~default:0 in
          if sat_ab = occ_tot.(a) && sat_ba = occ_tot.(b) && occ_tot.(a) > 0 && occ_tot.(b) > 0
          then Int_vec.push pairs key
        end)
      sat
  end;
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
  let acc = Int_pair_tbl.create ~capacity:1024 () in
  List.iter
    (fun tr ->
      let trg = Trg.build ~window:trg_window tr in
      Trg.iter_edges (fun x y w -> ignore (Int_pair_tbl.add_to acc (Int_pair_tbl.pack x y) w)) trg)
    trimmed;
  let edges = ref [] in
  Int_pair_tbl.iter
    (fun k w -> edges := (Int_pair_tbl.fst_of k, Int_pair_tbl.snd_of k, w) :: !edges)
    acc;
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

let batch_digests ~trg_window ~affinity_w trace = batch_digests_parts ~trg_window ~affinity_w [ trace ]
