(** Zero-allocation layout-evaluation engine for search loops.

    Every layout-search step ({!Anneal.search}, {!Optimal.search}, the
    wall-clock experiments) needs the same question answered many times:
    {e what is the solo miss ratio of this candidate order?} The seed path
    re-pays the full cost per candidate — a fresh {!Layout.t} (three
    [num_blocks]-sized arrays plus permutation bookkeeping), a tuple
    allocation per trace event inside the line expansion, and a freshly
    allocated {!Colayout_cache.Set_assoc.t} simulator. This engine is
    created {e once} per [(program, trace, params)] and answers
    {!miss_ratio_of_order} with {b zero per-candidate heap allocation}:

    - the trace and per-block geometry (sizes, fallthrough targets, entry
      flags, per-function block lists) are precompiled into flat [int]
      arrays at construction;
    - layout construction, line expansion and LRU cache simulation are
      fused into one streaming pass over preallocated scratch buffers — no
      intermediate {!Colayout_trace.Trace.t}, no per-candidate {!Layout.t};
    - the cache is the library's one LRU core
      ({!Colayout_cache.Set_assoc}), created once and emptied between
      candidates instead of reallocated; each block's line span reaches it
      in one call;
    - a candidate none of whose cache sets is mapped more distinct
      executed lines than it has ways is not replayed at all: a cold LRU
      set within its ways never evicts, so each such line misses once and
      every other access hits, and the engine counts both from the
      per-block occurrence counts fixed at construction. The check stops
      at the first set that overflows, and that candidate is replayed.

    Results are bit-equal to the seed evaluator
    ([Kernel_baseline.miss_ratio_of_function_order], a test oracle under
    [test/oracle/]: [Layout.of_function_order] + the seed [Icache.solo]
    over the seed LRU + [Cache_stats.miss_ratio]): the engine performs the
    same line-access sequence against the same LRU replacement decisions
    and divides the same integer counters, so the returned [float] is
    identical, not merely close. [test_layout_eval.ml] proves this
    differentially over random programs, orders and cache geometries. *)

type t

val create :
  ?pool:Colayout_util.Pool.t ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  t
(** Precompile [program] and [trace] against the cache geometry [params].
    O(num_blocks + trace length) time, paid once. The engine reads the
    trace's events in place, not a copy: the first [Trace.length trace]
    of them, which a later [Trace.push] leaves as they are. When [pool] is
    given, {!eval_batch} fans candidates across its worker domains (one
    lazily-built engine clone per {e worker}); without it, batches run
    sequentially on the caller.

    @raise Invalid_argument if a trace event is not a valid block id of
    [program]. *)

val num_funcs : t -> int

val trace_length : t -> int

val miss_ratio_of_order : t -> int array -> float
(** Solo L1I miss ratio of the layout that places whole functions in the
    given order (blocks of each function stay in declaration order) — the
    same number as the seed evaluator's, bit-for-bit. Allocation-free. The order array is read, never retained.

    @raise Invalid_argument if [order] is not a permutation of the
    function ids. *)

val miss_ratio_of_block_order : ?function_stubs:bool -> t -> int array -> float
(** Solo miss ratio of an arbitrary {e basic-block} order, mirroring
    [Layout.of_block_order ?function_stubs] — broken fall-through edges
    cost {!Colayout_ir.Size_model.jump_bytes} of added unconditional jump,
    and [function_stubs] adds the call-stub bytes at each function entry.
    Bit-equal to the seed path; allocation-free.

    @raise Invalid_argument if [order] is not a permutation of the block
    ids. *)

val eval_batch : t -> int array array -> float array
(** Score a whole neighborhood of candidate {e function} orders.
    [eval_batch t orders] returns one miss ratio per candidate, in input
    order. With a construction-time [pool] of [jobs > 1], every candidate
    is its own pool task, scheduled by the pool's work-stealing scheduler
    — skewed batches rebalance onto idle workers instead of serializing
    behind a fixed contiguous chunk. Each worker evaluates on a private
    engine clone sharing the immutable precompiled arrays, created lazily
    by that worker on the first candidate it actually runs and reused
    across batches; a worker that evaluates nothing builds no clone
    ({!clones_built}[ t <= min jobs n]). Results are index-ordered and
    bit-identical to a sequential evaluation at any jobs count — each
    candidate is a pure function of the engine's immutable precompiled
    state, and the worker id only selects scratch. Must be called from
    outside the pool's worker domains (nested fan-out is rejected by
    {!Colayout_util.Pool.map}). *)

val clones_built : t -> int
(** Number of per-worker engine clones materialized by {!eval_batch} so
    far — at most [min jobs n] over all batches, never one for a worker
    that ran no candidate. Only meaningful between batches (clone slots
    are written by the worker domains during a batch). *)

(** {2 Delta (incremental) evaluation}

    A search move — swap two functions, or relocate one — perturbs the
    address mapping of a handful of blocks, yet {!miss_ratio_of_order}
    re-streams the whole trace. A {!Delta.session} instead keeps the
    candidate's geometry and a {e per-cache-set} access/miss ledger alive
    between moves and, on each move, recounts only the {e dirty} sets.
    Each block the move shifts takes its occurrences out of the accesses
    of the sets its old lines map to and adds them to those of its new
    ones, keeping every set's accesses and distinct executed lines
    current; a dirty set whose lines fit its ways takes their count as
    its misses, and only an overfull one is replayed, from the trace
    events of the blocks that cover it.

    {b Exactness.} With power-of-two set indexing, the hit/miss outcome of
    each line access depends only on the subsequence of accesses mapping
    to the same set, simulated from a cold set (every candidate starts
    from an emptied cache). Total misses are therefore a sum of
    independent per-set counts, and a set's subsequence changes only when
    some block's coverage of it changed — which the session detects by
    diffing the recomputed geometry. Recounting exactly the dirty sets
    reproduces the full recompute {b bit for bit}: same integer totals,
    same float division, no error bound. The periodic resync (every
    [resync_interval] {e committed} moves, default 64) is an invariant
    audit — it recounts every set from the geometry alone, without the
    line counts, incidence lists, dirty log or ledger the moves maintain,
    and fails loudly if any of the per-set counts ever diverges — not
    error control.

    A session shares the engine's immutable precompiled state and its LRU
    scratch, so do not interleave a session call with a concurrent
    {!miss_ratio_of_order} on the same engine from another domain (the
    same single-owner rule the engine itself has). Interleaved {e
    sequential} full evaluations are safe: the session owns its geometry
    and ledger. *)
module Delta : sig
  type session

  type stats = {
    moves : int;  (** [apply_*] calls performed. *)
    accepted : int;  (** {!commit}s. *)
    undone : int;  (** {!undo}s. *)
    resyncs : int;  (** Full recount audits run. *)
    replayed_events : int;  (** Trace events the moves replayed. *)
    full_walks : int;  (** Moves whose replay walked the whole trace. *)
    dirty_blocks : int;  (** Cumulative blocks whose geometry changed. *)
    dirty_sets : int;
        (** Cumulative cache sets recounted: those an executed block of a
            move left or entered. *)
    fit_sets : int;
        (** Cumulative dirty sets counted without a replay: their
            distinct executed lines fit the ways, so those lines are
            their misses. *)
  }

  val start : ?resync_interval:int -> t -> int array -> session
  (** Open a session on [order] (a function permutation, copied): lowers
      the geometry and counts every set to seed the per-set ledger,
      replaying only if a set overflows its ways. The engine's per-block
      touch-lists (O(trace length), amortized across all sessions of the
      engine) are built by the first replay of a subset of the trace.
      [resync_interval] is the number of {e committed} moves between
      automatic full-recount audits (default 64).

      @raise Invalid_argument if [order] is not a permutation of the
      function ids or [resync_interval <= 0]. *)

  val miss_ratio : session -> float
  (** The running solo miss ratio of the session's current order —
      bit-equal to [miss_ratio_of_order] on that order, at every point. *)

  val order : session -> int array
  (** Copy of the current function order (including a pending move). *)

  val blit_order : session -> int array -> unit
  (** Allocation-free {!order} into a caller buffer of length
      [num_funcs]. *)

  val apply_swap : session -> int -> int -> float
  (** [apply_swap s a b] exchanges the functions at positions [a] and [b],
      splices the recounted dirty sets into the ledger and returns the
      new miss ratio. The move is {e pending} until {!commit} or {!undo};
      only one move may be pending.

      @raise Invalid_argument on out-of-range or equal positions, or if a
      move is already pending. *)

  val apply_relocate : session -> int -> int -> float
  (** [apply_relocate s a b] moves the function at position [a] to
      position [b], shifting the gap over — the same move
      {!Anneal.search} proposes. Same pending discipline as
      {!apply_swap}. *)

  val undo : session -> unit
  (** Revert the pending move: inverse permutation, geometry and per-set
      counters restored from the undo log, each changed block moved back
      in the line counts — O(lines of the dirty blocks + dirty sets), no
      replay.

      @raise Invalid_argument if no move is pending. *)

  val commit : session -> unit
  (** Accept the pending move. Every [resync_interval] committed moves
      this triggers {!resync} automatically.

      @raise Invalid_argument if no move is pending. *)

  val resync : session -> float
  (** Full cold recount of every per-set counter under the current
      geometry, from the executed blocks alone (overfull sets replayed),
      compared against the incremental ledger. Returns the (unchanged)
      miss ratio.

      @raise Failure if any per-set count or the running totals diverge —
      the dirty-tracking invariant is broken and the session must not be
      trusted. (The engine itself is proven bit-equal to the seed
      evaluator, so agreement here is agreement with the oracle.)
      @raise Invalid_argument if a move is pending. *)

  val stats : session -> stats
  (** Cumulative work counters, for honest benchmarking: the delta bench
      reports measured dirty-%, fitting-set and replayed-event fractions
      from these. *)
end
