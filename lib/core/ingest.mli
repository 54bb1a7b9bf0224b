(** Streaming profile ingest: multi-walker online TRG and affinity
    accumulation, bit-identical to the batch kernels.

    Every completed trace is an independent stream: the walker that
    processes it starts from an empty LRU stack and fresh trimming state,
    so the per-trace walk replicates [Trg.build] / [Affinity.affine_pairs]
    on that trace alone. The merged profile is therefore a pure function
    of the *multiset* of ingested traces, which is what makes parallel
    walkers sound:

    - with [walkers = 1] the single walker runs inline in {!feed_trace}
      (on the trace's own events, with no staged copy) and resets its
      stack at every {!end_trace};
    - with [walkers > 1] each completed trace is assigned round-robin (by
      completed-trace index — a config-deterministic assignment) to one
      of W walker states, each owning a private window stack and counter
      store; walker queues drain as [Pool] tasks, one task per walker.

    Either way a walker makes one pass per kept event over a flat bounded
    LRU stack with an on-stack flag per symbol
    ([Colayout_trace.Window_stack], the top [max trg_window affinity_w]
    entries): the flag says whether the event is on the stack, and the
    pass that shifts the entries above it makes the TRG bumps and witness
    updates, in the walker's store, on the way. No event scans the stack
    to find its symbol. The symbol universe alone picks the store:

    - {b Grids} — at most [Int_pair_tbl.max_grid_universe] symbols
      (every program in the repo). The walk is a fold over dense [n × n] int arrays, about
      [3·n²·8] bytes per walker: a cumulative directed TRG grid (the
      bumps of [Trg.build]'s grid path) and per-trace witness state that
      {!end_trace} closes into trace counts — [trc(s)], the traces
      containing [s], and [aff(a,b)], the traces that saturate [{a, b}].
      {!finalize} sums the walkers' TRG grids into the domain's
      [Pair_grid] (no [n × n] allocation per merge); a pair is affine iff
      [aff(a,b) = trc(a) = trc(b) > 0], i.e. every trace that contains
      either symbol contains both and saturates the pair.
    - {b Tables} — larger universes. One flat packed-pair TRG table and
      one witness table per walker, with walker-cumulative witness
      saturations and occurrence counts; {!finalize} sums them
      and runs the saturated-pair test (sat(a,b) = occ(a) in both
      directions) on the totals. Because windows never span trace
      boundaries, each saturation is a sum of per-trace saturations with
      sat <= occ per trace, so the merged sum saturates iff every trace
      does: the same rule.

    Hence the consensus CSR and affine set are bit-identical to the batch
    kernels at any (walkers x jobs) point ({!consensus_digests} vs
    {!batch_digests_parts} makes the contract checkable). Ingest is exact
    only: there are no caps and no decay (EXPERIMENTS.md, "Bounded ingest
    against exact", measured what they lost before they were removed).

    Every [epoch_traces] traces the table store drops dead witness entries
    (a saturation already short of its occurrence count can never pass
    the test), which never changes the affine set, merged or not. *)

type config = {
  num_symbols : int;
  walkers : int;  (** Parallel stream walkers; traces partition round-robin. *)
  trg_window : int;  (** TRG LRU window (distinct blocks). *)
  affinity_w : int;  (** Affinity window footprint bound w. *)
  epoch_traces : int;
      (** Maintenance (dead-witness pruning of the table store) every N
          completed traces; 0 = never. *)
}

val config :
  ?walkers:int ->
  ?trg_window:int ->
  ?affinity_w:int ->
  ?epoch_traces:int ->
  num_symbols:int ->
  unit ->
  config
(** Validated smart constructor (defaults: 1 walker, window 256, w 16,
    no epochs). @raise Invalid_argument on out-of-range fields. *)

type t

val create : ?pool:Colayout_util.Pool.t -> ?metrics:Colayout_util.Metrics.t -> config -> t
(** Without a pool, walkers run inline on the calling
    domain (still producing identical results); with one walker the pool
    is not used for ingest. With metrics, per-trace
    walk latency lands in the [ingest.trace_ns] histogram (plus a
    per-walker [ingest.walker.<i>.trace_ns] histogram when
    [walkers > 1]), and merge latency in [ingest.merge_ns]; walker tasks
    record into private registries folded into the shared one with
    [Metrics.merge] after each dispatch barrier, so pooled percentiles
    survive. *)

val feed_trace : t -> Colayout_trace.Trace.t -> unit
(** Feed a whole in-memory trace (does not end it): consecutive calls
    before {!end_trace} feed one trace in pieces. Its events are not
    range-checked again ({!Colayout_trace.Trace} keeps them in range);
    with [walkers > 1] they are staged with one copy, not one call per
    event.
    @raise Invalid_argument when the trace's symbol universe differs from
    the config's, or on a per-walker stream longer than the
    packed-payload bound (2^31 kept events). *)

val end_trace : t -> unit
(** Mark the current user trace complete. Each trace is an independent
    stream: trimming state and the LRU stack reset here, so partitioning
    at trace boundaries preserves the per-trace trimming contract
    exactly. Records ingest latency, assigns the trace to a walker
    (walkers > 1), and runs epoch maintenance when due. *)

val ingest_trace : t -> Colayout_trace.Trace.t -> unit
(** {!feed_trace} then {!end_trace}. *)

val feed_file : t -> path:string -> unit
(** Ingest one trace file as one trace, all or nothing: the file is
    decoded through the chunked [Trace_io] reader and range-checked
    before its first event is fed, then {!end_trace}. A truncated or
    corrupt file raises [Failure] (from the reader) or [Invalid_argument]
    (universe mismatch, out-of-range symbol) and leaves [t] untouched,
    so a retry starts from a clean trace. *)

type stats = {
  traces : int;
  events : int;
  kept_events : int;  (** Events surviving per-trace inline trimming, summed over walkers. *)
  trg_ops : int;
  wit_ops : int;
  dispatches : int;  (** Walker-queue dispatch barriers (walkers > 1). *)
  epochs : int;
  merges : int;
  trg_live : int;
      (** Current TRG entries (undirected pairs with a positive count),
          summed over walkers; the same count in both stores. *)
  wits_live : int;  (** Witness table entries; 0 in the grid store, which has no tables. *)
  dead_pruned : int;
      (** Witness entries dropped by dead-witness pruning; 0 in the grid
          store, whose witness state lasts one trace. *)
}

val stats : t -> stats
(** Cheap (no dispatch): walk-derived counters cover traces already
    dispatched to walkers; totals are complete after {!finalize}. All fields are deterministic in (config, feed order) —
    the pool schedule never moves them. *)

type consensus = { trg : Trg.t; affine : int array }
(** The merged profile: a CSR TRG plus the affine pairs as a
    sorted array of packed [(a, b)] keys with [a < b]. *)

val finalize : t -> consensus
(** Drain every walker, then merge the walkers' stores into a consensus
    profile by the algebra above. It covers completed traces: call it
    between traces.
    Non-destructive: accumulation may continue afterwards. Bit-identical
    to the batch kernels run on each trace independently and merged — at
    any walkers and jobs count. *)

val affine_list : consensus -> (int * int) list

val consensus_digests : consensus -> string * string
(** [(trg_digest, affine_digest)] over canonical renderings (CSR edge
    sweep; sorted packed pairs). *)

val batch_digests_parts :
  trg_window:int -> affinity_w:int -> Colayout_trace.Trace.t list -> string * string
(** The batch-kernel reference digests for a partitioned stream: trims
    each part independently, runs [Trg.build] and
    [Affinity.affine_pairs] per part, and combines by the same algebra
    as {!finalize} — TRG weights sum; a pair is affine for the union iff
    every part either saturates it or contains neither symbol.
    @raise Invalid_argument on an empty list or mismatched universes. *)
