(** Trace-driven instruction-cache simulation.

    Replays a basic-block execution trace against a {!Set_assoc} cache given
    a code layout (per-block start address and byte size): each executed
    block fetches every cache line its bytes span. Solo and shared (two
    streams in one cache, interleaved by a per-thread fetch-credit schedule
    approximating SMT fetch) modes — the trace-driven counterpart of the
    paper's Pin simulator. Each replay is one call into the LRU core
    ({!Set_assoc.replay}, {!Set_assoc.corun}); this module builds the
    per-block line-span tables once per call and fills {!Cache_stats}.

    Neither mode copies its trace: the core reads the vector's backing
    array in place ({!Colayout_util.Int_vec.backing}), so the trace must
    not be pushed to while a replay runs. A call allocates in proportion
    to the layouts' block counts and the distinct lines the trace can
    touch, never in proportion to the trace; a co-run also expands each
    trace's lines into buffers its domain keeps between calls (see
    {!Set_assoc.corun}).

    Both modes check the trace before any access: a block id that is
    negative or at least [Array.length addr] raises [Invalid_argument], and
    so does executing a block of zero bytes (as {!Params.lines_spanned}
    reports it); a zero-byte block the trace never executes is fine. *)

type layout = {
  addr : int array;  (** Start address per block id. *)
  bytes : int array;  (** Size per block id. *)
}

val solo :
  ?prefetch:Prefetch.t ->
  ?sink:Profile_sink.t ->
  params:Params.t ->
  layout:layout ->
  Colayout_util.Int_vec.t ->
  Cache_stats.t
(** Replay one block trace; stats have a single thread. With [prefetch],
    each demand miss is followed by the prefetcher's next-line fills,
    counted as prefetches. When [sink] is given, every demand access is
    attributed to its block and cache set (and classified, see
    {!Profile_sink}); the sink's totals equal the returned stats exactly. *)

val shared :
  ?prefetch:Prefetch.t ->
  ?sink:Profile_sink.t ->
  ?rates:float * float ->
  params:Params.t ->
  layouts:layout * layout ->
  Colayout_util.Int_vec.t * Colayout_util.Int_vec.t ->
  Cache_stats.t
(** Replay two block traces into one cache. Stats have two threads.

    {b Schedule.} Each step adds a thread's rate ([rates], default
    [1.0, 1.0]) to its fetch credit; then thread 0 fetches one line for
    each whole unit of its credit, and thread 1 likewise. Rates scale how
    many lines each thread fetches per step — a data-bound program
    fetches instructions more slowly than a compute-bound one.

    {b Restarts.} A thread whose trace is spent counts a pass and, in the
    same fetch, restarts at the first line of its block 0; an empty trace
    counts a pass on every fetch and fetches nothing. The replay stops
    between steps, once both threads have counted a pass (so credit left
    within a step is still fetched): both programs keep running until the
    longer one completes, as in the paper's co-run methodology of timing
    against a continuously running peer.

    The second thread's addresses are offset by a disambiguating stride so
    the two programs do not alias by accident, as two processes' code
    would not. A [sink] (it must have two threads) attributes each access
    to the fetching thread and that thread's current block; the offset
    address spaces keep the shadow classifier's line universe disjoint
    while the per-set heatmap folds both threads onto the physical sets
    they share.
    @raise Invalid_argument as {!Set_assoc.corun} does, for either
    stream or unless both rates lie in [\[2{^-10}, 2{^10}\]]. *)

val lines_of_block : params:Params.t -> layout:layout -> int -> int * int
(** [(first_line, last_line)] of a block id under a layout. *)
