(** Set-associative LRU cache over line numbers: the one replacement core
    every simulator in the library goes through.

    This is the simulator counterpart of the paper's Pin-based CMP L1
    instruction cache (§III-A). It is address-agnostic above the line level:
    callers pass non-negative line numbers (address / 64). {!Icache},
    {!Hierarchy}, the SMT model and the layout-evaluation engine all
    decide hit, miss and eviction here.

    State is one flat tag array ([num_sets * assoc], way 0 of a set is MRU)
    plus a valid-prefix count per set. Calls between modules are not
    inlined, so the loops that drive the core live here, one call per
    unit of work:
    - {!replay} replays a whole block trace (solo {!Icache} runs);
    - {!corun} interleaves two block traces into the one cache (the
      co-run {!Icache} runs), each expanded once per call into a flat
      stream of line ids that the loop walks one position per thread.
      Each of the two builds a per-call residency
      index over the distinct lines its streams can touch (sized by their
      count, not by their addresses), so a hit test is one array read;
      while it runs, LRU order is a last-use stamp per way, and on return
      every set is back in MRU-first order, exactly as the per-line
      {!access_line} loop would leave it, from a cold or a warm cache;
    - {!access_span} walks one line span and returns its misses (the
      layout-evaluation engine's runs of lines);
    - {!access_line} serves callers that act between lines (SMT stalls,
      the {!Hierarchy} levels).

    The span and line entry points take the accessing thread and block,
    which only an attached sink reads; the replays label each access with
    its stream's thread (0, or 0 and 1) and the block its line belongs to.
    The replays also take a next-line prefetch degree and do the fills
    inline. Per-set miss counts ({!set_misses}) serve replays that need
    per-set results. *)

type t

val create : ?sink:Profile_sink.t -> Params.t -> t
(** A cold cache. When [sink] is given, every demand access (with its
    evicted victim line, if any, and the caller's thread/block labels) is
    reported to it; prefetch fills bypass it. The sink must have been
    created with the same params. *)

val params : t -> Params.t

val access_line : t -> thread:int -> block:int -> int -> bool
(** [access_line t ~thread ~block line] touches a line; returns [true] on
    hit. A hit promotes the line to MRU; a miss fills it at MRU, evicting
    the set's LRU way when the set is full. *)

val access_span : t -> thread:int -> block:int -> first:int -> last:int -> int
(** Exactly {!access_line} on every line of [first .. last] in order;
    returns the number of misses. *)

(** {1 Trace replays} *)

type stream = {
  trace : int array;  (** Block ids, in execution order, in its first [length] entries. *)
  length : int;  (** Executed blocks: the trace is a view of [trace]'s prefix. *)
  first : int array;  (** First line per block id. *)
  last : int array;  (** Last line per block id. *)
  offset : int;  (** Added to every line of the stream. *)
}
(** One program's fetch stream: each executed block [b] fetches lines
    [first.(b) + offset .. last.(b) + offset]. Only the entries of blocks
    the trace executes are read, and only the trace's first [length]
    entries: a growable vector's backing array serves without a copy
    ({!Colayout_util.Int_vec.backing}). The replays only read a stream. *)

type tally = {
  accesses : int array;  (** Demand accesses per thread. *)
  misses : int array;  (** Demand misses per thread. *)
  fills : int;  (** Prefetch fills, all threads. *)
}

val replay : t -> prefetch:int -> stream -> tally
(** [replay t ~prefetch s] fetches every line of every block of [s] in
    order as thread 0: exactly {!access_line} on each, and after each
    miss on [line] the fills {!prefetch_line} makes for
    [line+1 .. line+prefetch] ([prefetch = 0]: none). The tally has one
    thread.
    The call allocates in proportion to the span tables and the distinct
    lines it can touch, never per access, and never copies the trace.
    @raise Invalid_argument, before any access, if [prefetch < 0], the
    span tables differ in length, [length] lies outside [0 .. Array.length
    trace], or a trace id is negative, at least
    [Array.length first], or names a block whose span is empty, or whose
    lines (offset applied, plus [prefetch]) overflow an [int]. *)

val corun : t -> prefetch:int -> rates:float * float -> stream -> stream -> tally
(** [corun t ~prefetch ~rates:(r0, r1) s0 s1] interleaves two streams
    into the cache as threads 0 and 1, with {!replay}'s per-line accesses
    and fills. Each step adds [r0] and [r1] to the threads' credits; then
    thread 0 fetches one line per whole unit of its credit, then thread 1
    likewise. A thread whose trace is spent counts a pass and, in the same
    fetch, restarts at the first line of its block 0; an empty trace
    counts a pass on each of its fetches and accesses nothing. The replay stops between steps,
    once both threads have counted a pass, so neither runs contention-free.
    The tally has two threads.

    {b Memory.} The call expands each stream's pass into the ids of the
    lines it fetches, in off-heap buffers the calling domain keeps
    between calls, one per thread slot: 8 bytes per line of one pass of
    the longest stream the domain has co-run in that slot, and as much
    again for the lines' block labels once it has co-run with a sink. A
    buffer that is too small grows to at least twice its size and is
    never shrunk, so a domain holds up to twice those sizes; for
    445.gobmk against 403.gcc at 200,000 blocks that is ~3–3.5 MB per
    thread slot. Beyond them the call allocates as {!replay} does.
    @raise Invalid_argument, before any access, as {!replay} for either
    stream, unless both rates lie in [\[2{^-10}, 2{^10}\]] (NaN and the
    infinities do not: a loop fed a rate far outside would take
    unboundedly many steps, or never end), or when called inside another
    co-run on the same domain (see {!with_corun_buffers}). *)

val with_corun_buffers : (unit -> 'a) -> 'a
(** [with_corun_buffers f] runs [f] holding the calling domain's co-run
    buffers, as {!corun} holds them for its whole call, and releases them
    when [f] returns or raises. A {!corun} on the same domain inside [f]
    raises [Invalid_argument] instead of overwriting the holder's
    streams. No replay nests today (sinks do not call back); this lets
    the guard be exercised. *)

val set_misses : t -> int -> int
(** [set_misses t s]: demand misses in set [s] since creation or the last
    {!invalidate_all}. Sets are independent under LRU, so a caller that
    replays more lines than it needs can still read exact counts for the
    sets it cares about. *)

val probe_line : t -> int -> bool
(** Hit test without state change. *)

val prefetch_line : t -> int -> bool
(** Insert a line at MRU if it is absent — a prefetch fill: no promotion
    of a resident line, not a demand access, never reported to the sink.
    Returns whether it inserted. *)

val evictions : t -> int
(** Cumulative count of valid lines replaced (by demand misses and
    prefetch fills) since creation. *)

val invalidate_all : t -> unit
(** Empty every set and zero the per-set miss counts (O(num_sets)); the
    eviction count is kept. *)

val occupancy : t -> int
(** Number of valid lines. *)
