(** Set-associative LRU cache over line numbers: the one replacement core
    every simulator in the library goes through.

    This is the simulator counterpart of the paper's Pin-based CMP L1
    instruction cache (§III-A). It is address-agnostic above the line level:
    callers pass non-negative line numbers (address / 64). {!Icache},
    {!Hierarchy}, the SMT model and the layout-evaluation engine all
    decide hit, miss and eviction here — in the shared case two fetch
    streams simply access the same instance.

    State is one flat tag array ([num_sets * assoc], way 0 of a set is MRU)
    plus a valid-prefix count per set. Two demand entry points exist
    because calls between modules are not inlined: {!access_span} walks a
    whole line span in one call and returns its misses (trace replay),
    {!access_line} serves callers that act between lines (prefetching,
    SMT stalls, the co-run interleaving). Both take the accessing thread
    and block, which only an attached sink reads. Per-set miss counts
    ({!set_misses}) serve replays that need per-set results. *)

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
