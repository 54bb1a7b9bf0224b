(** Named counters, gauges and timers in an explicit registry.

    The registry is a plain value — no process-global state — so each
    {e handle} (a harness [Ctx], a benchmark run, a test) owns its own
    metrics and two runs can never bleed into each other. Counter handles
    are cached by the caller for hot paths; [add]/[set_gauge] are the
    convenience forms. Snapshots serialize to JSON
    (schema [colayout/metrics/v1]) with deterministically sorted keys.

    A registry is domain-safe: counters and gauges are atomics (an [incr]
    from any domain is never lost, so invariants like hits + misses =
    lookups survive parallel fan-out), and the registry's own tables and
    timers sit behind a mutex. Per-domain {e delta} registries can be
    folded into one with {!merge}. *)

type t

type counter

type histogram
(** Fixed-bucket latency histogram: samples land in one of 62 binary-
    magnitude buckets ([2^i, 2^(i+1)); bucket 0 also takes 0), counted
    with atomics so any domain can [observe] concurrently. Negative
    samples clamp to 0. *)

val create : ?clock:(unit -> int64) -> unit -> t
(** [clock] (nanoseconds, monotonic) is used by {!time}; injectable for
    deterministic tests. *)

val default_clock : unit -> int64
(** The monotonic nanosecond clock {!create} defaults to — exported for
    callers that wall-clock whole phases rather than single thunks. *)

val counter : t -> string -> counter
(** Find-or-create; the handle stays valid for the registry's lifetime. *)

val incr : ?by:int -> counter -> unit

val count : counter -> int

val add : t -> string -> int -> unit
(** [add t name by] = [incr ~by (counter t name)]. *)

val set_gauge : t -> string -> float -> unit

val histogram : t -> string -> histogram
(** Find-or-create; the handle stays valid for the registry's lifetime. *)

val observe : histogram -> int -> unit

val observe_ns : t -> string -> int -> unit
(** [observe_ns t name v] = [observe (histogram t name) v]. *)

val observations : histogram -> int

val hist_total : histogram -> int
(** Sum of every observed sample (post clamping). *)

val percentile : histogram -> float -> float
(** [percentile h p] with [p] in [0, 1] (clamped): the upper bound of the
    bucket holding the rank-[ceil p*n] sample — deterministic, stable
    under {!merge}, within a factor of two of the true order statistic.
    0.0 on an empty histogram. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk under the named timer (accumulates call count and total
    nanoseconds); exception-safe. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * float) list

val timers : t -> (string * int * int64) list
(** [(name, calls, total_ns)], sorted by name. *)

val histograms : t -> (string * histogram) list
(** Sorted by name. *)

val find_counter : t -> string -> int option

val reset : t -> unit
(** Zero every counter, gauge and timer in place; existing handles remain
    attached to their (now zeroed) cells. *)

val merge : into:t -> t -> unit
(** Fold a (typically per-domain) delta registry into [into]: counter
    counts, timer calls/nanoseconds and histogram buckets {e add} (merging
    N worker deltas in any order yields one total, preserving
    hits + misses = lookups and pooled-sample percentiles), gauges — level
    readings — are overwritten with the source value. Zero-valued source
    cells still create no entries in [into]. *)

val to_json : t -> Json.t
