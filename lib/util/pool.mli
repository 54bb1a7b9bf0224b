(** Work-stealing domain pool.

    A pool owns [jobs] worker domains (default {!default_jobs}). With
    [~jobs:1] no domains are spawned at all: {!map} and {!run_all}
    degrade to plain sequential iteration on the caller's domain, so a
    single-job pool adds no threading machinery to the code path.

    Scheduling: a batch of [n] tasks is pre-split into [jobs] contiguous
    index ranges — one per worker, the same block split a fixed-chunk
    scheduler would commit to — but the split is only a starting
    assignment. Each range is a lock-free cell; the owning worker takes
    task indices from its bottom, and a worker whose own range is empty
    steals single tasks from the top of another worker's range. Skewed
    batches (a few expensive tasks among many cheap ones — the shape
    heterogeneous candidate evaluations produce) therefore rebalance onto
    idle workers instead of serializing behind one domain.

    Determinism contract: {!map} gathers results into an index-addressed
    array and returns them in input order, whatever order — and on
    whichever worker — the tasks completed. If several tasks raise, the
    exception of the {e lowest-indexed} failing task is re-raised on the
    caller's domain (with its original backtrace, via
    [Printexc.raise_with_backtrace]) — the same exception a sequential
    run would have surfaced first. Stealing moves {e where} a task runs,
    never what it computes, so results are bit-identical at any jobs
    count for pure task functions.

    Pools are single-consumer: submit batches from one domain at a time.
    Submitting from inside a pool task ({e nested use}) is rejected with
    [Invalid_argument] rather than deadlocking. *)

type t

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)] — the pool's own
    default width, exposed so CLIs and benches resolve "machine width"
    identically instead of re-deriving it. *)

val jobs : t -> int
(** The parallelism width, including the [jobs = 1] no-domain case. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Run [f] on every element, in parallel across the pool's workers;
    results come back in input order. Blocks the calling domain until the
    whole batch is done. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

val map_array_w : t -> (worker:int -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map_array}, but [f] also receives the index of the worker
    executing the task: a stable id in [0, jobs) ([0] on the [jobs = 1]
    inline path), unique per domain within a batch. This is the hook for
    per-worker state — e.g. one lazily-built engine clone per worker,
    reused across every task and batch that lands on it — without keying
    anything off task indices, which stealing redistributes. [f] must
    not depend on {e which} worker runs a task (only use [worker] to
    pick private scratch), or results stop being schedule-invariant. *)

val run_all : t -> (unit -> unit) list -> unit
(** [run_all t fs] runs every thunk to completion (in parallel), raising
    the lowest-indexed failure, if any. *)

val with_pool : ?jobs:int -> ?metrics:Metrics.t -> (t -> 'a) -> 'a
(** Create a pool, run the function on it, and always stop and join the
    worker domains afterwards (exception-safe); the pool must not be used
    after it returns. [jobs] defaults to {!default_jobs}; values < 1
    raise [Invalid_argument]. When [metrics] is given, each worker domain
    records its task count, busy nanoseconds and steal count into a
    private per-domain registry; completed batches fold those deltas into
    [metrics] with {!Metrics.merge} as [pool.tasks], [pool.busy_ns],
    [pool.steals] and per-worker [pool.worker.<i>.tasks] /
    [pool.worker.<i>.steals]. *)
