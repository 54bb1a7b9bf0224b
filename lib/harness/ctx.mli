(** Shared experiment context.

    All experiments draw programs, traces, analyses, layouts and simulation
    results from one context; everything is memoized, so e.g. Figure 6 and
    Table II share their co-run simulations, and the whole suite runs each
    expensive step once.

    Two measurement modes mirror the paper's §III:
    - {b simulated} (`hw = false`): the pure LRU cache simulator (the
      paper's Pin-based simulator);
    - {b hw-counter} (`hw = true`): the same simulator with a next-line
      prefetcher, standing in for the PAPI hardware counters, whose measured
      reductions the paper found systematically smaller than simulated
      ones. *)

type scale =
  | Fast  (** Small fuels: smoke-test quality, minutes for the full suite. *)
  | Full  (** The calibrated setting every reported number used. *)

type t

val create :
  ?scale:scale ->
  ?metrics:Colayout_util.Metrics.t ->
  ?spans:Colayout_util.Span.t ->
  ?pool:Colayout_util.Pool.t ->
  unit ->
  t
(** Default [Full]. Each context owns its own metrics registry and span
    recorder (fresh ones unless passed in) — no state is shared between two
    contexts, so back-to-back runs are fully isolated.

    Passing [pool] makes the context parallel: {!par_map} and {!prewarm}
    fan out over the pool's worker domains, and every accessor is safe to
    call from inside pool tasks — the memo tables are single-flight (a key
    being computed by one domain is awaited by the others, never
    recomputed), counters are atomic, and spans record per-domain. The
    caller keeps ownership of the pool (and shuts it down). *)

val scale : t -> scale

val pool : t -> Colayout_util.Pool.t option
(** The context's pool, for experiments that drive pool-aware engines
    directly (e.g. a {!Colayout.Layout_eval} batch evaluator). [None] for
    an unpooled context. Callers must respect the pool's single-consumer
    contract: fan out from the experiment's own (caller) domain only. *)

val par_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Map over the context's pool (plain [List.map] when unpooled or
    [jobs = 1]); results are always in input order, so the caller's table
    construction is deterministic whatever the jobs count. Must be called
    from outside the pool — nesting fan-outs inside pool tasks is rejected
    by {!Colayout_util.Pool.map}. *)

val prewarm : ?kinds:Colayout.Optimizer.kind list -> t -> string list -> unit
(** Phase 1 of the two-phase experiment schedule: one pool task per
    program computes its build, reference trace, analysis (when [kinds]
    asks for an optimizing layout) and the [kinds] layouts, so the
    simulation fan-out that follows hits warm memo tables. Runs inside a
    ["prewarm"] span; a no-op-shaped sequential loop when unpooled. *)

val metrics : t -> Colayout_util.Metrics.t
(** The context's metrics registry. Memo tables report
    [ctx.memo.<table>.{hits,misses}] (hits + misses = lookups); interpreter
    runs add [interp.*]; cache simulations add
    [cache.{accesses,misses,evictions,prefetches}] totals plus
    per-mode [cache.{solo,corun}.*] breakdowns. *)

val spans : t -> Colayout_util.Span.t
(** The context's span recorder: every program build, reference run,
    analysis, layout and simulation runs inside a named span. *)

val params : t -> Colayout_cache.Params.t

val opt_config : t -> Colayout.Optimizer.config

val ref_fuel : t -> int

val test_fuel : t -> int

val program : t -> string -> Colayout_ir.Program.t

val fetch_rate : t -> string -> float

val ref_trace : t -> string -> Colayout_trace.Trace.t
(** Reference-input block trace (layout-independent, memoized). *)

val ref_result : t -> string -> Colayout_exec.Interp.result
(** Full reference-run result (for instruction counts etc.). *)

val analysis : t -> string -> Colayout.Optimizer.analysis
(** Test-input instrumentation (memoized). *)

val layout : t -> string -> Colayout.Optimizer.kind -> Colayout.Layout.t

val solo_stats :
  t -> hw:bool -> string -> Colayout.Optimizer.kind -> Colayout_cache.Cache_stats.t

val corun_stats :
  t ->
  hw:bool ->
  self:string * Colayout.Optimizer.kind ->
  peer:string * Colayout.Optimizer.kind ->
  Colayout_cache.Cache_stats.t
(** Shared-cache co-run at the two programs' fetch rates; thread 0 = self. *)

val profiled_solo :
  t ->
  hw:bool ->
  string ->
  Colayout.Optimizer.kind ->
  Colayout_cache.Cache_stats.t * Colayout_cache.Profile_sink.t
(** Like {!solo_stats}, but with a {!Colayout_cache.Profile_sink} attached:
    every demand access is attributed per block and every miss classified
    cold/capacity/conflict. Unmemoized (the sink is per-run mutable state);
    layouts and traces still come from the memo tables. Publishes
    [ctx.profile.*] counters. With [hw:true] the prefetcher's fills bypass
    the sink, so classification reflects demand traffic only. *)

val profiled_corun :
  t ->
  hw:bool ->
  self:string * Colayout.Optimizer.kind ->
  peer:string * Colayout.Optimizer.kind ->
  Colayout_cache.Cache_stats.t * Colayout_cache.Profile_sink.t
(** Profiled co-run; the sink attributes per (thread, block), thread 0 =
    self. Unmemoized, like {!profiled_solo}. *)

val smt_solo : t -> string -> Colayout.Optimizer.kind -> Colayout_exec.Smt.thread_stats

val smt_corun :
  ?rotate_peer:bool ->
  t ->
  mode:Colayout_exec.Smt.corun_mode ->
  self:string * Colayout.Optimizer.kind ->
  peer:string * Colayout.Optimizer.kind ->
  Colayout_exec.Smt.corun_result
(** [rotate_peer] (default false) starts the peer half a pass into its
    trace — used for self-pairings, where two identical processes would
    otherwise run in artificial lockstep (real co-runs drift). *)

val solo_miss_ratio : t -> hw:bool -> string -> Colayout.Optimizer.kind -> float

val corun_miss_ratio :
  t ->
  hw:bool ->
  self:string * Colayout.Optimizer.kind ->
  peer:string * Colayout.Optimizer.kind ->
  float
(** Thread 0's miss ratio in the shared cache. *)

val progress : t -> string -> unit
(** Emit a progress note through the {!Report} logger ([Logs.Info] on the
    harness source); silent unless a front-end installed a reporter via
    [Report.setup]. *)
