(** The `repro serve` driver: a long-lived streaming profile-ingest
    service over synthetic users.

    Users are independent runs of one workload program with per-user
    seeds and fuel drawn from each user's own [Prng] stream (the
    per-workload input distribution). Generation fans out over the pool
    in batches; ingest commits traces to the multi-walker online
    accumulators ([Ingest]) in user order, so every artifact — digests,
    epoch rows, the re-optimized order — is a pure function of the
    config at any jobs and walker count. At each ingest epoch the
    consensus profile is merged (its edge and pair counts go into the
    epoch row) and the function order is re-optimized by a warm-started
    [Layout_eval.Delta]-mode anneal against the newest trace. The anneal
    does not read the consensus profile: the order follows the newest
    trace alone. *)

type config = {
  program : string;
  users : int;
  seed : int;
  fuel : int;  (** Max fuel per user; each user draws from [fuel/2, fuel]. *)
  walkers : int;  (** Parallel ingest walkers (see [Ingest.config]). *)
  trg_window : int;
  affinity_w : int;
  epoch_traces : int;
  gen_batch : int;  (** Users generated per parallel batch. *)
  reopt_steps : int;  (** Anneal steps per epoch re-optimization; 0 = off. *)
  verify : bool;
      (** Also run the batch kernels on every user trace and merge them
          with [Ingest.batch_digests_parts]. *)
}

val config :
  ?users:int ->
  ?seed:int ->
  ?fuel:int ->
  ?walkers:int ->
  ?trg_window:int ->
  ?affinity_w:int ->
  ?epoch_traces:int ->
  ?gen_batch:int ->
  ?reopt_steps:int ->
  ?verify:bool ->
  program:string ->
  unit ->
  config
(** Validated smart constructor; ingest-level fields are checked by
    [Ingest.config] at {!run} time. *)

type epoch_row = {
  epoch : int;
  at_trace : int;
  partial : bool;  (** Flush-on-exit row covering an unfinished epoch. *)
  trg_edges : int;
  affine_pairs : int;
  miss_ratio : float;  (** Re-optimized order on the newest trace; nan if reopt off. *)
  improved_from : float;  (** The previous epoch's order on that trace; nan if reopt off. *)
}

type summary = {
  cfg : config;
  num_symbols : int;
  num_funcs : int;
  stats : Colayout.Ingest.stats;
  wall_ns : int;
  gen_ns : int;
  ingest_ns : int;
  reopt_ns : int;
  traces_per_sec : float;  (** Traces over the end-to-end wall. *)
  events_per_sec : float;  (** Raw events over ingest time alone. *)
  edge_ops_per_sec : float;  (** TRG + witness table ops over ingest time. *)
  trg_digest : string;
  affine_digest : string;
  batch_trg_digest : string option;  (** [verify] only. *)
  batch_affine_digest : string option;
  digests_match : bool option;
  epoch_rows : epoch_row list;
  trace_p50_ns : float;
  trace_p95_ns : float;
  trace_p99_ns : float;
  merge_p50_ns : float;
  final_order : int array;
      (** The last epoch's re-optimized function order (annealed on the
          newest trace; the consensus profile does not enter it). *)
}

val run :
  ?pool:Colayout_util.Pool.t ->
  ?metrics:Colayout_util.Metrics.t ->
  ?spans:Colayout_util.Span.t ->
  ?obs:Colayout_util.Obs.t ->
  config ->
  summary
(** Run the service to completion over [cfg.users] users. When [users] is
    not a multiple of [epoch_traces], a final {e partial} epoch row (and
    snapshot) flushes the tail on exit, so ingested traces are never
    silently absorbed. With [obs], every epoch additionally records a
    [colayout/obs/v1] snapshot: the epoch row, the drift signal, metrics
    counter/percentile summaries, GC state, and a conservation-checked
    interference probe of the current re-optimized layout co-running against
    the unoptimized original (its defensiveness/politeness scores) — the
    probe simulation runs only when [obs] is attached.
    @raise Not_found on an unknown program name (callers pre-validate
    against [Workloads.Spec.names]). *)

val summary_to_json : summary -> Colayout_util.Json.t
(** Schema [colayout/serve/v2]. *)

(** {1 Spool watching}

    `repro serve --from DIR` follows a live trace spool: directories are
    polled for [.trc] / [.trace] files, and each file is ingested exactly
    once, after its (size, mtime) is stable across two consecutive
    polls. *)

type spool_report = {
  sp_polls : int;
  sp_ingested : int;
  sp_skipped : int;  (** Universe mismatches. *)
  sp_pending : string list;  (** Seen but not (yet) ingested at exit. *)
}

val wait_spool_symbols :
  dirs:string list -> ?poll_ms:int -> timeout_s:float -> unit -> int option
(** Poll [dirs] until some trace file's header parses; its symbol
    universe size bootstraps the ingest config when the spool starts
    empty. [None] when the deadline passes with no readable file.
    @raise Invalid_argument when [poll_ms < 1]. *)

val watch_spool :
  ing:Colayout.Ingest.t ->
  dirs:string list ->
  ?poll_ms:int ->
  ?skip:string list ->
  ?on_poll:(int -> unit) ->
  timeout_s:float ->
  unit ->
  spool_report
(** Tail [dirs] until [timeout_s] elapses (always polling at least twice,
    so a pre-existing stable file is ingested even with [timeout_s = 0.]),
    feeding each stable new file through [Ingest.feed_file]. Files listed
    in [skip] are treated as already ingested; files with a mismatched
    symbol universe are skipped and counted; files whose header or body
    is still truncated mid-write are retried on later polls and reported
    pending until one succeeds. [on_poll] (a test
    hook) fires with the 0-based poll index before each scan.
    @raise Invalid_argument when [poll_ms < 1]. *)
