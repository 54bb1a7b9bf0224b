(** Cycle-approximate SMT (hyper-threading) core model.

    The paper evaluates on two hyper-threads of one Xeon core sharing the L1
    instruction cache. This model reproduces the two first-order phenomena
    that evaluation rests on:

    - a single thread cannot fill the core's issue width (it is capped by
      [ilp]), so co-running two threads raises combined throughput — Fig 7a's
      15–30% gain;
    - instruction-cache misses stall the *fetching* thread while the peer
      keeps issuing, so reducing one program's misses speeds up both —
      the magnification effect of Fig 7b.

    Mechanics per cycle: threads stalled on a miss count down their penalty;
    the remaining active threads split [width] issue slots evenly, each
    capped at [ilp] instructions per cycle. Entering a block fetches its
    cache lines through the shared L1I (misses stall [miss_penalty] cycles
    each). Replay is trace-driven: the block sequence comes from
    {!Interp.run} and is layout-independent, exactly as code reordering
    preserves program semantics. *)

type config = {
  cache : Colayout_cache.Params.t;
  prefetch : Colayout_cache.Prefetch.t option;
  width : float;  (** Issue slots per cycle (core width). *)
  ilp : float;  (** Per-thread IPC cap from dependence chains. *)
  miss_penalty : int;  (** Stall cycles per L1I miss. *)
}

val default_config : ?prefetch:Colayout_cache.Prefetch.t -> unit -> config
(** 4-wide core, per-thread ILP 3.2, 8-cycle effective miss penalty (an
    out-of-order front-end hides part of an L1I miss), paper L1I
    geometry. The width/ILP ratio is calibrated so baseline co-run
    throughput gains land in the paper's 15–30% band. *)

type code = {
  layout : Colayout_cache.Icache.layout;
  instr_counts : int array;
      (** Per block id; must include any layout-added jump instructions. *)
}

type thread_stats = {
  instrs : int;
  cycles : int;  (** Cycle at which the thread finished its measured pass. *)
  fetch_accesses : int;
  fetch_misses : int;
  blocks : int;
}

val ipc : thread_stats -> float

val solo :
  ?work_scale:float ->
  ?sink:Colayout_cache.Profile_sink.t ->
  config ->
  code ->
  Colayout_util.Int_vec.t ->
  thread_stats
(** Run one thread alone to completion of one pass. [work_scale] (default 1)
    multiplies each instruction's latency — >1 models a data-bound program
    whose unmodelled D-cache stalls slow both its execution and its
    instruction fetching. [sink] attributes every demand fetch (thread 0,
    block id, line) without perturbing the simulation; prefetch fills
    bypass it. *)

type corun_mode =
  | Finish_both
      (** Each thread runs one pass and then idles; simulation ends when both
          are done (throughput experiments, Fig 7). *)
  | Measure_first
      (** Thread 0 runs one pass; thread 1 loops continuously as the probe
          (co-run speedup experiments, Fig 6 / Table II). Thread 1's stats
          cover whatever it executed before thread 0 finished. *)

type corun_result = {
  t0 : thread_stats;
  t1 : thread_stats;
  total_cycles : int;  (** End of simulation. *)
}

val corun :
  ?work_scales:float * float ->
  ?sink:Colayout_cache.Profile_sink.t ->
  config ->
  mode:corun_mode ->
  code * Colayout_util.Int_vec.t ->
  code * Colayout_util.Int_vec.t ->
  corun_result
(** [sink] (create it with [~threads:2]) attributes every demand fetch of
    both hyper-threads — thread 0 is the first pair, thread 1 the probe —
    enabling the cross-thread interference matrices. Attaching it does not
    change the simulation: replacement decisions are identical with or
    without. *)
