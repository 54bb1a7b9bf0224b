(** End-to-end convenience flows: instrument → analyze → transform →
    evaluate. This is the API the examples and the experiment harness
    drive. *)

type evaluated = {
  kind : Optimizer.kind;
  layout : Layout.t;
  miss_ratio : float;  (** Solo L1I miss ratio under the reference input. *)
  accesses : int;
  misses : int;
}

val reference_trace :
  Colayout_ir.Program.t -> Colayout_exec.Interp.input -> Colayout_trace.Trace.t
(** The evaluation-run block trace (layout-independent). *)

val miss_ratio_solo :
  ?prefetch:Colayout_cache.Prefetch.t ->
  ?sink:Colayout_cache.Profile_sink.t ->
  params:Colayout_cache.Params.t ->
  layout:Layout.t ->
  Colayout_trace.Trace.t ->
  Colayout_cache.Cache_stats.t
(** Replay a reference block trace through the I-cache under a layout. With
    [sink], every demand access is attributed per block and classified (see
    {!Colayout_cache.Profile_sink}). *)

val miss_ratio_corun :
  ?prefetch:Colayout_cache.Prefetch.t ->
  ?sink:Colayout_cache.Profile_sink.t ->
  ?rates:float * float ->
  params:Colayout_cache.Params.t ->
  self:Layout.t * Colayout_trace.Trace.t ->
  peer:Layout.t * Colayout_trace.Trace.t ->
  unit ->
  Colayout_cache.Cache_stats.t
(** Shared-cache co-run; thread 0 is [self], thread 1 the peer. *)

val evaluate_kinds :
  ?config:Optimizer.config ->
  ?prefetch:Colayout_cache.Prefetch.t ->
  ?kinds:Optimizer.kind list ->
  Colayout_ir.Program.t ->
  test_input:Colayout_exec.Interp.input ->
  ref_input:Colayout_exec.Interp.input ->
  evaluated list
(** Analyze once, then lay out and solo-evaluate each optimizer. *)

val footprint_curve :
  params:Colayout_cache.Params.t ->
  layout:Layout.t ->
  Colayout_trace.Trace.t ->
  Footprint.t
(** Footprint curve of the induced cache-line trace — input to
    {!Miss_prob}. *)
