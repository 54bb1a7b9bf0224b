(** The four code-layout optimizers of the paper (§II-F): two locality
    models (w-window affinity, TRG) × two granularities (function,
    inter-procedural basic block), plus the original layout as baseline.

    The flow mirrors the paper's system: instrument with the test input
    ({!analyze}: run, trim per Definition 1, prune to the hottest blocks),
    then hand the reordered sequence to the transformation
    ({!layout_for}). *)

type kind =
  | Original
  | Func_affinity
  | Bb_affinity
  | Func_trg
  | Bb_trg

val all_kinds : kind list

val kind_name : kind -> string

val kind_of_name : string -> kind option

type config = {
  ws : int list;  (** Affinity window sizes (§II-B: between 2 and 20). *)
  prune_top : int;  (** Hot-block pruning threshold (§II-F: 10,000). *)
  cache_multiplier : float;  (** TRG analysis cache scaling (§II-C: 2×). *)
  func_block_bytes : int;
      (** Assumed uniform function size for TRG slotting — the compiler
          works on IR and "cannot use actual code size" (§II-C). *)
  bb_block_bytes : int;  (** Assumed uniform basic-block size for TRG. *)
  params : Colayout_cache.Params.t;
}

val default_config : config

type analysis = {
  bb : Colayout_trace.Trace.t;  (** Trimmed, pruned basic-block trace. *)
  fn : Colayout_trace.Trace.t;  (** Trimmed function trace. *)
  prune : Colayout_trace.Prune.report;
}

val analyze :
  ?config:config ->
  Colayout_ir.Program.t ->
  Colayout_exec.Interp.input ->
  analysis
(** The instrumentation run on the test input. *)

val analysis_of_traces :
  ?config:config ->
  bb:Colayout_trace.Trace.t ->
  fn:Colayout_trace.Trace.t ->
  unit ->
  analysis
(** Build an analysis from pre-recorded traces (trimming and pruning are
    applied here). *)

val layout_for :
  ?decisions:Decision_trace.t ->
  ?config:config ->
  kind ->
  Colayout_ir.Program.t ->
  analysis ->
  Layout.t
(** With [decisions], the underlying model ({!Affinity_hierarchy.build} or
    {!Trg_reduce.reduce}) records every merge/placement choice it makes. *)
