(** The seed tuple-[Hashtbl] analysis kernels and the seed layout
    evaluator, kept verbatim in this test-only library.

    The library rebuilt [Trg.build] and [Affinity.affine_pairs] on flat
    packed-int tables ([Int_pair_tbl]) with CSR finalization. These are the
    original implementations — per-node [(int, int) Hashtbl.t] adjacency
    with symmetric double storage, and [(int * int)]-keyed witness records —
    retained for two jobs. The seed TRG reduction ({!trg_reduce}, with its
    polymorphic {!Heap}) joined them when the reduction went flat.

    - differential-test oracles: the packed kernels must produce identical
      edge sets / pair sets / reductions on any input;
    - honest benchmark baselines: [bench/main.exe] times both paths in the
      same run and reports the speedup in [BENCH_kernels.json]. *)

open Colayout

type legacy_trg = {
  num_nodes : int;
  adj : (int, int) Hashtbl.t array; (* symmetric: each edge stored twice *)
}

val trg_build : ?window:int -> Colayout_trace.Trace.t -> legacy_trg
(** The seed [Trg.build]: per-event [betweens] list accumulation, double
    bump into the per-node hash tables. *)

val trg_weight : legacy_trg -> int -> int -> int

val trg_edges : legacy_trg -> (int * int * int) list
(** [(x, y, w)] with [x < y], sorted by decreasing weight then ids — the
    same order {!Trg.edges} promises. *)

val affine_pairs : Colayout_trace.Trace.t -> w:int -> (int * int) list
(** The seed [Affinity.affine_pairs] with tuple-keyed witness records,
    returning the sorted [(x, y)], [x < y] pair list — directly comparable
    to [Affinity.pair_list (Affinity.affine_pairs ...)]. *)

(** {2 Seed TRG reduction (oracle for {!Trg_reduce.reduce})} *)

module Heap : sig
  type 'a t

  val create : cmp:('a -> 'a -> int) -> unit -> 'a t
  (** [cmp] as for [compare]; the maximum element (per [cmp]) is popped
      first. *)

  val length : 'a t -> int

  val is_empty : 'a t -> bool

  val push : 'a t -> 'a -> unit

  val peek : 'a t -> 'a option

  val pop : 'a t -> 'a option

  val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

  val to_sorted_list : 'a t -> 'a list
  (** Destructive: pops everything, max first. *)
end
(** The seed array-backed binary max-heap with a caller-supplied ordering,
    used with lazy deletion by {!trg_reduce}: stale entries are popped and
    discarded by the caller. *)

val trg_reduce : ?decisions:Decision_trace.t -> Trg.t -> slots:int -> Trg_reduce.result
(** The seed [Trg_reduce.reduce], verbatim: boxed [(w, x, y)] entries in a
    polymorphic {!Heap} seeded with every edge, one [Hashtbl] adjacency
    per node, a full heap drain, and a [List.nth] round-robin. The flat
    reduction must match its [order], [slot_lists] and decision events. *)

(** {2 Seed layout evaluator (oracle for [Layout_eval])} *)

val miss_ratio_of_function_order :
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  int array ->
  float
(** The seed [Optimal.miss_ratio_of_function_order], verbatim:
    [Layout.of_function_order] + the seed [Icache.solo] over the seed LRU
    ({!Seed_lru.solo}) + [Cache_stats.miss_ratio], paying a fresh layout,
    a tuple per trace event and a fresh simulator per call.
    [Layout_eval.miss_ratio_of_order] must match it
    bit-for-bit; [bench/main.exe --layout-eval-only] times both. *)

val miss_ratio_of_block_order :
  ?function_stubs:bool ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  int array ->
  float
(** Seed evaluation of an arbitrary block order (with optional entry
    stubs), the oracle for {!Layout_eval.miss_ratio_of_block_order}. *)

val lines_per_set :
  params:Colayout_cache.Params.t -> Layout.t -> Colayout_trace.Trace.t -> int array
(** Distinct executed lines each cache set receives under the layout,
    counted with a hash set over the trace: the footprint on which
    [Layout_eval] decides whether a set fits its ways, computed without
    it. *)

val anneal_search :
  ?seed:int ->
  ?steps:int ->
  ?initial:int array ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  int array * float * float
(** The seed [Anneal.search] loop, verbatim (one [Array.copy] proposal and
    one full seed evaluation per step; [a = b] draws burn the step), used
    as the before-side of the anneal wall-clock benchmark. Returns
    [(best_order, best_miss_ratio, initial_miss_ratio)]. *)

val anneal_full :
  ?seed:int ->
  ?steps:int ->
  ?initial:int array ->
  ?max_span:int ->
  params:Colayout_cache.Params.t ->
  Colayout_ir.Program.t ->
  Colayout_trace.Trace.t ->
  Anneal.result
(** [Anneal.search] with one full evaluation per proposal instead of a
    {!Layout_eval.Delta} session: the same PRNG stream, moves applied in
    place, each scored by [Layout_eval.miss_ratio_of_order] and reverted
    when rejected. Its result must equal [Anneal.search]'s byte for byte
    ([test_layout_eval_delta]), and it is the before-side of the
    [layout-eval-delta] bench's anneal wall. *)
