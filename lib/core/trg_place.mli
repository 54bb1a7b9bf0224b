(** Gloy & Smith's original TRG placement, with padding.

    The paper's TRG *reduction* (§II-C) finds a new code order; the original
    TPCM procedure instead leaves the order free and chooses a cache-relative
    *alignment* for each function, inserting gaps so that functions with
    heavy temporal conflicts occupy disjoint cache sets. This module
    implements that original scheme so the two can be compared (the
    order-vs-padding ablation in the benchmark harness): padding removes
    conflicts without moving code but inflates the code segment, costing
    capacity and fetch footprint.

    Greedy algorithm: process edges heaviest-first; each unplaced endpoint
    picks the starting cache set that minimizes the edge-weighted set overlap
    with its already-placed neighbours, and is laid at the next address with
    that set alignment (the gap is the padding). *)

type placement = {
  base_addr : int array;  (** Per node; -1 for nodes never placed. *)
  total_bytes : int;  (** End of the padded segment. *)
  padding_bytes : int;  (** Total padding inserted. *)
}

val place :
  Trg.t ->
  sizes:int array ->
  params:Colayout_cache.Params.t ->
  placement
(** [sizes] is indexed by node id (bytes). Nodes without TRG edges are
    appended unpadded after the placed ones, in id order. *)

val layout_for :
  ?config:Optimizer.config ->
  Colayout_ir.Program.t ->
  Optimizer.analysis ->
  Layout.t
(** The full padded-TPCM function optimizer: TRG on the function trace, then
    padded placement. *)
