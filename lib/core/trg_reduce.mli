(** TRG reduction (Algorithm 2): turn a temporal-relationship graph into a
    code-block order.

    The cache is viewed as [K] same-size code slots. Repeatedly take the
    heaviest edge; each unplaced endpoint goes to the slot it conflicts with
    least (an empty slot if any — scanned in index order, first minimum
    wins), is appended to that slot's link list, and is merged into the
    slot's node (edge weights combine). Edges between different slots' nodes
    are removed: blocks in different slots cannot conflict. The output
    sequence interleaves the link lists round-robin, so consecutive output
    blocks land in different slots while same-list blocks land a full cache
    apart — exactly the placement the conflict weights argue against.

    The paper's worked example (Figure 2, 3 slots) is reproduced: reduction
    order A-B, E-F, then C, giving the sequence [A B E F C].

    The implementation is a node tournament. Every edge that can still
    place a node has an unplaced endpoint, and its other endpoint is
    unplaced or a slot's node; so the heaviest such edge is the best live
    edge of some unplaced node. Each unplaced node with an edge sits in an
    indexed max-heap keyed by its best live edge, and each step pops the
    top node's edge instead of draining a heap of edges. A merge only ever
    raises a neighbour's best, except when it kills the neighbour's best
    and the edge to the slot's node ties it with a larger key: that
    neighbour's edges are rescanned. Current weights live in the calling
    domain's dense [n × n] [Pair_grid] when the graph has at most
    [Int_pair_tbl.max_grid_universe] nodes, in one packed-pair table
    otherwise (the same values either way); the drain stops once every
    node with an edge is placed. The initial graph's symmetric neighbour
    rows and their offsets live in off-heap buffers the calling domain
    keeps between calls ([Colayout_util.Lent]), grown to the largest
    graph reduced there and never shrunk: 8 · (2E + n + 1) bytes per
    domain, ~8.1 MB for 445.gobmk's bb TRG, on both paths. It makes the same decisions as the seed
    reduction kept as a test oracle ([Kernel_baseline.trg_reduce] in
    [test/oracle/]); DESIGN.md §5.17 gives the argument. *)

type result = {
  order : int list;
      (** Placed blocks, round-robin across slots. Blocks with no TRG edge
          are not placed; callers append them (the optimizer keeps them in
          original order, as residual cold code). *)
  slot_lists : int list array;  (** Final link-list contents per slot. *)
}

val reduce : ?decisions:Decision_trace.t -> Trg.t -> slots:int -> result
(** @raise Invalid_argument if [slots < 1], when the calling domain's
    reduction rows are already held (see {!with_rows}), or on the grid
    path when its [Pair_grid] is. Deterministic: edge ties break
    toward smaller node ids. With [decisions], emits a ["trg-reduce"] event
    per placement ([place] into an empty slot, [merge] into a slot's node),
    carrying the driving edge weight and the slot index. *)

val with_rows : (unit -> 'a) -> 'a
(** [with_rows f] runs [f] holding the calling domain's reduction rows,
    as {!reduce} holds them for its whole call, and releases them when
    [f] returns or raises. A {!reduce} on the same domain inside [f]
    raises [Invalid_argument] instead of overwriting the holder's rows.
    No reduction nests today; this lets the guard be exercised. *)

val slots_for :
  params:Colayout_cache.Params.t -> block_bytes:int -> cache_multiplier:float -> int
(** [K = (C/(A·B)) / ceil(S/(A·B))] of §II-C, with [C] scaled by
    [cache_multiplier] (the paper follows Gloy & Smith's advice of 2×). *)
