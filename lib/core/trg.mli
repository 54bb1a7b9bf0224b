(** Temporal-relationship graph (Definition 6, after Gloy & Smith).

    Nodes are code blocks; an undirected edge's weight counts potential cache
    conflicts: the number of times two successive occurrences of one endpoint
    are interleaved with at least one occurrence of the other (and vice
    versa). Construction is the original one-pass algorithm: walk an LRU
    stack bounded at the analysis window; when a block recurs within the
    window, every distinct block above it on the stack — each one accessed
    between its two occurrences — gets its edge incremented.

    The window [q] bounds how far apart (in distinct blocks) two successive
    occurrences may be and still count — Gloy & Smith recommend a window of
    twice the cache size, which {!recommended_window} computes.

    Representation: every graph is a CSR index (sorted neighbour/weight
    arrays) that answers {!weight} by binary search in either argument
    order and iterates edges over contiguous arrays. On a universe of at
    most [Int_pair_tbl.max_grid_universe] symbols, {!build} counts each
    recurrence into the domain's dense [n × n] directed [Pair_grid] and
    reads the CSR off its upper triangle ([w = m.(x).(y) + m.(y).(x)],
    [y > x]); on larger universes, and in {!of_edges}, each undirected
    edge accumulates once into a flat [Int_pair_tbl] under
    [(min lsl 31) lor max], whose sorted keys give the CSR. Both paths
    give the same graph; the table is dropped once the graph is built,
    and the grid goes back to its domain zeroed.
    The packed coordinates bound the symbol universe: constructors raise
    [Invalid_argument] when [num_symbols >= 2^31]. *)

type t

val build : ?window:int -> Colayout_trace.Trace.t -> t
(** [window] in blocks; default unbounded. The trace must be trimmed.
    @raise Invalid_argument on the grid path when the calling domain's
    [Pair_grid] is already held (see [Pair_grid.with_grid]). *)

val num_nodes : t -> int
(** Size of the symbol universe (not all need occur). *)

val weight : t -> int -> int -> int
(** Symmetric; 0 when no edge. *)

val edges : t -> (int * int * int) list
(** [(x, y, w)] with [x < y], sorted by decreasing weight then ids. *)

val iter_edges : (int -> int -> int -> unit) -> t -> unit
(** [iter_edges f t] applies [f x y w] to each undirected edge once
    ([x < y]), in CSR (ascending [(x, y)]) order, without building a list. *)

val degree : t -> int -> int

val of_edges : num_nodes:int -> (int * int * int) list -> t
(** Build directly from weighted edges (for tests, the Figure 2 worked
    example and merging graphs); an edge listed more than once weighs the
    sum of its weights. @raise Invalid_argument on self loops, non-positive weights or
    out-of-range nodes. *)

val of_grid : num_nodes:int -> Colayout_util.Pair_grid.t -> t
(** [of_grid ~num_nodes:n m] is the graph of a directed [n × n] count grid
    [m.{x * n + y}]: edge [{x, y}] weighs [m.{x * n + y} + m.{y * n + x}]
    and exists when that is positive. The grid is consumed: every cell is
    0 when it returns, as a [Pair_grid] holder must leave it. This is
    {!build}'s grid path after its walk, and how [Ingest] emits its
    exact-mode consensus.
    @raise Invalid_argument when [m] does not hold exactly [n * n] cells. *)

val csr : t -> int array * int array * int array
(** [(row_ptr, nbr, wt)]: the graph's CSR arrays, shared, not
    copied, and not to be mutated. Row [x] is
    [nbr.(row_ptr.(x) .. row_ptr.(x + 1) - 1)], the neighbours [y > x] in
    ascending order, with parallel weights in [wt]; {!iter_edges} visits
    the same edges in the same order. For kernels that walk every edge
    without a call per edge. *)

val recommended_window :
  params:Colayout_cache.Params.t -> block_bytes:int -> cache_multiplier:float -> int
(** Number of same-size blocks spanned by [cache_multiplier] × cache size:
    the 2C window of §II-C when [cache_multiplier = 2.0]. *)
