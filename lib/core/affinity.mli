(** [w]-window reference affinity over code-block traces (§II-B).

    Definitions from the paper, over a trimmed trace:
    - the footprint [fp<a,b>] of two positions is the number of distinct
      blocks in the inclusive window between them (Definition 2);
    - blocks [x] and [y] have [w]-window affinity iff {e every} occurrence of
      [x] has some occurrence of [y] with [fp <= w], and vice versa
      (Definition 3).

    Two implementations:
    - {!thresholds} — the efficient single-pass stack algorithm the paper
      contributes, run once for every window up to [wmax]: one LRU-stack
      simulation; at each access the blocks within the top [wmax] of the
      stack witness co-occurrence at their footprint, and each pair keeps
      the smallest window at which every occurrence of both sides is
      witnessed. O(N·wmax) time. {!cut} reads off the pairs affine at any
      [w <= wmax]; {!affine_pairs} is the cut at [wmax = w].
    - {!affine_pairs_naive} — direct evaluation of Definition 3 by scanning,
      used as the test oracle.

    {!partition} is Algorithm 1's greedy grouping for a single [w]. *)

type pair_set

val is_affine : pair_set -> int -> int -> bool
(** Symmetric; a block is trivially affine with itself. *)

val pair_list : pair_set -> (int * int) list
(** Affine pairs with [x < y], sorted. *)

type thresholds
(** For every pair affine at some window up to the kernel's [wmax], the
    smallest such window. *)

val thresholds : Colayout_trace.Trace.t -> wmax:int -> thresholds
(** The one-pass kernel. Its per-ordered-pair witness payloads live in
    the calling domain's [Pair_grid] (both directions of a pair in
    adjacent cells) when the universe has at most
    [Int_pair_tbl.max_grid_universe] symbols, in a packed-pair table
    otherwise; the thresholds are the same either way. On the grid path
    the walk also keeps one byte per pair in the domain's pair marks
    ([Pair_grid.with_grid_marks]): once a direction of a pair misses an
    occurrence the pair can never be affine, and its later visits read
    only that byte. The table path visits every pair as before.
    @raise Invalid_argument if [wmax < 1] or the trace is not trimmed, or
    on the grid path when the calling domain's [Pair_grid] is already
    held. *)

val cut : thresholds -> w:int -> pair_set
(** The pairs affine at window [w]: exactly [affine_pairs trace ~w]. O(1);
    the set shares the table. @raise Invalid_argument unless
    [1 <= w <= wmax]. *)

val affine_pairs : Colayout_trace.Trace.t -> w:int -> pair_set
(** [cut (thresholds trace ~wmax:w) ~w].
    @raise Invalid_argument if [w < 1] or the trace is not trimmed. *)

val affine_pairs_naive : Colayout_trace.Trace.t -> w:int -> pair_set
(** Quadratic-and-worse oracle; small traces only. *)

val thresholds_naive : Colayout_trace.Trace.t -> ws:int list -> thresholds
(** The threshold table of {!affine_pairs_naive}, filled window by window
    over [ws] (positive, ascending): each pair bound to the first window
    of [ws] at which it is affine. Affinity is monotone in the window, so
    its cut at any [w] of [ws] is exactly [affine_pairs_naive trace ~w].
    Small traces only. *)

val iter_thresholds : (int -> int -> int -> unit) -> thresholds -> unit
(** [iter_thresholds f th] applies [f x y t] to each pair of the table
    once ([x < y], [t] its threshold), in no particular order. *)

val partition : Colayout_trace.Trace.t -> w:int -> int list list
(** Algorithm 1 for one [w]: greedy grouping where a block joins the first
    existing group all of whose members it is affine with. Blocks are
    processed in order of first occurrence (deterministic). Only blocks
    occurring in the trace appear. *)

val window_footprint : Colayout_trace.Trace.t -> int -> int -> int
(** [window_footprint t a b] is [fp<a,b>]: distinct symbols in positions
    [min a b .. max a b] inclusive (Definition 2). *)
