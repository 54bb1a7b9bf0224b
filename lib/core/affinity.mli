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
(** The one-pass kernel. @raise Invalid_argument if [wmax < 1] or the
    trace is not trimmed. *)

val cut : thresholds -> w:int -> pair_set
(** The pairs affine at window [w]: exactly [affine_pairs trace ~w]. O(1);
    the set shares the table. @raise Invalid_argument unless
    [1 <= w <= wmax]. *)

val affine_pairs : Colayout_trace.Trace.t -> w:int -> pair_set
(** [cut (thresholds trace ~wmax:w) ~w].
    @raise Invalid_argument if [w < 1] or the trace is not trimmed. *)

val affine_pairs_naive : Colayout_trace.Trace.t -> w:int -> pair_set
(** Quadratic-and-worse oracle; small traces only. *)

val partition : Colayout_trace.Trace.t -> w:int -> int list list
(** Algorithm 1 for one [w]: greedy grouping where a block joins the first
    existing group all of whose members it is affine with. Blocks are
    processed in order of first occurrence (deterministic). Only blocks
    occurring in the trace appear. *)

val window_footprint : Colayout_trace.Trace.t -> int -> int -> int
(** [window_footprint t a b] is [fp<a,b>]: distinct symbols in positions
    [min a b .. max a b] inclusive (Definition 2). *)
