(** Hierarchical [w]-window affinity (Definition 5) and the layout order it
    induces.

    The hierarchy is built agglomeratively: starting from singleton groups,
    for each [w] (ascending) existing groups merge when every cross pair is
    [w]-affine. Lower-level groups are kept as units — the paper's
    "lower-level group takes precedence" rule — so partitions nest and form
    the dendrogram of Figure 1(b). The optimized code order is the
    bottom-up traversal of that dendrogram, with sibling subtrees ordered by
    the first trace occurrence of their earliest member (this reproduces the
    paper's worked example: trace [B1 B4 B2 B4 B2 B3 B5 B1 B4] yields
    [B1 B4 B2 B3 B5]). *)

type node =
  | Leaf of int
  | Group of { w : int; children : node list }
      (** [w] is the window size at which the children merged. *)

type t = {
  roots : node list;  (** Top-level groups, first-occurrence order. *)
  ws : int list;  (** The window sizes analyzed, ascending. *)
}

type algo =
  | Efficient
      (** The paper's stack algorithm, run once at the largest window
          ({!Affinity.thresholds}, O(N·max ws)) and cut at each level; sound
          (never reports a non-affine pair) but may miss affinities when a
          block re-occurs inside the window. Production path. *)
  | Exact  (** Definition-3 oracle; small traces only. *)

val default_ws : int list
(** 2..20 — the paper chooses w between 2 and 20 (§II-B). *)

val build :
  ?decisions:Decision_trace.t -> ?algo:algo -> ?ws:int list -> Colayout_trace.Trace.t -> t
(** @raise Invalid_argument if the trace is not trimmed or [ws] is not
    positive ascending. With [decisions], emits an ["affinity"] [join] event
    per group absorbed into a cluster (weight = window size, group = cluster
    index) and a [level] summary event per window size with the surviving
    group count. *)

val members : node -> int list

val order : t -> int list
(** Bottom-up traversal: the optimized sequence of the blocks that occur in
    the analyzed trace. *)

val partition_at : t -> w:int -> int list list
(** The affinity partition at window size [w]: groups induced by cutting the
    dendrogram at [w] (merges with [Group.w <= w] applied). *)

val pp : Format.formatter -> t -> unit
