(** Pettis–Hansen procedure placement — the classic call-graph baseline.

    The canonical "closest is best" heuristic (Pettis & Hansen, PLDI 1990)
    that modern layout tools (hfsort, BOLT, Propeller) descend from, and the
    natural third comparator next to the paper's affinity and TRG models:
    where those use {e temporal co-occurrence}, Pettis–Hansen uses only the
    {e weighted dynamic call graph}.

    Algorithm: nodes start as singleton chains; repeatedly take the heaviest
    remaining call-graph edge and concatenate the two chains its endpoints
    belong to, choosing among the four end-to-end orientations the one that
    puts the edge's endpoints closest together. Remaining chains are emitted
    heaviest-connection first. *)

type graph

val graph_of_edges : num_funcs:int -> (int * int * int) list -> graph
(** For tests: [(caller, callee, weight)]. Self edges (recursion) are
    ignored — they do not constrain placement. *)

val edge_weight : graph -> int -> int -> int

val order : ?decisions:Decision_trace.t -> graph -> int list
(** The placement: functions that call each other frequently end up
    adjacent. Functions with no call edges are omitted (callers append them
    in original order). Deterministic. With [decisions], emits a
    ["pettis-hansen"] [chain-merge] event per concatenation with the edge
    weight that drove it and the combined chain length. *)

val layout_for :
  ?decisions:Decision_trace.t -> Colayout_ir.Program.t -> Colayout_util.Int_vec.t -> Layout.t
(** Full function-reordering optimizer from a call trace. *)
