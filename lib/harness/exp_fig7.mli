(** Figure 7: hyper-threading throughput.

    7a: throughput improvement of baseline co-run over running the two
    programs back-to-back on one thread (paper: 15% to over 30%).

    7b: the magnifying effect of function-affinity optimization — the 7a
    improvement with the first program optimized, divided by the baseline
    improvement (paper: >5.6% for 16 of 28 pairs, >=10% for 9, max 26%,
    mean 7.9%, one -8% degradation).

    As in the paper's figure, 28 pairs over 7 programs (gobmk excluded). *)

val run : Ctx.t -> Colayout_util.Table.t list
