(** Ablations of the optimizers' design choices (DESIGN.md §5), on
    445.gobmk's basic-block and function traces: the affinity window range,
    the hot-block pruning threshold, the TRG analysis-cache multiplier, and
    TRG reordering against Gloy and Smith's padded placement. Every row is
    a solo miss ratio on the context's reference trace and cache; the rows
    at the paper's settings are the context's memoized
    {!Ctx.solo_miss_ratio} numbers. *)

val run : Ctx.t -> Colayout_util.Table.t list
