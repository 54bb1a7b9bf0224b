(** One dense [n × n] int grid per domain, reused by the pair kernels.

    [Trg.build], [Affinity.thresholds], [Trg_reduce.reduce] and
    [Ingest]'s consensus merge count per-pair values into a flat grid
    indexed [x * n + y] when the symbol universe has at most
    [Int_pair_tbl.max_grid_universe] symbols. Instead of allocating one
    [n × n] [int array] per call (13.4 MB on 445.gobmk's 1,293 blocks, a
    fresh page fault per 4 KB and a major-heap block the GC marks and
    sweeps), each domain keeps one off-heap grid ([Bigarray], which the
    GC never scans) in [Domain.DLS] and lends it out.

    {b Zeroed on entry and exit.} A holder always receives a grid whose
    every cell is 0, and must leave it so when it returns: each kernel
    clears the cells it wrote in the read-out pass that already visits
    them (or in one pass over the pairs it wrote). When the holder raises
    instead, {!with_grid} fills the whole view with 0 before re-raising,
    so a failed call never leaves stale counts for the next one.

    {b Memory.} The grid grows to the largest [n²] cells asked of it on
    the domain and is never shrunk: [8 · n²] bytes per domain that ran a
    grid kernel, ~13 MB for 445.gobmk and at most 32 MiB at the 2,048
    symbol bound.

    {b Marks.} A holder that asks for them ({!with_grid_marks}) also
    gets one byte per unordered pair of the [n] symbols, lent and handed
    back all 0 under the same rule as the cells: [Affinity.thresholds]
    marks there the pairs its walk no longer needs to visit. They live
    with the grid, grow to the largest [n * (n - 1) / 2] bytes asked of
    them on the domain and are never shrunk: ~0.8 MB for 445.gobmk and at
    most 2 MiB at the 2,048 symbol bound, on top of the grid.

    {b Nesting.} One holder per domain at a time. A kernel that needed
    the grid while its own domain already holds it would overwrite the
    holder's counts, so it is refused; domains never share a grid. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Exposed so that element accesses compile inline: the kind and layout
    are static at every use. *)

val with_grid : string -> n:int -> (t -> 'a) -> 'a
(** [with_grid who ~n f] runs [f g], where [g] is a view of exactly
    [n * n] cells of the calling domain's grid, all 0. [f] must leave
    every cell 0 when it returns; if it raises, the view is zeroed and the
    grid released before the exception propagates. [who] names the caller
    in error messages.
    @raise Invalid_argument ["<who>: the pair grid is already held on this
    domain"] when called inside another [with_grid] on the same domain
    (the holder's grid is left untouched), or ["<who>: grid side n outside
    [0, max_grid_universe]"] unless
    [0 <= n <= Int_pair_tbl.max_grid_universe]. *)

type marks = Bytes.t
(** The pair marks: byte [hi * (hi - 1) / 2 + lo] belongs to the pair
    [lo < hi]. *)

val with_grid_marks : string -> n:int -> (t -> marks -> 'a) -> 'a
(** [with_grid_marks who ~n f] is {!with_grid} whose holder also
    receives the domain's pair marks: at least [n * (n - 1) / 2] bytes,
    all 0, which [f] must leave 0 when it returns; if it raises, the
    first [n * (n - 1) / 2] are zeroed with the view. One hold covers
    both: the same errors, and a nested hold of either kind is refused. *)

val capacity : unit -> int
(** Cells the calling domain's grid holds now: the largest [n * n] asked
    of it so far, 0 before the first use. *)
