(* Evictions come from two sources with different semantics: [set_evictions]
   syncs the *absolute* cumulative count of this object's own simulator
   (idempotent — Hierarchy re-syncs on every stats read), while [merge_into]
   folds in *totals of other stats objects*. Keeping the two in separate
   cells makes both operations correct in any order: a re-sync after a merge
   refreshes only the own-simulator part and never clobbers merged
   contributions. *)
type t = {
  acc : int array;
  miss : int array;
  mutable pf : int;
  mutable ev_synced : int; (* last set_evictions value: own simulator *)
  mutable ev_merged : int; (* accumulated from merge_into sources *)
}

let create ?(threads = 1) () =
  if threads <= 0 then invalid_arg "Cache_stats.create";
  { acc = Array.make threads 0; miss = Array.make threads 0; pf = 0; ev_synced = 0; ev_merged = 0 }

let check t thread =
  if thread < 0 || thread >= Array.length t.acc then
    invalid_arg (Printf.sprintf "Cache_stats: bad thread %d" thread)

let record t ~thread ~hit =
  check t thread;
  t.acc.(thread) <- t.acc.(thread) + 1;
  if not hit then t.miss.(thread) <- t.miss.(thread) + 1

let record_span t ~thread ~accesses ~misses =
  check t thread;
  t.acc.(thread) <- t.acc.(thread) + accesses;
  t.miss.(thread) <- t.miss.(thread) + misses

let record_prefetches t n = t.pf <- t.pf + n

let set_evictions t n = t.ev_synced <- n

let evictions t = t.ev_synced + t.ev_merged

let sum = Array.fold_left ( + ) 0

let accesses t = sum t.acc

let misses t = sum t.miss

let hits t = accesses t - misses t

let prefetches t = t.pf

let miss_ratio t =
  let a = accesses t in
  if a = 0 then 0.0 else float_of_int (misses t) /. float_of_int a

let thread_accesses t i =
  check t i;
  t.acc.(i)

let thread_misses t i =
  check t i;
  t.miss.(i)

let thread_miss_ratio t i =
  let a = thread_accesses t i in
  if a = 0 then 0.0 else float_of_int (thread_misses t i) /. float_of_int a

let merge_into ~dst src =
  if Array.length dst.acc <> Array.length src.acc then
    invalid_arg "Cache_stats.merge_into: thread count mismatch";
  Array.iteri (fun i v -> dst.acc.(i) <- dst.acc.(i) + v) src.acc;
  Array.iteri (fun i v -> dst.miss.(i) <- dst.miss.(i) + v) src.miss;
  dst.pf <- dst.pf + src.pf;
  dst.ev_merged <- dst.ev_merged + evictions src

let to_string t =
  Printf.sprintf "accesses=%d misses=%d (%.3f%%) prefetches=%d evictions=%d" (accesses t)
    (misses t)
    (100.0 *. miss_ratio t)
    t.pf (evictions t)
