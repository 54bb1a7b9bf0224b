open Colayout_util

type layout = {
  addr : int array;
  bytes : int array;
}

let lines_of_block ~params ~layout bid =
  Params.lines_spanned params ~addr:layout.addr.(bid) ~bytes:layout.bytes.(bid)

(* The trace as a replay stream: a view of the vector's backing array,
   not a copy. A block without bytes keeps the empty span [0, -1], so
   only executing it is an error, reported as [Params.lines_spanned]
   reports it; every other id is checked by the replay itself. *)
let stream ~params ~layout ~offset trace =
  let n = Array.length layout.addr in
  let first = Array.make n 0 and last = Array.make n (-1) in
  let empty = ref false in
  for b = 0 to n - 1 do
    if layout.bytes.(b) > 0 then begin
      let f, l = lines_of_block ~params ~layout b in
      first.(b) <- f;
      last.(b) <- l
    end
    else empty := true
  done;
  if !empty then
    Int_vec.iter
      (fun b ->
        if b >= 0 && b < n && layout.bytes.(b) <= 0 then ignore (lines_of_block ~params ~layout b))
      trace;
  { Set_assoc.trace = Int_vec.backing trace; length = Int_vec.length trace; first; last; offset }

let degree = function None -> 0 | Some p -> Prefetch.degree p

let stats_of cache (r : Set_assoc.tally) =
  let stats = Cache_stats.create ~threads:(Array.length r.accesses) () in
  Array.iteri
    (fun thread accesses ->
      Cache_stats.record_span stats ~thread ~accesses ~misses:r.misses.(thread))
    r.accesses;
  Cache_stats.record_prefetches stats r.fills;
  Cache_stats.set_evictions stats (Set_assoc.evictions cache);
  stats

let solo ?prefetch ?sink ~params ~layout trace =
  let cache = Set_assoc.create ?sink params in
  let s = stream ~params ~layout ~offset:0 trace in
  stats_of cache (Set_assoc.replay cache ~prefetch:(degree prefetch) s)

let shared ?prefetch ?sink ?(rates = (1.0, 1.0)) ~params ~layouts (t0, t1) =
  let l0, l1 = layouts in
  let cache = Set_assoc.create ?sink params in
  (* Offset thread 1 into a distinct, set-alignment-preserving address
     region: distinct processes cannot share lines, but their set mapping is
     what it would be solo. *)
  let s0 = stream ~params ~layout:l0 ~offset:0 t0 in
  let s1 = stream ~params ~layout:l1 ~offset:(1 lsl 40) t1 in
  stats_of cache (Set_assoc.corun cache ~prefetch:(degree prefetch) ~rates s0 s1)
