(* The seed set-associative LRU and [Icache.solo] line expansion, kept
   verbatim as the independent oracle for [Colayout_cache.Set_assoc]: an
   array of ways per set, [-1] for an invalid way, [Array.blit] shifts.
   The core replaced it in the library; keeping the original here means
   "engine == seed evaluator" and the core differential test compare two
   separately written LRU implementations. *)

open Colayout_util
open Colayout_cache

type t = {
  params : Params.t;
  (* ways.(set).(i) is the line cached in way i of the set, or -1; way order
     encodes recency: index 0 is MRU. *)
  ways : int array array;
  mutable evictions : int;
}

let create params =
  {
    params;
    ways = Array.init params.Params.num_sets (fun _ -> Array.make params.Params.assoc (-1));
    evictions = 0;
  }

let evictions t = t.evictions

let find_way set line =
  let rec loop i = if i >= Array.length set then -1 else if set.(i) = line then i else loop (i + 1) in
  loop 0

let promote set i =
  (* Move way [i] to MRU position 0, shifting [0, i) down by one. *)
  let line = set.(i) in
  Array.blit set 0 set 1 i;
  set.(0) <- line

let access_line t line =
  let set = t.ways.(Params.set_of_line t.params line) in
  let i = find_way set line in
  if i >= 0 then begin
    promote set i;
    true
  end
  else begin
    (* Miss: evict LRU (last slot) by shifting everything down. *)
    if set.(Array.length set - 1) >= 0 then t.evictions <- t.evictions + 1;
    Array.blit set 0 set 1 (Array.length set - 1);
    set.(0) <- line;
    false
  end

(* The line a miss on [line] would evict (the set's LRU way), or -1 — what
   the seed's profiled access reported as the victim. *)
let lru_way t line =
  let set = t.ways.(Params.set_of_line t.params line) in
  set.(Array.length set - 1)

let probe_line t line =
  let set = t.ways.(Params.set_of_line t.params line) in
  find_way set line >= 0

let fill_line t line =
  let set = t.ways.(Params.set_of_line t.params line) in
  let i = find_way set line in
  if i >= 0 then promote set i
  else begin
    if set.(Array.length set - 1) >= 0 then t.evictions <- t.evictions + 1;
    Array.blit set 0 set 1 (Array.length set - 1);
    set.(0) <- line
  end

let invalidate_all t =
  Array.iter (fun set -> Array.fill set 0 (Array.length set) (-1)) t.ways

let resident_lines t =
  let acc = ref [] in
  Array.iter (fun set -> Array.iter (fun l -> if l >= 0 then acc := l :: !acc) set) t.ways;
  List.sort compare !acc

let occupancy t = List.length (resident_lines t)

(* The seed [Prefetch.on_miss]: fill the next [degree] lines not already
   resident, counting each fill as a prefetch. *)
let prefetch_on_miss ~degree cache stats line =
  for l = line + 1 to line + degree do
    if not (probe_line cache l) then begin
      fill_line cache l;
      Cache_stats.record_prefetches stats 1
    end
  done

(* The seed [Icache.solo]: every executed block fetches every line its
   bytes span, one access at a time. *)
let solo ?prefetch_degree ~params ~(layout : Icache.layout) trace =
  let cache = create params in
  let stats = Cache_stats.create ~threads:1 () in
  Int_vec.iter
    (fun bid ->
      let first, last =
        Params.lines_spanned params ~addr:layout.Icache.addr.(bid) ~bytes:layout.Icache.bytes.(bid)
      in
      for line = first to last do
        let hit = access_line cache line in
        Cache_stats.record stats ~thread:0 ~hit;
        if not hit then
          Option.iter (fun degree -> prefetch_on_miss ~degree cache stats line) prefetch_degree
      done)
    trace;
  Cache_stats.set_evictions stats (evictions cache);
  stats
