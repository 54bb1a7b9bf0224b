open Colayout_cache
open Colayout_oracle

let check = Alcotest.check

let test_params () =
  let p = Params.default_l1i in
  check Alcotest.int "sets" 128 p.Params.num_sets;
  check Alcotest.int "lines" 512 (Params.lines_total p);
  check Alcotest.int "line_of_addr" 2 (Params.line_of_addr p 128);
  check Alcotest.int "set wraps" 0 (Params.set_of_line p 128);
  check Alcotest.int "set_of_addr" 1 (Params.set_of_addr p 64);
  check (Alcotest.pair Alcotest.int Alcotest.int) "lines spanned" (1, 2)
    (Params.lines_spanned p ~addr:100 ~bytes:64);
  check (Alcotest.pair Alcotest.int Alcotest.int) "single line" (0, 0)
    (Params.lines_spanned p ~addr:0 ~bytes:64);
  check Alcotest.string "to_string" "32KB/4-way/64B (128 sets)" (Params.to_string p);
  check Alcotest.string "small to_string" "512B/1-way/64B (8 sets)"
    (Params.to_string (Params.make ~size_bytes:512 ~assoc:1 ~line_bytes:64));
  Alcotest.check_raises "non pow2" (Invalid_argument "Params.make: size must be a power of two")
    (fun () -> ignore (Params.make ~size_bytes:1000 ~assoc:4 ~line_bytes:64))

let test_cache_stats () =
  let s = Cache_stats.create ~threads:2 () in
  Cache_stats.record s ~thread:0 ~hit:true;
  Cache_stats.record s ~thread:0 ~hit:false;
  Cache_stats.record s ~thread:1 ~hit:false;
  Cache_stats.record_prefetches s 1;
  check Alcotest.int "accesses" 3 (Cache_stats.accesses s);
  check Alcotest.int "misses" 2 (Cache_stats.misses s);
  check Alcotest.int "hits" 1 (Cache_stats.hits s);
  check Alcotest.int "prefetches" 1 (Cache_stats.prefetches s);
  check (Alcotest.float 1e-9) "thread 0 ratio" 0.5 (Cache_stats.thread_miss_ratio s 0);
  check (Alcotest.float 1e-9) "thread 1 ratio" 1.0 (Cache_stats.thread_miss_ratio s 1);
  let s2 = Cache_stats.create ~threads:2 () in
  Cache_stats.record s2 ~thread:0 ~hit:false;
  Cache_stats.merge_into ~dst:s s2;
  check Alcotest.int "merged accesses" 4 (Cache_stats.accesses s)

let test_cache_stats_merged_evictions () =
  (* set_evictions is an absolute sync from the stats' own simulator;
     merge_into adds another run's evictions. The two must commute: syncing
     again after a merge must not erase the merged contribution. *)
  let a = Cache_stats.create () and b = Cache_stats.create () in
  Cache_stats.set_evictions a 5;
  Cache_stats.set_evictions b 3;
  check Alcotest.int "own evictions" 5 (Cache_stats.evictions a);
  Cache_stats.merge_into ~dst:a b;
  check Alcotest.int "merged evictions" 8 (Cache_stats.evictions a);
  (* The owning simulator re-syncs its (absolute, now larger) count. *)
  Cache_stats.set_evictions a 7;
  check Alcotest.int "re-sync keeps merged" 10 (Cache_stats.evictions a);
  (* Idempotent: syncing the same absolute value changes nothing. *)
  Cache_stats.set_evictions a 7;
  check Alcotest.int "sync idempotent" 10 (Cache_stats.evictions a)

(* 256 B / 2-way / 64 B lines: 2 sets, 4 lines of capacity. Even lines map
   to set 0, odd to set 1 — small enough to classify every miss by hand. *)
let classify_params = Params.make ~size_bytes:256 ~assoc:2 ~line_bytes:64

let run_classified lines =
  let sink = Profile_sink.create ~params:classify_params () in
  let c = Set_assoc.create ~sink classify_params in
  List.iter
    (fun line -> ignore (Set_assoc.access_line c ~thread:0 ~block:line line))
    lines;
  sink

let test_classify_cold () =
  (* First-ever touches only: every miss is cold. *)
  let sink = run_classified [ 0; 1; 2; 3 ] in
  check Alcotest.int "accesses" 4 (Profile_sink.accesses sink);
  check Alcotest.int "misses" 4 (Profile_sink.misses sink);
  check Alcotest.int "cold" 4 (Profile_sink.cold_misses sink);
  check Alcotest.int "capacity" 0 (Profile_sink.capacity_misses sink);
  check Alcotest.int "conflict" 0 (Profile_sink.conflict_misses sink)

let test_classify_conflict () =
  (* Lines 0, 2, 4 all map to set 0 (2 ways): the third evicts line 0 even
     though the cache (capacity 4) could hold all three. Re-touching 0 is a
     miss here but a hit in the fully-associative shadow — a conflict miss,
     by construction. *)
  let sink = run_classified [ 0; 2; 4; 0 ] in
  check Alcotest.int "accesses" 4 (Profile_sink.accesses sink);
  check Alcotest.int "misses" 4 (Profile_sink.misses sink);
  check Alcotest.int "cold" 3 (Profile_sink.cold_misses sink);
  check Alcotest.int "capacity" 0 (Profile_sink.capacity_misses sink);
  check Alcotest.int "conflict" 1 (Profile_sink.conflict_misses sink);
  (* The conflict is attributed to the block that re-missed (block=line 0
     here), with its access/miss counts intact. *)
  let row =
    List.find (fun r -> r.Profile_sink.block = 0) (Profile_sink.block_rows sink)
  in
  check Alcotest.int "block 0 accesses" 2 row.Profile_sink.b_accesses;
  check Alcotest.int "block 0 misses" 2 row.Profile_sink.b_misses;
  check Alcotest.int "block 0 cold" 1 row.Profile_sink.b_cold;
  check Alcotest.int "block 0 conflict" 1 row.Profile_sink.b_conflict

let test_classify_capacity () =
  (* A cyclic sweep over 8 lines — double the 4-line capacity — misses on
     every access in the second pass, in the shadow cache too (reuse
     distance 8 > 4): pure capacity misses, zero conflict. *)
  let sweep = List.init 8 Fun.id in
  let sink = run_classified (sweep @ sweep) in
  check Alcotest.int "accesses" 16 (Profile_sink.accesses sink);
  check Alcotest.int "misses" 16 (Profile_sink.misses sink);
  check Alcotest.int "cold" 8 (Profile_sink.cold_misses sink);
  check Alcotest.int "capacity" 8 (Profile_sink.capacity_misses sink);
  check Alcotest.int "conflict" 0 (Profile_sink.conflict_misses sink)

let test_sink_per_set () =
  let sink = run_classified [ 0; 2; 4; 0; 1 ] in
  check Alcotest.int "num_sets" 2 (Profile_sink.num_sets sink);
  let a0, m0, e0 = Profile_sink.set_counters sink ~set:0 in
  let a1, m1, e1 = Profile_sink.set_counters sink ~set:1 in
  check Alcotest.int "set0 accesses" 4 a0;
  check Alcotest.int "set0 misses" 4 m0;
  (* Set 0 saw lines 0,2,4,0 through 2 ways: evictions on the 3rd and 4th
     fills. Set 1 saw one cold fill of an empty way. *)
  check Alcotest.int "set0 evictions" 2 e0;
  check Alcotest.int "set1" 1 a1;
  check Alcotest.int "set1 misses" 1 m1;
  check Alcotest.int "set1 evictions" 0 e1;
  check Alcotest.int "set sums = totals" (Profile_sink.accesses sink) (a0 + a1);
  check Alcotest.int "eviction total" (Profile_sink.evictions sink) (e0 + e1)

let test_set_assoc_lru () =
  (* 1 set, 2 ways: a tiny cache with observable LRU. *)
  let p = Params.make ~size_bytes:128 ~assoc:2 ~line_bytes:64 in
  let c = Set_assoc.create p in
  check Alcotest.bool "cold miss" false (Set_assoc.access_line c ~thread:0 ~block:0 1);
  check Alcotest.bool "hit" true (Set_assoc.access_line c ~thread:0 ~block:0 1);
  check Alcotest.bool "second line" false (Set_assoc.access_line c ~thread:0 ~block:0 2);
  check Alcotest.bool "1 still resident" true (Set_assoc.access_line c ~thread:0 ~block:0 1);
  (* Insert 3: evicts LRU = 2. *)
  check Alcotest.bool "3 misses" false (Set_assoc.access_line c ~thread:0 ~block:0 3);
  check Alcotest.bool "2 evicted" false (Set_assoc.probe_line c 2);
  check Alcotest.bool "1 survived" true (Set_assoc.probe_line c 1);
  check Alcotest.int "occupancy" 2 (Set_assoc.occupancy c);
  Set_assoc.invalidate_all c;
  check Alcotest.int "after invalidate" 0 (Set_assoc.occupancy c)

let test_set_mapping_isolation () =
  let p = Params.make ~size_bytes:512 ~assoc:1 ~line_bytes:64 in
  (* 8 sets, direct-mapped: lines 0 and 8 collide; 0 and 1 do not. *)
  let c = Set_assoc.create p in
  ignore (Set_assoc.access_line c ~thread:0 ~block:0 0);
  ignore (Set_assoc.access_line c ~thread:0 ~block:0 1);
  check Alcotest.bool "no conflict different sets" true (Set_assoc.probe_line c 0);
  ignore (Set_assoc.access_line c ~thread:0 ~block:0 8);
  check Alcotest.bool "conflict same set" false (Set_assoc.probe_line c 0);
  check Alcotest.bool "line 1 untouched" true (Set_assoc.probe_line c 1)

let set_assoc_matches_fully_assoc =
  QCheck.Test.make
    ~name:"single-set set-assoc equals fully-associative LRU" ~count:100
    QCheck.(list (int_bound 10))
    (fun xs ->
      let p = Params.make ~size_bytes:(4 * 64) ~assoc:4 ~line_bytes:64 in
      (* All lines map to set 0 when we multiply by num_sets (=1 here). *)
      let sa = Set_assoc.create p in
      let fa = Fully_assoc.create ~capacity:4 in
      List.for_all
        (fun x -> Set_assoc.access_line sa ~thread:0 ~block:0 x = Fully_assoc.access_line fa x)
        xs)

(* The core against the seed LRU it replaced, kept as a test oracle: random
   geometries and random line streams mixing demand accesses, prefetch
   fills, probes and invalidations. After every operation both agree on
   hit/miss, on the victim (the seed's LRU way is the one line that leaves
   the core), on the eviction count, occupancy and the resident set.
   Params require power-of-two geometries: assoc 1..8, sets 1..64. *)
type op = Access of int | Prefetch of int | Probe of int | Invalidate

let string_of_op = function
  | Access l -> Printf.sprintf "A%d" l
  | Prefetch l -> Printf.sprintf "P%d" l
  | Probe l -> Printf.sprintf "Q%d" l
  | Invalidate -> "I"

let core_matches_seed_lru =
  let open QCheck.Gen in
  let gen =
    int_range 0 3 >>= fun assoc_log ->
    int_range 0 6 >>= fun sets_log ->
    let universe = 3 * (1 lsl (assoc_log + sets_log)) in
    let line = int_bound universe in
    let op =
      frequency
        [
          (8, map (fun l -> Access l) line);
          (2, map (fun l -> Prefetch l) line);
          (2, map (fun l -> Probe l) line);
          (1, return Invalidate);
        ]
    in
    map (fun ops -> (1 lsl assoc_log, 1 lsl sets_log, ops)) (list_size (int_range 1 400) op)
  in
  let print (assoc, sets, ops) =
    Printf.sprintf "assoc=%d sets=%d [%s]" assoc sets (String.concat " " (List.map string_of_op ops))
  in
  QCheck.Test.make ~name:"core = seed LRU per operation" ~count:300 (QCheck.make ~print gen)
    (fun (assoc, sets, ops) ->
      let p = Params.make ~size_bytes:(sets * assoc * 64) ~assoc ~line_bytes:64 in
      let core = Set_assoc.create p and seed = Seed_lru.create p in
      let universe = List.init ((3 * assoc * sets) + 1) Fun.id in
      let step = function
        | Access l ->
          let victim = Seed_lru.lru_way seed l in
          let victim_was_in = victim < 0 || Set_assoc.probe_line core victim in
          let hit = Seed_lru.access_line seed l in
          hit = Set_assoc.access_line core ~thread:0 ~block:0 l
          && (hit || victim < 0 || (victim_was_in && not (Set_assoc.probe_line core victim)))
        | Prefetch l ->
          let absent = not (Seed_lru.probe_line seed l) in
          if absent then Seed_lru.fill_line seed l;
          Set_assoc.prefetch_line core l = absent
        | Probe l -> Seed_lru.probe_line seed l = Set_assoc.probe_line core l
        | Invalidate ->
          Seed_lru.invalidate_all seed;
          Set_assoc.invalidate_all core;
          true
      in
      List.for_all
        (fun op ->
          step op
          && Seed_lru.evictions seed = Set_assoc.evictions core
          && Seed_lru.occupancy seed = Set_assoc.occupancy core
          && List.filter (Set_assoc.probe_line core) universe = Seed_lru.resident_lines seed)
        ops)

(* [Icache.solo] on the core — span calls without a prefetcher, per-line
   calls with one — equals the seed solo replay on the seed LRU. *)
let icache_solo_matches_seed =
  let open QCheck.Gen in
  let gen =
    int_range 1 12 >>= fun nblocks ->
    list_repeat nblocks (int_range 1 200) >>= fun sizes ->
    list_size (int_range 1 300) (int_bound (nblocks - 1)) >>= fun trace ->
    int_range 0 2 >>= fun degree -> return (sizes, trace, degree)
  in
  let print (sizes, trace, degree) =
    Printf.sprintf "sizes=[%s] trace=[%s] degree=%d"
      (String.concat ";" (List.map string_of_int sizes))
      (String.concat ";" (List.map string_of_int trace))
      degree
  in
  QCheck.Test.make ~name:"Icache.solo = seed solo, with and without prefetch" ~count:200
    (QCheck.make ~print gen) (fun (sizes, trace, degree) ->
      let params = Params.make ~size_bytes:512 ~assoc:2 ~line_bytes:64 in
      let bytes = Array.of_list sizes in
      let addr = Array.make (Array.length bytes) 0 in
      for i = 1 to Array.length bytes - 1 do
        addr.(i) <- addr.(i - 1) + bytes.(i - 1)
      done;
      let layout = { Icache.addr; bytes } in
      let trace = Colayout_util.Int_vec.of_list trace in
      let prefetch, prefetch_degree =
        if degree = 0 then (None, None) else (Some (Prefetch.create ~degree ()), Some degree)
      in
      let core = Icache.solo ?prefetch ~params ~layout trace in
      let seed = Seed_lru.solo ?prefetch_degree ~params ~layout trace in
      Cache_stats.to_string core = Cache_stats.to_string seed)

(* Unprofiled simulation allocates nothing per access: the whole entry
   point surface, driven over a long stream, leaves the minor heap alone. *)
let test_core_allocation_free () =
  let p = Params.make ~size_bytes:1024 ~assoc:4 ~line_bytes:64 in
  let c = Set_assoc.create p in
  let prng = Colayout_util.Prng.create ~seed:3 in
  let lines = Array.init 20_000 (fun _ -> Colayout_util.Prng.int prng 96) in
  let before = Gc.minor_words () in
  let hits = ref 0 in
  for i = 0 to Array.length lines - 1 do
    let l = lines.(i) in
    if Set_assoc.access_line c ~thread:0 ~block:0 l then incr hits;
    hits := !hits + Set_assoc.access_span c ~thread:0 ~block:0 ~first:l ~last:(l + 2);
    if Set_assoc.prefetch_line c (l + 3) then incr hits;
    if Set_assoc.probe_line c l then incr hits
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words allocated" 0. words;
  check Alcotest.bool "stream exercised the cache" true (!hits > 0);
  (* The trace replays allocate per call (the tally), never per access:
     the same minor words at two trace lengths, prefetching or not. *)
  let nb = 40 in
  let first = Array.init nb (fun b -> 3 * b) in
  let last = Array.init nb (fun b -> (3 * b) + (b mod 3)) in
  let stream n offset =
    let trace = Array.init n (fun _ -> Colayout_util.Prng.int prng nb) in
    { Set_assoc.trace; length = n; first; last; offset }
  in
  let words_of run =
    let c = Set_assoc.create p in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (run c));
    Gc.minor_words () -. before
  in
  List.iter
    (fun prefetch ->
      let short = stream 2_000 0 and long = stream 16_000 0 in
      let peer_short = stream 2_000 (1 lsl 40) and peer_long = stream 16_000 (1 lsl 40) in
      check (Alcotest.float 0.)
        (Printf.sprintf "replay, prefetch %d: words independent of length" prefetch)
        (words_of (fun c -> Set_assoc.replay c ~prefetch short))
        (words_of (fun c -> Set_assoc.replay c ~prefetch long));
      (* A co-run grows the domain's flat-stream buffers once, to the
         longest streams it has run (a new Bigarray header each), and
         keeps them: one warm-up call at the long size first, so both
         measured calls run on buffers that are already big enough. *)
      ignore (Set_assoc.corun (Set_assoc.create p) ~prefetch ~rates:(1.0, 0.4) long peer_long);
      check (Alcotest.float 0.)
        (Printf.sprintf "corun, prefetch %d: words independent of length" prefetch)
        (words_of (fun c -> Set_assoc.corun c ~prefetch ~rates:(1.0, 0.4) short peer_short))
        (words_of (fun c -> Set_assoc.corun c ~prefetch ~rates:(1.0, 0.4) long peer_long)))
    [ 0; 2 ]

(* The replay entry points against the per-line path they replaced
   ([Seed_icache]: one [access_line] call per line, cursor records, fills
   after each miss). Random geometries, two independent layouts with gaps
   between blocks, traces of 0..200 blocks (either or both empty, so the
   shorter stream restarts many times), fixed and random rates, prefetch
   degree 0..2. Bare runs must agree on every counter; runs with a sink
   must also agree on everything the sink derives, down to each
   (thread, block) row, so a misplaced thread or block label shows. *)
let rate_pairs = [ (1.0, 0.4); (0.3, 0.7); (2.5, 1.0); (1.0, 1.0); (0.7, 2.0) ]

type replay_case = {
  assoc : int;
  sets : int;
  layouts : Icache.layout * Icache.layout;
  traces : int list * int list;
  rates : float * float;
  degree : int;
}

let gen_replay_case =
  let open QCheck.Gen in
  let layout =
    int_range 1 10 >>= fun n ->
    list_repeat n (pair (int_range 1 200) (int_bound 100)) >>= fun blocks ->
    let addr = Array.make n 0 and bytes = Array.make n 0 in
    List.iteri
      (fun i (size, gap) ->
        addr.(i) <- (if i = 0 then gap else addr.(i - 1) + bytes.(i - 1) + gap);
        bytes.(i) <- size)
      blocks;
    return { Icache.addr; bytes }
  in
  let trace (l : Icache.layout) =
    let n = Array.length l.Icache.addr in
    frequency [ (1, return []); (5, list_size (int_range 1 200) (int_bound (n - 1))) ]
  in
  let rates =
    frequency
      [
        (3, oneofl rate_pairs);
        (1, pair (float_range 0.05 3.0) (float_range 0.05 3.0));
      ]
  in
  int_range 0 3 >>= fun assoc_log ->
  int_range 0 4 >>= fun sets_log ->
  layout >>= fun l0 ->
  layout >>= fun l1 ->
  trace l0 >>= fun t0 ->
  trace l1 >>= fun t1 ->
  rates >>= fun rates ->
  int_range 0 2 >>= fun degree ->
  return
    { assoc = 1 lsl assoc_log; sets = 1 lsl sets_log; layouts = (l0, l1); traces = (t0, t1); rates; degree }

let print_replay_case c =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let layout (l : Icache.layout) =
    Printf.sprintf "addr=[%s] bytes=[%s]" (ints (Array.to_list l.Icache.addr))
      (ints (Array.to_list l.Icache.bytes))
  in
  Printf.sprintf "assoc=%d sets=%d rates=(%h, %h) degree=%d\nl0: %s\nl1: %s\nt0=[%s]\nt1=[%s]"
    c.assoc c.sets (fst c.rates) (snd c.rates) c.degree (layout (fst c.layouts))
    (layout (snd c.layouts)) (ints (fst c.traces)) (ints (snd c.traces))

let replay_params c = Params.make ~size_bytes:(c.sets * c.assoc * 64) ~assoc:c.assoc ~line_bytes:64

let prefetch_of c = if c.degree = 0 then None else Some (Prefetch.create ~degree:c.degree ())

let same_stats ~threads a b =
  Cache_stats.to_string a = Cache_stats.to_string b
  && List.for_all
       (fun i ->
         Cache_stats.thread_accesses a i = Cache_stats.thread_accesses b i
         && Cache_stats.thread_misses a i = Cache_stats.thread_misses b i)
       (List.init threads Fun.id)

(* Everything a sink reports, as one comparable value. *)
let sink_summary ~threads s =
  let threads = List.init threads Fun.id in
  ( [
      Profile_sink.accesses s;
      Profile_sink.misses s;
      Profile_sink.evictions s;
      Profile_sink.cold_misses s;
      Profile_sink.capacity_misses s;
      Profile_sink.conflict_misses s;
    ],
    (Profile_sink.ev_matrix s, Profile_sink.miss_matrix s, Profile_sink.first_misses s),
    List.map
      (fun thread -> (Profile_sink.defensiveness s ~thread, Profile_sink.politeness s ~thread))
      threads,
    Profile_sink.block_rows s )

(* [Icache.shared] against [Seed_icache.shared] on the same inputs, bare
   and with a sink. *)
let shared_agrees ~params ?prefetch ~rates ~layouts (t0, t1) =
  let traces = (Colayout_util.Int_vec.of_list t0, Colayout_util.Int_vec.of_list t1) in
  let core sink = Icache.shared ?prefetch ?sink ~rates ~params ~layouts traces in
  let oracle sink = Seed_icache.shared ?prefetch ?sink ~rates ~params ~layouts traces in
  let sink_core = Profile_sink.create ~threads:2 ~params () in
  let sink_oracle = Profile_sink.create ~threads:2 ~params () in
  same_stats ~threads:2 (core None) (oracle None)
  && same_stats ~threads:2 (core (Some sink_core)) (oracle (Some sink_oracle))
  && sink_summary ~threads:2 sink_core = sink_summary ~threads:2 sink_oracle

let corun_matches_per_line =
  QCheck.Test.make ~name:"Icache.shared = per-line oracle, bare and with a sink" ~count:400
    (QCheck.make ~print:print_replay_case gen_replay_case) (fun c ->
      shared_agrees ~params:(replay_params c) ?prefetch:(prefetch_of c) ~rates:c.rates
        ~layouts:c.layouts c.traces)

(* Co-run expansion writes four line ids per block whatever its span and
   loops only past four, so blocks of 1 to 6 lines, line-aligned or
   not, cover both paths. Each case runs long, short, long-short and
   short-long stream pairs back to back on one domain: a short call
   after a long one reuses buffers holding the long streams' entries,
   past its own end and in the slack, where a stale entry would show. *)
let gen_wide_blocks_case =
  let open QCheck.Gen in
  let layout =
    int_range 1 12 >>= fun n ->
    list_repeat n (triple (int_range 1 6) (int_bound 63) (int_bound 2)) >>= fun blocks ->
    let addr = Array.make n 0 and bytes = Array.make n 0 in
    let next_line = ref 0 in
    List.iteri
      (fun i (lines, slack, gap) ->
        (* [lines] lines from a line start, the last one partly used. *)
        addr.(i) <- (!next_line + gap) * 64;
        bytes.(i) <- (lines * 64) - slack;
        next_line := !next_line + gap + lines)
      blocks;
    return { Icache.addr; bytes }
  in
  let trace (l : Icache.layout) len =
    list_repeat len (int_bound (Array.length l.Icache.addr - 1))
  in
  int_range 0 2 >>= fun assoc_log ->
  int_range 0 3 >>= fun sets_log ->
  layout >>= fun l0 ->
  layout >>= fun l1 ->
  int_range 100 250 >>= fun long ->
  int_range 1 12 >>= fun short ->
  trace l0 long >>= fun long0 ->
  trace l1 long >>= fun long1 ->
  trace l0 short >>= fun short0 ->
  trace l1 short >>= fun short1 ->
  oneofl rate_pairs >>= fun rates ->
  int_range 0 2 >>= fun degree ->
  return
    ( {
        assoc = 1 lsl assoc_log;
        sets = 1 lsl sets_log;
        layouts = (l0, l1);
        traces = (long0, long1);
        rates;
        degree;
      },
      (short0, short1) )

let corun_wide_blocks_match_per_line =
  QCheck.Test.make ~name:"Icache.shared = per-line oracle, 1-6 line blocks, long/short" ~count:300
    (QCheck.make ~print:(fun (c, _) -> print_replay_case c) gen_wide_blocks_case)
    (fun (c, (short0, short1)) ->
      let long0, long1 = c.traces in
      List.for_all
        (fun traces ->
          shared_agrees ~params:(replay_params c) ?prefetch:(prefetch_of c) ~rates:c.rates
            ~layouts:c.layouts traces)
        [ (long0, long1); (short0, short1); (long0, short1); (short0, long1); (long0, long1) ])

(* Solo: thread 0's stream alone, same comparison. *)
let solo_matches_per_line =
  QCheck.Test.make ~name:"Icache.solo = per-line oracle, bare and with a sink" ~count:300
    (QCheck.make ~print:print_replay_case gen_replay_case) (fun c ->
      let params = replay_params c and prefetch = prefetch_of c in
      let layout = fst c.layouts and trace = Colayout_util.Int_vec.of_list (fst c.traces) in
      let core sink = Icache.solo ?prefetch ?sink ~params ~layout trace in
      let oracle sink = Seed_icache.solo ?prefetch ?sink ~params ~layout trace in
      let sink_core = Profile_sink.create ~params () and sink_oracle = Profile_sink.create ~params () in
      same_stats ~threads:1 (core None) (oracle None)
      && same_stats ~threads:1 (core (Some sink_core)) (oracle (Some sink_oracle))
      && sink_summary ~threads:1 sink_core = sink_summary ~threads:1 sink_oracle)

(* The indexed replays at their boundary. They import the cache's
   resident ways at entry and write every set back MRU-first at exit, so
   a warm cache, a random [access_line] prefix before the call and a
   random suffix after it must see exactly what the per-line oracle
   ([Seed_icache] on the same kind of cache) sees: the same hit/miss
   sequence before and after, the same replay counters, and after each
   phase the same resident lines, occupancy, eviction count and per-set
   miss counts. The prefix and suffix lines fall on thread 0's lines,
   thread 1's (offset 2^40) and lines no stream touches, which the
   replay must keep resident, be able to evict and never hit. The co-run
   cases also run a solo replay and a co-run back to back, in either
   order, so the second call imports what the first wrote back. *)
let stream_of ~params (l : Icache.layout) ~offset trace =
  let n = Array.length l.Icache.addr in
  let first = Array.make n 0 and last = Array.make n (-1) in
  for b = 0 to n - 1 do
    if l.Icache.bytes.(b) > 0 then begin
      let f, la = Icache.lines_of_block ~params ~layout:l b in
      first.(b) <- f;
      last.(b) <- la
    end
  done;
  { Set_assoc.trace = Array.of_list trace; length = List.length trace; first; last; offset }

let far = 1 lsl 40

let unused = 5000

let probe_universe =
  List.concat_map (fun base -> List.init 72 (fun l -> base + l)) [ 0; far; unused ]

(* Everything the other entry points can read of a cache. *)
let observe c =
  ( List.filter (Set_assoc.probe_line c) probe_universe,
    Set_assoc.occupancy c,
    Set_assoc.evictions c,
    List.init (Set_assoc.params c).Params.num_sets (Set_assoc.set_misses c) )

let tally_of_stats ~threads st =
  ( List.init threads (Cache_stats.thread_accesses st),
    List.init threads (Cache_stats.thread_misses st),
    Cache_stats.prefetches st )

let tally_of_core (r : Set_assoc.tally) = (Array.to_list r.accesses, Array.to_list r.misses, r.fills)

(* Run [replay] on a fresh cache between the prefix and the suffix. *)
let warm_run ~params ~threads ~sink ~prefix ~suffix replay =
  let sink = if sink then Some (Profile_sink.create ~threads ~params ()) else None in
  let c = Set_assoc.create ?sink params in
  let touch lines = List.map (fun l -> Set_assoc.access_line c ~thread:0 ~block:0 l) lines in
  let before = touch prefix in
  let entry = observe c in
  let tally = replay c in
  let exit = observe c in
  let after = touch suffix in
  (before, entry, tally, exit, after, observe c, Option.map (sink_summary ~threads) sink)

let gen_warm_case =
  let open QCheck.Gen in
  let line =
    frequency
      [
        (3, int_bound 63);
        (3, map (fun l -> far + l) (int_bound 63));
        (1, map (fun l -> unused + l) (int_bound 63));
      ]
  in
  gen_replay_case >>= fun c ->
  list_size (int_range 0 80) line >>= fun prefix ->
  list_size (int_range 0 40) line >>= fun suffix -> return (c, prefix, suffix)

let print_warm_case (c, prefix, suffix) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "%s\nprefix=[%s]\nsuffix=[%s]" (print_replay_case c) (ints prefix) (ints suffix)

(* [Set_assoc.corun] against [Seed_icache.shared], thread 1's lines
   [peer_offset] above their layout. *)
let corun_agrees ~peer_offset ~prefix ~suffix c =
  let params = replay_params c and prefetch = prefetch_of c in
  let l0, l1 = c.layouts and t0, t1 = c.traces in
  let s0 = stream_of ~params l0 ~offset:0 t0 and s1 = stream_of ~params l1 ~offset:peer_offset t1 in
  let traces = (Colayout_util.Int_vec.of_list t0, Colayout_util.Int_vec.of_list t1) in
  let corun cache = tally_of_core (Set_assoc.corun cache ~prefetch:c.degree ~rates:c.rates s0 s1) in
  let solo cache = tally_of_core (Set_assoc.replay cache ~prefetch:c.degree s0) in
  let seed_corun cache =
    tally_of_stats ~threads:2
      (Seed_icache.shared ?prefetch ~cache ~peer_offset ~rates:c.rates ~params ~layouts:c.layouts
         traces)
  in
  let seed_solo cache =
    tally_of_stats ~threads:1 (Seed_icache.solo ?prefetch ~cache ~params ~layout:l0 (fst traces))
  in
  let chain first second cache =
    let a = first cache in
    (a, second cache)
  in
  List.for_all
    (fun sink ->
      let run replay = warm_run ~params ~threads:2 ~sink ~prefix ~suffix replay in
      run corun = run seed_corun
      && run (chain solo corun) = run (chain seed_solo seed_corun)
      && run (chain corun solo) = run (chain seed_corun seed_solo))
    [ false; true ]

let warm_corun_matches_per_line =
  QCheck.Test.make ~name:"Set_assoc.corun from a warm cache = per-line oracle" ~count:300
    (QCheck.make ~print:print_warm_case gen_warm_case) (fun (c, prefix, suffix) ->
      corun_agrees ~peer_offset:far ~prefix ~suffix c)

let warm_solo_matches_per_line =
  QCheck.Test.make ~name:"Set_assoc.replay from a warm cache = per-line oracle" ~count:300
    (QCheck.make ~print:print_warm_case gen_warm_case) (fun (c, prefix, suffix) ->
      let params = replay_params c and prefetch = prefetch_of c in
      let layout = fst c.layouts and trace = fst c.traces in
      let s = stream_of ~params layout ~offset:0 trace in
      let vec = Colayout_util.Int_vec.of_list trace in
      List.for_all
        (fun sink ->
          let run = warm_run ~params ~threads:1 ~sink ~prefix ~suffix in
          run (fun cache -> tally_of_core (Set_assoc.replay cache ~prefetch:c.degree s))
          = run (fun cache ->
                tally_of_stats ~threads:1 (Seed_icache.solo ?prefetch ~cache ~params ~layout vec)))
        [ false; true ])

(* Two streams at the same offset whose spans overlap (half the cases run
   one layout on both threads) share lines: one line, one index id, hit
   by either thread. *)
let shared_lines_corun_matches_per_line =
  QCheck.Test.make ~name:"Set_assoc.corun on streams sharing lines = per-line oracle" ~count:300
    (QCheck.make
       ~print:(fun (same, w) -> Printf.sprintf "one layout: %b\n%s" same (print_warm_case w))
       QCheck.Gen.(pair bool gen_warm_case))
    (fun (same, (c, prefix, suffix)) ->
      let c =
        if same then
          let l0 = fst c.layouts in
          let n = Array.length l0.Icache.addr in
          { c with layouts = (l0, l0); traces = (fst c.traces, List.map (fun b -> b mod n) (snd c.traces)) }
        else c
      in
      corun_agrees ~peer_offset:0 ~prefix ~suffix c)

(* Executed blocks that share a first line, within a stream and across
   the two streams at one offset: the index sorts blocks by first line
   and leaves ties in no particular order, and they must still fall in
   one run with one id. Each layout packs five to ten blocks, overlapping,
   into the first four lines, block 0 into line 0, and each trace runs
   every block of its layout, so both kinds of tie occur in every case.
   Solo and co-run, bare and with a sink, at prefetch degrees 0 and 1. *)
let gen_tied_case =
  let open QCheck.Gen in
  let layout =
    int_range 5 10 >>= fun n ->
    list_repeat n (triple (int_bound 3) (int_bound 63) (int_range 1 200)) >>= fun blocks ->
    let blocks = Array.of_list blocks in
    let addr = Array.mapi (fun b (line, off, _) -> ((if b = 0 then 0 else line) * 64) + off) blocks in
    return { Icache.addr; bytes = Array.map (fun (_, _, size) -> size) blocks }
  in
  let every (l : Icache.layout) t =
    let n = Array.length l.Icache.addr in
    List.init n Fun.id @ List.map (fun b -> b mod n) t
  in
  gen_warm_case >>= fun (c, prefix, suffix) ->
  layout >>= fun l0 ->
  layout >>= fun l1 ->
  let traces = (every l0 (fst c.traces), every l1 (snd c.traces)) in
  return ({ c with layouts = (l0, l1); traces }, prefix, suffix)

let tied_first_lines_match_per_line =
  QCheck.Test.make ~name:"replays of blocks sharing first lines = per-line oracle" ~count:200
    (QCheck.make ~print:print_warm_case gen_tied_case) (fun (c, prefix, suffix) ->
      List.for_all
        (fun degree -> corun_agrees ~peer_offset:0 ~prefix ~suffix { c with degree })
        [ 0; 1 ])

(* A block at line 2^40 replays correctly and costs the replay no more
   memory than the same blocks packed next to each other: the index is
   sized by the number of distinct lines, not by their range. *)
let test_sparse_stream () =
  let params = Params.make ~size_bytes:512 ~assoc:2 ~line_bytes:64 in
  let prng = Colayout_util.Prng.create ~seed:11 in
  let trace = Array.init 3_000 (fun _ -> Colayout_util.Prng.int prng 3) in
  (* Blocks of 3, 2 and 3 lines, the last at line [at]. *)
  let layout at = { Icache.addr = [| 0; 5 * 64; at * 64 |]; bytes = [| 3 * 64; 2 * 64; 3 * 64 |] } in
  let stream at = stream_of ~params (layout at) ~offset:0 (Array.to_list trace) in
  let vec = Colayout_util.Int_vec.of_array trace in
  List.iter
    (fun degree ->
      let prefetch = if degree = 0 then None else Some (Prefetch.create ~degree ()) in
      check Alcotest.string
        (Printf.sprintf "block at 2^40, prefetch %d: = per-line oracle" degree)
        (Cache_stats.to_string (Seed_icache.solo ?prefetch ~params ~layout:(layout far) vec))
        (Cache_stats.to_string (Icache.solo ?prefetch ~params ~layout:(layout far) vec));
      let words at =
        let c = Set_assoc.create params in
        let s = stream at in
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (Set_assoc.replay c ~prefetch:degree s));
        Gc.minor_words () -. before
      in
      check (Alcotest.float 0.)
        (Printf.sprintf "prefetch %d: words at 2^40 = words packed at line 10" degree)
        (words 10) (words far))
    [ 0; 2 ]

(* A sink that raises mid-replay (a one-thread sink meeting thread 1)
   still leaves the cache as the per-line loop leaves it at that access. *)
let test_replay_interrupted () =
  let params = Params.make ~size_bytes:512 ~assoc:2 ~line_bytes:64 in
  let layout = { Icache.addr = Array.init 6 (fun i -> i * 96); bytes = Array.make 6 80 } in
  let trace = List.init 50 (fun i -> (i * 5) mod 6) in
  let run replay =
    let c = Set_assoc.create ~sink:(Profile_sink.create ~threads:1 ~params ()) params in
    List.iter (fun l -> ignore (Set_assoc.access_line c ~thread:0 ~block:0 l)) [ 3; 9; 4; unused ];
    (match replay c with
    | () -> Alcotest.fail "the one-thread sink accepted thread 1"
    | exception Invalid_argument _ -> ());
    (* Recency shows in what a suffix evicts. *)
    let after = List.init 40 (fun i -> Set_assoc.probe_line c i) in
    let suffix = List.init 60 (fun i -> Set_assoc.access_line c ~thread:0 ~block:0 (i * 7 mod 24)) in
    (after, observe c, suffix, observe c)
  in
  let s0 = stream_of ~params layout ~offset:0 trace and s1 = stream_of ~params layout ~offset:far trace in
  let vec = Colayout_util.Int_vec.of_list trace in
  (* At rate 0.05 thread 1 first fetches after thread 0's 20th line, so
     the replay raises after ten times the fills it makes at 0.5. *)
  List.iter
    (fun rates ->
      check Alcotest.bool
        (Printf.sprintf "state at the raising access, rates (%g, %g)" (fst rates) (snd rates))
        true
        (run (fun c -> ignore (Set_assoc.corun c ~prefetch:1 ~rates s0 s1))
        = run (fun cache ->
              ignore
                (Seed_icache.shared ~prefetch:(Prefetch.create ~degree:1 ()) ~cache
                   ~peer_offset:far ~rates ~params ~layouts:(layout, layout) (vec, vec)))))
    [ (1.0, 0.5); (1.0, 0.05) ]

(* The flat co-run streams live in buffers each domain keeps between
   calls, grown to the longest streams it has run and never shrunk. Each
   co-run must read only its own prefix of them: after a longer one, a
   stale tail (a wrong pass length, block labels left from the longer
   stream) would show against the oracle, in the counters or in a sink's
   (thread, block) rows. Lengths alternate long and short, either thread
   longer, empty traces included. *)
let flat_layout =
  {
    Icache.addr = Array.init 24 (fun i -> (i * 150) + (i mod 3 * 40));
    bytes = Array.init 24 (fun i -> 40 + (i * 37 mod 200));
  }

let flat_params = Params.make ~size_bytes:512 ~assoc:2 ~line_bytes:64

let flat_traces ~seed lengths =
  let prng = Colayout_util.Prng.create ~seed in
  let n = Array.length flat_layout.Icache.addr in
  let trace len = List.init len (fun _ -> Colayout_util.Prng.int prng n) in
  List.map (fun (l0, l1) -> (trace l0, trace l1)) lengths

let flat_lengths = [ (3000, 2500); (7, 3); (1, 0); (2800, 40); (0, 5); (12, 2900); (2, 2); (0, 0) ]

let test_flat_buffers_reused () =
  List.iteri
    (fun i ((t0, t1) as traces) ->
      let prefetch = if i mod 2 = 0 then None else Some (Prefetch.create ~degree:1 ()) in
      check Alcotest.bool
        (Printf.sprintf "co-run %d: %d x %d blocks = per-line oracle" i (List.length t0)
           (List.length t1))
        true
        (shared_agrees ~params:flat_params ?prefetch ~rates:(1.0, 0.7)
           ~layouts:(flat_layout, flat_layout) traces))
    (flat_traces ~seed:5 flat_lengths)

(* The same co-runs on two domains at once, through the pool: each
   domain has its own buffers, so the results equal the sequential ones
   (and the oracle's), bare and through a sink. *)
let test_flat_buffers_per_domain () =
  let run (t0, t1) =
    let traces = (Colayout_util.Int_vec.of_list t0, Colayout_util.Int_vec.of_list t1) in
    let layouts = (flat_layout, flat_layout) and rates = (0.8, 1.3) in
    let sink = Profile_sink.create ~threads:2 ~params:flat_params () in
    let bare = Icache.shared ~rates ~params:flat_params ~layouts traces in
    let sunk = Icache.shared ~sink ~rates ~params:flat_params ~layouts traces in
    (Cache_stats.to_string bare, tally_of_stats ~threads:2 bare, Cache_stats.to_string sunk,
     sink_summary ~threads:2 sink)
  in
  let cases = flat_traces ~seed:9 (flat_lengths @ List.rev flat_lengths) in
  let sequential = List.map run cases in
  let parallel = Colayout_util.Pool.with_pool ~jobs:2 (fun pool -> Colayout_util.Pool.map pool run cases) in
  check Alcotest.bool "jobs 2 = sequential" true (parallel = sequential);
  let oracle (t0, t1) =
    let traces = (Colayout_util.Int_vec.of_list t0, Colayout_util.Int_vec.of_list t1) in
    Cache_stats.to_string
      (Seed_icache.shared ~rates:(0.8, 1.3) ~params:flat_params ~layouts:(flat_layout, flat_layout)
         traces)
  in
  check Alcotest.bool "sequential = per-line oracle" true
    (List.for_all2 (fun (bare, _, _, _) case -> bare = oracle case) sequential cases)

(* Restarts on flat streams: a pass ends when the position reaches the
   stream's line count, and accesses are passes x lines + position.
   One-block traces restart on every pass, an empty trace counts a pass
   on each fetch, and lopsided rates make one thread wrap many times (or
   not at all) while the other finishes. Per-thread accesses, misses and
   fills against the oracle. *)
let test_flat_restarts () =
  let params = Params.make ~size_bytes:512 ~assoc:2 ~line_bytes:64 in
  (* Blocks 0, 1 and 2 span 1, 2 and 3 lines. *)
  let layout = { Icache.addr = [| 0; 64; 4 * 64 |]; bytes = [| 64; 128; 192 |] } in
  let counts prefetch rates (t0, t1) =
    let traces = (Colayout_util.Int_vec.of_list t0, Colayout_util.Int_vec.of_list t1) in
    let layouts = (layout, layout) in
    ( tally_of_stats ~threads:2 (Icache.shared ?prefetch ~rates ~params ~layouts traces),
      tally_of_stats ~threads:2 (Seed_icache.shared ?prefetch ~rates ~params ~layouts traces) )
  in
  List.iter
    (fun rates ->
      List.iter
        (fun traces ->
          List.iter
            (fun degree ->
              let prefetch = if degree = 0 then None else Some (Prefetch.create ~degree ()) in
              let core, oracle = counts prefetch rates traces in
              check Alcotest.bool
                (Printf.sprintf "rates (%g, %g), [%s] x [%s], prefetch %d" (fst rates) (snd rates)
                   (String.concat ";" (List.map string_of_int (fst traces)))
                   (String.concat ";" (List.map string_of_int (snd traces)))
                   degree)
                true (core = oracle))
            [ 0; 1 ])
        [ ([ 2 ], [ 0 ]); ([ 0 ], [ 1 ]); ([ 1 ], []); ([], [ 2 ]); ([], []); ([ 2; 0 ], [ 1 ]) ])
    [ (2.5, 1.0); (0.01, 1.0) ];
  (* By hand: block 2 (3 lines) at rate 2.5 against block 0 (1 line) at
     1.0. Step 1 fetches lines 1-2 and 1; step 2 fetches line 3, wraps
     (pass 1) and fetches lines 1-2, and thread 1 wraps and fetches its
     line again: accesses 1 x 3 + 2 and 1 x 1 + 1, a miss per distinct
     line. *)
  let core, _ = counts None (2.5, 1.0) ([ 2 ], [ 0 ]) in
  check
    Alcotest.(triple (list int) (list int) int)
    "one-block streams by hand" ([ 5; 2 ], [ 3; 1 ], 0) core

(* Nested co-runs on one domain would overwrite the outer call's
   streams; none happens today (sinks do not call back), and the guard
   refuses one before it touches the cache. The hold is per domain and
   released however it ends. *)
let test_nested_corun_guard () =
  let params = Params.make ~size_bytes:512 ~assoc:2 ~line_bytes:64 in
  let s = { Set_assoc.trace = [| 0 |]; length = 1; first = [| 0 |]; last = [| 0 |]; offset = 0 } in
  let corun c = Set_assoc.corun c ~prefetch:0 ~rates:(1.0, 1.0) s s in
  let c = Set_assoc.create params in
  Alcotest.check_raises "co-run inside a held domain"
    (Invalid_argument "Set_assoc.corun: a co-run is already running on this domain") (fun () ->
      Set_assoc.with_corun_buffers (fun () -> ignore (corun c)));
  check Alcotest.int "the refused co-run touched nothing" 0 (Set_assoc.occupancy c);
  Alcotest.check_raises "hold inside a hold"
    (Invalid_argument "Set_assoc.with_corun_buffers: a co-run is already running on this domain")
    (fun () -> Set_assoc.with_corun_buffers (fun () -> Set_assoc.with_corun_buffers ignore));
  let on_other_domain =
    Set_assoc.with_corun_buffers (fun () ->
        Domain.join (Domain.spawn (fun () -> (corun (Set_assoc.create params)).Set_assoc.accesses)))
  in
  check Alcotest.(array int) "another domain co-runs meanwhile" [| 2; 2 |] on_other_domain;
  check Alcotest.(array int) "released after the refusal" [| 2; 2 |] (corun c).Set_assoc.accesses

let test_fully_assoc_eviction () =
  let c = Fully_assoc.create ~capacity:2 in
  ignore (Fully_assoc.access_line c 1);
  ignore (Fully_assoc.access_line c 2);
  ignore (Fully_assoc.access_line c 1);
  (* MRU order: 1, 2. Adding 3 evicts 2. *)
  ignore (Fully_assoc.access_line c 3);
  check Alcotest.bool "2 evicted" false (Fully_assoc.access_line c 2);
  check (Alcotest.list Alcotest.int) "resident" [ 2; 3 ]
    (Fully_assoc.resident_lines c |> List.filteri (fun i _ -> i < 2));
  check Alcotest.int "occupancy" 2 (Fully_assoc.occupancy c)

let test_prefetch () =
  let params = Params.default_l1i in
  let pf = Prefetch.create ~degree:2 () in
  check Alcotest.int "degree" 2 (Prefetch.degree pf);
  Alcotest.check_raises "degree 0" (Invalid_argument "Prefetch.create") (fun () ->
      ignore (Prefetch.create ~degree:0 ()));
  (* Block 0 is line 10, block 1 lines 11-12, block 2 line 9. The miss on
     10 fills 11 and 12 (not 10 itself: that is the demand fill), so block
     1 hits; the miss on 9 finds 10 and 11 resident and fills nothing. *)
  let layout = { Icache.addr = [| 640; 704; 576 |]; bytes = [| 64; 128; 64 |] } in
  let stats = Icache.solo ~prefetch:pf ~params ~layout (Colayout_util.Int_vec.of_list [ 0; 1; 2 ]) in
  check Alcotest.int "accesses" 4 (Cache_stats.accesses stats);
  check Alcotest.int "misses" 2 (Cache_stats.misses stats);
  check Alcotest.int "no double prefetch" 2 (Cache_stats.prefetches stats)

let layout_of_blocks specs : Icache.layout =
  let addr = Array.map fst specs and bytes = Array.map snd specs in
  { Icache.addr; bytes }

let test_icache_solo () =
  let params = Params.default_l1i in
  (* Two blocks in the same line; one spanning two lines. *)
  let layout = layout_of_blocks [| (0, 32); (32, 32); (100, 64) |] in
  let trace = Colayout_util.Int_vec.of_list [ 0; 1; 2; 0; 1; 2 ] in
  let stats = Icache.solo ~params ~layout trace in
  (* Fetches: blk0 -> line 0 (miss); blk1 -> line 0 (hit); blk2 -> lines 1,2
     (2 misses); then all hits: 3 misses, 8 accesses. *)
  check Alcotest.int "accesses" 8 (Cache_stats.accesses stats);
  check Alcotest.int "misses" 3 (Cache_stats.misses stats)

let test_icache_lines_of_block () =
  let params = Params.default_l1i in
  let layout = layout_of_blocks [| (60, 10) |] in
  check (Alcotest.pair Alcotest.int Alcotest.int) "straddles" (0, 1)
    (Icache.lines_of_block ~params ~layout 0)

let test_icache_shared_threads_isolated_addresses () =
  let params = Params.default_l1i in
  let layout = layout_of_blocks [| (0, 64) |] in
  let t0 = Colayout_util.Int_vec.of_list [ 0; 0; 0; 0 ] in
  let t1 = Colayout_util.Int_vec.of_list [ 0; 0; 0; 0 ] in
  let stats = Icache.shared ~params ~layouts:(layout, layout) (t0, t1) in
  (* Same virtual line but different processes: each thread misses once. *)
  check Alcotest.int "thread0 misses" 1 (Cache_stats.thread_misses stats 0);
  check Alcotest.int "thread1 misses" 1 (Cache_stats.thread_misses stats 1);
  check Alcotest.bool "both ran" true
    (Cache_stats.thread_accesses stats 0 >= 4 && Cache_stats.thread_accesses stats 1 >= 4)

let test_icache_shared_rates () =
  let params = Params.default_l1i in
  let layout = layout_of_blocks [| (0, 64); (64, 64) |] in
  let mk () = Colayout_util.Int_vec.of_list (List.init 100 (fun i -> i mod 2)) in
  let stats = Icache.shared ~rates:(1.0, 0.25) ~params ~layouts:(layout, layout) (mk (), mk ()) in
  (* Both complete a pass regardless of rate. *)
  check Alcotest.bool "slow thread still completes" true (Cache_stats.thread_accesses stats 1 >= 100);
  (* Rates outside [2^-10, 2^10] are rejected up front: a NaN rate never
     earns credit and an infinite one never spends it, a credit at or
     above 2^53 never drops by 1.0, and a tiny rate spins through empty
     steps, so each would keep the replay from ending. *)
  List.iter
    (fun rates ->
      Alcotest.check_raises
        (Printf.sprintf "bad rates (%g, %g)" (fst rates) (snd rates))
        (Invalid_argument "Set_assoc.corun: rates must lie in [2^-10, 2^10]")
        (fun () -> ignore (Icache.shared ~rates ~params ~layouts:(layout, layout) (mk (), mk ()))))
    [
      (0.0, 1.0);
      (1.0, -0.5);
      (Float.nan, 1.0);
      (1.0, Float.nan);
      (Float.infinity, 1.0);
      (1.0, Float.infinity);
      (Float.neg_infinity, 1.0);
      (1e17, 1.0);
      (1.0, 1e15);
      (1e-300, 1.0);
    ];
  let s = { Set_assoc.trace = [| 0 |]; length = 1; first = [| 0 |]; last = [| 0 |]; offset = 0 } in
  Alcotest.check_raises "core rejects NaN"
    (Invalid_argument "Set_assoc.corun: rates must lie in [2^-10, 2^10]") (fun () ->
      ignore (Set_assoc.corun (Set_assoc.create params) ~prefetch:0 ~rates:(1.0, Float.nan) s s))

(* Hostile block ids are rejected before any access, solo and co-run:
   the replay loops read the trace and the span tables unchecked. A
   zero-byte block is an error only when the trace executes it. *)
let test_icache_hostile_blocks () =
  let params = Params.default_l1i in
  let layout = layout_of_blocks [| (0, 64); (64, 0); (64, 128) |] in
  let ok = Colayout_util.Int_vec.of_list [ 0; 2; 0; 2 ] in
  let bad ids = Colayout_util.Int_vec.of_list ids in
  let solo tr = ignore (Icache.solo ~params ~layout tr) in
  let corun_self tr = ignore (Icache.shared ~params ~layouts:(layout, layout) (tr, ok)) in
  let corun_peer tr = ignore (Icache.shared ~params ~layouts:(layout, layout) (ok, tr)) in
  let raises_invalid what f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (name, run) ->
      raises_invalid (name ^ ": negative id") (fun () -> run (bad [ 0; -1 ]));
      raises_invalid (name ^ ": id = block count") (fun () -> run (bad [ 0; 3 ]));
      raises_invalid (name ^ ": huge id") (fun () -> run (bad [ max_int ]));
      Alcotest.check_raises (name ^ ": executed zero-byte block")
        (Invalid_argument "Params.lines_spanned: bytes must be positive") (fun () -> run (bad [ 0; 1 ]));
      run ok)
    [ ("solo", solo); ("co-run self", corun_self); ("co-run peer", corun_peer) ];
  (* Untouched, the zero-byte block costs nothing: the replay matches the
     same trace on a layout without it. *)
  let dense = layout_of_blocks [| (0, 64); (64, 128) |] in
  check Alcotest.string "zero-byte block untouched"
    (Cache_stats.to_string (Icache.solo ~params ~layout:dense (bad [ 0; 1; 0; 1 ])))
    (Cache_stats.to_string (Icache.solo ~params ~layout ok));
  (* The core checks its own inputs too. *)
  let c = Set_assoc.create params in
  let s trace =
    { Set_assoc.trace; length = Array.length trace; first = [| 0; 1 |]; last = [| 0; 0 |]; offset = 0 }
  in
  raises_invalid "core: negative id" (fun () -> ignore (Set_assoc.replay c ~prefetch:0 (s [| -1 |])));
  raises_invalid "core: id past the tables" (fun () -> ignore (Set_assoc.replay c ~prefetch:0 (s [| 2 |])));
  raises_invalid "core: empty span" (fun () -> ignore (Set_assoc.replay c ~prefetch:0 (s [| 1 |])));
  raises_invalid "core: negative degree" (fun () -> ignore (Set_assoc.replay c ~prefetch:(-1) (s [| 0 |])));
  raises_invalid "core: co-run peer id" (fun () ->
      ignore (Set_assoc.corun c ~prefetch:0 ~rates:(1.0, 1.0) (s [| 0 |]) (s [| 5 |])));
  (* A stream is a view of its array's first [length] entries: a length
     outside the array is refused, and entries past it are never read. *)
  Alcotest.check_raises "core: view longer than its array"
    (Invalid_argument "Set_assoc.replay: trace length 2 outside its array of 1") (fun () ->
      ignore (Set_assoc.replay c ~prefetch:0 { (s [| 0 |]) with length = 2 }));
  Alcotest.check_raises "core: negative view length"
    (Invalid_argument "Set_assoc.corun: trace length -1 outside its array of 1") (fun () ->
      ignore
        (Set_assoc.corun c ~prefetch:0 ~rates:(1.0, 1.0) (s [| 0 |]) { (s [| 0 |]) with length = -1 }));
  let tally r = (r.Set_assoc.accesses, r.Set_assoc.misses, r.Set_assoc.fills) in
  check Alcotest.bool "a view reads its prefix only" true
    (tally (Set_assoc.replay (Set_assoc.create params) ~prefetch:1 { (s [| 0; 0; -1; 7 |]) with length = 2 })
     = tally (Set_assoc.replay (Set_assoc.create params) ~prefetch:1 (s [| 0; 0 |]))
    && tally
         (Set_assoc.corun (Set_assoc.create params) ~prefetch:1 ~rates:(1.0, 0.5)
            { (s [| 0; -3 |]) with length = 1 } { (s [| 0; 0; 9 |]) with length = 2 })
       = tally
           (Set_assoc.corun (Set_assoc.create params) ~prefetch:1 ~rates:(1.0, 0.5) (s [| 0 |])
              (s [| 0; 0 |])));
  (* Spans the residency index cannot number: lines past [max_int] once
     the offset or the prefetch lines are added, and more lines than an
     array holds. *)
  let span ~first ~last ~offset =
    { Set_assoc.trace = [| 0 |]; length = 1; first = [| first |]; last = [| last |]; offset }
  in
  raises_invalid "core: prefetch lines overflow" (fun () ->
      ignore (Set_assoc.replay c ~prefetch:2 (span ~first:(max_int - 1) ~last:max_int ~offset:0)));
  raises_invalid "core: offset lines overflow" (fun () ->
      ignore (Set_assoc.replay c ~prefetch:0 (span ~first:0 ~last:5 ~offset:(max_int - 2))));
  raises_invalid "core: more lines than an array holds" (fun () ->
      ignore (Set_assoc.replay c ~prefetch:0 (span ~first:0 ~last:Sys.max_array_length ~offset:0)));
  check Alcotest.int "nothing replayed" 0 (Set_assoc.occupancy c)

let test_icache_shared_contention () =
  let params = Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  (* Working set of each thread = 8 lines; cache holds 16: alone each fits,
     together they collide in sets. *)
  let layout = layout_of_blocks (Array.init 8 (fun i -> (i * 64, 64))) in
  let mk () = Colayout_util.Int_vec.of_list (List.init 400 (fun i -> i mod 8)) in
  let solo = Icache.solo ~params ~layout (mk ()) in
  let shared = Icache.shared ~params ~layouts:(layout, layout) (mk (), mk ()) in
  (* The shared run may execute a handful of extra (hit) accesses past its
     first pass while the peer drains, so allow a sliver of slack. *)
  check Alcotest.bool "corun miss ratio >= solo" true
    (Cache_stats.thread_miss_ratio shared 0 >= Cache_stats.miss_ratio solo -. 0.005)

let () =
  Alcotest.run "cache"
    [
      ("params", [ Alcotest.test_case "geometry" `Quick test_params ]);
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_cache_stats;
          Alcotest.test_case "merged evictions" `Quick test_cache_stats_merged_evictions;
        ] );
      ( "classify",
        [
          Alcotest.test_case "cold" `Quick test_classify_cold;
          Alcotest.test_case "conflict" `Quick test_classify_conflict;
          Alcotest.test_case "capacity" `Quick test_classify_capacity;
          Alcotest.test_case "per-set counters" `Quick test_sink_per_set;
        ] );
      ( "set_assoc",
        [
          Alcotest.test_case "lru" `Quick test_set_assoc_lru;
          Alcotest.test_case "set mapping" `Quick test_set_mapping_isolation;
          QCheck_alcotest.to_alcotest set_assoc_matches_fully_assoc;
          QCheck_alcotest.to_alcotest core_matches_seed_lru;
          QCheck_alcotest.to_alcotest icache_solo_matches_seed;
          Alcotest.test_case "allocation-free" `Quick test_core_allocation_free;
          QCheck_alcotest.to_alcotest corun_matches_per_line;
          QCheck_alcotest.to_alcotest corun_wide_blocks_match_per_line;
          QCheck_alcotest.to_alcotest solo_matches_per_line;
          QCheck_alcotest.to_alcotest warm_corun_matches_per_line;
          QCheck_alcotest.to_alcotest warm_solo_matches_per_line;
          QCheck_alcotest.to_alcotest shared_lines_corun_matches_per_line;
          QCheck_alcotest.to_alcotest tied_first_lines_match_per_line;
          Alcotest.test_case "sparse stream" `Quick test_sparse_stream;
          Alcotest.test_case "interrupted replay" `Quick test_replay_interrupted;
          Alcotest.test_case "flat buffers reused" `Quick test_flat_buffers_reused;
          Alcotest.test_case "flat buffers per domain" `Quick test_flat_buffers_per_domain;
          Alcotest.test_case "flat restarts" `Quick test_flat_restarts;
          Alcotest.test_case "nested co-run guard" `Quick test_nested_corun_guard;
        ] );
      ("fully_assoc", [ Alcotest.test_case "eviction" `Quick test_fully_assoc_eviction ]);
      ("prefetch", [ Alcotest.test_case "next line" `Quick test_prefetch ]);
      ( "icache",
        [
          Alcotest.test_case "solo" `Quick test_icache_solo;
          Alcotest.test_case "lines_of_block" `Quick test_icache_lines_of_block;
          Alcotest.test_case "shared isolation" `Quick test_icache_shared_threads_isolated_addresses;
          Alcotest.test_case "shared rates" `Quick test_icache_shared_rates;
          Alcotest.test_case "shared contention" `Quick test_icache_shared_contention;
          Alcotest.test_case "hostile block ids" `Quick test_icache_hostile_blocks;
        ] );
    ]
