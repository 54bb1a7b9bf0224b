open Colayout_trace
module U = Colayout_util
module Lru_stack = Colayout_oracle.Lru_stack
module Scan_walk = Colayout_oracle.Scan_walk

let check = Alcotest.check

let test_trace_basics () =
  let t = Trace.of_list ~num_symbols:5 [ 0; 1; 1; 2; 4 ] in
  check Alcotest.int "length" 5 (Trace.length t);
  check Alcotest.int "get" 2 (Trace.get t 3);
  check Alcotest.int "distinct" 4 (Trace.distinct_count t);
  check (Alcotest.array Alcotest.int) "occurrences" [| 1; 2; 1; 0; 1 |] (Trace.occurrences t);
  check (Alcotest.array Alcotest.int) "first occ" [| 0; 1; 3; -1; 4 |] (Trace.first_occurrence t);
  Alcotest.check_raises "push oob" (Invalid_argument "Trace.push: symbol 5 out of [0,5)")
    (fun () -> Trace.push t 5)

let test_distinct_count_incremental () =
  (* The cached count must stay exact as pushes interleave with queries:
     query materializes the occurrence cache, then push maintains it
     incrementally (a stale cache would undercount new symbols or keep
     counting repeats). *)
  let t = Trace.create ~num_symbols:6 () in
  check Alcotest.int "empty" 0 (Trace.distinct_count t);
  Trace.push t 2;
  Trace.push t 2;
  check Alcotest.int "one distinct after repeats" 1 (Trace.distinct_count t);
  Trace.push t 0;
  check Alcotest.int "push after query is counted" 2 (Trace.distinct_count t);
  Trace.push t 0;
  Trace.push t 5;
  check Alcotest.int "repeat not double-counted" 3 (Trace.distinct_count t);
  check (Alcotest.array Alcotest.int) "occurrences track pushes" [| 2; 0; 2; 0; 0; 1 |]
    (Trace.occurrences t);
  (* The cross-check the seed computed from scratch every call. *)
  let reference = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 (Trace.occurrences t) in
  check Alcotest.int "agrees with full recount" reference (Trace.distinct_count t);
  (* Queries never freeze the trace: a never-queried trace and a
     queried-then-extended trace agree. *)
  let fresh = Trace.of_list ~num_symbols:6 (Trace.to_list t) in
  check Alcotest.int "matches never-queried trace" (Trace.distinct_count fresh)
    (Trace.distinct_count t)

let test_trim () =
  let t = Trace.of_list ~num_symbols:4 [ 0; 0; 1; 1; 1; 2; 1; 1; 0 ] in
  let trimmed = Trim.trim t in
  check (Alcotest.list Alcotest.int) "trimmed" [ 0; 1; 2; 1; 0 ] (Trace.to_list trimmed);
  check Alcotest.bool "is_trimmed" true (Trim.is_trimmed trimmed);
  check Alcotest.bool "original not trimmed" false (Trim.is_trimmed t);
  (* Idempotent. *)
  check Alcotest.bool "idempotent" true (Trace.equal trimmed (Trim.trim trimmed))

let trim_prop =
  QCheck.Test.make ~name:"trim removes exactly consecutive duplicates" ~count:200
    QCheck.(list (int_bound 5))
    (fun xs ->
      let t = Trace.of_list ~num_symbols:6 xs in
      let trimmed = Trim.trim t in
      Trim.is_trimmed trimmed
      &&
      (* Re-expanding: trimmed is the subsequence of xs with runs collapsed. *)
      let rec collapse = function
        | [] -> []
        | [ x ] -> [ x ]
        | x :: (y :: _ as rest) -> if x = y then collapse rest else x :: collapse rest
      in
      Trace.to_list trimmed = collapse xs)

let test_prune () =
  let t = Trace.of_list ~num_symbols:5 [ 0; 1; 0; 2; 0; 1; 3; 0; 1 ] in
  let pruned, report = Prune.prune t ~top:2 in
  (* Hot: 0 (4 times), 1 (3 times). *)
  check (Alcotest.list Alcotest.int) "pruned" [ 0; 1; 0; 0; 1; 0; 1 ] (Trace.to_list pruned);
  check Alcotest.int "kept symbols" 2 report.Prune.kept_symbols;
  check Alcotest.int "total symbols" 4 report.Prune.total_symbols;
  check Alcotest.int "kept events" 7 report.Prune.kept_events;
  check (Alcotest.float 1e-9) "coverage" (7.0 /. 9.0) report.Prune.coverage

let test_prune_hot_symbols_deterministic_ties () =
  let t = Trace.of_list ~num_symbols:4 [ 3; 2; 1; 0 ] in
  (* All counts equal: ties break toward smaller id. *)
  check (Alcotest.array Alcotest.int) "ties" [| 0; 1 |] (Prune.hot_symbols t ~top:2)

let test_prune_top_larger_than_universe () =
  let t = Trace.of_list ~num_symbols:3 [ 0; 1 ] in
  let pruned, report = Prune.prune t ~top:100 in
  check Alcotest.bool "identity" true (Trace.equal t pruned);
  check (Alcotest.float 1e-9) "full coverage" 1.0 report.Prune.coverage

(* The bulk constructors against pushing the events one by one: the same
   trace, or the same error for the first symbol out of range. *)
let outcome f =
  match f () with
  | t -> Ok (Trace.to_list t, Trace.num_symbols t, Trace.name t)
  | exception Invalid_argument m -> Error m

let pushed_trace ~num_symbols l =
  let t = Trace.create ~name:"bulk" ~num_symbols () in
  List.iter (Trace.push t) l;
  t

let bulk_trace_prop =
  QCheck.Test.make ~name:"bulk trace constructors equal pushes" ~count:300
    QCheck.(pair (list (int_range (-2) 7)) (list (int_range (-2) 7)))
    (fun (xs, tail) ->
      let num_symbols = 6 in
      let want = outcome (fun () -> pushed_trace ~num_symbols xs) in
      let buf = Array.of_list (xs @ tail) in
      outcome (fun () -> Trace.of_array ~name:"bulk" ~num_symbols (Array.of_list xs)) = want
      && outcome (fun () -> Trace.of_buffer ~name:"bulk" ~num_symbols buf ~len:(List.length xs))
         = want)

(* Trimming and pruning in one loop over the backing array against the
   per-event definitions. *)
let trim_prune_prop =
  QCheck.Test.make ~name:"trim and prune equal per-event loops" ~count:300
    QCheck.(pair (list (int_bound 7)) (int_range 1 9))
    (fun (xs, top) ->
      let t = Trace.of_list ~num_symbols:8 xs in
      let rec no_repeat = function
        | x :: (y :: _ as rest) -> x <> y && no_repeat rest
        | _ -> true
      in
      let hot = Prune.hot_symbols t ~top in
      let kept = List.filter (fun s -> Array.mem s hot) xs in
      let pruned, report = Prune.prune t ~top in
      let trimmed = Trim.trim t in
      Trim.is_trimmed t = no_repeat xs
      && Trim.is_trimmed trimmed
      && Trace.name trimmed = "trace.trimmed"
      && Trace.to_list pruned = kept
      && Trace.name pruned = "trace.pruned"
      && report.Prune.kept_events = List.length kept
      && report.Prune.total_symbols = List.length (List.sort_uniq compare xs))

(* The packed-key sort against the definition: present symbols by count
   descending, ties toward the smaller id, the first [top] of them. *)
let hot_symbols_prop =
  QCheck.Test.make ~name:"hot symbols = sort by count desc, then id" ~count:300
    QCheck.(triple (int_range 1 40) (list (int_bound 39)) (int_range 1 45))
    (fun (num_symbols, xs, top) ->
      let xs = List.map (fun x -> x mod num_symbols) xs in
      let t = Trace.of_list ~num_symbols xs in
      let counts =
        List.filter_map
          (fun s ->
            let c = List.length (List.filter (( = ) s) xs) in
            if c > 0 then Some (s, c) else None)
          (List.init num_symbols Fun.id)
      in
      let sorted =
        List.sort
          (fun (s1, c1) (s2, c2) -> if c1 <> c2 then compare c2 c1 else compare s1 s2)
          counts
      in
      let want = List.filteri (fun i _ -> i < top) (List.map fst sorted) in
      Array.to_list (Prune.hot_symbols t ~top) = want)

let test_lru_stack () =
  let s = Lru_stack.create () in
  check (Alcotest.option Alcotest.int) "first access" None (Lru_stack.access s 1);
  check (Alcotest.option Alcotest.int) "second symbol" None (Lru_stack.access s 2);
  (* Depth of 1 is now 2 (2 is on top). *)
  check (Alcotest.option Alcotest.int) "reaccess 1" (Some 2) (Lru_stack.access s 1);
  check (Alcotest.list Alcotest.int) "contents MRU first" [ 1; 2 ] (Lru_stack.contents s);
  check (Alcotest.option Alcotest.int) "immediate reuse" (Some 1) (Lru_stack.access s 1);
  check Alcotest.int "depth" 2 (Lru_stack.depth s);
  check (Alcotest.list Alcotest.int) "top_k" [ 1 ] (Lru_stack.top_k s ~k:1);
  check (Alcotest.option Alcotest.int) "position" (Some 1) (Lru_stack.position s 2)

let lru_stack_matches_naive =
  QCheck.Test.make ~name:"lru stack distance matches naive distinct count" ~count:100
    QCheck.(list (int_bound 8))
    (fun xs ->
      let s = Lru_stack.create () in
      let seen = ref [] in
      List.for_all
        (fun x ->
          let expected =
            match List.find_index (fun y -> y = x) !seen with
            | None -> None
            | Some _ ->
              (* distinct symbols at positions before first occurrence of x in
                 the recency list, plus one for x itself *)
              let rec depth acc = function
                | [] -> None
                | y :: rest -> if y = x then Some (acc + 1) else depth (acc + 1) rest
              in
              depth 0 !seen
          in
          let got = Lru_stack.access s x in
          seen := x :: List.filter (fun y -> y <> x) !seen;
          got = expected)
        xs)

(* The flagged window stack against the full LRU stack: after every
   access it holds exactly the LRU stack's top k, the pass reports the LRU
   depth (0-based) whenever that depth is <= k, else absent, and the set
   flags are exactly the live entries. The scanning oracle ([Scan_walk])
   is held to the same positions and contents. Streams mix a skewed
   distribution with uniform draws and immediate repeats so reuses land
   at every depth, beyond k included; k is 1, below the universe or at
   least the universe, and at one or two random steps the stack is
   cleared and the stream goes on from an empty LRU stack: a flag left
   set by [clear] would send the next pass for that symbol off the
   stack. *)
(* One access as the kernels make it: the pass that finds a flagged [x]
   while shifting the entries above it, or a [push]; [x]'s position
   before the access, or -1. *)
let access (ws : Window_stack.t) x =
  if Bytes.get ws.on x = '\000' then begin
    Window_stack.push ws x;
    -1
  end
  else begin
    let stk = ws.stk in
    let i = ref 0 and carry = ref x in
    while stk.(!i) <> x do
      let y = stk.(!i) in
      stk.(!i) <- !carry;
      carry := y;
      incr i
    done;
    stk.(!i) <- !carry;
    !i
  end

let window_stack_matches_lru =
  QCheck.Test.make ~name:"window stack = top k of the LRU stack" ~count:300
    QCheck.(triple (int_range 0 2) (int_range 1 300) (int_range 0 1_000_000))
    (fun (shape, universe, seed) ->
      let prng = Colayout_util.Prng.create ~seed in
      let k =
        match shape with
        | 0 -> 1
        | 1 -> 1 + Colayout_util.Prng.int prng (max 1 (universe - 1))
        | _ -> universe + Colayout_util.Prng.int prng 4
      in
      let ws = Window_stack.create ~k ~num_symbols:universe in
      let scan = Scan_walk.create ~k in
      let lru = ref (Lru_stack.create ()) in
      let clears = [ Colayout_util.Prng.int prng 400; Colayout_util.Prng.int prng 800 ] in
      let live = Array.make universe false in
      let flags_ok () =
        Array.fill live 0 universe false;
        List.iter (fun s -> live.(s) <- true) (Window_stack.contents ws);
        let ok = ref true in
        for s = 0 to universe - 1 do
          if Bytes.get ws.Window_stack.on s <> '\000' <> live.(s) then ok := false
        done;
        !ok
      in
      let last = ref 0 in
      let ok = ref true in
      for step = 1 to 400 do
        if List.mem step clears then begin
          Window_stack.clear ws;
          Scan_walk.clear scan;
          lru := Lru_stack.create ();
          if ws.Window_stack.depth <> 0 || not (flags_ok ()) then ok := false
        end;
        let x =
          match Colayout_util.Prng.int prng 4 with
          | 0 -> !last
          | 1 -> Colayout_util.Prng.int prng universe
          | _ -> Colayout_util.Prng.zipf prng ~n:universe ~s:0.8
        in
        last := x;
        let want = match Lru_stack.access !lru x with Some d when d <= k -> d - 1 | _ -> -1 in
        let pos = access ws x in
        let spos = Scan_walk.find scan x in
        Scan_walk.move_to_front scan ~pos:spos x;
        let top = Lru_stack.top_k !lru ~k in
        if
          pos <> want || spos <> want
          || Window_stack.contents ws <> top
          || Scan_walk.contents scan <> top
          || not (flags_ok ())
        then ok := false
      done;
      !ok && ws.Window_stack.depth = min k (Lru_stack.depth !lru))

let test_window_stack () =
  let ws = Window_stack.create ~k:2 ~num_symbols:6 in
  let flags () =
    List.filter (fun s -> Bytes.get ws.Window_stack.on s <> '\000') [ 0; 1; 2; 3; 4; 5 ]
  in
  check Alcotest.int "empty: absent" (-1) (access ws 5);
  Window_stack.clear ws;
  check (Alcotest.list Alcotest.int) "cleared: no flag" [] (flags ());
  List.iter (fun x -> ignore (access ws x)) [ 1; 2 ];
  Window_stack.push ws 3;
  check (Alcotest.list Alcotest.int) "deepest dropped" [ 3; 2 ] (Window_stack.contents ws);
  check (Alcotest.list Alcotest.int) "dropped symbol's flag cleared" [ 2; 3 ] (flags ());
  check Alcotest.int "dropped symbol reads absent" (-1) (access ws 1);
  check (Alcotest.list Alcotest.int) "re-entered on top" [ 1; 3 ] (Window_stack.contents ws);
  check Alcotest.int "depth 2 -> position 1" 1 (access ws 3);
  check (Alcotest.list Alcotest.int) "moved to front" [ 3; 1 ] (Window_stack.contents ws);
  check Alcotest.int "top -> position 0" 0 (access ws 3);
  check Alcotest.int "capacity" 2 (Window_stack.capacity ws);
  Window_stack.clear ws;
  check (Alcotest.list Alcotest.int) "cleared" [] (Window_stack.contents ws);
  check (Alcotest.list Alcotest.int) "cleared flags" [] (flags ());
  check Alcotest.int "reused after clear" (-1) (access ws 3);
  Alcotest.check_raises "k >= 1" (Invalid_argument "Window_stack.create: k must be >= 1")
    (fun () -> ignore (Window_stack.create ~k:0 ~num_symbols:1));
  Alcotest.check_raises "symbol in range"
    (Invalid_argument "Window_stack.push: symbol out of range") (fun () -> Window_stack.push ws 6)

let test_histogram () =
  let h = Histogram.create () in
  Histogram.add h 3;
  Histogram.add h 3;
  Histogram.add_many h 1 5;
  Histogram.add_infinite h;
  check Alcotest.int "count" 2 (Histogram.count h 3);
  check Alcotest.int "total" 8 (Histogram.total h);
  check Alcotest.int "finite" 7 (Histogram.finite_total h);
  check Alcotest.int "infinite" 1 (Histogram.infinite h);
  check Alcotest.int "max bin" 3 (Histogram.max_bin h);
  check Alcotest.int "cumulative" 5 (Histogram.cumulative_at h 2);
  check (Alcotest.float 1e-9) "mean" ((5.0 +. 6.0) /. 7.0) (Histogram.mean h);
  check Alcotest.int "median bin" 1 (Histogram.quantile h ~q:0.5);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "sorted" [ (1, 5); (3, 2) ]
    (Histogram.to_sorted_list h)

let test_stack_dist_small () =
  let t = Trace.of_list ~num_symbols:3 [ 0; 1; 0; 2; 0 ] in
  let r = Stack_dist.run t in
  check Alcotest.int "accesses" 5 r.Stack_dist.accesses;
  check Alcotest.int "distinct" 3 r.Stack_dist.distinct;
  check Alcotest.int "cold accesses" 3 (Histogram.infinite r.Stack_dist.distances);
  (* 0 reused over {1} then over {2}: distances 1 and 1. *)
  check Alcotest.int "distance-1 count" 2 (Histogram.count r.Stack_dist.distances 1);
  (* Reuse times: positions 2-0=2 and 4-2=2. *)
  check Alcotest.int "reuse time 2" 2 (Histogram.count r.Stack_dist.reuse_times 2)

let stack_dist_matches_naive =
  QCheck.Test.make ~name:"tree stack distances match quadratic reference" ~count:60
    QCheck.(list (int_bound 10))
    (fun xs ->
      let t = Trace.of_list ~num_symbols:11 xs in
      let r = Stack_dist.run t in
      let naive = Stack_dist.distances_naive t in
      let h = Histogram.create () in
      Array.iter
        (function None -> Histogram.add_infinite h | Some d -> Histogram.add h d)
        naive;
      Histogram.to_sorted_list h = Histogram.to_sorted_list r.Stack_dist.distances
      && Histogram.infinite h = Histogram.infinite r.Stack_dist.distances)

let miss_ratio_matches_cache_sim =
  QCheck.Test.make
    ~name:"stack-distance miss ratio equals fully-associative LRU simulation" ~count:60
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(return 200) (int_bound 12)))
    (fun (capacity, xs) ->
      QCheck.assume (xs <> []);
      let t = Trace.of_list ~num_symbols:13 xs in
      let r = Stack_dist.run t in
      let cache = Colayout_cache.Fully_assoc.create ~capacity in
      let misses = ref 0 in
      List.iter (fun x -> if not (Colayout_cache.Fully_assoc.access_line cache x) then incr misses) xs;
      let expected = float_of_int !misses /. float_of_int (List.length xs) in
      abs_float (Stack_dist.miss_ratio_at r ~capacity -. expected) < 1e-9)

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "distinct_count cache stays exact" `Quick
            test_distinct_count_incremental;
        ] );
      ( "trim",
        [
          Alcotest.test_case "trim" `Quick test_trim;
          QCheck_alcotest.to_alcotest trim_prop;
        ] );
      ( "prune",
        [
          Alcotest.test_case "prune" `Quick test_prune;
          Alcotest.test_case "tie break" `Quick test_prune_hot_symbols_deterministic_ties;
          Alcotest.test_case "top > universe" `Quick test_prune_top_larger_than_universe;
          QCheck_alcotest.to_alcotest hot_symbols_prop;
        ] );
      ( "bulk",
        [
          QCheck_alcotest.to_alcotest bulk_trace_prop;
          QCheck_alcotest.to_alcotest trim_prune_prop;
        ] );
      ( "lru_stack",
        [
          Alcotest.test_case "basics" `Quick test_lru_stack;
          QCheck_alcotest.to_alcotest lru_stack_matches_naive;
          Alcotest.test_case "window stack basics" `Quick test_window_stack;
          QCheck_alcotest.to_alcotest window_stack_matches_lru;
        ] );
      ("histogram", [ Alcotest.test_case "basics" `Quick test_histogram ]);
      ( "stack_dist",
        [
          Alcotest.test_case "small" `Quick test_stack_dist_small;
          QCheck_alcotest.to_alcotest stack_dist_matches_naive;
          QCheck_alcotest.to_alcotest miss_ratio_matches_cache_sim;
        ] );
    ]

(* silence unused-module warning for U *)
let _ = U.Stats.mean
