(* Differential tests for the packed-int kernels: the rewritten
   [Trg.build] (dense grid or flat packed table, then CSR), the flat
   [Trg_reduce.reduce] and the one-pass [Affinity.thresholds] (cut at each
   window by [Affinity.affine_pairs] and [Affinity_hierarchy.build]) must
   produce results identical to the seed implementations, which live on in
   [Kernel_baseline] as oracles. Traces are randomized but seeded ([Prng]),
   and the windows cover the paper-relevant range up to w ≈ 512
   (32 KB / 64 B line). Also covers [Int_pair_tbl] itself against a
   [Hashtbl] model, and the new bounded/no-depth LRU-stack entry points. *)

open Colayout
open Colayout_oracle
open Colayout_trace
module U = Colayout_util
module W = Colayout_workloads
module E = Colayout_exec

let check = Alcotest.check

(* Zipf-popularity trace: skewed like real block traces but with enough
   deep reuse to exercise large windows. *)
let random_trace ~seed ~num_symbols ~len =
  let prng = U.Prng.create ~seed in
  let t = Trace.create ~num_symbols () in
  for _ = 1 to len do
    Trace.push t (U.Prng.zipf prng ~n:num_symbols ~s:0.9)
  done;
  Trim.trim t

(* Phrase trace: symbols fall into runs of four, and each step plays one
   zipf-chosen run in order, so co-occurring blocks have real affinity and
   the hierarchy merges at several windows. *)
let phrase_trace ~seed ~num_symbols ~len =
  let prng = U.Prng.create ~seed in
  let t = Trace.create ~num_symbols () in
  let runs = (num_symbols + 3) / 4 in
  while Trace.length t < len do
    let r = U.Prng.zipf prng ~n:runs ~s:0.9 in
    for s = 4 * r to min (num_symbols - 1) ((4 * r) + 3) do
      Trace.push t s
    done
  done;
  Trim.trim t

let windows = [ 2; 8; 64; 512 ]

let edge_list = Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)

let pair_lst = Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)

(* ------------------------------------------------- TRG: packed vs seed *)

let test_trg_differential () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          let t = random_trace ~seed ~num_symbols:700 ~len:4_000 in
          let packed = Trg.build ~window:w t in
          let legacy = Kernel_baseline.trg_build ~window:w t in
          check edge_list
            (Printf.sprintf "edge sets identical (w=%d seed=%d)" w seed)
            (Kernel_baseline.trg_edges legacy) (Trg.edges packed);
          (* Point queries through the CSR binary search, both argument
             orders, plus degrees. *)
          let prng = U.Prng.create ~seed:(seed + 1) in
          for _ = 1 to 500 do
            let x = U.Prng.int prng 700 and y = U.Prng.int prng 700 in
            check Alcotest.int "weight" (Kernel_baseline.trg_weight legacy x y)
              (Trg.weight packed x y);
            check Alcotest.int "weight sym" (Trg.weight packed x y) (Trg.weight packed y x)
          done;
          for x = 0 to 699 do
            check Alcotest.int "degree" (Hashtbl.length legacy.Kernel_baseline.adj.(x))
              (Trg.degree packed x)
          done)
        [ 11; 42 ])
    windows

let test_trg_unbounded_differential () =
  let t = random_trace ~seed:7 ~num_symbols:200 ~len:2_000 in
  let packed = Trg.build t in
  let legacy = Kernel_baseline.trg_build t in
  check edge_list "unbounded edge sets identical" (Kernel_baseline.trg_edges legacy)
    (Trg.edges packed)

let test_trg_universe_guard () =
  let t = Trace.create ~num_symbols:(1 lsl 31) () in
  Alcotest.check_raises "2^31 symbols rejected"
    (Invalid_argument "Trg: num_symbols >= 2^31 exceeds the packed-key coordinate bound")
    (fun () -> ignore (Trg.build t))

(* -------------------------------------------- Affinity: packed vs seed *)

let test_affinity_differential () =
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          let t = random_trace ~seed ~num_symbols:700 ~len:4_000 in
          let packed = Affinity.affine_pairs t ~w in
          check pair_lst
            (Printf.sprintf "pair sets identical (w=%d seed=%d)" w seed)
            (Kernel_baseline.affine_pairs t ~w)
            (Affinity.pair_list packed))
        [ 11; 42 ])
    windows

let test_affinity_universe_guard () =
  let t = Trace.create ~num_symbols:(1 lsl 31) () in
  Alcotest.check_raises "2^31 symbols rejected"
    (Invalid_argument "Affinity: num_symbols >= 2^31 exceeds the packed-key coordinate bound")
    (fun () -> ignore (Affinity.affine_pairs t ~w:4))

(* The packed efficient algorithm must still agree with the naive oracle on
   small traces (the seed property, re-stated against the new kernels). *)
let packed_subset_of_naive =
  QCheck.Test.make ~name:"packed efficient affinity is a subset of Definition 3" ~count:100
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 2 40) (int_bound 6)))
    (fun (w, xs) ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      QCheck.assume (Trace.length t >= 2);
      let eff = Affinity.affine_pairs t ~w in
      let exact = Affinity.affine_pairs_naive t ~w in
      List.for_all (fun (x, y) -> Affinity.is_affine exact x y) (Affinity.pair_list eff))

(* ------------------------------------------ TRG reduction: flat vs seed *)

let reduce_result =
  Alcotest.pair (Alcotest.list Alcotest.int) (Alcotest.array (Alcotest.list Alcotest.int))

let events d =
  List.map
    (fun (e : Decision_trace.event) -> (e.action, e.x, e.y, e.weight, e.group, e.size))
    (Decision_trace.events d)

(* Both reductions on one graph: order, slot lists and decision stream. *)
let reduce_both g ~slots =
  let d_flat = Decision_trace.create () and d_seed = Decision_trace.create () in
  let flat = Trg_reduce.reduce ~decisions:d_flat g ~slots in
  let seed = Kernel_baseline.trg_reduce ~decisions:d_seed g ~slots in
  ((flat.Trg_reduce.order, flat.Trg_reduce.slot_lists), events d_flat),
  ((seed.Trg_reduce.order, seed.Trg_reduce.slot_lists), events d_seed)

(* Small graphs with weights drawn from 1..3, so heavy ties exercise the
   (w, x, y) order and merges rewrite weights onto existing edges. *)
let reduce_matches_seed =
  QCheck.Test.make ~name:"flat reduction = seed on random graphs" ~count:500
    QCheck.(
      triple (int_range 2 40) (int_range 1 8)
        (list_of_size Gen.(int_range 0 120) (triple (int_bound 39) (int_bound 39) (int_range 1 3))))
    (fun (n, slots, raw) ->
      let edges =
        List.filter_map
          (fun (x, y, w) -> if x < n && y < n && x <> y then Some (x, y, w) else None)
          raw
      in
      let g = Trg.of_edges ~num_nodes:n edges in
      let flat, seed = reduce_both g ~slots in
      flat = seed)

(* A program's trimmed and pruned fn and bb traces, profiled at the
   harness's Fast test fuel. *)
let real_analysis name =
  let prog = W.Spec.build name in
  let run = E.Interp.run prog (E.Interp.test_input ~max_blocks:80_000 ()) in
  Optimizer.analysis_of_traces ~config:Optimizer.default_config ~bb:run.E.Interp.bb_trace
    ~fn:run.E.Interp.fn_trace ()

(* The real fn and bb TRGs of three programs at the optimizer's default
   window and slot count. 403.gcc's bb graph has about four times as many
   nodes as slots, so most of its placements are merges; 445.gobmk's bb
   graph (1,293 nodes, ~500k edges) is the paper workload's. *)
let test_reduce_real_graphs names () =
  let config = Optimizer.default_config in
  let params = config.Optimizer.params in
  let cache_multiplier = config.Optimizer.cache_multiplier in
  List.iter
    (fun name ->
      let an = real_analysis name in
      List.iter
        (fun (level, trace, block_bytes) ->
          let window = Trg.recommended_window ~params ~block_bytes ~cache_multiplier in
          let slots = Trg_reduce.slots_for ~params ~block_bytes ~cache_multiplier in
          let g = Trg.build ~window trace in
          let (flat, flat_ev), (seed, seed_ev) = reduce_both g ~slots in
          let what = Printf.sprintf "%s %s (%d nodes, %d slots)" name level (Trg.num_nodes g) slots in
          check reduce_result (what ^ ": order and slot lists") seed flat;
          check Alcotest.bool (what ^ ": decision events") true (flat_ev = seed_ev))
        [
          ("fn", an.Optimizer.fn, config.Optimizer.func_block_bytes);
          ("bb", an.Optimizer.bb, config.Optimizer.bb_block_bytes);
        ])
    names

(* The tournament's rescan: slots 2, reps 2 and 4, then node 1 merges into
   4's slot. Node 5's best edge was {1, 5}; it dies, and {4, 5} takes its
   weight 10 with a larger key, so 5 is rescanned and finds {2, 5}. Taking
   {4, 5} instead would put {3, 6} (weight 10, key between) ahead of node
   5 and change the slots. *)
let test_reduce_rescan () =
  let g =
    Trg.of_edges ~num_nodes:7 [ (2, 4, 100); (1, 2, 50); (1, 5, 10); (2, 5, 10); (3, 6, 10) ]
  in
  let (flat, flat_ev), (seed, seed_ev) = reduce_both g ~slots:2 in
  check reduce_result "seed's order and slot lists" seed flat;
  check Alcotest.bool "seed's decision events" true (flat_ev = seed_ev);
  check reduce_result "5 placed before 3 and 6"
    ([ 2; 4; 5; 1; 3; 6 ], [| [ 2; 5; 3 ]; [ 4; 1; 6 ] |])
    flat

(* Across the grid bound: [Trg_reduce.reduce] keeps its current weights
   in a dense grid on universes of at most [max_grid_universe] nodes and
   in a packed-pair table above, and must match the seed on both sides.
   The symbol ids are spread over the whole universe, so a short trace's
   graph has nodes in the grid's first and last rows. *)
let test_reduce_across_bound () =
  let bound = U.Int_pair_tbl.max_grid_universe in
  List.iter
    (fun n ->
      let prng = U.Prng.create ~seed:n in
      let ids = Array.init 120 (fun i -> i * (n - 1) / 119) in
      U.Prng.shuffle prng ids;
      let t = Trace.create ~num_symbols:n () in
      for _ = 1 to 3_000 do
        Trace.push t ids.(U.Prng.zipf prng ~n:120 ~s:0.9)
      done;
      let t = Trim.trim t in
      List.iter
        (fun (window, slots) ->
          let g = Trg.build ~window t in
          let (flat, flat_ev), (seed, seed_ev) = reduce_both g ~slots in
          let what = Printf.sprintf "n=%d window=%d slots=%d" n window slots in
          check reduce_result (what ^ ": order and slot lists") seed flat;
          check Alcotest.bool (what ^ ": decision events") true (flat_ev = seed_ev))
        [ (1, 4); (16, 1); (16, 8); (64, 8); (64, 200); (n, 32) ])
    [ bound - 1; bound; bound + 1 ]

let test_reduce_edge_cases () =
  List.iter
    (fun (what, g) ->
      List.iter
        (fun slots ->
          let (flat, flat_ev), (seed, seed_ev) = reduce_both g ~slots in
          check reduce_result (Printf.sprintf "%s slots=%d" what slots) seed flat;
          check Alcotest.bool (what ^ ": decision events") true (flat_ev = seed_ev))
        [ 1; 2; 5 ])
    [
      ("n=0", Trg.of_edges ~num_nodes:0 []);
      ("n=1", Trg.of_edges ~num_nodes:1 []);
      ("n=2", Trg.of_edges ~num_nodes:2 [ (0, 1, 3) ]);
      ("no edges at the bound", Trg.of_edges ~num_nodes:U.Int_pair_tbl.max_grid_universe []);
      ( "corner edges at the bound",
        let b = U.Int_pair_tbl.max_grid_universe in
        Trg.of_edges ~num_nodes:b [ (0, b - 1, 2); (1, b - 1, 2); (0, 1, 1); (b - 2, b - 1, 5) ] );
      ( "corner edges above the bound",
        let b = U.Int_pair_tbl.max_grid_universe + 1 in
        Trg.of_edges ~num_nodes:b [ (0, b - 1, 2); (1, b - 1, 2); (0, 1, 1); (b - 2, b - 1, 5) ] );
    ]

(* ------------------------------------- One-pass affinity: cuts vs seed *)

(* Every default window, plus random ones, cut from one kernel run at the
   largest: each cut must equal the seed per-window pass. *)
let test_affinity_cuts () =
  let wmax = List.fold_left max 1 Affinity_hierarchy.default_ws in
  List.iter
    (fun seed ->
      let t =
        if seed mod 2 = 0 then random_trace ~seed ~num_symbols:120 ~len:2_500
        else phrase_trace ~seed ~num_symbols:120 ~len:2_500
      in
      let th = Affinity.thresholds t ~wmax in
      if seed mod 2 = 1 then
        check Alcotest.bool "phrase trace has affine pairs" true
          (Affinity.pair_list (Affinity.cut th ~w:wmax) <> []);
      let prng = U.Prng.create ~seed:(seed + 7) in
      let random_ws = List.init 5 (fun _ -> 1 + U.Prng.int prng wmax) in
      List.iter
        (fun w ->
          check pair_lst
            (Printf.sprintf "cut at w=%d (seed=%d)" w seed)
            (Kernel_baseline.affine_pairs t ~w)
            (Affinity.pair_list (Affinity.cut th ~w)))
        (Affinity_hierarchy.default_ws @ random_ws))
    [ 3; 5; 8; 13 ]

let cuts_match_seed =
  QCheck.Test.make ~name:"random cut of the one-pass kernel = seed pass" ~count:300
    QCheck.(
      triple (int_range 1 12) (int_range 0 11) (list_of_size Gen.(int_range 2 80) (int_bound 9)))
    (fun (wmax, dw, xs) ->
      let t = Trim.trim (Trace.of_list ~num_symbols:10 xs) in
      QCheck.assume (Trace.length t >= 2);
      let w = 1 + (dw mod wmax) in
      Affinity.pair_list (Affinity.cut (Affinity.thresholds t ~wmax) ~w)
      = Kernel_baseline.affine_pairs t ~w)

let test_cut_bounds () =
  let t = Trim.trim (Trace.of_list ~num_symbols:3 [ 0; 1; 2; 0 ]) in
  let th = Affinity.thresholds t ~wmax:4 in
  let bad = Invalid_argument "Affinity.cut: w must lie in [1, wmax] of the threshold table" in
  Alcotest.check_raises "w above wmax" bad (fun () -> ignore (Affinity.cut th ~w:5));
  Alcotest.check_raises "w below 1" bad (fun () -> ignore (Affinity.cut th ~w:0))

(* Reference hierarchy: the seed build, one seed affinity pass per window
   and list-appending agglomeration, emitting the same decision events. *)
type ref_work = {
  rnode : Affinity_hierarchy.node;
  rmems : int list;
  rfirst : int;
}

let reference_hierarchy ~decisions ~ws trace =
  let first = Trace.first_occurrence trace in
  let present =
    List.init (Trace.num_symbols trace) Fun.id
    |> List.filter (fun s -> first.(s) >= 0)
    |> List.sort (fun a b -> compare first.(a) first.(b))
  in
  let groups =
    ref
      (List.map
         (fun b -> { rnode = Affinity_hierarchy.Leaf b; rmems = [ b ]; rfirst = first.(b) })
         present)
  in
  List.iter
    (fun w ->
      if List.length !groups > 1 then begin
        let pairs = Hashtbl.create 1024 in
        List.iter (fun p -> Hashtbl.replace pairs p ()) (Kernel_baseline.affine_pairs trace ~w);
        let affine a b = a = b || Hashtbl.mem pairs (min a b, max a b) in
        let clusters = ref [] in
        List.iter
          (fun g ->
            let compatible c =
              List.for_all
                (fun g' -> List.for_all (fun a -> List.for_all (affine a) g'.rmems) g.rmems)
                !c
            in
            let rec place k = function
              | [] -> clusters := !clusters @ [ ref [ g ] ]
              | c :: rest ->
                if compatible c then begin
                  Decision_trace.emit (Some decisions) ~stage:"affinity" ~action:"join"
                    ~x:(List.hd g.rmems) ~y:(List.hd (List.hd !c).rmems) ~weight:w ~group:k
                    ~size:(List.length !c + 1) ();
                  c := !c @ [ g ]
                end
                else place (k + 1) rest
            in
            place 0 !clusters)
          !groups;
        groups :=
          List.map
            (fun c ->
              match !c with
              | [ g ] -> g
              | gs ->
                {
                  rnode = Affinity_hierarchy.Group { w; children = List.map (fun g -> g.rnode) gs };
                  rmems = List.concat_map (fun g -> g.rmems) gs;
                  rfirst = List.fold_left (fun acc g -> min acc g.rfirst) max_int gs;
                })
            !clusters;
        Decision_trace.emit (Some decisions) ~stage:"affinity" ~action:"level" ~weight:w
          ~size:(List.length !groups) ()
      end)
    ws;
  List.map (fun g -> g.rnode) (List.sort (fun a b -> compare a.rfirst b.rfirst) !groups)

let check_hierarchy what ~ws t =
  let d = Decision_trace.create () and d_ref = Decision_trace.create () in
  let h = Affinity_hierarchy.build ~decisions:d ~ws t in
  let roots = reference_hierarchy ~decisions:d_ref ~ws t in
  check Alcotest.bool (what ^ ": roots") true (h.Affinity_hierarchy.roots = roots);
  check Alcotest.bool (what ^ ": decision events") true (events d = events d_ref);
  check Alcotest.bool (what ^ ": some joins") true (Decision_trace.count d > List.length ws)

let test_hierarchy_matches_reference () =
  List.iter
    (fun (seed, num_symbols, ws) ->
      check_hierarchy (Printf.sprintf "seed=%d" seed) ~ws
        (phrase_trace ~seed ~num_symbols ~len:1_500))
    [
      (1, 40, Affinity_hierarchy.default_ws);
      (2, 80, Optimizer.default_config.Optimizer.ws);
      (3, 25, [ 1; 3; 7 ]);
    ]

(* Small random traces with random windows: here a group often has more
   than one compatible cluster, and must join the first. *)
let hierarchy_matches_reference =
  QCheck.Test.make ~name:"random hierarchies = per-window reference" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 5) (int_range 1 6))
        (list_of_size Gen.(int_range 2 80) (int_bound 9)))
    (fun (steps, xs) ->
      let t = Trim.trim (Trace.of_list ~num_symbols:10 xs) in
      QCheck.assume (Trace.length t >= 2);
      (* Strictly ascending windows from positive steps. *)
      let ws =
        List.rev (snd (List.fold_left (fun (w, acc) d -> (w + d, (w + d) :: acc)) (0, []) steps))
      in
      let d = Decision_trace.create () and d_ref = Decision_trace.create () in
      let h = Affinity_hierarchy.build ~decisions:d ~ws t in
      let roots = reference_hierarchy ~decisions:d_ref ~ws t in
      h.Affinity_hierarchy.roots = roots && events d = events d_ref)

(* The optimizer's bb hierarchies of two programs: about a thousand
   groups at 445.gobmk's first level, each testing only the clusters of
   its first member's affine partners. *)
let test_hierarchy_real_traces () =
  List.iter
    (fun name ->
      check_hierarchy (name ^ " bb") ~ws:Optimizer.default_config.Optimizer.ws
        (real_analysis name).Optimizer.bb)
    [ "445.gobmk"; "403.gcc" ]

(* ------------------------------------------------ The reused pair grid *)

(* The three grid kernels hold one [Pair_grid] per domain, lent zeroed and
   handed back zeroed. Stale cells from a larger universe would land in a
   smaller one's rows (and the reverse), so each kernel runs at 445.gobmk's
   1,293 symbols and at 40, in both orders, against the seed kernels. The
   zipf traces make symbols 0 and 1 the hottest: the cells a smaller
   universe reuses are the ones a larger call writes most. *)
let gobmk_symbols = 1293

let grid_windows = [ 2; 8; 20 ]

(* TRG edges, the reduction (order, slot lists, decision events) and
   affine pairs at each window. *)
let grid_kernels (t, window, slots) =
  let g = Trg.build ~window t in
  let d = Decision_trace.create () in
  let r = Trg_reduce.reduce ~decisions:d g ~slots in
  let th = Affinity.thresholds t ~wmax:(List.fold_left max 1 grid_windows) in
  ( Trg.edges g,
    (r.Trg_reduce.order, r.Trg_reduce.slot_lists, events d),
    List.map (fun w -> Affinity.pair_list (Affinity.cut th ~w)) grid_windows )

(* The same from the seed kernels; the reduction reads a graph built from
   the seed's edges through the table path. *)
let seed_kernels (t, window, slots) =
  let legacy = Kernel_baseline.trg_build ~window t in
  let g = Trg.of_edges ~num_nodes:(Trace.num_symbols t) (Kernel_baseline.trg_edges legacy) in
  let d = Decision_trace.create () in
  let r = Kernel_baseline.trg_reduce ~decisions:d g ~slots in
  ( Kernel_baseline.trg_edges legacy,
    (r.Trg_reduce.order, r.Trg_reduce.slot_lists, events d),
    List.map (fun w -> Kernel_baseline.affine_pairs t ~w) grid_windows )

let grid_cases () =
  [
    (random_trace ~seed:31 ~num_symbols:gobmk_symbols ~len:6_000, 1024, 64);
    (random_trace ~seed:32 ~num_symbols:40 ~len:1_500, 16, 4);
    (phrase_trace ~seed:33 ~num_symbols:gobmk_symbols ~len:6_000, 64, 256);
    (phrase_trace ~seed:34 ~num_symbols:40 ~len:1_500, 40, 8);
  ]

let check_grid_zeroed what =
  U.Pair_grid.with_grid "test" ~n:gobmk_symbols (fun g ->
      let dirty = ref 0 in
      for i = 0 to Bigarray.Array1.dim g - 1 do
        if g.{i} <> 0 then incr dirty
      done;
      check Alcotest.int (what ^ ": grid handed back zeroed") 0 !dirty)

let test_grid_reuse_across_universes () =
  let cases = grid_cases () in
  let seeds = List.map seed_kernels cases in
  (* Large, small, large, small; then small, large, small, large. *)
  List.iter
    (fun order ->
      List.iter
        (fun i ->
          let case = List.nth cases i in
          let t, window, slots = case in
          let what =
            Printf.sprintf "n=%d window=%d slots=%d" (Trace.num_symbols t) window slots
          in
          check Alcotest.bool (what ^ ": = seed kernels") true
            (grid_kernels case = List.nth seeds i);
          check_grid_zeroed what)
        order)
    [ [ 0; 1; 2; 3 ]; [ 1; 0; 3; 2 ] ];
  check Alcotest.bool "the grid grew to the largest universe" true
    (U.Pair_grid.capacity () >= gobmk_symbols * gobmk_symbols)

(* Each domain holds its own grid: the kernels through the pool at two
   jobs equal the sequential results. *)
let test_grid_per_domain () =
  let cases = grid_cases () in
  let cases = cases @ List.rev cases in
  let sequential = List.map grid_kernels cases in
  let parallel = U.Pool.with_pool ~jobs:2 (fun pool -> U.Pool.map pool grid_kernels cases) in
  check Alcotest.bool "jobs 2 = sequential" true (parallel = sequential)

(* A kernel called while its domain holds the grid is refused, and the
   holder's cells are untouched; another domain runs meanwhile; a holder
   that raises hands the grid back zeroed and released. *)
let test_grid_nested_guard () =
  let t = random_trace ~seed:35 ~num_symbols:30 ~len:400 in
  let g = Trg.build ~window:8 t in
  let held who = Invalid_argument (who ^ ": the pair grid is already held on this domain") in
  U.Pair_grid.with_grid "test" ~n:4 (fun m ->
      m.{5} <- 7;
      Alcotest.check_raises "Trg.build" (held "Trg.build") (fun () ->
          ignore (Trg.build ~window:8 t));
      Alcotest.check_raises "Affinity.thresholds" (held "Affinity.thresholds") (fun () ->
          ignore (Affinity.thresholds t ~wmax:4));
      Alcotest.check_raises "Trg_reduce.reduce" (held "Trg_reduce.reduce") (fun () ->
          ignore (Trg_reduce.reduce g ~slots:4));
      Alcotest.check_raises "hold inside a hold" (held "inner") (fun () ->
          U.Pair_grid.with_grid "inner" ~n:4 ignore);
      check Alcotest.int "the holder's cell is untouched" 7 m.{5};
      let other = Domain.join (Domain.spawn (fun () -> Trg.edges (Trg.build ~window:8 t))) in
      check edge_list "another domain builds meanwhile" (Trg.edges g) other;
      m.{5} <- 0);
  Alcotest.check_raises "a raising holder" (Failure "holder") (fun () ->
      U.Pair_grid.with_grid "test" ~n:gobmk_symbols (fun m ->
          m.{0} <- 1;
          m.{(gobmk_symbols * gobmk_symbols) - 1} <- 2;
          failwith "holder"));
  check_grid_zeroed "after a raising holder";
  check edge_list "released after the raise"
    (Kernel_baseline.trg_edges (Kernel_baseline.trg_build ~window:8 t))
    (Trg.edges (Trg.build ~window:8 t))

let grid_sum g =
  let s = ref 0 in
  for i = 0 to Bigarray.Array1.dim g - 1 do
    s := !s + abs g.{i}
  done;
  !s

(* The view is exactly n * n cells, zeroed; the domain's grid grows to
   the largest n² and is never shrunk; sides outside the bound are
   refused. *)
let test_pair_grid_view () =
  U.Pair_grid.with_grid "test" ~n:0 (fun g -> check Alcotest.int "n = 0" 0 (Bigarray.Array1.dim g));
  U.Pair_grid.with_grid "test" ~n:12 (fun g ->
      check Alcotest.int "n * n cells" 144 (Bigarray.Array1.dim g);
      check Alcotest.int "zeroed" 0 (grid_sum g));
  let cap = U.Pair_grid.capacity () in
  check Alcotest.bool "grew to 144" true (cap >= 144);
  U.Pair_grid.with_grid "test" ~n:5 (fun g ->
      check Alcotest.int "a smaller view" 25 (Bigarray.Array1.dim g));
  check Alcotest.int "never shrunk" cap (U.Pair_grid.capacity ());
  let bad n =
    Invalid_argument (Printf.sprintf "test: grid side %d outside [0, max_grid_universe]" n)
  in
  Alcotest.check_raises "negative side" (bad (-1)) (fun () ->
      U.Pair_grid.with_grid "test" ~n:(-1) ignore);
  let over = U.Int_pair_tbl.max_grid_universe + 1 in
  Alcotest.check_raises "side over the bound" (bad over) (fun () ->
      U.Pair_grid.with_grid "test" ~n:over ignore)

(* One holder per domain: a nested hold is refused with the inner
   caller's name and leaves the holder's cells alone; another domain
   holds its own grid meanwhile; a holder that raises gets its cells
   zeroed and the grid released. *)
let test_pair_grid_hold () =
  U.Pair_grid.with_grid "outer" ~n:3 (fun g ->
      g.{4} <- 9;
      Alcotest.check_raises "nested hold"
        (Invalid_argument "inner: the pair grid is already held on this domain") (fun () ->
          U.Pair_grid.with_grid "inner" ~n:3 (fun h -> h.{4} <- 1));
      check Alcotest.int "holder's cell kept" 9 g.{4};
      let other =
        Domain.join
          (Domain.spawn (fun () -> U.Pair_grid.with_grid "other" ~n:3 (fun h -> grid_sum h)))
      in
      check Alcotest.int "another domain's grid is its own, zeroed" 0 other;
      g.{4} <- 0);
  Alcotest.check_raises "raising holder" Exit (fun () ->
      U.Pair_grid.with_grid "test" ~n:7 (fun g ->
          g.{0} <- 3;
          g.{48} <- -2;
          raise Exit));
  U.Pair_grid.with_grid "test" ~n:7 (fun g ->
      check Alcotest.int "zeroed after the raise" 0 (grid_sum g))

(* The grid TRG walk keeps a per-symbol on-stack flag instead of scanning
   the stack. Window 1, windows below and above the distinct-symbol
   count (below it, blocks drop off the bottom and their flag must
   clear), and universes with cold symbols between the hot ones. *)
let trg_walk_matches_seed =
  QCheck.Test.make ~name:"flagged grid TRG walk = seed TRG" ~count:500
    QCheck.(
      quad (int_range 1 12) (int_range 0 3) (int_range 0 6)
        (list_of_size Gen.(int_range 0 150) (int_bound 11)))
    (fun (used, gap, wsel, xs) ->
      (* Hot symbols at multiples of [gap + 1]; the ids between are cold. *)
      let n = used * (gap + 1) in
      let t =
        Trim.trim (Trace.of_list ~num_symbols:n (List.map (fun x -> x mod used * (gap + 1)) xs))
      in
      let distinct = Trace.distinct_count t in
      let window =
        match wsel with
        | 0 -> 1
        | 1 -> 2
        | 2 -> max 1 (distinct - 1)
        | 3 -> max 1 (distinct / 2)
        | 4 -> n
        | 5 -> n + 3
        | _ -> max_int
      in
      Trg.edges (Trg.build ~window t)
      = Kernel_baseline.trg_edges (Kernel_baseline.trg_build ~window t))

(* ------------------------------------------- Int_pair_tbl vs a Hashtbl *)

let test_pack_roundtrip () =
  let m = U.Int_pair_tbl.max_coord in
  List.iter
    (fun (x, y) ->
      let k = U.Int_pair_tbl.pack x y in
      check Alcotest.int "fst" x (U.Int_pair_tbl.fst_of k);
      check Alcotest.int "snd" y (U.Int_pair_tbl.snd_of k);
      check Alcotest.bool "non-negative" true (k >= 0))
    [ (0, 0); (1, 2); (m, m); (m, 0); (0, m); (12345, 67890) ]

let tbl_matches_model =
  QCheck.Test.make ~name:"Int_pair_tbl matches a Hashtbl model under random ops" ~count:200
    QCheck.(list (triple (int_bound 3) (int_bound 40) (int_range (-5) 50)))
    (fun ops ->
      let t = U.Int_pair_tbl.create ~capacity:2 () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (op, key, v) ->
          match op with
          | 0 -> (
            U.Int_pair_tbl.replace t key v;
            Hashtbl.replace model key v)
          | 1 ->
            let got = U.Int_pair_tbl.add_to t key v in
            let cur = Option.value ~default:0 (Hashtbl.find_opt model key) in
            Hashtbl.replace model key (cur + v);
            assert (got = cur + v)
          | 2 -> (
            U.Int_pair_tbl.remove t key;
            Hashtbl.remove model key)
          | _ ->
            assert (
              U.Int_pair_tbl.find t key ~default:min_int
              = Option.value ~default:min_int (Hashtbl.find_opt model key)))
        ops;
      U.Int_pair_tbl.length t = Hashtbl.length model
      && U.Int_pair_tbl.fold
           (fun k v ok -> ok && Hashtbl.find_opt model k = Some v)
           t true)

let test_tbl_negative_key_rejected () =
  let t = U.Int_pair_tbl.create () in
  Alcotest.check_raises "negative key" (Invalid_argument "Int_pair_tbl: negative key")
    (fun () -> U.Int_pair_tbl.replace t (-3) 1);
  check Alcotest.bool "mem negative" false (U.Int_pair_tbl.mem t (-3));
  check Alcotest.int "find negative" 0 (U.Int_pair_tbl.find t (-3) ~default:0)

(* [slot]: one probe that finds a key or inserts it bound to 0. *)
let test_tbl_slot () =
  let t = U.Int_pair_tbl.create ~capacity:0 () in
  let i = U.Int_pair_tbl.slot t 42 in
  check Alcotest.int "inserted as 0" 0 (U.Int_pair_tbl.slot_get t i);
  check Alcotest.int "one binding" 1 (U.Int_pair_tbl.length t);
  U.Int_pair_tbl.slot_set t i 7;
  check Alcotest.int "slot_set visible to find" 7 (U.Int_pair_tbl.find t 42 ~default:0);
  check Alcotest.int "existing key: same slot" i (U.Int_pair_tbl.slot t 42);
  check Alcotest.int "existing key: value kept" 7 (U.Int_pair_tbl.slot_get t i);
  check Alcotest.int "still one binding" 1 (U.Int_pair_tbl.length t);
  Alcotest.check_raises "negative key" (Invalid_argument "Int_pair_tbl: negative key") (fun () ->
      ignore (U.Int_pair_tbl.slot t (-1)));
  check Alcotest.int "rejected key not inserted" 1 (U.Int_pair_tbl.length t)

(* A removed key leaves a tombstone; the next insert whose probe passes
   it lands there, whether it is the same key or another one. *)
let test_tbl_slot_tombstone () =
  let fresh () =
    let t = U.Int_pair_tbl.create ~capacity:0 () in
    let s0 = U.Int_pair_tbl.slot t 0 in
    U.Int_pair_tbl.remove t 0;
    (t, s0)
  in
  let t, s0 = fresh () in
  let again = U.Int_pair_tbl.slot t 0 in
  check Alcotest.int "same key reuses its tombstone" s0 again;
  check Alcotest.int "re-inserted as 0" 0 (U.Int_pair_tbl.slot_get t again);
  check Alcotest.int "one binding" 1 (U.Int_pair_tbl.length t);
  (* Some other key hashes to the tombstone's slot in an 8-slot table. *)
  let rec other k =
    if k > 10_000 then Alcotest.fail "no key probes through the tombstone"
    else
      let t, s0 = fresh () in
      let i = U.Int_pair_tbl.slot t k in
      if i = s0 then (t, i) else other (k + 1)
  in
  let t, i = other 1 in
  check Alcotest.int "other key inserted as 0" 0 (U.Int_pair_tbl.slot_get t i);
  check Alcotest.int "removed key stays gone" 0 (U.Int_pair_tbl.find t 0 ~default:0);
  check Alcotest.bool "removed key not a member" false (U.Int_pair_tbl.mem t 0);
  check Alcotest.int "one binding" 1 (U.Int_pair_tbl.length t);
  Alcotest.check_raises "a tombstone is not a live slot" (Invalid_argument "Int_pair_tbl: bad slot")
    (fun () ->
      let t, s0 = fresh () in
      ignore (U.Int_pair_tbl.slot_get t s0))

(* The insert that crosses the load bound resizes the table; the slot it
   returns indexes the new arrays, and every earlier binding survives. *)
let test_tbl_slot_resize () =
  let t = U.Int_pair_tbl.create ~capacity:0 () in
  for k = 0 to 5 do
    U.Int_pair_tbl.slot_set t (U.Int_pair_tbl.slot t (k * 1000)) (k + 1)
  done;
  (* 8 slots at load 3/4: the seventh insert resizes. *)
  let i = U.Int_pair_tbl.slot t 6000 in
  check Alcotest.int "resizing insert bound to 0" 0 (U.Int_pair_tbl.slot_get t i);
  U.Int_pair_tbl.slot_set t i 7;
  check Alcotest.int "seven bindings" 7 (U.Int_pair_tbl.length t);
  for k = 0 to 6 do
    check Alcotest.int
      (Printf.sprintf "binding %d survives" k)
      (k + 1)
      (U.Int_pair_tbl.find t (k * 1000) ~default:0)
  done;
  Alcotest.check_raises "slot past the arrays" (Invalid_argument "Int_pair_tbl: bad slot")
    (fun () -> U.Int_pair_tbl.slot_set t 1_000_000 0)

(* ------------------------------------------- The lent reduction rows *)

(* [Trg_reduce.reduce] reads its symmetric rows from buffers its domain
   lends it and grows to the largest graph reduced there: a smaller
   graph after a larger one reuses rows the larger one wrote, and a
   graph above the grid bound reads the same rows on the table path.
   Each reduction, as order, slot lists and decision events. *)
let rows_cases () =
  let above = U.Int_pair_tbl.max_grid_universe + 1 in
  List.map
    (fun (t, window, slots) -> (Trg.build ~window t, slots))
    [
      (random_trace ~seed:41 ~num_symbols:gobmk_symbols ~len:6_000, 1024, 64);
      (random_trace ~seed:42 ~num_symbols:40 ~len:1_500, 16, 4);
      (random_trace ~seed:43 ~num_symbols:above ~len:4_000, 32, 16);
    ]

let reduce_events (g, slots) =
  let d = Decision_trace.create () in
  let r = Trg_reduce.reduce ~decisions:d g ~slots in
  ((r.Trg_reduce.order, r.Trg_reduce.slot_lists), events d)

let seed_events (g, slots) =
  let d = Decision_trace.create () in
  let r = Kernel_baseline.trg_reduce ~decisions:d g ~slots in
  ((r.Trg_reduce.order, r.Trg_reduce.slot_lists), events d)

let test_rows_reuse () =
  let cases = rows_cases () in
  check Alcotest.bool "the last case takes the table path" true
    (Trg.num_nodes (fst (List.nth cases 2)) > U.Int_pair_tbl.max_grid_universe);
  List.iter
    (fun ((g, slots) as case) ->
      let what = Printf.sprintf "n=%d slots=%d" (Trg.num_nodes g) slots in
      let flat, flat_ev = reduce_events case and seed, seed_ev = seed_events case in
      check reduce_result (what ^ ": order and slot lists") seed flat;
      check Alcotest.bool (what ^ ": decision events") true (flat_ev = seed_ev))
    cases

(* Each domain lends its own rows: the reductions through the pool at
   two jobs equal the sequential ones. *)
let test_rows_per_domain () =
  let cases = rows_cases () in
  let cases = cases @ List.rev cases in
  let sequential = List.map reduce_events cases in
  let parallel = U.Pool.with_pool ~jobs:2 (fun pool -> U.Pool.map pool reduce_events cases) in
  check Alcotest.bool "jobs 2 = sequential" true (parallel = sequential)

(* A reduction started while its domain holds the rows is refused, on
   either path; another domain reduces meanwhile; a holder that raises
   releases them; and the rows serve the next reduction as before. *)
let test_rows_nested_guard () =
  let small = (Trg.build ~window:8 (random_trace ~seed:44 ~num_symbols:30 ~len:400), 4) in
  let above =
    let b = U.Int_pair_tbl.max_grid_universe + 1 in
    (Trg.of_edges ~num_nodes:b [ (0, b - 1, 2); (1, b - 1, 2); (0, 1, 1) ], 2)
  in
  let held = Invalid_argument "Trg_reduce.reduce: the reduction rows are already held on this domain" in
  Trg_reduce.with_rows (fun () ->
      Alcotest.check_raises "grid path" held (fun () -> ignore (reduce_events small));
      Alcotest.check_raises "table path" held (fun () -> ignore (reduce_events above));
      Alcotest.check_raises "a hold inside a hold"
        (Invalid_argument "Trg_reduce.with_rows: the reduction rows are already held on this domain")
        (fun () -> Trg_reduce.with_rows ignore);
      let other = Domain.join (Domain.spawn (fun () -> reduce_events small)) in
      check Alcotest.bool "another domain reduces meanwhile" true (other = seed_events small));
  Alcotest.check_raises "a raising holder" Exit (fun () -> Trg_reduce.with_rows (fun () -> raise Exit));
  List.iter
    (fun case ->
      check Alcotest.bool "usable afterwards" true (reduce_events case = seed_events case))
    [ small; above ]

let () =
  Alcotest.run "kernels"
    [
      ( "trg-differential",
        [
          Alcotest.test_case "packed = seed across w" `Slow test_trg_differential;
          Alcotest.test_case "packed = seed unbounded" `Quick test_trg_unbounded_differential;
          Alcotest.test_case "2^31 guard" `Quick test_trg_universe_guard;
        ] );
      ( "affinity-differential",
        [
          Alcotest.test_case "packed = seed across w" `Slow test_affinity_differential;
          Alcotest.test_case "2^31 guard" `Quick test_affinity_universe_guard;
          QCheck_alcotest.to_alcotest packed_subset_of_naive;
        ] );
      ( "reduce-differential",
        [
          QCheck_alcotest.to_alcotest reduce_matches_seed;
          Alcotest.test_case "real mcf and gcc TRGs" `Slow
            (test_reduce_real_graphs [ "429.mcf"; "403.gcc" ]);
          Alcotest.test_case "real gobmk TRGs" `Slow (test_reduce_real_graphs [ "445.gobmk" ]);
          Alcotest.test_case "tie rescan" `Quick test_reduce_rescan;
        ] );
      ( "grid-bound",
        [
          Alcotest.test_case "reduce = seed across the bound" `Quick test_reduce_across_bound;
          Alcotest.test_case "reduce edge cases = seed" `Quick test_reduce_edge_cases;
        ] );
      ( "affinity-one-pass",
        [
          Alcotest.test_case "cuts = seed at every window" `Quick test_affinity_cuts;
          QCheck_alcotest.to_alcotest cuts_match_seed;
          Alcotest.test_case "cut bounds" `Quick test_cut_bounds;
          Alcotest.test_case "hierarchy = per-window reference" `Quick
            test_hierarchy_matches_reference;
          QCheck_alcotest.to_alcotest hierarchy_matches_reference;
          Alcotest.test_case "real bb hierarchies = reference" `Slow
            test_hierarchy_real_traces;
        ] );
      ( "pair-grid",
        [
          Alcotest.test_case "reuse across universes = seed" `Quick
            test_grid_reuse_across_universes;
          Alcotest.test_case "one grid per domain" `Quick test_grid_per_domain;
          Alcotest.test_case "nested-use guard" `Quick test_grid_nested_guard;
          Alcotest.test_case "view" `Quick test_pair_grid_view;
          Alcotest.test_case "hold" `Quick test_pair_grid_hold;
          QCheck_alcotest.to_alcotest trg_walk_matches_seed;
        ] );
      ( "reduce-rows",
        [
          Alcotest.test_case "larger, smaller, table path = seed" `Quick test_rows_reuse;
          Alcotest.test_case "one set of rows per domain" `Quick test_rows_per_domain;
          Alcotest.test_case "nested-use guard" `Quick test_rows_nested_guard;
        ] );
      ( "int-pair-tbl",
        [
          Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
          QCheck_alcotest.to_alcotest tbl_matches_model;
          Alcotest.test_case "negative keys" `Quick test_tbl_negative_key_rejected;
          Alcotest.test_case "slot find-or-insert-0" `Quick test_tbl_slot;
          Alcotest.test_case "slot tombstone reuse" `Quick test_tbl_slot_tombstone;
          Alcotest.test_case "slot resize" `Quick test_tbl_slot_resize;
        ] );
    ]
