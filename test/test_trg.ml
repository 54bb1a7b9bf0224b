open Colayout
open Colayout_oracle
open Colayout_trace
module U = Colayout_util

let check = Alcotest.check

let test_build_simple () =
  (* a b a : the two a's are interleaved by one b -> edge (a,b) = 1. *)
  let t = Trace.of_list ~num_symbols:3 [ 0; 1; 0 ] in
  let g = Trg.build t in
  check Alcotest.int "edge weight" 1 (Trg.weight g 0 1);
  check Alcotest.int "symmetric" 1 (Trg.weight g 1 0);
  check Alcotest.int "no self edge" 0 (Trg.weight g 0 0);
  check Alcotest.int "absent edge" 0 (Trg.weight g 0 2)

let test_build_counts_each_reuse () =
  (* a b a b a: a reused twice across b (2), b reused once across a (1):
     total edge weight 3. *)
  let t = Trace.of_list ~num_symbols:2 [ 0; 1; 0; 1; 0 ] in
  let g = Trg.build t in
  check Alcotest.int "accumulated weight" 3 (Trg.weight g 0 1)

let test_build_window_limits () =
  (* a b c d a: with an unbounded window, a's reuse crosses b, c, d. With
     window 3 the reuse distance (4 distinct incl. a) exceeds it: no edges
     from a. *)
  let t = Trace.of_list ~num_symbols:5 [ 0; 1; 2; 3; 0 ] in
  let unbounded = Trg.build t in
  check Alcotest.int "unbounded a-b" 1 (Trg.weight unbounded 0 1);
  check Alcotest.int "unbounded a-d" 1 (Trg.weight unbounded 0 3);
  let windowed = Trg.build ~window:3 t in
  check Alcotest.int "windowed drops far reuse" 0 (Trg.weight windowed 0 1);
  check Alcotest.int "windowed drops a-d" 0 (Trg.weight windowed 0 3)

let test_build_requires_trimmed () =
  let t = Trace.of_list ~num_symbols:2 [ 0; 0 ] in
  Alcotest.check_raises "trimmed" (Invalid_argument "Trg.build: trace must be trimmed")
    (fun () -> ignore (Trg.build t))

let test_edges_sorted () =
  let g = Trg.of_edges ~num_nodes:4 [ (0, 1, 5); (2, 3, 9); (0, 2, 5) ] in
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "sorted by weight desc then ids"
    [ (2, 3, 9); (0, 1, 5); (0, 2, 5) ]
    (Trg.edges g);
  check Alcotest.int "degree" 2 (Trg.degree g 0)

let test_edges_sorted_wide_weights () =
  (* A weight range too wide to pack beside the edge index takes the
     comparator sort; the order must not change. *)
  let big = 1 lsl 61 in
  let g = Trg.of_edges ~num_nodes:4 [ (0, 1, 1); (1, 2, big); (0, 2, 1); (2, 3, big) ] in
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "sorted by weight desc then ids"
    [ (1, 2, big); (2, 3, big); (0, 1, 1); (0, 2, 1) ]
    (Trg.edges g)

(* The weight-sorted index is a radix sort on [wmax - w]: any mix of
   weight widths, including spans too wide for one digit, must give the
   comparison order (heaviest first, then ids). *)
let edges_sorted_any_widths =
  QCheck.Test.make ~name:"edges sorted, random weight widths" ~count:300
    QCheck.(list (triple (int_bound 11) (int_bound 11) (pair (int_bound 61) (int_bound 1000))))
    (fun raw ->
      let edges =
        List.filter_map
          (fun (x, y, (b, r)) ->
            if x = y then None else Some (min x y, max x y, (1 lsl b) + r))
          raw
        |> List.sort_uniq (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d))
      in
      let g = Trg.of_edges ~num_nodes:12 edges in
      Trg.edges g
      = List.sort (fun (a, b, w) (c, d, v) -> compare (-w, a, b) (-v, c, d)) edges)

let test_of_edges_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Trg.of_edges: self loop") (fun () ->
      ignore (Trg.of_edges ~num_nodes:2 [ (0, 0, 1) ]));
  Alcotest.check_raises "non-positive" (Invalid_argument "Trg.of_edges: non-positive weight")
    (fun () -> ignore (Trg.of_edges ~num_nodes:2 [ (0, 1, 0) ]));
  Alcotest.check_raises "out of range" (Invalid_argument "Trg.of_edges: node out of range")
    (fun () -> ignore (Trg.of_edges ~num_nodes:2 [ (0, 5, 1) ]))

(* The two merge-side constructors: [of_edges] adds the weights of an
   edge listed more than once, in either orientation, and [of_grid] reads
   a directed grid, lent by [Pair_grid], as the sum of its two cells per
   pair and hands it back zeroed. *)
let test_of_edges_and_of_grid () =
  let g = Trg.of_edges ~num_nodes:4 [ (0, 1, 2); (2, 3, 1); (1, 0, 5); (0, 1, 1) ] in
  check Alcotest.(list (triple int int int)) "repeated edges sum" [ (0, 1, 8); (2, 3, 1) ]
    (Trg.edges g);
  check Alcotest.int "degree counts the edge once" 1 (Trg.degree g 0);
  Colayout_util.Pair_grid.with_grid "test" ~n:4 (fun m ->
      m.{(0 * 4) + 1} <- 3;
      m.{(1 * 4) + 0} <- 5;
      m.{(3 * 4) + 2} <- 1;
      check Alcotest.(list (triple int int int)) "directed cells fold" [ (0, 1, 8); (2, 3, 1) ]
        (Trg.edges (Trg.of_grid ~num_nodes:4 m));
      for i = 0 to 15 do
        check Alcotest.int (Printf.sprintf "cell %d left zeroed" i) 0 m.{i}
      done;
      Alcotest.check_raises "grid size" (Invalid_argument "Trg.of_grid: grid is not n * n")
        (fun () -> ignore (Trg.of_grid ~num_nodes:3 m)))

let test_recommended_window () =
  let params = Colayout_cache.Params.default_l1i in
  (* 2 x 32KB / 64B blocks = 1024. *)
  check Alcotest.int "2C window in 64B blocks" 1024
    (Trg.recommended_window ~params ~block_bytes:64 ~cache_multiplier:2.0);
  check Alcotest.int "256B blocks" 256
    (Trg.recommended_window ~params ~block_bytes:256 ~cache_multiplier:2.0)

(* ---------------------------------------------------- Reduction (Fig 2) *)

(* Weights engineered to walk exactly the paper's narrated reduction:
   A-B first (A->slot1, B->slot2), then E-F (E->slot3 empty, F joins A's
   slot because 10 < 15, and the cross-slot F-B edge is dropped), then C
   joins E's slot as its least conflict. Output: A B E F C. *)
let fig2_trg () =
  (* A=0 B=1 E=2 F=3 C=4 *)
  Trg.of_edges ~num_nodes:5
    [ (0, 1, 40); (2, 3, 30); (3, 0, 10); (3, 1, 15); (4, 0, 25); (4, 1, 22); (4, 2, 20) ]

let test_fig2_reduction () =
  let r = Trg_reduce.reduce (fig2_trg ()) ~slots:3 in
  check (Alcotest.list Alcotest.int) "paper sequence A B E F C" [ 0; 1; 2; 3; 4 ] r.Trg_reduce.order;
  check (Alcotest.list Alcotest.int) "slot1 = A F" [ 0; 3 ] r.Trg_reduce.slot_lists.(0);
  check (Alcotest.list Alcotest.int) "slot2 = B" [ 1 ] r.Trg_reduce.slot_lists.(1);
  check (Alcotest.list Alcotest.int) "slot3 = E C" [ 2; 4 ] r.Trg_reduce.slot_lists.(2)

let test_reduce_isolated_nodes_not_placed () =
  let g = Trg.of_edges ~num_nodes:4 [ (0, 1, 3) ] in
  let r = Trg_reduce.reduce g ~slots:2 in
  check (Alcotest.list Alcotest.int) "only connected nodes placed" [ 0; 1 ] (List.sort compare r.Trg_reduce.order)

let test_reduce_single_slot () =
  let g = Trg.of_edges ~num_nodes:3 [ (0, 1, 5); (1, 2, 3) ] in
  let r = Trg_reduce.reduce g ~slots:1 in
  check Alcotest.int "all in one list" 3 (List.length r.Trg_reduce.slot_lists.(0));
  check Alcotest.int "order covers all" 3 (List.length r.Trg_reduce.order)

let reduce_output_is_duplicate_free =
  QCheck.Test.make ~name:"reduction places each node at most once" ~count:100
    QCheck.(pair (int_range 1 6) (list (triple (int_bound 7) (int_bound 7) (int_range 1 50))))
    (fun (slots, raw) ->
      let edges =
        List.filter_map
          (fun (x, y, w) -> if x = y then None else Some (min x y, max x y, w))
          raw
        (* keep one weight per pair *)
        |> List.sort_uniq (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d))
      in
      let g = Trg.of_edges ~num_nodes:8 edges in
      let r = Trg_reduce.reduce g ~slots in
      let sorted = List.sort compare r.Trg_reduce.order in
      List.length (List.sort_uniq compare sorted) = List.length sorted)

let reduce_deterministic =
  QCheck.Test.make ~name:"reduction is deterministic" ~count:50
    QCheck.(list (triple (int_bound 6) (int_bound 6) (int_range 1 20)))
    (fun raw ->
      let edges =
        List.filter_map (fun (x, y, w) -> if x = y then None else Some (min x y, max x y, w)) raw
        |> List.sort_uniq (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d))
      in
      let g = Trg.of_edges ~num_nodes:7 edges in
      let r1 = Trg_reduce.reduce g ~slots:3 in
      let r2 = Trg_reduce.reduce g ~slots:3 in
      r1.Trg_reduce.order = r2.Trg_reduce.order)

let test_slots_for () =
  let params = Colayout_cache.Params.default_l1i in
  (* C=2x32KB, A*B=256: 256 set groups; 256B blocks occupy 1 -> 256 slots. *)
  check Alcotest.int "function slots" 256
    (Trg_reduce.slots_for ~params ~block_bytes:256 ~cache_multiplier:2.0);
  (* 64B blocks round up to one 256B group as well. *)
  check Alcotest.int "bb slots" 256
    (Trg_reduce.slots_for ~params ~block_bytes:64 ~cache_multiplier:2.0);
  check Alcotest.int "big blocks" 128
    (Trg_reduce.slots_for ~params ~block_bytes:512 ~cache_multiplier:2.0);
  Alcotest.check_raises "bad slots" (Invalid_argument "Trg_reduce.reduce: slots must be >= 1")
    (fun () -> ignore (Trg_reduce.reduce (fig2_trg ()) ~slots:0))

(* ------------------------------------------ Grid and table paths *)

(* [Trg.build] counts into a dense grid on universes of at most
   [max_grid_universe] symbols and into a packed-pair table above that.
   Both must give the seed kernel's graph. *)
let bound = U.Int_pair_tbl.max_grid_universe

let universes = [ bound - 1; bound; bound + 1 ]

(* A trimmed zipf trace over [k] symbol ids spread across
   [0, num_symbols), both ends included and shuffled, so a short trace
   touches the first and last rows of a universe at the bound. *)
let spread_trace ~seed ~num_symbols ~k ~len =
  let prng = U.Prng.create ~seed in
  let ids = Array.init k (fun i -> if k = 1 then 0 else i * (num_symbols - 1) / (k - 1)) in
  U.Prng.shuffle prng ids;
  let t = Trace.create ~num_symbols () in
  for _ = 1 to len do
    Trace.push t ids.(U.Prng.zipf prng ~n:k ~s:0.9)
  done;
  Trim.trim t

let edge_list = Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)

let check_matches_seed ~what ?window trace =
  let g = Trg.build ?window trace in
  let seed = Kernel_baseline.trg_build ?window trace in
  check edge_list (what ^ ": edges") (Kernel_baseline.trg_edges seed) (Trg.edges g);
  check Alcotest.int (what ^ ": nodes") (Trace.num_symbols trace) (Trg.num_nodes g);
  for x = 0 to Trg.num_nodes g - 1 do
    if Trg.degree g x <> Hashtbl.length seed.Kernel_baseline.adj.(x) then
      Alcotest.failf "%s: degree of %d is %d, seed %d" what x (Trg.degree g x)
        (Hashtbl.length seed.Kernel_baseline.adj.(x))
  done

let test_build_across_bound () =
  List.iter
    (fun num_symbols ->
      List.iter
        (fun seed ->
          let t = spread_trace ~seed ~num_symbols ~k:90 ~len:3_000 in
          List.iter
            (fun window ->
              check_matches_seed
                ~what:(Printf.sprintf "n=%d seed=%d window=%d" num_symbols seed window)
                ~window t)
            [ 1; 2; 8; 64; num_symbols; num_symbols + 7 ];
          check_matches_seed ~what:(Printf.sprintf "n=%d seed=%d unbounded" num_symbols seed) t)
        [ 1; 2 ])
    universes

(* A trace's universe is never empty ([Trace.create] rejects
   [num_symbols = 0]), so the smallest grid here is 1 × 1. *)
let test_build_edge_cases () =
  List.iter
    (fun (what, trace) ->
      List.iter
        (fun window -> check_matches_seed ~what:(Printf.sprintf "%s window=%d" what window) ~window trace)
        [ 1; 2; 1_000_000 ])
    [
      ("n=1 empty", Trace.create ~num_symbols:1 ());
      ("n=1", Trace.of_list ~num_symbols:1 [ 0 ]);
      ("n=2", Trace.of_list ~num_symbols:2 [ 0; 1; 0; 1 ]);
      ("empty at bound", Trace.create ~num_symbols:bound ());
      ("empty above bound", Trace.create ~num_symbols:(bound + 1) ());
      ("ends at bound", Trace.of_list ~num_symbols:bound [ bound - 1; 0; bound - 1; 0 ]);
      ("ends above bound", Trace.of_list ~num_symbols:(bound + 1) [ bound; 0; bound; 0 ]);
    ]

(* The grid is dropped when [build] returns: the graph it yields is the
   same size as the one the table path builds from the same edges. *)
let test_grid_not_retained () =
  let t = spread_trace ~seed:3 ~num_symbols:600 ~k:200 ~len:4_000 in
  let g = Trg.build ~window:64 t in
  let grid_words = Obj.reachable_words (Obj.repr g) in
  let table = Trg.of_edges ~num_nodes:600 (Trg.edges g) in
  check Alcotest.int "grid-built graph = table-built graph, in words"
    (Obj.reachable_words (Obj.repr table)) grid_words;
  check Alcotest.bool "well under one grid" true (grid_words < 600 * 600)

(* The grid walk allocates nothing per event: a cyclic trace has the same
   edge set at any length past two rounds, so everything [build] allocates
   on the minor heap is the same at both lengths. *)
let test_grid_walk_allocation () =
  let num_symbols = 40 in
  let minor_words len =
    let t = Trace.of_array ~num_symbols (Array.init len (fun i -> i mod num_symbols)) in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Trg.build ~window:num_symbols t));
    int_of_float (Gc.minor_words () -. w0)
  in
  check Alcotest.int "minor words at 2k and 20k events" (minor_words 2_000) (minor_words 20_000)

let () =
  Alcotest.run "trg"
    [
      ( "construction",
        [
          Alcotest.test_case "simple" `Quick test_build_simple;
          Alcotest.test_case "accumulates" `Quick test_build_counts_each_reuse;
          Alcotest.test_case "window" `Quick test_build_window_limits;
          Alcotest.test_case "trimmed required" `Quick test_build_requires_trimmed;
          Alcotest.test_case "edges sorted" `Quick test_edges_sorted;
          Alcotest.test_case "edges sorted, wide weights" `Quick test_edges_sorted_wide_weights;
          QCheck_alcotest.to_alcotest edges_sorted_any_widths;
          Alcotest.test_case "of_edges validation" `Quick test_of_edges_validation;
          Alcotest.test_case "of_edges sums, of_grid folds" `Quick test_of_edges_and_of_grid;
          Alcotest.test_case "recommended window" `Quick test_recommended_window;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "figure 2" `Quick test_fig2_reduction;
          Alcotest.test_case "isolated nodes" `Quick test_reduce_isolated_nodes_not_placed;
          Alcotest.test_case "single slot" `Quick test_reduce_single_slot;
          QCheck_alcotest.to_alcotest reduce_output_is_duplicate_free;
          QCheck_alcotest.to_alcotest reduce_deterministic;
          Alcotest.test_case "slots_for" `Quick test_slots_for;
        ] );
      ( "grid-bound",
        [
          Alcotest.test_case "build = seed across the bound" `Quick test_build_across_bound;
          Alcotest.test_case "build edge cases = seed" `Quick test_build_edge_cases;
          Alcotest.test_case "grid not retained" `Quick test_grid_not_retained;
          Alcotest.test_case "grid walk allocation" `Quick test_grid_walk_allocation;
        ] );
    ]
