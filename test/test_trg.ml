open Colayout
open Colayout_trace

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

let test_of_edges_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Trg.of_edges: self loop") (fun () ->
      ignore (Trg.of_edges ~num_nodes:2 [ (0, 0, 1) ]));
  Alcotest.check_raises "non-positive" (Invalid_argument "Trg.of_edges: non-positive weight")
    (fun () -> ignore (Trg.of_edges ~num_nodes:2 [ (0, 1, 0) ]));
  Alcotest.check_raises "out of range" (Invalid_argument "Trg.of_edges: node out of range")
    (fun () -> ignore (Trg.of_edges ~num_nodes:2 [ (0, 5, 1) ]))

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
          Alcotest.test_case "of_edges validation" `Quick test_of_edges_validation;
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
    ]
