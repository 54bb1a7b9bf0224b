(* Tests for the comparator modules: Pettis-Hansen placement, miss-ratio
   curves (Mrc), and simulated-annealing search. *)

open Colayout
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module U = Colayout_util

let check = Alcotest.check

(* -------------------------------------------------------- Pettis-Hansen *)

let test_ph_graph_from_edges () =
  let g = Pettis_hansen.graph_of_edges ~num_funcs:4 [ (0, 1, 10); (1, 0, 5); (2, 3, 1) ] in
  (* Undirected accumulation. *)
  check Alcotest.int "accumulated" 15 (Pettis_hansen.edge_weight g 0 1);
  check Alcotest.int "symmetric" 15 (Pettis_hansen.edge_weight g 1 0);
  check Alcotest.int "absent" 0 (Pettis_hansen.edge_weight g 0 3);
  check Alcotest.int "self loop dropped" 0
    (Pettis_hansen.edge_weight (Pettis_hansen.graph_of_edges ~num_funcs:2 [ (1, 1, 9) ]) 1 1)

let test_ph_order_heaviest_adjacent () =
  (* Chain A-B heavy, B-C light: expect A and B adjacent in the order. *)
  let g = Pettis_hansen.graph_of_edges ~num_funcs:3 [ (0, 1, 100); (1, 2, 1) ] in
  let order = Pettis_hansen.order g in
  check Alcotest.int "all placed" 3 (List.length order);
  let pos v =
    let rec go i = function [] -> -1 | x :: r -> if x = v then i else go (i + 1) r in
    go 0 order
  in
  check Alcotest.int "A next to B" 1 (abs (pos 0 - pos 1))

let test_ph_orientation () =
  (* Build chains [0;1] and [2;3] via heavy internal edges, then join on
     edge (0,3): the orientation must flip so 0 and 3 touch. *)
  let g =
    Pettis_hansen.graph_of_edges ~num_funcs:4
      [ (0, 1, 100); (2, 3, 90); (0, 3, 50) ]
  in
  let order = Pettis_hansen.order g in
  let pos v =
    let rec go i = function [] -> -1 | x :: r -> if x = v then i else go (i + 1) r in
    go 0 order
  in
  check Alcotest.int "joined endpoints adjacent" 1 (abs (pos 0 - pos 3))

let test_ph_isolated_omitted () =
  let g = Pettis_hansen.graph_of_edges ~num_funcs:5 [ (0, 1, 3) ] in
  check (Alcotest.list Alcotest.int) "only connected nodes" [ 0; 1 ]
    (List.sort compare (Pettis_hansen.order g))

let test_ph_from_call_trace () =
  let p = W.Gen.build { W.Gen.default_profile with pname = "ph"; seed = 17 } in
  let r = E.Interp.run p { seed = 2; params = [||]; max_blocks = 30_000 } in
  check Alcotest.bool "calls recorded" true (U.Int_vec.length r.E.Interp.call_trace > 0);
  let layout = Pettis_hansen.layout_for p r.E.Interp.call_trace in
  let sorted = Array.copy layout.Layout.order in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "full permutation"
    (Array.init (Colayout_ir.Program.num_blocks p) Fun.id)
    sorted;
  (* main calls everything: all call pairs must have main as caller or be
     within range. *)
  let nf = Colayout_ir.Program.num_funcs p in
  U.Int_vec.iter
    (fun code ->
      let caller = code / nf and callee = code mod nf in
      if caller < 0 || caller >= nf || callee < 0 || callee >= nf then
        Alcotest.fail "malformed call pair")
    r.E.Interp.call_trace

(* ----------------------------------------------------------- Stats corr *)

let test_correlations () =
  let module S = Colayout_util.Stats in
  check (Alcotest.float 1e-9) "perfect" 1.0 (S.pearson [ 1.; 2.; 3. ] [ 2.; 4.; 6. ]);
  check (Alcotest.float 1e-9) "anti" (-1.0) (S.pearson [ 1.; 2.; 3. ] [ 3.; 2.; 1. ]);
  check (Alcotest.float 1e-9) "degenerate" 0.0 (S.pearson [ 1.; 1. ] [ 2.; 3. ]);
  check (Alcotest.float 1e-9) "spearman monotone" 1.0
    (S.spearman [ 1.; 10.; 100. ] [ 2.; 3.; 50. ]);
  check (Alcotest.float 1e-9) "spearman anti" (-1.0)
    (S.spearman [ 1.; 2.; 3. ] [ 9.; 5.; 1. ]);
  (* Ties get average ranks; a tie against a strict order is imperfect. *)
  check Alcotest.bool "ties reduce correlation" true
    (S.spearman [ 1.; 1.; 2. ] [ 1.; 2.; 3. ] < 1.0);
  check (Alcotest.float 1e-9) "mismatched lengths" 0.0 (S.spearman [ 1. ] [ 1.; 2. ])

(* ------------------------------------------------------------------ Mrc *)

let test_mrc_matches_direct_sim () =
  let t = Colayout_trace.Trace.of_list ~num_symbols:8 [ 0; 1; 2; 0; 1; 2; 3; 0; 7; 3 ] in
  let mrc = Mrc.of_line_trace t in
  List.iter
    (fun cap ->
      let fa = C.Fully_assoc.create ~capacity:cap in
      let misses = ref 0 in
      Colayout_trace.Trace.iter
        (fun l -> if not (C.Fully_assoc.access_line fa l) then incr misses)
        t;
      let expected = float_of_int !misses /. 10.0 in
      check (Alcotest.float 1e-9)
        (Printf.sprintf "capacity %d" cap)
        expected
        (Mrc.miss_ratio mrc ~capacity_lines:cap))
    [ 1; 2; 3; 4; 8 ]

let test_mrc_monotone_and_knee () =
  let p = W.Gen.build { W.Gen.default_profile with pname = "mrc"; seed = 23 } in
  let trace = Pipeline.reference_trace p (E.Interp.ref_input ~max_blocks:40_000 ()) in
  let mrc = Mrc.of_layout ~params:C.Params.default_l1i ~layout:(Layout.original p) trace in
  let caps = [ 8; 32; 128; 512; 2048 ] in
  let curve = Mrc.curve mrc ~capacities:caps in
  let rec monotone = function
    | (_, m1) :: ((_, m2) :: _ as rest) -> m1 >= m2 -. 1e-12 && monotone rest
    | _ -> true
  in
  check Alcotest.bool "non-increasing" true (monotone curve);
  let knee = Mrc.working_set_knee mrc ~threshold:0.02 in
  check Alcotest.bool "knee within distinct lines" true (knee <= Mrc.distinct_lines mrc);
  check Alcotest.bool "knee satisfies threshold" true
    (Mrc.miss_ratio mrc ~capacity_lines:knee <= 0.02
    || knee = Mrc.distinct_lines mrc);
  check Alcotest.bool "accesses counted" true (Mrc.accesses mrc > 0)

let test_mrc_optimization_moves_knee_left () =
  let p =
    W.Gen.build
      { W.Gen.default_profile with pname = "mrc2"; seed = 79; phases = 5;
        funcs_per_phase = 8; iters_per_phase = 150 }
  in
  let analysis = Optimizer.analyze p (E.Interp.test_input ~max_blocks:60_000 ()) in
  let trace = Pipeline.reference_trace p (E.Interp.ref_input ~max_blocks:100_000 ()) in
  let knee kind =
    let layout = Optimizer.layout_for kind p analysis in
    Mrc.working_set_knee (Mrc.of_layout ~params:C.Params.default_l1i ~layout trace) ~threshold:0.01
  in
  check Alcotest.bool "bb-affinity knee <= original knee" true
    (knee Optimizer.Bb_affinity <= knee Optimizer.Original)

(* --------------------------------------------------------------- Anneal *)

let tiny_program () =
  W.Gen.build
    {
      W.Gen.default_profile with
      pname = "anneal";
      seed = 5;
      phases = 2;
      funcs_per_phase = 2;
      shared_funcs = 0;
      cold_funcs = 1;
      iters_per_phase = 40;
    }

let test_anneal_improves_or_matches () =
  let p = tiny_program () in
  let trace = Pipeline.reference_trace p (E.Interp.ref_input ~max_blocks:15_000 ()) in
  let params = C.Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  let r = Anneal.search ~seed:3 ~steps:120 ~params p trace in
  check Alcotest.bool "never worse than start" true (r.Anneal.miss_ratio <= r.Anneal.improved_from);
  check Alcotest.int "steps recorded" 120 r.Anneal.steps;
  (* Result order must be a permutation. *)
  let sorted = Array.copy r.Anneal.order in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation"
    (Array.init (Colayout_ir.Program.num_funcs p) Fun.id)
    sorted;
  (* The reported ratio must replay. *)
  check (Alcotest.float 1e-12) "replays" r.Anneal.miss_ratio
    (Optimal.miss_ratio_of_function_order ~params p trace r.Anneal.order)

let test_anneal_deterministic () =
  let p = tiny_program () in
  let trace = Pipeline.reference_trace p (E.Interp.ref_input ~max_blocks:10_000 ()) in
  let params = C.Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  let r1 = Anneal.search ~seed:7 ~steps:60 ~params p trace in
  let r2 = Anneal.search ~seed:7 ~steps:60 ~params p trace in
  check (Alcotest.array Alcotest.int) "same seed same order" r1.Anneal.order r2.Anneal.order

let test_anneal_bad_args () =
  let p = tiny_program () in
  let trace = Pipeline.reference_trace p (E.Interp.ref_input ~max_blocks:5_000 ()) in
  let params = C.Params.default_l1i in
  Alcotest.check_raises "bad steps" (Invalid_argument "Anneal.search: steps must be positive")
    (fun () -> ignore (Anneal.search ~steps:0 ~params p trace));
  Alcotest.check_raises "bad initial"
    (Invalid_argument "Anneal.search: initial order length mismatch")
    (fun () -> ignore (Anneal.search ~initial:[| 0 |] ~params p trace))

let () =
  Alcotest.run "baselines"
    [
      ( "pettis_hansen",
        [
          Alcotest.test_case "graph" `Quick test_ph_graph_from_edges;
          Alcotest.test_case "heaviest adjacent" `Quick test_ph_order_heaviest_adjacent;
          Alcotest.test_case "orientation" `Quick test_ph_orientation;
          Alcotest.test_case "isolated omitted" `Quick test_ph_isolated_omitted;
          Alcotest.test_case "from call trace" `Quick test_ph_from_call_trace;
        ] );
      ( "stats",
        [ Alcotest.test_case "correlations" `Quick test_correlations ] );
      ( "mrc",
        [
          Alcotest.test_case "matches direct sim" `Quick test_mrc_matches_direct_sim;
          Alcotest.test_case "monotone + knee" `Quick test_mrc_monotone_and_knee;
          Alcotest.test_case "optimization moves knee" `Slow test_mrc_optimization_moves_knee_left;
        ] );
      ( "anneal",
        [
          Alcotest.test_case "improves" `Quick test_anneal_improves_or_matches;
          Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
          Alcotest.test_case "bad args" `Quick test_anneal_bad_args;
        ] );
    ]
