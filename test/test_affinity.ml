open Colayout
open Colayout_oracle
open Colayout_trace
module U = Colayout_util

let check = Alcotest.check

(* The paper's Figure 1 trace: B1 B4 B2 B4 B2 B3 B5 B1 B4 with B1..B5 as
   symbols 0..4. *)
let fig1_trace () = Trace.of_list ~num_symbols:5 [ 0; 3; 1; 3; 1; 2; 4; 0; 3 ]

let test_window_footprint () =
  let t = Trace.of_list ~num_symbols:5 [ 0; 2; 1; 2; 3 ] in
  (* Paper's example: fp<B1,B2> = 3 in trace B1 B3 B2 B3 B4. *)
  check Alcotest.int "paper fp example" 3 (Affinity.window_footprint t 0 2);
  check Alcotest.int "single" 1 (Affinity.window_footprint t 1 1);
  check Alcotest.int "order irrelevant" (Affinity.window_footprint t 0 4)
    (Affinity.window_footprint t 4 0);
  Alcotest.check_raises "oob" (Invalid_argument "Affinity.window_footprint") (fun () ->
      ignore (Affinity.window_footprint t 0 5))

let test_fig1_pairs_naive () =
  let t = fig1_trace () in
  (* w=2: only (B3,B5) = (2,4). *)
  let p2 = Affinity.affine_pairs_naive t ~w:2 in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "w=2 pairs" [ (2, 4) ]
    (Affinity.pair_list p2);
  (* w=3 adds (B1,B4)=(0,3) and (B2,B3)=(1,2). *)
  let p3 = Affinity.affine_pairs_naive t ~w:3 in
  check Alcotest.bool "w=3 B1B4" true (Affinity.is_affine p3 0 3);
  check Alcotest.bool "w=3 B2B3" true (Affinity.is_affine p3 1 2);
  check Alcotest.bool "w=3 not B2B5" false (Affinity.is_affine p3 1 4);
  check Alcotest.bool "self affine" true (Affinity.is_affine p3 2 2)

let test_requires_trimmed () =
  let t = Trace.of_list ~num_symbols:2 [ 0; 0; 1 ] in
  Alcotest.check_raises "efficient"
    (Invalid_argument "Affinity: trace must be trimmed (no two consecutive equal blocks)")
    (fun () -> ignore (Affinity.affine_pairs t ~w:2));
  Alcotest.check_raises "naive"
    (Invalid_argument "Affinity: trace must be trimmed (no two consecutive equal blocks)")
    (fun () -> ignore (Affinity.affine_pairs_naive t ~w:2))

let efficient_is_sound =
  (* The stack algorithm may miss affinities (documented approximation) but
     must never report a pair the definition rejects. *)
  QCheck.Test.make ~name:"efficient affinity is a subset of Definition 3" ~count:150
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 2 40) (int_bound 6)))
    (fun (w, xs) ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      QCheck.assume (Trace.length t >= 2);
      let eff = Affinity.affine_pairs t ~w in
      let exact = Affinity.affine_pairs_naive t ~w in
      List.for_all (fun (x, y) -> Affinity.is_affine exact x y) (Affinity.pair_list eff))

let partition_groups_are_affine =
  QCheck.Test.make ~name:"Algorithm 1 groups are pairwise affine" ~count:100
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 2 40) (int_bound 6)))
    (fun (w, xs) ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      QCheck.assume (Trace.length t >= 2);
      let ps = Affinity.affine_pairs t ~w in
      let groups = Affinity.partition t ~w in
      List.for_all
        (fun g ->
          List.for_all (fun a -> List.for_all (fun b -> Affinity.is_affine ps a b) g) g)
        groups)

let partition_covers_all_symbols =
  QCheck.Test.make ~name:"Algorithm 1 partitions exactly the occurring symbols" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 40) (int_bound 6))
    (fun xs ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      QCheck.assume (Trace.length t >= 2);
      let groups = Affinity.partition t ~w:3 in
      let members = List.sort compare (List.concat groups) in
      let occurring =
        Trace.occurrences t |> Array.to_list
        |> List.mapi (fun i c -> (i, c))
        |> List.filter_map (fun (i, c) -> if c > 0 then Some i else None)
      in
      members = occurring)

(* --------------------------------------------------- Hierarchy (Fig 1b) *)

let test_fig1_hierarchy_exact () =
  let t = fig1_trace () in
  let h = Affinity_hierarchy.build ~algo:Affinity_hierarchy.Exact ~ws:[ 1; 2; 3; 4; 5 ] t in
  let partition w = List.map (List.sort compare) (Affinity_hierarchy.partition_at h ~w) in
  let sorted p = List.sort compare p in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "w=1 singletons"
    [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]
    (sorted (partition 1));
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "w=2" [ [ 0 ]; [ 1 ]; [ 2; 4 ]; [ 3 ] ] (sorted (partition 2));
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "w=3" [ [ 0; 3 ]; [ 1 ]; [ 2; 4 ] ] (sorted (partition 3));
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "w=4" [ [ 0; 3 ]; [ 1; 2; 4 ] ] (sorted (partition 4));
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "w=5 one group" [ [ 0; 1; 2; 3; 4 ] ] (sorted (partition 5));
  (* The paper's output sequence: B1 B4 B2 B3 B5. *)
  check (Alcotest.list Alcotest.int) "bottom-up order" [ 0; 3; 1; 2; 4 ]
    (Affinity_hierarchy.order h)

let test_fig1_efficient_order_matches () =
  let t = fig1_trace () in
  let h = Affinity_hierarchy.build ~algo:Affinity_hierarchy.Efficient ~ws:[ 1; 2; 3; 4; 5 ] t in
  check (Alcotest.list Alcotest.int) "efficient order" [ 0; 3; 1; 2; 4 ]
    (Affinity_hierarchy.order h)

let hierarchy_partitions_nest =
  QCheck.Test.make ~name:"hierarchy partitions nest as w grows" ~count:80
    QCheck.(list_of_size Gen.(int_range 2 40) (int_bound 6))
    (fun xs ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      QCheck.assume (Trace.length t >= 2);
      let ws = [ 2; 3; 4; 6 ] in
      let h = Affinity_hierarchy.build ~ws t in
      let rec pairs_of = function
        | [] -> []
        | w1 :: (w2 :: _ as rest) -> (w1, w2) :: pairs_of rest
        | [ _ ] -> []
      in
      List.for_all
        (fun (w1, w2) ->
          let p1 = Affinity_hierarchy.partition_at h ~w:w1 in
          let p2 = Affinity_hierarchy.partition_at h ~w:w2 in
          (* Every w1 group is contained in some w2 group. *)
          List.for_all
            (fun g1 ->
              List.exists (fun g2 -> List.for_all (fun x -> List.mem x g2) g1) p2)
            p1)
        (pairs_of ws))

let order_is_permutation_of_occurring =
  QCheck.Test.make ~name:"hierarchy order covers occurring symbols once" ~count:80
    QCheck.(list_of_size Gen.(int_range 2 40) (int_bound 6))
    (fun xs ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      QCheck.assume (Trace.length t >= 2);
      let h = Affinity_hierarchy.build ~ws:[ 2; 4 ] t in
      let order = List.sort compare (Affinity_hierarchy.order h) in
      let occurring =
        Trace.occurrences t |> Array.to_list
        |> List.mapi (fun i c -> (i, c))
        |> List.filter_map (fun (i, c) -> if c > 0 then Some i else None)
      in
      order = occurring)

let test_bad_ws () =
  let t = fig1_trace () in
  Alcotest.check_raises "descending ws"
    (Invalid_argument "Affinity_hierarchy: ws must be positive and strictly ascending")
    (fun () -> ignore (Affinity_hierarchy.build ~ws:[ 3; 2 ] t));
  Alcotest.check_raises "empty ws"
    (Invalid_argument "Affinity_hierarchy: ws must be positive and strictly ascending")
    (fun () -> ignore (Affinity_hierarchy.build ~ws:[] t))

let test_members_and_pp () =
  let t = fig1_trace () in
  let h = Affinity_hierarchy.build ~algo:Affinity_hierarchy.Exact ~ws:[ 2; 3; 4; 5 ] t in
  let all = List.concat_map Affinity_hierarchy.members h.Affinity_hierarchy.roots in
  check Alcotest.int "members count" 5 (List.length all);
  let s = Format.asprintf "%a" Affinity_hierarchy.pp h in
  check Alcotest.bool "pp nonempty" true (String.length s > 0)

(* ------------------------------------------ Grid and table paths *)

(* [Affinity.thresholds] keeps its witness payloads in a dense grid on
   universes of at most [max_grid_universe] symbols and in a packed-pair
   table above that. Every cut must equal the seed pass on both sides. *)
let bound = U.Int_pair_tbl.max_grid_universe

(* A trimmed trace over [k] symbol ids spread across [0, num_symbols),
   both ends included and shuffled. Half the steps play a run of four
   consecutive ids, so some pairs are affine at small windows. *)
let spread_trace ~seed ~num_symbols ~k ~len =
  let prng = U.Prng.create ~seed in
  let ids = Array.init k (fun i -> if k = 1 then 0 else i * (num_symbols - 1) / (k - 1)) in
  U.Prng.shuffle prng ids;
  let t = Trace.create ~num_symbols () in
  while Trace.length t < len do
    let r = U.Prng.zipf prng ~n:k ~s:0.9 in
    if U.Prng.bool prng ~p:0.5 then Trace.push t ids.(r)
    else
      for i = r - (r mod 4) to min (k - 1) ((r - (r mod 4)) + 3) do
        Trace.push t ids.(i)
      done
  done;
  Trim.trim t

let pairs = Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)

let check_cuts ~what ~wmax trace =
  let th = Affinity.thresholds trace ~wmax in
  for w = 1 to wmax do
    check pairs
      (Printf.sprintf "%s: cut at w=%d" what w)
      (Kernel_baseline.affine_pairs trace ~w)
      (Affinity.pair_list (Affinity.cut th ~w))
  done;
  th

let test_cuts_across_bound () =
  List.iter
    (fun num_symbols ->
      List.iter
        (fun seed ->
          let t = spread_trace ~seed ~num_symbols ~k:60 ~len:2_000 in
          let what = Printf.sprintf "n=%d seed=%d" num_symbols seed in
          let th = check_cuts ~what ~wmax:16 t in
          check Alcotest.bool (what ^ ": some affine pairs") true
            (Affinity.pair_list (Affinity.cut th ~w:16) <> []))
        [ 1; 2 ])
    [ bound - 1; bound; bound + 1 ]

(* Small traces at the bound, against the seed pass and Definition 3: the
   stack algorithm is a sound under-approximation of the definition, so
   each cut is a subset of the naive pairs. *)
let test_small_cuts_across_bound () =
  List.iter
    (fun num_symbols ->
      let found = ref 0 in
      for seed = 1 to 20 do
        let t = spread_trace ~seed ~num_symbols ~k:6 ~len:30 in
        let what = Printf.sprintf "n=%d seed=%d" num_symbols seed in
        let th = check_cuts ~what ~wmax:6 t in
        for w = 1 to 6 do
          let exact = Affinity.affine_pairs_naive t ~w in
          List.iter
            (fun (x, y) ->
              incr found;
              if not (Affinity.is_affine exact x y) then
                Alcotest.failf "%s: (%d, %d) affine at w=%d but not by Definition 3" what x y w)
            (Affinity.pair_list (Affinity.cut th ~w))
        done
      done;
      check Alcotest.bool (Printf.sprintf "n=%d: some affine pairs" num_symbols) true (!found > 0))
    [ bound - 1; bound; bound + 1 ]

let test_cut_edge_cases () =
  List.iter
    (fun (what, trace) ->
      List.iter
        (fun wmax -> ignore (check_cuts ~what:(Printf.sprintf "%s wmax=%d" what wmax) ~wmax trace))
        [ 1; 2; Trace.num_symbols trace + 3 ])
    [
      ("n=1 empty", Trace.create ~num_symbols:1 ());
      ("n=1", Trace.of_list ~num_symbols:1 [ 0 ]);
      ("n=2", Trace.of_list ~num_symbols:2 [ 0; 1; 0; 1 ]);
      ("n=3", Trace.of_list ~num_symbols:3 [ 0; 1; 2; 0; 1; 2 ]);
      ("empty at bound", Trace.create ~num_symbols:bound ());
      ("empty above bound", Trace.create ~num_symbols:(bound + 1) ());
      ("ends at bound", Trace.of_list ~num_symbols:bound [ bound - 1; 0; bound - 1; 0 ]);
      ("ends above bound", Trace.of_list ~num_symbols:(bound + 1) [ bound; 0; bound; 0 ]);
    ]

(* Every cell of the domain's grid and every pair mark, over [n]
   symbols, is 0. *)
let grid_and_marks_zero n =
  U.Pair_grid.with_grid_marks "test" ~n (fun g m ->
      let cells = ref true in
      for i = 0 to Bigarray.Array1.dim g - 1 do
        if g.{i} <> 0 then cells := false
      done;
      !cells && Bytes.for_all (fun c -> c = '\000') m)

(* The grid walk skips the pairs whose mark says dead. A trace whose
   cycles are longer than [wmax] has no event recurring within the
   window, so most pairs it visits die; mixed traces add short loops
   whose pairs stay live and become affine. Every cut, on the grid path
   and on the table path (the same events over [bound + 1] symbols),
   equals the seed pass, and each grid call hands the grid and the marks
   back zeroed. *)
let dead_pairs_match_seed =
  QCheck.Test.make ~name:"dead-pair skip: cuts = seed, grid and marks zeroed" ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_bound 4) bool)
    (fun (seed, wsel, mixed) ->
      let wmax = [| 1; 2; 3; 5; 8 |].(wsel) and num_symbols = 30 in
      let prng = U.Prng.create ~seed in
      let t = Trace.create ~num_symbols () in
      while Trace.length t < 300 do
        if mixed && U.Prng.bool prng ~p:0.4 then begin
          (* A short loop: 2 or 3 symbols, several rounds. *)
          let k = 2 + U.Prng.int prng 2 in
          let ids = Array.init k (fun _ -> U.Prng.int prng num_symbols) in
          for _ = 1 to 2 + U.Prng.int prng 4 do
            Array.iter (Trace.push t) ids
          done
        end
        else begin
          (* A cycle over more distinct symbols than [wmax]. *)
          let ids = Array.init num_symbols Fun.id in
          U.Prng.shuffle prng ids;
          let c = min num_symbols (wmax + 1 + U.Prng.int prng 8) in
          for _ = 1 to 2 + U.Prng.int prng 3 do
            for i = 0 to c - 1 do
              Trace.push t ids.(i)
            done
          done
        end
      done;
      let t = Trim.trim t in
      let wide = Trace.of_list ~num_symbols:(bound + 1) (Trace.to_list t) in
      let cuts tr =
        let th = Affinity.thresholds tr ~wmax in
        List.init wmax (fun i -> Affinity.pair_list (Affinity.cut th ~w:(i + 1)))
      in
      let seed_cuts = List.init wmax (fun i -> Kernel_baseline.affine_pairs t ~w:(i + 1)) in
      let grid = cuts t in
      let zeroed = grid_and_marks_zero num_symbols in
      grid = seed_cuts && zeroed && cuts wide = seed_cuts)

(* A holder that raises gets the grid and the marks zeroed; a call made
   while the domain holds them is refused by name, and the holder's
   cells and marks are left alone. *)
let test_marks_hold () =
  let n = 50 in
  Alcotest.check_raises "a raising holder" (Failure "holder") (fun () ->
      U.Pair_grid.with_grid_marks "test" ~n (fun g m ->
          g.{0} <- 5;
          g.{(n * n) - 1} <- 6;
          Bytes.set m 0 '\002';
          Bytes.set m ((n * (n - 1) / 2) - 1) '\001';
          failwith "holder"));
  check Alcotest.bool "zeroed after the raise" true (grid_and_marks_zero n);
  let t = spread_trace ~seed:3 ~num_symbols:n ~k:20 ~len:400 in
  let held who = Invalid_argument (who ^ ": the pair grid is already held on this domain") in
  U.Pair_grid.with_grid_marks "outer" ~n (fun g m ->
      g.{3} <- 7;
      Bytes.set m 3 '\001';
      Alcotest.check_raises "Affinity.thresholds" (held "Affinity.thresholds") (fun () ->
          ignore (Affinity.thresholds t ~wmax:4));
      Alcotest.check_raises "a grid hold inside" (held "inner") (fun () ->
          U.Pair_grid.with_grid "inner" ~n ignore);
      Alcotest.check_raises "a marks hold inside" (held "inner") (fun () ->
          U.Pair_grid.with_grid_marks "inner" ~n (fun _ _ -> ()));
      check Alcotest.bool "the holder's cell and mark are untouched" true
        (g.{3} = 7 && Bytes.get m 3 = '\001');
      g.{3} <- 0;
      Bytes.set m 3 '\000');
  U.Pair_grid.with_grid "outer" ~n (fun _ ->
      Alcotest.check_raises "a marks hold inside a grid hold" (held "inner") (fun () ->
          U.Pair_grid.with_grid_marks "inner" ~n (fun _ _ -> ())));
  ignore (check_cuts ~what:"after the holds" ~wmax:4 t);
  check Alcotest.bool "zeroed after a call" true (grid_and_marks_zero n)

(* The grid walk allocates nothing per event: a cyclic trace has the same
   affine pairs at any length past two rounds. *)
let test_grid_walk_allocation () =
  let num_symbols = 40 in
  let minor_words len =
    let t = Trace.of_array ~num_symbols (Array.init len (fun i -> i mod num_symbols)) in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Affinity.thresholds t ~wmax:8));
    int_of_float (Gc.minor_words () -. w0)
  in
  check Alcotest.int "minor words at 2k and 20k events" (minor_words 2_000) (minor_words 20_000)

let () =
  Alcotest.run "affinity"
    [
      ( "definitions",
        [
          Alcotest.test_case "window footprint" `Quick test_window_footprint;
          Alcotest.test_case "fig1 pairs (naive)" `Quick test_fig1_pairs_naive;
          Alcotest.test_case "requires trimmed" `Quick test_requires_trimmed;
        ] );
      ( "efficient-vs-exact",
        [
          QCheck_alcotest.to_alcotest efficient_is_sound;
          QCheck_alcotest.to_alcotest partition_groups_are_affine;
          QCheck_alcotest.to_alcotest partition_covers_all_symbols;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "figure 1 exact" `Quick test_fig1_hierarchy_exact;
          Alcotest.test_case "figure 1 efficient order" `Quick test_fig1_efficient_order_matches;
          QCheck_alcotest.to_alcotest hierarchy_partitions_nest;
          QCheck_alcotest.to_alcotest order_is_permutation_of_occurring;
          Alcotest.test_case "bad ws" `Quick test_bad_ws;
          Alcotest.test_case "members/pp" `Quick test_members_and_pp;
        ] );
      ( "grid-bound",
        [
          Alcotest.test_case "cuts = seed across the bound" `Quick test_cuts_across_bound;
          Alcotest.test_case "small cuts = seed, within Def 3" `Quick test_small_cuts_across_bound;
          Alcotest.test_case "cut edge cases = seed" `Quick test_cut_edge_cases;
          Alcotest.test_case "grid walk allocation" `Quick test_grid_walk_allocation;
          QCheck_alcotest.to_alcotest dead_pairs_match_seed;
          Alcotest.test_case "marks hold" `Quick test_marks_hold;
        ] );
    ]
