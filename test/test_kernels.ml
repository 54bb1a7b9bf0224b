(* Differential tests for the packed-int kernels: the rewritten
   [Trg.build] (flat packed table + CSR finalization), the flat
   [Trg_reduce.reduce] and the one-pass [Affinity.thresholds] (cut at each
   window by [Affinity.affine_pairs] and [Affinity_hierarchy.build]) must
   produce results identical to the seed implementations, which live on in
   [Kernel_baseline] as oracles. Traces are randomized but seeded ([Prng]),
   and the windows cover the paper-relevant range up to w ≈ 512
   (32 KB / 64 B line). Also covers [Int_pair_tbl] itself against a
   [Hashtbl] model, and the new bounded/no-depth LRU-stack entry points. *)

open Colayout
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

(* The real fn and bb TRGs of two programs, profiled at the harness's Fast
   test fuel, at the optimizer's default window and slot count. 403.gcc's
   bb graph has about four times as many nodes as slots, so most of its
   placements are merges. *)
let test_reduce_real_graphs () =
  let config = Optimizer.default_config in
  let params = config.Optimizer.params in
  let cache_multiplier = config.Optimizer.cache_multiplier in
  List.iter
    (fun name ->
      let prog = W.Spec.build name in
      let run = E.Interp.run prog (E.Interp.test_input ~max_blocks:80_000 ()) in
      let an = Optimizer.analysis_of_traces ~config ~bb:run.E.Interp.bb_trace ~fn:run.E.Interp.fn_trace () in
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
    [ "429.mcf"; "403.gcc" ]

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
        let pairs = Kernel_baseline.affine_pairs trace ~w in
        let affine a b = a = b || List.mem (min a b, max a b) pairs in
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

let test_hierarchy_matches_reference () =
  List.iter
    (fun (seed, num_symbols, ws) ->
      let t = phrase_trace ~seed ~num_symbols ~len:1_500 in
      let d = Decision_trace.create () and d_ref = Decision_trace.create () in
      let h = Affinity_hierarchy.build ~decisions:d ~ws t in
      let roots = reference_hierarchy ~decisions:d_ref ~ws t in
      let what = Printf.sprintf "seed=%d" seed in
      check Alcotest.bool (what ^ ": roots") true (h.Affinity_hierarchy.roots = roots);
      check Alcotest.bool (what ^ ": decision events") true (events d = events d_ref);
      check Alcotest.bool (what ^ ": some joins") true (Decision_trace.count d > List.length ws))
    [
      (1, 40, Affinity_hierarchy.default_ws);
      (2, 80, Optimizer.default_config.Optimizer.ws);
      (3, 25, [ 1; 3; 7 ]);
    ]

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

(* --------------------------------------- Lru_stack bounded entry points *)

let test_access_bounded () =
  let s = Lru_stack.create () in
  List.iter (fun x -> ignore (Lru_stack.access s x)) [ 0; 1; 2; 3 ];
  (* Stack is now 3 2 1 0; symbol 0 sits at depth 4. *)
  check (Alcotest.option Alcotest.int) "too deep" None (Lru_stack.access_bounded s ~limit:3 0);
  (* The bounded miss still moved 0 to the top. *)
  check (Alcotest.option Alcotest.int) "moved to front" (Some 1)
    (Lru_stack.access_bounded s ~limit:8 0);
  check (Alcotest.option Alcotest.int) "within limit" (Some 4)
    (Lru_stack.access_bounded s ~limit:4 1);
  check (Alcotest.option Alcotest.int) "first access" None (Lru_stack.access_bounded s ~limit:8 9)

let test_touch () =
  let s = Lru_stack.create () in
  Lru_stack.touch s 5;
  Lru_stack.touch s 6;
  Lru_stack.touch s 5;
  check (Alcotest.list Alcotest.int) "touch orders like access" [ 5; 6 ] (Lru_stack.contents s);
  check Alcotest.int "depth" 2 (Lru_stack.depth s);
  check (Alcotest.option Alcotest.int) "access agrees" (Some 2) (Lru_stack.access s 6)

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
          Alcotest.test_case "real mcf and gcc TRGs" `Slow test_reduce_real_graphs;
        ] );
      ( "affinity-one-pass",
        [
          Alcotest.test_case "cuts = seed at every window" `Quick test_affinity_cuts;
          QCheck_alcotest.to_alcotest cuts_match_seed;
          Alcotest.test_case "cut bounds" `Quick test_cut_bounds;
          Alcotest.test_case "hierarchy = per-window reference" `Quick
            test_hierarchy_matches_reference;
        ] );
      ( "int-pair-tbl",
        [
          Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
          QCheck_alcotest.to_alcotest tbl_matches_model;
          Alcotest.test_case "negative keys" `Quick test_tbl_negative_key_rejected;
        ] );
      ( "lru-stack",
        [
          Alcotest.test_case "access_bounded" `Quick test_access_bounded;
          Alcotest.test_case "touch" `Quick test_touch;
        ] );
    ]
