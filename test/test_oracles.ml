(* Cross-implementation oracle properties: independent implementations of
   the same quantity must agree. These catch subtle drift between the fast
   production paths and the definitions. *)

open Colayout
open Colayout_trace
module C = Colayout_cache
module U = Colayout_util

let check = Alcotest.check

(* TRG edge weights, from the definition: for each pair of successive
   occurrences of one endpoint, count 1 if the other endpoint occurs in
   between. *)
let trg_weight_naive xs x y =
  let count_for a b =
    (* occurrences of a *)
    let positions = List.filteri (fun _ _ -> true) xs in
    ignore positions;
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let total = ref 0 in
    let last = ref (-1) in
    for i = 0 to n - 1 do
      if arr.(i) = a then begin
        if !last >= 0 then begin
          let seen = ref false in
          for j = !last + 1 to i - 1 do
            if arr.(j) = b then seen := true
          done;
          if !seen then incr total
        end;
        last := i
      end
    done;
    !total
  in
  count_for x y + count_for y x

let trg_matches_definition =
  QCheck.Test.make ~name:"TRG stack construction matches Definition 6" ~count:150
    QCheck.(list_of_size Gen.(int_range 2 40) (int_bound 5))
    (fun xs ->
      let t = Trim.trim (Trace.of_list ~num_symbols:6 xs) in
      QCheck.assume (Trace.length t >= 2);
      let trimmed = Trace.to_list t in
      let g = Trg.build t in
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> x >= y || Trg.weight g x y = trg_weight_naive trimmed x y)
            [ 0; 1; 2; 3; 4; 5 ])
        [ 0; 1; 2; 3; 4; 5 ])

(* The hierarchy's L1I leg must agree exactly with a standalone I-cache
   simulator — the seed LRU oracle, written independently of the core the
   hierarchy runs on: same geometry, same accesses, same hits. *)
let hierarchy_l1i_matches_icache =
  QCheck.Test.make ~name:"Hierarchy L1I leg equals Icache.solo" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 40))
    (fun lines ->
      let params = C.Params.default_l1i in
      let h = C.Hierarchy.create ~l1i:params () in
      List.iter (fun l -> C.Hierarchy.access_instr h ~thread:0 ~line:l) lines;
      let sa = Colayout_oracle.Seed_lru.create params in
      let stats = C.Cache_stats.create () in
      List.iter
        (fun l ->
          C.Cache_stats.record stats ~thread:0 ~hit:(Colayout_oracle.Seed_lru.access_line sa l))
        lines;
      C.Cache_stats.misses (C.Hierarchy.l1i_stats h) = C.Cache_stats.misses stats
      && C.Cache_stats.accesses (C.Hierarchy.l1i_stats h) = C.Cache_stats.accesses stats)

(* Definition 2's window footprint, at reuse points, is the stack distance
   plus one (the reused block itself). *)
let window_footprint_vs_stack_distance =
  QCheck.Test.make ~name:"fp<prev,cur> = stack distance + 1 at every reuse" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 60) (int_bound 7))
    (fun xs ->
      let t = Trace.of_list ~num_symbols:8 xs in
      let naive = Stack_dist.distances_naive t in
      let arr = Array.of_list xs in
      let last = Hashtbl.create 8 in
      let ok = ref true in
      Array.iteri
        (fun i s ->
          (match (Hashtbl.find_opt last s, naive.(i)) with
          | Some prev, Some d ->
            if Affinity.window_footprint t prev i <> d + 1 then ok := false
          | None, None -> ()
          | _ -> ok := false);
          Hashtbl.replace last s i)
        arr;
      !ok)

(* Footprint theory vs Mattson measurement: a trace that cycles over m
   blocks has fp(w) = min(w?, ...) — rather than closed forms, check the
   HOTL solo window against the measured knee: the window where the
   footprint reaches c and the capacity where the miss ratio collapses
   describe the same working set for cyclic traces. *)
let test_fp_knee_consistency () =
  let m = 6 in
  let xs = List.concat (List.init 40 (fun _ -> List.init m Fun.id)) in
  let t = Trace.of_list ~num_symbols:m xs in
  let fp = Footprint.curve t in
  let mrc = Mrc.of_line_trace t in
  (* LRU thrashes below m and is perfect at m. *)
  check Alcotest.bool "thrash below" true (Mrc.miss_ratio mrc ~capacity_lines:(m - 1) > 0.5);
  check Alcotest.bool "fits at m" true (Mrc.miss_ratio mrc ~capacity_lines:m < 0.05);
  (* The footprint reaches m exactly in a window of m accesses. *)
  check Alcotest.int "fp window of full set" m (Footprint.inverse fp (float_of_int m))

(* Residual elimination composes with layout: the stripped program's code
   is strictly smaller, and the optimizers still work on it. *)
let test_residual_then_optimize () =
  let p =
    Colayout_workloads.Gen.build
      { Colayout_workloads.Gen.default_profile with pname = "ro"; seed = 61 }
  in
  let stripped, _, report = Residual.eliminate p in
  check Alcotest.bool "smaller" true
    (Colayout_ir.Program.total_code_bytes stripped < Colayout_ir.Program.total_code_bytes p);
  check Alcotest.bool "something removed" true (report.Residual.removed_blocks > 0);
  let analysis =
    Optimizer.analyze stripped (Colayout_exec.Interp.test_input ~max_blocks:30_000 ())
  in
  List.iter
    (fun kind ->
      let l = Optimizer.layout_for kind stripped analysis in
      check Alcotest.int
        (Optimizer.kind_name kind ^ " covers stripped blocks")
        (Colayout_ir.Program.num_blocks stripped)
        (Array.length l.Layout.order))
    Optimizer.all_kinds

(* The efficient affinity pass and the trimmed trace agree on occurrence
   bookkeeping: partitions at the smallest window are singletons. *)
let singleton_partition_at_w1 =
  QCheck.Test.make ~name:"w=1 partition is all singletons" ~count:80
    QCheck.(list_of_size Gen.(int_range 2 40) (int_bound 6))
    (fun xs ->
      let t = Trim.trim (Trace.of_list ~num_symbols:7 xs) in
      QCheck.assume (Trace.length t >= 2);
      List.for_all (fun g -> List.length g = 1) (Affinity.partition t ~w:1))

let () =
  Alcotest.run "oracles"
    [
      ( "cross-implementation",
        [
          QCheck_alcotest.to_alcotest trg_matches_definition;
          QCheck_alcotest.to_alcotest hierarchy_l1i_matches_icache;
          QCheck_alcotest.to_alcotest window_footprint_vs_stack_distance;
          QCheck_alcotest.to_alcotest singleton_partition_at_w1;
          Alcotest.test_case "fp knee consistency" `Quick test_fp_knee_consistency;
          Alcotest.test_case "residual + optimize" `Quick test_residual_then_optimize;
        ] );
    ]
