(* Tests for the unified-cache extension: Load/Store instructions, the data
   trace and the two-level hierarchy. *)

open Colayout_ir
module E = Colayout_exec
module C = Colayout_cache
module U = Colayout_util

let check = Alcotest.check

(* --------------------------------------------------------- Load / Store *)

let test_load_store_sizes () =
  let e = Types.Bin (Types.Add, Types.Const 0, Types.Rand 64) in
  check Alcotest.int "load bytes" 12 (Size_model.instr_bytes (Types.Load e));
  check Alcotest.int "store count" 3 (Size_model.instr_count (Types.Store e));
  check Alcotest.string "load pp" "load [(0 + rand(64))]" (Types.instr_to_string (Types.Load e))

let data_program () =
  let b = Builder.create ~name:"data" () in
  let f = Builder.func b "main" in
  let entry = Builder.block b f "entry" in
  let loop = Builder.block b f "loop" in
  let stop = Builder.block b f "stop" in
  Builder.set_body b entry [ Types.Assign (0, Types.Const 0) ] (Types.Jump loop);
  Builder.set_body b loop
    [
      Types.Load (Types.Bin (Types.Mul, Types.Var 0, Types.Const 64));
      Types.Store (Types.Const 4096);
      Types.Assign (0, Types.Bin (Types.Add, Types.Var 0, Types.Const 1));
    ]
    (Types.Branch
       { cond = Types.Bin (Types.Lt, Types.Var 0, Types.Const 10); if_true = loop; if_false = stop });
  Builder.set_body b stop [] Types.Halt;
  Builder.finish b

let test_data_trace () =
  let p = data_program () in
  let r = E.Interp.run p (E.Interp.test_input ()) in
  (* 10 loop iterations, 2 accesses each. *)
  check Alcotest.int "20 data accesses" 20 (U.Int_vec.length r.E.Interp.data_trace);
  check Alcotest.int "first load addr" 0 (U.Int_vec.get r.E.Interp.data_trace 0);
  check Alcotest.int "first store addr" 4096 (U.Int_vec.get r.E.Interp.data_trace 1);
  check Alcotest.int "second load addr" 64 (U.Int_vec.get r.E.Interp.data_trace 2);
  (* Data addresses are never negative even for wild expressions. *)
  U.Int_vec.iter
    (fun a -> if a < 0 then Alcotest.failf "negative address %d" a)
    r.E.Interp.data_trace

let test_data_trace_deterministic () =
  let prof =
    { Colayout_workloads.Gen.default_profile with
      pname = "dt"; seed = 12; data_region_bytes = 2048; loads_per_block = 2 }
  in
  let p = Colayout_workloads.Gen.build prof in
  let r1 = E.Interp.run p { seed = 4; params = [||]; max_blocks = 20_000 } in
  let r2 = E.Interp.run p { seed = 4; params = [||]; max_blocks = 20_000 } in
  check Alcotest.bool "deterministic data stream" true
    (U.Int_vec.equal r1.E.Interp.data_trace r2.E.Interp.data_trace);
  check Alcotest.bool "data stream nonempty" true (U.Int_vec.length r1.E.Interp.data_trace > 0)

let test_workload_without_data_has_empty_stream () =
  let p = Colayout_workloads.Gen.build Colayout_workloads.Gen.default_profile in
  let r = E.Interp.run p { seed = 4; params = [||]; max_blocks = 10_000 } in
  check Alcotest.int "no data accesses" 0 (U.Int_vec.length r.E.Interp.data_trace)

(* ------------------------------------------------------------ Hierarchy *)

let test_hierarchy_inclusion () =
  let h = C.Hierarchy.create () in
  (* First touch: miss in both levels. *)
  C.Hierarchy.access_instr h ~thread:0 ~line:7;
  check Alcotest.int "L1I miss" 1 (C.Cache_stats.misses (C.Hierarchy.l1i_stats h));
  check Alcotest.int "L2 access on L1 miss" 1 (C.Cache_stats.accesses (C.Hierarchy.l2_stats h));
  check Alcotest.int "L2 instr miss" 1 (C.Hierarchy.l2_instr_misses h);
  (* L1 hit: L2 untouched. *)
  C.Hierarchy.access_instr h ~thread:0 ~line:7;
  check Alcotest.int "L2 still 1 access" 1 (C.Cache_stats.accesses (C.Hierarchy.l2_stats h))

let test_hierarchy_instr_data_disjoint_in_l2 () =
  let h = C.Hierarchy.create () in
  (* Same line number in both spaces must not alias in L2. *)
  C.Hierarchy.access_instr h ~thread:0 ~line:3;
  C.Hierarchy.access_data h ~thread:0 ~addr:(3 * 64);
  check Alcotest.int "two L2 misses" 2 (C.Cache_stats.misses (C.Hierarchy.l2_stats h));
  check Alcotest.int "one instr" 1 (C.Hierarchy.l2_instr_misses h);
  check Alcotest.int "one data" 1 (C.Hierarchy.l2_data_misses h)

let test_hierarchy_l2_catches_l1_evictions () =
  (* Tiny L1I, big L2: lines evicted from L1 still hit L2. *)
  let l1i = C.Params.make ~size_bytes:128 ~assoc:2 ~line_bytes:64 in
  let h = C.Hierarchy.create ~l1i () in
  (* 3 lines fight over 2 ways of one set... all map to set 0 here. *)
  C.Hierarchy.access_instr h ~thread:0 ~line:0;
  C.Hierarchy.access_instr h ~thread:0 ~line:1;
  C.Hierarchy.access_instr h ~thread:0 ~line:2;
  (* line 0 evicted from L1I; refetch misses L1 but hits L2. *)
  C.Hierarchy.access_instr h ~thread:0 ~line:0;
  check Alcotest.int "L1I misses" 4 (C.Cache_stats.misses (C.Hierarchy.l1i_stats h));
  check Alcotest.int "L2 misses only cold" 3 (C.Cache_stats.misses (C.Hierarchy.l2_stats h));
  check Alcotest.int "L2 hit on refetch" 1 (C.Cache_stats.hits (C.Hierarchy.l2_stats h))

let test_hierarchy_negative_data_addr () =
  let h = C.Hierarchy.create () in
  Alcotest.check_raises "negative addr" (Invalid_argument "Hierarchy.access_data: negative address")
    (fun () -> C.Hierarchy.access_data h ~thread:0 ~addr:(-1))

let test_hierarchy_thread_stats () =
  let h = C.Hierarchy.create ~threads:2 () in
  C.Hierarchy.access_instr h ~thread:0 ~line:1;
  C.Hierarchy.access_instr h ~thread:1 ~line:(1 lsl 30);
  check Alcotest.int "thread 0" 1 (C.Cache_stats.thread_accesses (C.Hierarchy.l1i_stats h) 0);
  check Alcotest.int "thread 1" 1 (C.Cache_stats.thread_accesses (C.Hierarchy.l1i_stats h) 1)

let () =
  Alcotest.run "unified"
    [
      ( "load_store",
        [
          Alcotest.test_case "sizes" `Quick test_load_store_sizes;
          Alcotest.test_case "data trace" `Quick test_data_trace;
          Alcotest.test_case "deterministic" `Quick test_data_trace_deterministic;
          Alcotest.test_case "no data by default" `Quick test_workload_without_data_has_empty_stream;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "inclusion" `Quick test_hierarchy_inclusion;
          Alcotest.test_case "instr/data disjoint" `Quick test_hierarchy_instr_data_disjoint_in_l2;
          Alcotest.test_case "L2 catches evictions" `Quick test_hierarchy_l2_catches_l1_evictions;
          Alcotest.test_case "negative addr" `Quick test_hierarchy_negative_data_addr;
          Alcotest.test_case "thread stats" `Quick test_hierarchy_thread_stats;
        ] );
    ]
