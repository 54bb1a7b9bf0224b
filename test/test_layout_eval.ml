(* Differential tests for the PR-5 zero-allocation evaluation engine:
   [Layout_eval] must reproduce the seed evaluator — which lives on in
   [Kernel_baseline] — bit-for-bit, over random programs, random orders
   (function and block granularity, with and without entry stubs) and a
   range of cache geometries. Also covers [eval_batch]'s determinism
   contract (pooled fan-out byte-identical to sequential at any jobs
   count), the engine-backed [Optimal]/[Anneal] rewiring, and the
   allocation-free permutation validation. *)

open Colayout
open Colayout_oracle
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module U = Colayout_util

let check = Alcotest.check

let bits = Int64.bits_of_float

let check_bit_equal what a b =
  check Alcotest.int64 what (bits a) (bits b)

(* Two program shapes: phased (tight per-phase working sets) and dispatch
   (interpreter-style Zipf loop) — different trace structures, same
   evaluator contract. *)
let program_of ~seed ~style =
  W.Gen.build
    {
      W.Gen.default_profile with
      pname = Printf.sprintf "layout-eval-%d" seed;
      seed;
      style;
      phases = 2;
      funcs_per_phase = 2;
      shared_funcs = 1;
      arms = 3;
      arm_blocks = 2;
      arm_work = 30;
      cold_funcs = 1;
      iters_per_phase = 25;
    }

let programs () =
  [
    program_of ~seed:31 ~style:W.Gen.default_profile.W.Gen.style;
    program_of ~seed:77 ~style:(W.Gen.Dispatch { table = 4; zipf_s = 0.8 });
  ]

let trace_of program = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks:8_000 ())

let geometries =
  [
    C.Params.make ~size_bytes:2048 ~assoc:2 ~line_bytes:64;
    C.Params.make ~size_bytes:1024 ~assoc:1 ~line_bytes:32;
    C.Params.make ~size_bytes:4096 ~assoc:8 ~line_bytes:128;
    C.Params.default_l1i;
  ]

let random_perm prng n =
  let a = Array.init n Fun.id in
  U.Prng.shuffle prng a;
  a

(* ---------------------------------------- function orders, all geometries *)

let test_function_order_differential () =
  List.iter
    (fun program ->
      let trace = trace_of program in
      let nf = Colayout_ir.Program.num_funcs program in
      List.iter
        (fun params ->
          let engine = Layout_eval.create ~params program trace in
          let prng = U.Prng.create ~seed:(nf + params.C.Params.num_sets) in
          for i = 0 to 19 do
            let order = random_perm prng nf in
            let got = Layout_eval.miss_ratio_of_order engine order in
            let want = Kernel_baseline.miss_ratio_of_function_order ~params program trace order in
            check_bit_equal (Printf.sprintf "engine = seed (%s, order %d)"
                               (C.Params.to_string params) i)
              want got;
            (* The rewired one-shot helper must agree too. *)
            check_bit_equal "Optimal.miss_ratio_of_function_order = seed" want
              (Optimal.miss_ratio_of_function_order ~params program trace order)
          done)
        geometries)
    (programs ())

(* -------------------------------- block orders, with and without stubs *)

let test_block_order_differential () =
  List.iter
    (fun program ->
      let trace = trace_of program in
      let nb = Colayout_ir.Program.num_blocks program in
      List.iter
        (fun params ->
          let engine = Layout_eval.create ~params program trace in
          let prng = U.Prng.create ~seed:(nb * 3 + params.C.Params.assoc) in
          for i = 0 to 9 do
            let order = random_perm prng nb in
            List.iter
              (fun function_stubs ->
                let got = Layout_eval.miss_ratio_of_block_order ~function_stubs engine order in
                let want =
                  Kernel_baseline.miss_ratio_of_block_order ~function_stubs ~params program
                    trace order
                in
                check_bit_equal
                  (Printf.sprintf "block order %d (stubs=%b, %s)" i function_stubs
                     (C.Params.to_string params))
                  want got)
              [ false; true ]
          done)
        geometries)
    (programs ())

(* A random block order scatters fall-through chains, so added jump stubs
   must actually appear: the engine's byte accounting is only proven if the
   inputs exercise it. *)
let test_block_orders_add_jumps () =
  let program = List.hd (programs ()) in
  let nb = Colayout_ir.Program.num_blocks program in
  let prng = U.Prng.create ~seed:5 in
  let order = random_perm prng nb in
  let layout = Layout.of_block_order program order in
  check Alcotest.bool "shuffled block order breaks fall-throughs" true
    (layout.Layout.added_jumps > 0)

(* ----------------------------------------------- batch = sequential *)

let test_eval_batch_matches_sequential () =
  let program = List.hd (programs ()) in
  let trace = trace_of program in
  let params = List.hd geometries in
  let nf = Colayout_ir.Program.num_funcs program in
  let prng = U.Prng.create ~seed:99 in
  let orders = Array.init 17 (fun _ -> random_perm prng nf) in
  let sequential =
    let engine = Layout_eval.create ~params program trace in
    Array.map (Layout_eval.miss_ratio_of_order engine) orders
  in
  List.iter
    (fun jobs ->
      U.Pool.with_pool ~jobs (fun pool ->
          let engine = Layout_eval.create ~pool ~params program trace in
          let batched = Layout_eval.eval_batch engine orders in
          check Alcotest.int (Printf.sprintf "jobs=%d result count" jobs)
            (Array.length orders) (Array.length batched);
          Array.iteri
            (fun i got ->
              check_bit_equal (Printf.sprintf "jobs=%d candidate %d" jobs i) sequential.(i)
                got)
            batched;
          (* Re-batching through the same engine (clone reuse) stays equal. *)
          let again = Layout_eval.eval_batch engine orders in
          Array.iteri
            (fun i got ->
              check_bit_equal (Printf.sprintf "jobs=%d re-batch %d" jobs i) sequential.(i) got)
            again;
          check Alcotest.bool (Printf.sprintf "jobs=%d builds at most jobs clones" jobs) true
            (Layout_eval.clones_built engine <= jobs)))
    [ 1; 4 ]

let test_eval_batch_small_batch_clones () =
  (* n < jobs: the old chunked fan-out built an engine clone per chunk,
     including for empty ones. Per-worker lazy clones must cap at the
     number of candidates that can possibly run concurrently. *)
  let program = List.hd (programs ()) in
  let trace = trace_of program in
  let params = List.hd geometries in
  let nf = Colayout_ir.Program.num_funcs program in
  let prng = U.Prng.create ~seed:5 in
  let orders = Array.init 2 (fun _ -> random_perm prng nf) in
  let sequential =
    let engine = Layout_eval.create ~params program trace in
    Array.map (Layout_eval.miss_ratio_of_order engine) orders
  in
  U.Pool.with_pool ~jobs:4 (fun pool ->
      let engine = Layout_eval.create ~pool ~params program trace in
      check Alcotest.int "no clones before the first batch" 0
        (Layout_eval.clones_built engine);
      let batched = Layout_eval.eval_batch engine orders in
      Array.iteri
        (fun i got -> check_bit_equal (Printf.sprintf "small batch %d" i) sequential.(i) got)
        batched;
      check Alcotest.bool "no clone for a worker that ran nothing" true
        (Layout_eval.clones_built engine <= Array.length orders);
      (* A single-candidate batch takes the sequential path: no new
         clones. *)
      let built = Layout_eval.clones_built engine in
      let one = Layout_eval.eval_batch engine [| orders.(0) |] in
      check_bit_equal "singleton batch" sequential.(0) one.(0);
      check Alcotest.int "singleton batch built no clone" built
        (Layout_eval.clones_built engine))

(* ------------------------------------------- engine-backed searches *)

let test_optimal_search_engine_equivalence () =
  (* A 4-function program: the exhaustive walk visits all 24 permutations;
     its best/worst must match a brute-force walk over the seed
     evaluator. *)
  let program =
    W.Gen.build
      {
        W.Gen.default_profile with
        pname = "layout-eval-optimal";
        seed = 13;
        phases = 1;
        funcs_per_phase = 2;
        shared_funcs = 0;
        cold_funcs = 1;
        iters_per_phase = 20;
      }
  in
  let trace = trace_of program in
  let params = C.Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  let nf = Colayout_ir.Program.num_funcs program in
  check Alcotest.int "4 functions" 4 nf;
  let r = Optimal.search ~params program trace in
  check Alcotest.int "evaluated 4!" 24 r.Optimal.evaluated;
  let best = ref infinity and worst = ref neg_infinity in
  let rec permute k order =
    if k = nf then begin
      let mr = Kernel_baseline.miss_ratio_of_function_order ~params program trace order in
      if mr < !best then best := mr;
      if mr > !worst then worst := mr
    end
    else
      for i = k to nf - 1 do
        let o = Array.copy order in
        let tmp = o.(k) in
        o.(k) <- o.(i);
        o.(i) <- tmp;
        permute (k + 1) o
      done
  in
  permute 0 (Array.init nf Fun.id);
  check_bit_equal "best = seed brute force" !best r.Optimal.best_miss_ratio;
  check_bit_equal "worst = seed brute force" !worst r.Optimal.worst_miss_ratio;
  check_bit_equal "best order replays through the seed evaluator"
    (Kernel_baseline.miss_ratio_of_function_order ~params program trace r.Optimal.best_order)
    r.Optimal.best_miss_ratio

let test_anneal_replays_through_seed_evaluator () =
  (* The in-place move/undo machinery must leave a genuine permutation
     whose reported ratio the seed evaluator reproduces. *)
  let program = List.hd (programs ()) in
  let trace = trace_of program in
  let params = C.Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  let r = Anneal.search ~seed:21 ~steps:80 ~params program trace in
  let sorted = Array.copy r.Anneal.order in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation"
    (Array.init (Colayout_ir.Program.num_funcs program) Fun.id)
    sorted;
  check_bit_equal "reported ratio replays through the seed evaluator"
    (Kernel_baseline.miss_ratio_of_function_order ~params program trace r.Anneal.order)
    r.Anneal.miss_ratio;
  check Alcotest.bool "never worse than start" true
    (r.Anneal.miss_ratio <= r.Anneal.improved_from)

let test_search_batch_jobs_invariant () =
  let program = List.hd (programs ()) in
  let trace = trace_of program in
  let params = C.Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  let run ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let engine = Layout_eval.create ~pool ~params program trace in
        Anneal.search_batch ~seed:8 ~steps:12 ~width:6 engine)
  in
  let r1 = run ~jobs:1 in
  let r4 = run ~jobs:4 in
  check (Alcotest.array Alcotest.int) "same order at jobs 1 and 4" r1.Anneal.order
    r4.Anneal.order;
  check_bit_equal "same ratio at jobs 1 and 4" r1.Anneal.miss_ratio r4.Anneal.miss_ratio;
  check Alcotest.int "simulations reported" (1 + (12 * 6)) r1.Anneal.steps;
  check_bit_equal "batched result replays through the seed evaluator"
    (Kernel_baseline.miss_ratio_of_function_order ~params program trace r1.Anneal.order)
    r1.Anneal.miss_ratio

(* ------------------------------------------------------- validation *)

let test_rejects_bad_orders () =
  let program = List.hd (programs ()) in
  let trace = trace_of program in
  let params = List.hd geometries in
  let engine = Layout_eval.create ~params program trace in
  let nf = Layout_eval.num_funcs engine in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument
       (Printf.sprintf "Layout_eval: function order has 1 entries, expected %d" nf))
    (fun () -> ignore (Layout_eval.miss_ratio_of_order engine [| 0 |]));
  let dup = Array.init nf (fun i -> if i = nf - 1 then 0 else i) in
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Layout_eval: duplicate function id 0")
    (fun () -> ignore (Layout_eval.miss_ratio_of_order engine dup));
  let oob = Array.init nf (fun i -> if i = 0 then nf else i) in
  Alcotest.check_raises "out-of-range id"
    (Invalid_argument (Printf.sprintf "Layout_eval: bad function id %d" nf))
    (fun () -> ignore (Layout_eval.miss_ratio_of_order engine oob));
  (* A failed validation must not poison subsequent evaluations. *)
  let order = Array.init nf Fun.id in
  check_bit_equal "evaluates after rejection"
    (Kernel_baseline.miss_ratio_of_function_order ~params program trace order)
    (Layout_eval.miss_ratio_of_order engine order)

let test_rejects_foreign_trace () =
  let program = List.hd (programs ()) in
  let nb = Colayout_ir.Program.num_blocks program in
  let foreign =
    Colayout_trace.Trace.of_list ~num_symbols:(nb + 5) [ 0; nb + 1; 2 ]
  in
  Alcotest.check_raises "event beyond the block universe"
    (Invalid_argument
       (Printf.sprintf "Layout_eval.create: trace event %d is not a block id of %s" (nb + 1)
          (Colayout_ir.Program.name program)))
    (fun () ->
      ignore (Layout_eval.create ~params:(List.hd geometries) program foreign))

(* ------------------------------------------------ sets that fit *)

type regime = All_fit | Some_overflow | All_overflow

let regime_of ~params layout trace =
  let per_set = Kernel_baseline.lines_per_set ~params layout trace in
  let most = Array.fold_left max 0 per_set and fewest = Array.fold_left min max_int per_set in
  if most <= params.C.Params.assoc then All_fit
  else if fewest > params.C.Params.assoc then All_overflow
  else Some_overflow

(* Shapes chosen so small generated programs land in every regime: a
   large highly associative cache where every set fits, the paper's L1I
   and a 1 KB 2-way cache in between, and four one-way sets every executed
   line competes for. *)
let footprint_shapes =
  [
    C.Params.make ~size_bytes:65_536 ~assoc:16 ~line_bytes:64;
    C.Params.default_l1i;
    C.Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64;
    C.Params.make ~size_bytes:256 ~assoc:1 ~line_bytes:64;
  ]

let solo_ratio ~params layout trace =
  C.Cache_stats.miss_ratio
    (C.Icache.solo ~params ~layout:(Layout.to_icache layout) (Colayout_trace.Trace.events trace))

(* One generated program and trace against every shape: function orders,
   block orders with and without entry stubs, and [eval_batch] at jobs 2,
   each bit-equal to the seed evaluator and to [Icache.solo]. Returns the
   regimes the candidates fell in. *)
let check_footprint_case (seed, phases, arms, fuel) =
  let program =
    W.Gen.build
      {
        W.Gen.default_profile with
        pname = Printf.sprintf "footprint-%d" seed;
        seed;
        phases;
        funcs_per_phase = 2;
        shared_funcs = 1;
        arms;
        arm_blocks = 2;
        arm_work = 8 + (seed mod 30);
        cold_funcs = 1;
        iters_per_phase = 10;
      }
  in
  let trace = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks:fuel ()) in
  let nf = Colayout_ir.Program.num_funcs program in
  let nb = Colayout_ir.Program.num_blocks program in
  let prng = U.Prng.create ~seed in
  let regimes = ref [] in
  let seen params layout = regimes := regime_of ~params layout trace :: !regimes in
  List.iter
    (fun params ->
      let what = C.Params.to_string params in
      let engine = Layout_eval.create ~params program trace in
      let forders = Array.init 3 (fun _ -> random_perm prng nf) in
      Array.iter
        (fun order ->
          let layout = Layout.of_function_order program order in
          seen params layout;
          let got = Layout_eval.miss_ratio_of_order engine order in
          check_bit_equal ("function order = seed, " ^ what)
            (Kernel_baseline.miss_ratio_of_function_order ~params program trace order)
            got;
          check_bit_equal ("function order = Icache.solo, " ^ what)
            (solo_ratio ~params layout trace) got)
        forders;
      let border = random_perm prng nb in
      List.iter
        (fun function_stubs ->
          let layout = Layout.of_block_order ~function_stubs program border in
          seen params layout;
          let got = Layout_eval.miss_ratio_of_block_order ~function_stubs engine border in
          check_bit_equal
            (Printf.sprintf "block order (stubs=%b) = seed, %s" function_stubs what)
            (Kernel_baseline.miss_ratio_of_block_order ~function_stubs ~params program trace
               border)
            got;
          check_bit_equal
            (Printf.sprintf "block order (stubs=%b) = Icache.solo, %s" function_stubs what)
            (solo_ratio ~params layout trace) got)
        [ false; true ];
      U.Pool.with_pool ~jobs:2 (fun pool ->
          let pooled = Layout_eval.create ~pool ~params program trace in
          Array.iteri
            (fun i got ->
              check_bit_equal (Printf.sprintf "eval_batch jobs=2 candidate %d, %s" i what)
                (Layout_eval.miss_ratio_of_order engine forders.(i))
                got)
            (Layout_eval.eval_batch pooled forders)))
    footprint_shapes;
  !regimes

let footprint_property =
  QCheck.Test.make ~name:"engine = seed = Icache.solo whether sets fit or overflow" ~count:25
    QCheck.(quad (int_range 1 10_000) (int_range 1 3) (int_range 1 4) (int_range 200 3_000))
    (fun case ->
      ignore (check_footprint_case case);
      true)

(* The shapes put fixed cases in all three regimes, so the property's
   inputs do reach each of them. *)
let test_footprint_regimes_covered () =
  let regimes =
    List.concat_map check_footprint_case [ (7, 1, 2, 400); (1234, 3, 4, 3_000) ]
  in
  List.iter
    (fun (regime, name) -> check Alcotest.bool name true (List.mem regime regimes))
    [
      (All_fit, "every set fits");
      (Some_overflow, "some sets overflow");
      (All_overflow, "every set overflows");
    ]

(* ------------------------------------------------------------ allocation *)

(* The header's allocation-free promise, measured with [Gc.minor_words]:
   the words one candidate allocates (its boxed float result) must not
   grow with the trace the engine replays. *)
let test_allocation_independent_of_trace () =
  let program = List.hd (programs ()) in
  let nf = Colayout_ir.Program.num_funcs program in
  let prng = U.Prng.create ~seed:5 in
  let orders = Array.init 32 (fun _ -> random_perm prng nf) in
  let per_candidate max_blocks =
    let trace = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks ()) in
    let engine = Layout_eval.create ~params:C.Params.default_l1i program trace in
    ignore (Layout_eval.miss_ratio_of_order engine orders.(0));
    let before = Gc.minor_words () in
    for i = 0 to Array.length orders - 1 do
      ignore (Sys.opaque_identity (Layout_eval.miss_ratio_of_order engine orders.(i)))
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int (Array.length orders) in
    (Layout_eval.trace_length engine, words)
  in
  let short_len, short_words = per_candidate 1_000 in
  let long_len, long_words = per_candidate 16_000 in
  check Alcotest.bool
    (Printf.sprintf "traces differ in length (%d vs %d events)" short_len long_len)
    true
    (long_len >= 8 * short_len);
  check (Alcotest.float 0.) "words per candidate independent of trace length" short_words
    long_words;
  check Alcotest.bool
    (Printf.sprintf "a few words per candidate (%.1f)" short_words)
    true (short_words <= 4.0)

let () =
  Alcotest.run "layout_eval"
    [
      ( "differential",
        [
          Alcotest.test_case "function orders = seed across geometries" `Slow
            test_function_order_differential;
          Alcotest.test_case "block orders (with stubs) = seed" `Slow
            test_block_order_differential;
          Alcotest.test_case "shuffled orders exercise added jumps" `Quick
            test_block_orders_add_jumps;
        ] );
      ( "batch",
        [
          Alcotest.test_case "eval_batch jobs 1/4 = sequential" `Quick
            test_eval_batch_matches_sequential;
          Alcotest.test_case "eval_batch n < jobs builds <= n clones" `Quick
            test_eval_batch_small_batch_clones;
          Alcotest.test_case "search_batch invariant across jobs" `Quick
            test_search_batch_jobs_invariant;
        ] );
      ( "searches",
        [
          Alcotest.test_case "Optimal.search = seed brute force" `Quick
            test_optimal_search_engine_equivalence;
          Alcotest.test_case "Anneal replays through seed evaluator" `Quick
            test_anneal_replays_through_seed_evaluator;
        ] );
      ( "validation",
        [
          Alcotest.test_case "bad orders rejected, engine survives" `Quick
            test_rejects_bad_orders;
          Alcotest.test_case "foreign trace rejected at create" `Quick
            test_rejects_foreign_trace;
        ] );
      ( "footprint",
        [
          QCheck_alcotest.to_alcotest footprint_property;
          Alcotest.test_case "fixed cases reach every regime" `Quick
            test_footprint_regimes_covered;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "per-candidate words independent of trace length" `Quick
            test_allocation_independent_of_trace;
        ] );
    ]
