(* End-to-end flows across libraries: instrument -> analyze -> transform ->
   simulate, plus the experiment registry. Uses small fuels so the whole
   file stays fast. *)

open Colayout
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module H = Colayout_harness
module U = Colayout_util

let check = Alcotest.check

let params = C.Params.default_l1i

let workload =
  {
    W.Gen.default_profile with
    pname = "integration";
    seed = 31;
    phases = 4;
    funcs_per_phase = 7;
    shared_funcs = 2;
    iters_per_phase = 30;
    cold_funcs = 8;
  }

let test_pipeline_evaluate_kinds () =
  let p = W.Gen.build workload in
  let results =
    Pipeline.evaluate_kinds p
      ~test_input:(E.Interp.test_input ~max_blocks:60_000 ())
      ~ref_input:(E.Interp.ref_input ~max_blocks:120_000 ())
  in
  check Alcotest.int "five results" 5 (List.length results);
  let find kind = List.find (fun r -> r.Pipeline.kind = kind) results in
  let orig = find Optimizer.Original in
  check Alcotest.bool "accesses counted" true (orig.Pipeline.accesses > 0);
  check Alcotest.bool "misses <= accesses" true (orig.Pipeline.misses <= orig.Pipeline.accesses);
  List.iter
    (fun r ->
      check Alcotest.bool
        (Optimizer.kind_name r.Pipeline.kind ^ " ratio in range")
        true
        (r.Pipeline.miss_ratio >= 0.0 && r.Pipeline.miss_ratio <= 1.0))
    results;
  (* The affinity optimizers must not lose to original on this workload. *)
  check Alcotest.bool "bb affinity wins" true
    ((find Optimizer.Bb_affinity).Pipeline.miss_ratio < orig.Pipeline.miss_ratio)

let test_trace_is_layout_independent () =
  let p = W.Gen.build workload in
  let input = E.Interp.ref_input ~max_blocks:50_000 () in
  let t1 = Pipeline.reference_trace p input in
  let t2 = Pipeline.reference_trace p input in
  check Alcotest.bool "same trace across runs" true (Colayout_trace.Trace.equal t1 t2)

let test_corun_increases_misses () =
  let p = W.Gen.build workload in
  let q = W.Gen.build { workload with pname = "peer"; seed = 32 } in
  let tp = Pipeline.reference_trace p (E.Interp.ref_input ~max_blocks:100_000 ()) in
  let tq = Pipeline.reference_trace q (E.Interp.ref_input ~max_blocks:100_000 ()) in
  let lp = Layout.original p and lq = Layout.original q in
  let solo = C.Cache_stats.miss_ratio (Pipeline.miss_ratio_solo ~params ~layout:lp tp) in
  let co = Pipeline.miss_ratio_corun ~params ~self:(lp, tp) ~peer:(lq, tq) () in
  check Alcotest.bool "corun >= solo" true (C.Cache_stats.thread_miss_ratio co 0 >= solo)

let test_footprint_model_agrees_with_sim_direction () =
  (* The Eq-1/Eq-2 model and the trace-driven simulator must agree on which
     of two layouts has the smaller footprint pressure. *)
  let p = W.Gen.build workload in
  let a = Optimizer.analyze p (E.Interp.test_input ~max_blocks:60_000 ()) in
  let tr = Pipeline.reference_trace p (E.Interp.ref_input ~max_blocks:100_000 ()) in
  let curve kind =
    Pipeline.footprint_curve ~params ~layout:(Optimizer.layout_for kind p a) tr
  in
  let capacity = C.Params.lines_total params in
  let pred_orig = Miss_prob.solo_miss_ratio (curve Optimizer.Original) ~capacity in
  let pred_bb = Miss_prob.solo_miss_ratio (curve Optimizer.Bb_affinity) ~capacity in
  check Alcotest.bool "model predicts bb-affinity packs tighter" true (pred_bb <= pred_orig)

let test_defensiveness_politeness_of_optimized_layout () =
  let p = W.Gen.build workload in
  let a = Optimizer.analyze p (E.Interp.test_input ~max_blocks:60_000 ()) in
  let tr = Pipeline.reference_trace p (E.Interp.ref_input ~max_blocks:100_000 ()) in
  let peer = W.Gen.build { workload with pname = "peer2"; seed = 33 } in
  let peer_tr = Pipeline.reference_trace peer (E.Interp.ref_input ~max_blocks:100_000 ()) in
  let peer_curve = Pipeline.footprint_curve ~params ~layout:(Layout.original peer) peer_tr in
  let capacity = C.Params.lines_total params in
  let exposure kind =
    let self = Pipeline.footprint_curve ~params ~layout:(Optimizer.layout_for kind p a) tr in
    Miss_prob.exposure ~self ~peer:peer_curve ~capacity
  in
  let orig = exposure Optimizer.Original in
  let opt = exposure Optimizer.Bb_affinity in
  (* The optimized layout must be at least as defensive and at least as
     polite as the original (it only shrinks the footprint). *)
  check Alcotest.bool "defensiveness improves" true
    (opt.Miss_prob.defensiveness <= orig.Miss_prob.defensiveness +. 1e-9);
  check Alcotest.bool "politeness improves" true
    (opt.Miss_prob.politeness <= orig.Miss_prob.politeness +. 1e-9)

let test_registry () =
  check Alcotest.int "fourteen experiments" 14 (List.length H.Registry.all);
  check Alcotest.bool "find fig6" true (H.Registry.find "fig6" <> None);
  check Alcotest.bool "find unknown" true (H.Registry.find "zzz" = None);
  List.iter
    (fun (e : H.Registry.experiment) ->
      check Alcotest.bool (e.id ^ " id nonempty") true (String.length e.id > 0))
    H.Registry.all

let test_registry_rejects_unknown () =
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  (match H.Registry.run_by_ids ctx [ "not-an-experiment" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_ctx_memoization () =
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let p1 = H.Ctx.program ctx "429.mcf" in
  let p2 = H.Ctx.program ctx "429.mcf" in
  check Alcotest.bool "program memoized" true (p1 == p2);
  check Alcotest.int "fast ref fuel" 200_000 (H.Ctx.ref_fuel ctx);
  check Alcotest.bool "rate" true (H.Ctx.fetch_rate ctx "429.mcf" > 0.0)

(* The ablation tables by row label: each row's first cell, then the rest.
   The cells compared below hold no comma. *)
let ablation_rows ctx =
  List.map
    (fun t ->
      String.split_on_char '\n' (U.Table.to_csv t)
      |> List.tl
      |> List.filter (( <> ) "")
      |> List.map (fun line ->
             match String.split_on_char ',' line with
             | label :: cells -> (label, cells)
             | [] -> assert false))
    (H.Exp_ablation.run ctx)

let ablation_program = "445.gobmk"

let pct mr = U.Table.fmt_pct (100.0 *. mr)

(* The rows at the paper's settings are the context's memoized solo miss
   ratios: asking the context for them afterwards computes nothing. *)
let test_ablation_paper_rows () =
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let tables = ablation_rows ctx in
  let cell i label k = List.nth (List.assoc label (List.nth tables i)) k in
  let misses () =
    Option.value ~default:0
      (U.Metrics.find_counter (H.Ctx.metrics ctx) "ctx.memo.solo_cache.misses")
  in
  let before = misses () in
  let solo kind = pct (H.Ctx.solo_miss_ratio ctx ~hw:false ablation_program kind) in
  check Alcotest.string "w range 2..20" (solo Optimizer.Bb_affinity) (cell 0 "2..20 (paper)" 0);
  check Alcotest.string "prune top 10000" (solo Optimizer.Bb_affinity) (cell 1 "10000" 1);
  check Alcotest.string "cache multiplier 2.0" (solo Optimizer.Bb_trg) (cell 2 "2.0" 0);
  check Alcotest.int "no new solo simulation" before (misses ())

(* Re-pruning the context's analysis equals analyzing the raw test-input
   traces at the smaller top N, coverage included. *)
let test_ablation_prune_rows () =
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let prune_rows = List.nth (ablation_rows ctx) 1 in
  let program = H.Ctx.program ctx ablation_program in
  let run = E.Interp.run program (E.Interp.test_input ~max_blocks:(H.Ctx.test_fuel ctx) ()) in
  List.iter
    (fun top ->
      let config = { (H.Ctx.opt_config ctx) with Optimizer.prune_top = top } in
      let a =
        Optimizer.analysis_of_traces ~config ~bb:run.E.Interp.bb_trace ~fn:run.E.Interp.fn_trace
          ()
      in
      let layout = Optimizer.layout_for ~config Optimizer.Bb_affinity program a in
      let mr =
        C.Cache_stats.miss_ratio
          (Pipeline.miss_ratio_solo ~params:(H.Ctx.params ctx) ~layout
             (H.Ctx.ref_trace ctx ablation_program))
      in
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "top %d" top)
        [ pct a.Optimizer.prune.Colayout_trace.Prune.coverage; pct mr ]
        (List.assoc (string_of_int top) prune_rows))
    [ 1_000; 300; 100 ]

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "evaluate kinds" `Slow test_pipeline_evaluate_kinds;
          Alcotest.test_case "layout-independent trace" `Quick test_trace_is_layout_independent;
          Alcotest.test_case "corun contention" `Slow test_corun_increases_misses;
        ] );
      ( "defensiveness-politeness",
        [
          Alcotest.test_case "model vs sim direction" `Slow test_footprint_model_agrees_with_sim_direction;
          Alcotest.test_case "exposure improves" `Slow test_defensiveness_politeness_of_optimized_layout;
        ] );
      ( "harness",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "unknown id" `Quick test_registry_rejects_unknown;
          Alcotest.test_case "ctx memo" `Quick test_ctx_memoization;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "paper rows = ctx memo" `Quick test_ablation_paper_rows;
          Alcotest.test_case "prune rows = fresh analysis" `Quick test_ablation_prune_rows;
        ] );
    ]
