(* Benchmark harness.

   Part 0 — kernel micro-benchmarks with a machine-readable trajectory:
   the packed-int/CSR analysis kernels (Trg.build, Affinity.affine_pairs,
   Trg_reduce.reduce) are timed against the seed baselines
   (Kernel_baseline) on the same trace, the reduction's output is gated
   equal to the seed's in every mode, the TRG memory footprints are
   compared, and the results are written to BENCH_kernels.json. Part 1 —
   Bechamel micro-benchmarks: one group per paper artifact, timing the
   analysis/simulation kernel that regenerates it, plus the §II-F data
   structures. Part 2 — printed ablation studies for the design choices
   DESIGN.md calls out (affinity w-range, trace pruning, TRG window scale).
   Part 3 — the full experiment suite: every table and figure of the paper,
   regenerated at full scale (this is the output EXPERIMENTS.md quotes).

   Run with:
     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- --kernels-only    # part 0 at full size
     dune exec bench/main.exe -- --quick           # part 0, small (CI smoke)
   The JSON path defaults to BENCH_kernels.json; override with --json. *)

open Bechamel
open Colayout
open Colayout_oracle
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module U = Colayout_util
module H = Colayout_harness
module T = Colayout_trace

let params = C.Params.default_l1i

(* Single source for the recorded host width. Every BENCH_*.json manifest
   carries this field and the smoke checkers gate their magnitude
   assertions on it, so all of them must read the same value. *)
let cores_available () = Domain.recommended_domain_count ()

let cores_field () = ("cores_available", U.Json.Int (cores_available ()))

(* Standard provenance block every manifest carries: how long this bench
   part ran, what the GC did getting there, and the host width — so a
   committed manifest says under what conditions its numbers were taken.
   Call with the clock value captured at the part's entry. *)
let runtime_field t0 =
  let s = Gc.quick_stat () in
  ( "runtime",
    U.Json.Obj
      [
        ("wall_ns", U.Json.Int (Int64.to_int (Int64.sub (U.Metrics.default_clock ()) t0)));
        ("minor_words", U.Json.Float s.Gc.minor_words);
        ("major_words", U.Json.Float s.Gc.major_words);
        ("compactions", U.Json.Int s.Gc.compactions);
        cores_field ();
      ] )

(* Shared inputs for parts 1-3, prepared once — lazily, so the kernel-only
   modes never pay for the workload build and interpreter runs. *)
let shared =
  lazy
    (let program = W.Spec.build "445.gobmk" in
     let test_run = E.Interp.run program (E.Interp.test_input ~max_blocks:30_000 ()) in
     let analysis =
       Optimizer.analysis_of_traces ~bb:test_run.E.Interp.bb_trace
         ~fn:test_run.E.Interp.fn_trace ()
     in
     let ref_trace = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks:60_000 ()) in
     let original = Layout.original program in
     let optimized = Optimizer.layout_for Optimizer.Bb_affinity program analysis in
     (program, test_run, analysis, ref_trace, original, optimized))

(* ------------------------------------------------------------- Part 0 *)

(* A skewed-popularity trace with enough deep reuse to stress the w ≈ 512
   window (32 KB / 64 B line): zipf-ranked symbols, seeded PRNG, trimmed. *)
let kernel_trace ~num_symbols ~len ~seed =
  let prng = U.Prng.create ~seed in
  let t = T.Trace.create ~name:"bench-kernels" ~num_symbols () in
  for _ = 1 to len do
    T.Trace.push t (U.Prng.zipf prng ~n:num_symbols ~s:0.9)
  done;
  T.Trim.trim t

(* Wall-time a thunk: warm once, then double the iteration count until the
   measured batch exceeds [budget] seconds. The kernels are deterministic
   and long-running (1e5..1e9 ns), so this is stable without OLS. *)
let time_ns ~budget f =
  f ();
  let rec go iters =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Sys.time () -. t0 in
    if dt >= budget then dt *. 1e9 /. float_of_int iters else go (iters * 2)
  in
  go 1

let json_escape s =
  String.concat "" (List.map (fun c -> if c = '"' || c = '\\' then "\\" ^ String.make 1 c else String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* The CPU model the kernels ran on, from the Linux cpuinfo table when
   there is one. *)
let host_cpu () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "unknown"
      | line -> (
        match String.index_opt line ':' with
        | Some i when String.trim (String.sub line 0 i) = "model name" ->
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> scan ())
    in
    let model = scan () in
    close_in ic;
    model

(* Which per-pair counter store the TRG and affinity kernels take at this
   universe: the dense grid up to [Int_pair_tbl.max_grid_universe], the
   packed-pair table above. The speedups of one say nothing of the other. *)
let pair_store num_symbols =
  if num_symbols <= U.Int_pair_tbl.max_grid_universe then "grid" else "table"

let write_kernels_json ~path ~mode ~t0 ~num_symbols ~trace_len ~w ~slots ~kernels ~speedups
    ~packed_words ~legacy_words =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"colayout/bench-kernels/v1\",\n";
  out "  \"runtime\": %s,\n" (U.Json.to_string (snd (runtime_field t0)));
  out "  \"mode\": \"%s\",\n" (json_escape mode);
  out "  \"host\": { \"cpu\": \"%s\", \"cores_available\": %d, \"ocaml\": \"%s\" },\n"
    (json_escape (host_cpu ())) (cores_available ()) (json_escape Sys.ocaml_version);
  out
    "  \"params\": { \"num_symbols\": %d, \"trace_len\": %d, \"w\": %d, \"window\": %d, \"slots\": %d, \"pair_store\": \"%s\" },\n"
    num_symbols trace_len w w slots (pair_store num_symbols);
  out "  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns) ->
      out "    { \"name\": \"%s\", \"ns_per_op\": %.1f }%s\n" (json_escape name) ns
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  out "  ],\n";
  out "  \"speedup\": {\n";
  List.iteri
    (fun i (name, s) ->
      out "    \"%s\": %.3f%s\n" (json_escape name) s
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  out "  },\n";
  out "  \"memory_words\": { \"trg_packed_csr\": %d, \"trg_tuple_hashtbl\": %d, \"ratio\": %.3f }\n"
    packed_words legacy_words
    (float_of_int packed_words /. float_of_int legacy_words);
  out "}\n";
  close_out oc

let run_kernels ~quick ~json_path =
  let t0 = U.Metrics.default_clock () in
  let num_symbols = if quick then 1024 else 4096 in
  let len = if quick then 12_000 else 120_000 in
  let w = 512 in
  let slots = 256 in
  let budget = if quick then 0.1 else 1.0 in
  let trace = kernel_trace ~num_symbols ~len ~seed:0xC0DE in
  Printf.printf
    "== Kernel micro-benchmarks: packed-int/CSR vs seed tuple-Hashtbl ==\n\
    \   (%d events over %d symbols, w = window = %d, slots = %d, pair store: %s)\n%!"
    (T.Trace.length trace) num_symbols w slots (pair_store num_symbols);
  let bench name f =
    let ns = time_ns ~budget f in
    Printf.printf "  %-40s %12.1f us/run\n%!" name (ns /. 1e3);
    (name, ns)
  in
  let trg_packed = bench "trg-build/packed-csr" (fun () -> ignore (Trg.build ~window:w trace)) in
  let trg_legacy =
    bench "trg-build/tuple-hashtbl-baseline" (fun () ->
        ignore (Kernel_baseline.trg_build ~window:w trace))
  in
  let aff_packed = bench "affine-pairs/packed" (fun () -> ignore (Affinity.affine_pairs trace ~w)) in
  let aff_legacy =
    bench "affine-pairs/tuple-hashtbl-baseline" (fun () ->
        ignore (Kernel_baseline.affine_pairs trace ~w))
  in
  let trg = Trg.build ~window:w trace in
  let reduce = bench "trg-reduce/flat" (fun () -> ignore (Trg_reduce.reduce trg ~slots)) in
  let reduce_legacy =
    bench "trg-reduce/seed-baseline" (fun () -> ignore (Kernel_baseline.trg_reduce trg ~slots))
  in
  (* The optimizer's affinity windows: one kernel pass cut at each window,
     against one [affine_pairs] pass per window. *)
  let ws = Optimizer.default_config.Optimizer.ws in
  let wmax = List.fold_left max 1 ws in
  let windows_one_pass =
    bench "affinity-windows/one-pass" (fun () ->
        let th = Affinity.thresholds trace ~wmax in
        List.iter (fun w -> ignore (Affinity.cut th ~w)) ws)
  in
  let windows_per_window =
    bench "affinity-windows/per-window" (fun () ->
        List.iter (fun w -> ignore (Affinity.affine_pairs trace ~w)) ws)
  in
  let kernels =
    [
      trg_packed; trg_legacy; aff_packed; aff_legacy; reduce; reduce_legacy; windows_one_pass;
      windows_per_window;
    ]
  in
  let speedups =
    [
      ("trg-build", snd trg_legacy /. snd trg_packed);
      ("affine-pairs", snd aff_legacy /. snd aff_packed);
      ("trg-reduce", snd reduce_legacy /. snd reduce);
      ("affinity-windows", snd windows_per_window /. snd windows_one_pass);
    ]
  in
  List.iter (fun (n, s) -> Printf.printf "  speedup %-32s %12.2fx\n%!" n s) speedups;
  (* The timed reductions must agree: same slot lists, same output order. *)
  let flat = Trg_reduce.reduce trg ~slots and seed = Kernel_baseline.trg_reduce trg ~slots in
  if flat.Trg_reduce.order <> seed.Trg_reduce.order
     || flat.Trg_reduce.slot_lists <> seed.Trg_reduce.slot_lists
  then begin
    Printf.eprintf "FATAL: flat TRG reduction diverges from the seed reduction\n%!";
    exit 1
  end;
  (* Memory-footprint ablation: the CSR stores each undirected edge once;
     the seed adjacency stores it twice, in boxed hash-table cells. Both
     graphs are measured as built: the weight-sorted index a reduction
     caches on [trg] (one int per edge) is not part of the comparison. *)
  let legacy = Kernel_baseline.trg_build ~window:w trace in
  let packed_words = Obj.reachable_words (Obj.repr (Trg.build ~window:w trace)) in
  let legacy_words = Obj.reachable_words (Obj.repr legacy) in
  Printf.printf "  TRG resident memory: packed CSR %d words, tuple-hashtbl %d words (%.1f%%)\n%!"
    packed_words legacy_words
    (100.0 *. float_of_int packed_words /. float_of_int legacy_words);
  if 2 * packed_words > legacy_words then begin
    Printf.eprintf
      "FATAL: CSR finalization no longer halves TRG resident memory (%d vs %d words)\n%!"
      packed_words legacy_words;
    exit 1
  end;
  write_kernels_json ~path:json_path
    ~mode:(if quick then "quick" else "full")
    ~t0 ~num_symbols ~trace_len:(T.Trace.length trace) ~w ~slots ~kernels ~speedups
    ~packed_words ~legacy_words;
  Printf.printf "  wrote %s\n\n%!" json_path

(* ----------------------------------------------------------- Part 0.5 *)

(* End-to-end pipeline stage-timing manifest (BENCH_harness.json, schema
   colayout/bench-harness/v1): one Fast-scale pass through the Ctx seam —
   workload build, reference interpretation, analysis, layout, solo and
   co-run simulation — recorded as spans and aggregated per stage and per
   category. This extends the machine-readable perf trajectory beyond the
   two §II-F kernels of BENCH_kernels.json to the whole harness. *)

let harness_program = "445.gobmk"

let harness_probe = "403.gcc"

let run_harness_manifest ~quick ~path =
  let t0 = U.Metrics.default_clock () in
  Printf.printf "== Harness stage timings (end-to-end pipeline, fast scale) ==\n%!";
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let spans = H.Ctx.spans ctx in
  ignore (H.Ctx.solo_stats ctx ~hw:false harness_program Optimizer.Bb_affinity);
  ignore (H.Ctx.solo_stats ctx ~hw:false harness_program Optimizer.Original);
  ignore
    (H.Ctx.corun_stats ctx ~hw:false
       ~self:(harness_program, Optimizer.Bb_affinity)
       ~peer:(harness_probe, Optimizer.Original));
  let stages =
    List.map
      (fun (cat, name, calls, total_ns) ->
        U.Json.Obj
          [
            ("name", U.Json.Str name);
            ("cat", U.Json.Str cat);
            ("calls", U.Json.Int calls);
            ("total_ns", U.Json.Int (Int64.to_int total_ns));
          ])
      (U.Span.aggregate spans)
  in
  let totals =
    List.map
      (fun (cat, total_ns) -> (cat, U.Json.Int (Int64.to_int total_ns)))
      (U.Span.by_category spans)
  in
  let counters =
    List.map (fun (k, v) -> (k, U.Json.Int v)) (U.Metrics.counters (H.Ctx.metrics ctx))
  in
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-harness/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        ("scale", U.Json.Str "fast");
        ("program", U.Json.Str harness_program);
        ("probe", U.Json.Str harness_probe);
        ("stages", U.Json.Arr stages);
        ("category_totals_ns", U.Json.Obj totals);
        ("counters", U.Json.Obj counters);
        runtime_field t0;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun (cat, total_ns) ->
      match total_ns with
      | U.Json.Int ns -> Printf.printf "  %-12s %12.2f ms\n%!" cat (float_of_int ns /. 1e6)
      | _ -> ())
    totals;
  (* Self-validation, relied on by @bench-smoke: the manifest must parse
     and every recorded stage duration must be non-negative. *)
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match U.Json.parse text with
  | json ->
    let check_stage s =
      match U.Json.(Option.bind (member "total_ns" s) to_int) with
      | Some ns when ns >= 0 -> ()
      | _ ->
        Printf.eprintf "FATAL: %s has a stage with a negative or missing duration\n%!" path;
        exit 1
    in
    (match U.Json.(Option.bind (member "stages" json) to_list) with
    | Some (_ :: _ as stages) -> List.iter check_stage stages
    | _ ->
      Printf.eprintf "FATAL: %s has no stages\n%!" path;
      exit 1)
  | exception U.Json.Parse_error (pos, msg) ->
    Printf.eprintf "FATAL: %s does not parse: %s at %d\n%!" path msg pos;
    exit 1);
  Printf.printf "  wrote %s\n\n%!" path

(* ---------------------------------------------------------- Part 0.75 *)

(* Parallel-scaling benchmark (BENCH_parallel.json, schema
   colayout/bench-parallel/v1): the Figure 6 co-run speedup matrix —
   phase-1 prewarm plus the (kind x self x probe) simulation fan-out — is
   re-run from a fresh Fast-scale context at jobs ∈ {1, 2, 4}, wall-clock
   timed, and digest-checked: every jobs count must produce bit-identical
   cell values (the determinism contract of the pool). Quick mode shrinks
   the matrix (1 optimizer, 3 programs) but exercises the same schedule. *)

let parallel_jobs = [ 1; 2; 4 ]

let run_parallel_matrix ~kinds ~selves ~probes ~jobs =
  let t0 = U.Metrics.default_clock () in
  let metrics = U.Metrics.create () in
  let cells =
    List.concat_map
      (fun kind ->
        List.concat_map (fun s -> List.map (fun p -> (kind, s, p)) probes) selves)
      kinds
  in
  let values =
    U.Pool.with_pool ~jobs ~metrics (fun pool ->
        let ctx = H.Ctx.create ~scale:H.Ctx.Fast ~metrics ~pool () in
        H.Ctx.prewarm ctx ~kinds:(Optimizer.Original :: kinds) selves;
        H.Ctx.par_map ctx
          (fun (kind, self, probe) -> H.Exp_fig6.speedup ctx kind ~self ~probe)
          cells)
  in
  let wall_ns = Int64.to_int (Int64.sub (U.Metrics.default_clock ()) t0) in
  let digest =
    Digest.to_hex
      (Digest.string (String.concat ";" (List.map (Printf.sprintf "%.12g") values)))
  in
  (wall_ns, digest, List.length cells)

let run_parallel_bench ~quick ~path =
  let t_start = U.Metrics.default_clock () in
  Printf.printf "== Parallel scaling: fig6 co-run matrix under the domain pool ==\n%!";
  let kinds = if quick then [ Optimizer.Func_affinity ] else H.Exp_fig6.optimizers in
  let selves =
    if quick then [ "400.perlbench"; "429.mcf"; "458.sjeng" ] else W.Spec.deep_eight
  in
  let probes = if quick then selves else W.Spec.deep_eight in
  let runs =
    List.map
      (fun jobs ->
        let wall_ns, digest, cells = run_parallel_matrix ~kinds ~selves ~probes ~jobs in
        Printf.printf "  jobs=%d  %8.2f s  (%d cells, digest %s)\n%!" jobs
          (float_of_int wall_ns /. 1e9)
          cells
          (String.sub digest 0 12);
        (jobs, wall_ns, digest))
      parallel_jobs
  in
  let digests = List.map (fun (_, _, d) -> d) runs in
  let identical = List.for_all (fun d -> d = List.hd digests) digests in
  if not identical then begin
    Printf.eprintf "FATAL: fig6 matrix differs across jobs counts — determinism broken\n%!";
    exit 1
  end;
  let base_wall =
    match runs with (1, w, _) :: _ -> float_of_int w | _ -> assert false
  in
  let speedups =
    List.filter_map
      (fun (jobs, w, _) ->
        if jobs = 1 then None
        else Some (Printf.sprintf "jobs%d" jobs, U.Json.Float (base_wall /. float_of_int w)))
      runs
  in
  List.iter
    (fun (name, v) ->
      match v with
      | U.Json.Float s -> Printf.printf "  speedup %-8s %6.2fx\n%!" name s
      | _ -> ())
    speedups;
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-parallel/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        ("scale", U.Json.Str "fast");
        ("matrix", U.Json.Str "fig6");
        ("kinds", U.Json.Int (List.length kinds));
        ("selves", U.Json.Int (List.length selves));
        ("probes", U.Json.Int (List.length probes));
        cores_field ();
        ( "runs",
          U.Json.Arr
            (List.map
               (fun (jobs, wall_ns, digest) ->
                 U.Json.Obj
                   [
                     ("jobs", U.Json.Int jobs);
                     ("wall_ns", U.Json.Int wall_ns);
                     ("digest", U.Json.Str digest);
                   ])
               runs) );
        ("identical_tables", U.Json.Bool identical);
        ("speedup", U.Json.Obj speedups);
        runtime_field t_start;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" path

(* ----------------------------------------------------------- Part 0.9 *)

(* Cache-profile manifest (BENCH_profile.json, schema
   colayout/bench-profile/v1): Fast-scale profiled solo runs of the
   original vs optimized layout on two workloads, recording the
   cold/capacity/conflict split of each. The claim the paper's layouts rest
   on — optimization moves misses out of the conflict class — is asserted
   here: at least one workload must show a strict conflict-miss drop, or
   the bench fails. The @bench-smoke checker re-validates the written
   manifest. *)

let profile_workloads =
  [ ("445.gobmk", Optimizer.Bb_affinity); ("403.gcc", Optimizer.Bb_affinity) ]

let classification_json sink =
  U.Json.Obj
    [
      ("accesses", U.Json.Int (C.Profile_sink.accesses sink));
      ("misses", U.Json.Int (C.Profile_sink.misses sink));
      ("cold", U.Json.Int (C.Profile_sink.cold_misses sink));
      ("capacity", U.Json.Int (C.Profile_sink.capacity_misses sink));
      ("conflict", U.Json.Int (C.Profile_sink.conflict_misses sink));
      ("evictions", U.Json.Int (C.Profile_sink.evictions sink));
    ]

let run_profile_manifest ~quick ~path =
  let t0 = U.Metrics.default_clock () in
  Printf.printf "== Cache-profile manifest: conflict-miss reduction by layout ==\n%!";
  let workloads =
    if quick then [ List.hd profile_workloads ] else profile_workloads
  in
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let rows =
    List.map
      (fun (name, kind) ->
        let _, base = H.Ctx.profiled_solo ctx ~hw:false name Optimizer.Original in
        let _, opt = H.Ctx.profiled_solo ctx ~hw:false name kind in
        let drop = C.Profile_sink.conflict_misses base - C.Profile_sink.conflict_misses opt in
        Printf.printf "  %-14s %-12s conflict %6d -> %6d  (drop %d)\n%!" name
          (Optimizer.kind_name kind)
          (C.Profile_sink.conflict_misses base)
          (C.Profile_sink.conflict_misses opt)
          drop;
        (name, kind, base, opt, drop))
      workloads
  in
  let any_drop = List.exists (fun (_, _, _, _, d) -> d > 0) rows in
  if not any_drop then begin
    Printf.eprintf
      "FATAL: no workload showed a conflict-miss reduction — the layouts no longer kill \
       conflict misses\n%!";
    exit 1
  end;
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-profile/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        ("scale", U.Json.Str "fast");
        ( "workloads",
          U.Json.Arr
            (List.map
               (fun (name, kind, base, opt, drop) ->
                 U.Json.Obj
                   [
                     ("program", U.Json.Str name);
                     ("optimizer", U.Json.Str (Optimizer.kind_name kind));
                     ("baseline", classification_json base);
                     ("optimized", classification_json opt);
                     ("conflict_drop", U.Json.Int drop);
                   ])
               rows) );
        ("any_conflict_drop", U.Json.Bool any_drop);
        runtime_field t0;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" path

(* ---------------------------------------------------------- Part 0.95 *)

(* Layout-evaluation engine benchmark (BENCH_layout_eval.json, schema
   colayout/bench-layout-eval/v1): the PR-5 zero-allocation engine vs the
   seed evaluate-one-candidate path (Kernel_baseline), on the annealing
   workload shape — one engine, many candidate function orders. Three
   measurements: (a) single-thread ns per candidate, engine vs seed, over
   a fixed shuffled-order set; (b) the annealing search wall-clock before
   (seed loop) and after (engine-backed); (c) eval_batch wall at
   jobs ∈ {1, 2, 4}, digest-checked for bit-identical results. Full mode
   FATALs if the single-thread speedup falls under 5x — the tentpole
   claim; quick mode only requires positive timings (CI boxes are noisy
   and may be single-core). *)

let layout_eval_profile =
  {
    W.Gen.default_profile with
    pname = "bench-layout-eval";
    seed = 2014;
    phases = 3;
    funcs_per_phase = 3;
    shared_funcs = 1;
    arms = 4;
    arm_blocks = 3;
    arm_work = 40;
    cold_funcs = 1;
    iters_per_phase = 60;
  }

let layout_eval_params = C.Params.make ~size_bytes:2048 ~assoc:2 ~line_bytes:64

let run_layout_eval_bench ~quick ~path =
  let t_start = U.Metrics.default_clock () in
  Printf.printf "== Layout-evaluation engine: zero-allocation scoring vs seed path ==\n%!";
  let params = layout_eval_params in
  let program = W.Gen.build layout_eval_profile in
  let nf = Colayout_ir.Program.num_funcs program in
  let max_blocks = if quick then 8_000 else 40_000 in
  let trace = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks ()) in
  Printf.printf "   (%d functions, %d-event trace, %s)\n%!" nf (T.Trace.length trace)
    (C.Params.to_string params);
  let prng = U.Prng.create ~seed:7 in
  let shuffled () =
    let a = Array.init nf Fun.id in
    U.Prng.shuffle prng a;
    a
  in
  let orders = Array.init 32 (fun _ -> shuffled ()) in
  let budget = if quick then 0.05 else 0.5 in
  (* (a) single-thread per-candidate cost. One engine reused across all
     candidates — the usage pattern every search loop has. *)
  let engine = Layout_eval.create ~params program trace in
  let n = float_of_int (Array.length orders) in
  let engine_ns =
    time_ns ~budget (fun () ->
        Array.iter (fun o -> ignore (Layout_eval.miss_ratio_of_order engine o)) orders)
    /. n
  in
  let seed_ns =
    time_ns ~budget (fun () ->
        Array.iter
          (fun o ->
            ignore (Kernel_baseline.miss_ratio_of_function_order ~params program trace o))
          orders)
    /. n
  in
  let st_speedup = seed_ns /. engine_ns in
  Printf.printf "  %-40s %12.1f us/candidate\n%!" "engine (Layout_eval)" (engine_ns /. 1e3);
  Printf.printf "  %-40s %12.1f us/candidate\n%!" "seed path (Kernel_baseline)" (seed_ns /. 1e3);
  Printf.printf "  speedup %-32s %12.2fx\n%!" "single-thread" st_speedup;
  (* Differential spot-check on the exact bench inputs: a fast-but-wrong
     engine must not publish a manifest. *)
  Array.iter
    (fun o ->
      let got = Layout_eval.miss_ratio_of_order engine o in
      let want = Kernel_baseline.miss_ratio_of_function_order ~params program trace o in
      if got <> want then begin
        Printf.eprintf "FATAL: engine diverges from the seed evaluator (%.17g vs %.17g)\n%!"
          got want;
        exit 1
      end)
    orders;
  (* (b) annealing wall-clock, before vs after. The two searches draw
     slightly different PRNG streams (the seed loop burns steps on a = b
     proposals), so only wall and final quality are compared. *)
  let wall f =
    let t0 = U.Metrics.default_clock () in
    let r = f () in
    (r, Int64.to_int (Int64.sub (U.Metrics.default_clock ()) t0))
  in
  let steps = if quick then 100 else 400 in
  let (_, before_mr, _), before_ns =
    wall (fun () -> Kernel_baseline.anneal_search ~seed:11 ~steps ~params program trace)
  in
  let after_r, after_ns = wall (fun () -> Anneal.search ~seed:11 ~steps ~params program trace) in
  let anneal_speedup = float_of_int before_ns /. float_of_int after_ns in
  Printf.printf "  anneal %d steps: seed %.2f ms -> engine %.2f ms (%.2fx), miss %.4f -> %.4f\n%!"
    steps
    (float_of_int before_ns /. 1e6)
    (float_of_int after_ns /. 1e6)
    anneal_speedup before_mr after_r.Anneal.miss_ratio;
  (* (c) batch fan-out at jobs ∈ {1, 2, 4}: digest-checked determinism. *)
  let batch = Array.init (if quick then 32 else 128) (fun _ -> shuffled ()) in
  let batch_runs =
    List.map
      (fun jobs ->
        let results, ns =
          wall (fun () ->
              U.Pool.with_pool ~jobs (fun pool ->
                  let e = Layout_eval.create ~pool ~params program trace in
                  Layout_eval.eval_batch e batch))
        in
        let digest =
          Digest.to_hex
            (Digest.string
               (String.concat ";"
                  (Array.to_list (Array.map (Printf.sprintf "%.17g") results))))
        in
        Printf.printf "  batch %d candidates, jobs=%d  %8.2f ms  (digest %s)\n%!"
          (Array.length batch) jobs
          (float_of_int ns /. 1e6)
          (String.sub digest 0 12);
        (jobs, ns, digest))
      parallel_jobs
  in
  let digests = List.map (fun (_, _, d) -> d) batch_runs in
  if not (List.for_all (fun d -> d = List.hd digests) digests) then begin
    Printf.eprintf "FATAL: eval_batch results differ across jobs counts — determinism broken\n%!";
    exit 1
  end;
  if engine_ns <= 0.0 || seed_ns <= 0.0 then begin
    Printf.eprintf "FATAL: non-positive timing\n%!";
    exit 1
  end;
  if (not quick) && st_speedup < 5.0 then begin
    Printf.eprintf
      "FATAL: single-thread engine speedup %.2fx < 5x over the seed evaluator — the \
       zero-allocation engine has regressed\n%!"
      st_speedup;
    exit 1
  end;
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-layout-eval/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        ( "params",
          U.Json.Obj
            [
              ("program", U.Json.Str (Colayout_ir.Program.name program));
              ("num_funcs", U.Json.Int nf);
              ("trace_len", U.Json.Int (T.Trace.length trace));
              ("cache", U.Json.Str (C.Params.to_string params));
              ("orders", U.Json.Int (Array.length orders));
              ("anneal_steps", U.Json.Int steps);
              ("batch_candidates", U.Json.Int (Array.length batch));
            ] );
        cores_field ();
        ( "single_thread",
          U.Json.Obj
            [
              ("engine_ns_per_eval", U.Json.Float engine_ns);
              ("seed_ns_per_eval", U.Json.Float seed_ns);
              ("speedup", U.Json.Float st_speedup);
            ] );
        ( "anneal",
          U.Json.Obj
            [
              ("seed_wall_ns", U.Json.Int before_ns);
              ("engine_wall_ns", U.Json.Int after_ns);
              ("speedup", U.Json.Float anneal_speedup);
              ("seed_miss_ratio", U.Json.Float before_mr);
              ("engine_miss_ratio", U.Json.Float after_r.Anneal.miss_ratio);
            ] );
        ( "batch",
          U.Json.Arr
            (List.map
               (fun (jobs, ns, digest) ->
                 U.Json.Obj
                   [
                     ("jobs", U.Json.Int jobs);
                     ("wall_ns", U.Json.Int ns);
                     ("digest", U.Json.Str digest);
                   ])
               batch_runs) );
        ("identical_batches", U.Json.Bool true);
        runtime_field t_start;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" path

(* ---------------------------------------------------------- Part 0.96 *)

(* Delta (incremental) evaluation benchmark (BENCH_layout_eval_delta.json,
   schema colayout/bench-layout-eval-delta/v1): the PR-6 dirty-set
   re-simulation path vs full recompute, on the move pattern annealing
   actually produces. Two measurements:

   (a) a dirty-% sweep — four move-locality scenarios (nominal 1% / 5% /
       25% / 100% dirty sets), each replaying the IDENTICAL move sequence
       down both paths: a [Layout_eval.Delta] session (all moves
       committed, periodic resync audits included in the wall) and a
       per-move full [miss_ratio_of_order]. The per-move ratio streams are
       digest-compared — a fast-but-wrong delta path must not publish a
       manifest. Measured dirty-% and replayed-event fractions come from
       [Delta.stats], not the nominal labels.

   (b) the 400-step anneal wall, [Anneal.search ~max_span:2] (the local
       refinement regime) in [`Full] vs [`Delta] mode. Both modes draw the
       same PRNG stream, so the results must be byte-identical — checked,
       then the walls compared. Full mode FATALs below 3x; the committed
       manifest is expected to clear 5x (ISSUE acceptance).

   The program is many small functions under a 1024-set cache — the
   shape delta evaluation exists for: a local move perturbs a few hundred
   bytes of address space, so only a handful of sets go dirty and the
   replayed-event fraction stays in the low single digits. *)

let layout_eval_delta_profile =
  {
    W.Gen.default_profile with
    pname = "bench-layout-eval-delta";
    seed = 2014;
    phases = 16;
    funcs_per_phase = 8;
    shared_funcs = 2;
    arms = 2;
    arm_blocks = 1;
    arm_work = 12;
    cold_funcs = 6;
    iters_per_phase = 40;
  }

let layout_eval_delta_params = C.Params.make ~size_bytes:131_072 ~assoc:2 ~line_bytes:64

let run_layout_eval_delta_bench ~quick ~path =
  let t_start = U.Metrics.default_clock () in
  Printf.printf "== Delta evaluation: dirty-set re-simulation vs full recompute ==\n%!";
  let params = layout_eval_delta_params in
  let program = W.Gen.build layout_eval_delta_profile in
  let nf = Colayout_ir.Program.num_funcs program in
  let max_blocks = if quick then 8_000 else 40_000 in
  let trace = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks ()) in
  let trace_len = T.Trace.length trace in
  Printf.printf "   (%d functions, %d-event trace, %s)\n%!" nf trace_len
    (C.Params.to_string params);
  let wall f =
    let t0 = U.Metrics.default_clock () in
    let r = f () in
    (r, Int64.to_int (Int64.sub (U.Metrics.default_clock ()) t0))
  in
  let engine = Layout_eval.create ~params program trace in
  let digest_of ratios =
    Digest.to_hex
      (Digest.string
         (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%.17g") ratios))))
  in
  (* (a) dirty-% sweep. Each scenario is a move-locality rule; the drawn
     sequence is materialized up front so both paths replay byte-identical
     moves. *)
  let moves = if quick then 150 else 600 in
  let scenarios =
    (* (label, nominal dirty-%, draw rule). [span] limits |a - b|;
       [far_relocate] forces end-to-end relocations, which shift every
       function between the endpoints and dirty (essentially) every set. *)
    [
      ("local-swap", 1, `Span 1);
      ("near", 5, `Span 3);
      ("mid", 25, `Span (max 2 (nf / 5)));
      ("global", 100, `Far);
    ]
  in
  let scenario_rows =
    List.map
      (fun (label, nominal_pct, rule) ->
        let prng = U.Prng.create ~seed:(19 + nominal_pct) in
        let mv_a = Array.make moves 0 and mv_b = Array.make moves 0 in
        let mv_swap = Array.make moves false in
        for i = 0 to moves - 1 do
          (match rule with
          | `Span span ->
            let a = U.Prng.int prng nf in
            let lo = max 0 (a - span) and hi = min (nf - 1) (a + span) in
            let b = ref (U.Prng.int_in prng ~lo ~hi) in
            while !b = a do
              b := U.Prng.int_in prng ~lo ~hi
            done;
            mv_a.(i) <- a;
            mv_b.(i) <- !b;
            mv_swap.(i) <- U.Prng.bool prng ~p:0.5
          | `Far ->
            (* Relocate between the two ends: everything in between
               shifts, so the whole footprint is dirty. *)
            let head = U.Prng.int prng (max 1 (nf / 16)) in
            let tail = nf - 1 - U.Prng.int prng (max 1 (nf / 16)) in
            let fwd = U.Prng.bool prng ~p:0.5 in
            mv_a.(i) <- (if fwd then head else tail);
            mv_b.(i) <- (if fwd then tail else head);
            mv_swap.(i) <- false);
        done;
        (* Delta path: one session, every move committed (resync audits at
           the default cadence are part of the measured wall). *)
        let (delta_ratios, delta_stats), delta_ns =
          wall (fun () ->
              let sess = Layout_eval.Delta.start engine (Array.init nf Fun.id) in
              let ratios =
                Array.init moves (fun i ->
                    let mr =
                      if mv_swap.(i) then Layout_eval.Delta.apply_swap sess mv_a.(i) mv_b.(i)
                      else Layout_eval.Delta.apply_relocate sess mv_a.(i) mv_b.(i)
                    in
                    Layout_eval.Delta.commit sess;
                    mr)
              in
              (ratios, Layout_eval.Delta.stats sess))
        in
        (* Full path: identical move sequence, one full streaming
           evaluation per move. *)
        let full_ratios, full_ns =
          wall (fun () ->
              let order = Array.init nf Fun.id in
              Array.init moves (fun i ->
                  if mv_swap.(i) then Anneal.apply_swap order mv_a.(i) mv_b.(i)
                  else Anneal.apply_relocate order mv_a.(i) mv_b.(i);
                  Layout_eval.miss_ratio_of_order engine order))
        in
        let delta_digest = digest_of delta_ratios in
        let full_digest = digest_of full_ratios in
        if delta_digest <> full_digest then begin
          Printf.eprintf
            "FATAL: scenario %s: delta ratios diverge from full recompute (digest %s vs %s)\n%!"
            label delta_digest full_digest;
          exit 1
        end;
        let st = delta_stats in
        let denom = float_of_int st.Layout_eval.Delta.moves in
        let dirty_pct =
          100.0
          *. float_of_int st.Layout_eval.Delta.dirty_sets
          /. (denom *. float_of_int params.C.Params.num_sets)
        in
        let replayed_pct =
          100.0
          *. float_of_int st.Layout_eval.Delta.replayed_events
          /. (denom *. float_of_int trace_len)
        in
        let speedup = float_of_int full_ns /. float_of_int delta_ns in
        Printf.printf
          "  %-12s nominal %3d%%  measured dirty %5.1f%%  replayed %5.1f%%  full %8.2f ms  \
           delta %8.2f ms  %6.2fx\n%!"
          label nominal_pct dirty_pct replayed_pct
          (float_of_int full_ns /. 1e6)
          (float_of_int delta_ns /. 1e6)
          speedup;
        (label, nominal_pct, dirty_pct, replayed_pct, full_ns, delta_ns, speedup, delta_digest, st)
      )
      scenarios
  in
  (* (b) the anneal wall: `Full vs `Delta at max_span 2, same seed, same
     stream — results must be byte-identical before walls are compared. *)
  let steps = if quick then 100 else 400 in
  let anneal_seed = 11 in
  let run mode =
    wall (fun () ->
        Anneal.search ~seed:anneal_seed ~steps ~max_span:2 ~mode ~params program trace)
  in
  let full_r, full_ns = run `Full in
  let delta_r, delta_ns = run `Delta in
  let identical =
    full_r.Anneal.order = delta_r.Anneal.order
    && Int64.bits_of_float full_r.Anneal.miss_ratio
       = Int64.bits_of_float delta_r.Anneal.miss_ratio
  in
  if not identical then begin
    Printf.eprintf "FATAL: anneal results differ across evaluation modes — delta path is wrong\n%!";
    exit 1
  end;
  let anneal_speedup = float_of_int full_ns /. float_of_int delta_ns in
  Printf.printf
    "  anneal %d steps (max_span 2): full %.2f ms -> delta %.2f ms (%.2fx), miss %.4f (identical)\n%!"
    steps
    (float_of_int full_ns /. 1e6)
    (float_of_int delta_ns /. 1e6)
    anneal_speedup full_r.Anneal.miss_ratio;
  List.iter
    (fun (label, _, _, _, full_ns, delta_ns, _, _, _) ->
      if full_ns <= 0 || delta_ns <= 0 then begin
        Printf.eprintf "FATAL: non-positive timing in scenario %s\n%!" label;
        exit 1
      end)
    scenario_rows;
  if (not quick) && anneal_speedup < 3.0 then begin
    Printf.eprintf
      "FATAL: delta anneal speedup %.2fx < 3x over full recompute — the incremental path has \
       regressed\n%!"
      anneal_speedup;
    exit 1
  end;
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-layout-eval-delta/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        ( "params",
          U.Json.Obj
            [
              ("program", U.Json.Str (Colayout_ir.Program.name program));
              ("num_funcs", U.Json.Int nf);
              ("trace_len", U.Json.Int trace_len);
              ("cache", U.Json.Str (C.Params.to_string params));
              ("num_sets", U.Json.Int params.C.Params.num_sets);
              ("moves_per_scenario", U.Json.Int moves);
              ("anneal_steps", U.Json.Int steps);
              ("anneal_max_span", U.Json.Int 2);
            ] );
        cores_field ();
        ( "scenarios",
          U.Json.Arr
            (List.map
               (fun (label, nominal_pct, dirty_pct, replayed_pct, full_ns, delta_ns, speedup,
                     digest, st) ->
                 U.Json.Obj
                   [
                     ("label", U.Json.Str label);
                     ("nominal_dirty_pct", U.Json.Int nominal_pct);
                     ("measured_dirty_pct", U.Json.Float dirty_pct);
                     ("replayed_events_pct", U.Json.Float replayed_pct);
                     ("full_wall_ns", U.Json.Int full_ns);
                     ("delta_wall_ns", U.Json.Int delta_ns);
                     ("speedup", U.Json.Float speedup);
                     ("digest", U.Json.Str digest);
                     ("digests_equal", U.Json.Bool true);
                     ("resyncs", U.Json.Int st.Layout_eval.Delta.resyncs);
                     ("full_walks", U.Json.Int st.Layout_eval.Delta.full_walks);
                   ])
               scenario_rows) );
        ( "anneal",
          U.Json.Obj
            [
              ("steps", U.Json.Int steps);
              ("full_wall_ns", U.Json.Int full_ns);
              ("delta_wall_ns", U.Json.Int delta_ns);
              ("speedup", U.Json.Float anneal_speedup);
              ("miss_ratio", U.Json.Float delta_r.Anneal.miss_ratio);
              ("identical_results", U.Json.Bool identical);
            ] );
        runtime_field t_start;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" path

(* ---------------------------------------------------------- Part 0.97 *)

(* Strong/weak scaling study (BENCH_scaling.json, schema
   colayout/bench-scaling/v1): the work-stealing pool measured against the
   batch shapes the optimizer search actually produces. A pool task is a
   *group* of candidate evaluations run on a per-worker engine:

   - uniform: every task is a single candidate — the homogeneous batch a
     fixed contiguous split handles adequately;
   - skewed: a few front-loaded "giant" tasks carrying many candidates
     ahead of a tail of singletons — the heterogeneous shape of §IV's
     defensiveness/politeness sweep, which pins the heavy tasks plus a
     full share of the tail onto the first chunk under a fixed split.

   Strong scaling holds total work fixed while jobs grows, and runs each
   width under both schedulers: work-stealing (one pool task per group)
   and a reproduction of the PR-3 fixed-chunk schedule (the contiguous
   split committed up front as [jobs] meta-tasks through the same pool, so
   only the scheduling differs). Weak scaling replicates the base workload
   [jobs] times, so per-worker work is constant and efficiency is T1/Tj.
   Every pooled run is digest-compared against a jobs = 1 run of the same
   workload — stealing may move work, never change results (FATAL in every
   mode). The magnitude gates are cores-gated like every other bench:
   full mode on a host with >= 2 cores FATALs if skewed-batch throughput
   under work-stealing is not >= 1.3x the fixed-chunk baseline at
   gate_jobs = min(cores, jobs_max) (at wider jobs the workers
   oversubscribe the cores and the OS scheduler, not the pool, sets the
   makespan), or if the best uniform strong-scaling speedup falls below
   1.0; quick mode and single-core hosts only require positive walls. *)

let run_scaling_bench ~quick ~path =
  let t_start = U.Metrics.default_clock () in
  Printf.printf "== Scaling study: work-stealing vs fixed chunks, strong/weak curves ==\n%!";
  let params = layout_eval_params in
  let program = W.Gen.build layout_eval_profile in
  let nf = Colayout_ir.Program.num_funcs program in
  let max_blocks = if quick then 6_000 else 30_000 in
  let trace = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks ()) in
  let jobs_max = max 4 (U.Pool.default_jobs ()) in
  let gate_jobs = max 1 (min (cores_available ()) jobs_max) in
  let jobs_list = List.init jobs_max (fun i -> i + 1) in
  Printf.printf "   (%d functions, %d-event trace, jobs 1..%d, %s)\n%!" nf
    (T.Trace.length trace) jobs_max (C.Params.to_string params);
  (* One engine per worker slot, shared by every run below: a task indexes
     scratch by worker id only, so ratios cannot depend on scheduling. *)
  let engines = Array.init jobs_max (fun _ -> Layout_eval.create ~params program trace) in
  let prng = U.Prng.create ~seed:42 in
  let order () =
    let a = Array.init nf Fun.id in
    U.Prng.shuffle prng a;
    a
  in
  let small_tasks = if quick then 12 else 48 in
  let giants = 2 in
  let giant_evals = if quick then 6 else 24 in
  let mk_uniform n = Array.init n (fun _ -> [| order () |]) in
  let mk_skewed ~giants ~small =
    Array.append
      (Array.init giants (fun _ -> Array.init giant_evals (fun _ -> order ())))
      (Array.init small (fun _ -> [| order () |]))
  in
  let total_evals groups = Array.fold_left (fun acc g -> acc + Array.length g) 0 groups in
  let wall f =
    let t0 = U.Metrics.default_clock () in
    let r = f () in
    (r, Int64.to_int (Int64.sub (U.Metrics.default_clock ()) t0))
  in
  let digest_of ratios =
    Digest.to_hex
      (Digest.string
         (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%.17g") ratios))))
  in
  let eval_group ~worker g =
    Array.map (fun o -> Layout_eval.miss_ratio_of_order engines.(worker) o) g
  in
  let flatten parts = Array.concat (Array.to_list parts) in
  (* Work-stealing run: one pool task per group; the pool's initial
     contiguous split is rebalanced by idle workers stealing. *)
  let run_steal ~jobs groups =
    let metrics = U.Metrics.create () in
    let ratios, ns =
      U.Pool.with_pool ~jobs ~metrics (fun pool ->
          wall (fun () ->
              flatten
                (U.Pool.map_array_w pool (fun ~worker g -> eval_group ~worker g) groups)))
    in
    let steals = Option.value ~default:0 (U.Metrics.find_counter metrics "pool.steals") in
    (ratios, ns, steals)
  in
  (* Fixed-chunk baseline: the PR-3 schedule reproduced on today's pool.
     The contiguous split is committed up front as [jobs] meta-tasks, so
     no task boundary exists inside a chunk for stealing to exploit. *)
  let run_fixed ~jobs groups =
    let n = Array.length groups in
    let chunk = (n + jobs - 1) / jobs in
    let chunks = Array.init jobs (fun i -> (min n (i * chunk), min n ((i + 1) * chunk))) in
    U.Pool.with_pool ~jobs (fun pool ->
        wall (fun () ->
            flatten
              (U.Pool.map_array_w pool
                 (fun ~worker (lo, hi) ->
                   flatten
                     (Array.init (hi - lo) (fun k -> eval_group ~worker groups.(lo + k))))
                 chunks)))
  in
  let check_positive label ns =
    if ns <= 0 then begin
      Printf.eprintf "FATAL: non-positive wall for %s\n%!" label;
      exit 1
    end
  in
  (* --- strong scaling: fixed total work, growing jobs --------------- *)
  let strong_shape label groups =
    let total = total_evals groups in
    let seq_ratios, _, _ = run_steal ~jobs:1 groups in
    let reference = digest_of seq_ratios in
    let rows =
      List.map
        (fun jobs ->
          let s_ratios, s_ns, steals = run_steal ~jobs groups in
          let f_ratios, f_ns = run_fixed ~jobs groups in
          if digest_of s_ratios <> reference || digest_of f_ratios <> reference then begin
            Printf.eprintf
              "FATAL: %s results differ from jobs=1 at jobs=%d — determinism broken\n%!"
              label jobs;
            exit 1
          end;
          check_positive (Printf.sprintf "strong %s steal jobs=%d" label jobs) s_ns;
          check_positive (Printf.sprintf "strong %s fixed jobs=%d" label jobs) f_ns;
          Printf.printf
            "  strong %-8s jobs=%d  steal %8.2f ms  fixed %8.2f ms  (%4d steals, digest ok)\n%!"
            label jobs
            (float_of_int s_ns /. 1e6)
            (float_of_int f_ns /. 1e6)
            steals;
          (jobs, s_ns, f_ns, steals))
        jobs_list
    in
    (label, total, reference, rows)
  in
  let strong_uniform = strong_shape "uniform" (mk_uniform (giants * giant_evals + small_tasks)) in
  let strong_skewed = strong_shape "skewed" (mk_skewed ~giants ~small:small_tasks) in
  let row_at rows jobs = List.find (fun (j, _, _, _) -> j = jobs) rows in
  let base_of rows = let _, s, _, _ = row_at rows 1 in float_of_int s in
  let ratio_of rows jobs =
    let _, s, f, _ = row_at rows jobs in
    float_of_int f /. float_of_int s
  in
  let best_uniform_speedup =
    let _, _, _, rows = strong_uniform in
    let base = base_of rows in
    List.fold_left (fun acc (_, s, _, _) -> Float.max acc (base /. float_of_int s)) 0.0 rows
  in
  let skew_ratio_gate = let _, _, _, rows = strong_skewed in ratio_of rows gate_jobs in
  let skew_ratio_max = let _, _, _, rows = strong_skewed in ratio_of rows jobs_max in
  Printf.printf
    "  skewed steal-vs-fixed: %.2fx at jobs=%d (gate), %.2fx at jobs=%d (max)\n%!"
    skew_ratio_gate gate_jobs skew_ratio_max jobs_max;
  (* --- weak scaling: workload grows with jobs ----------------------- *)
  let weak_shape label mk_base =
    let rows =
      List.map
        (fun jobs ->
          let groups = flatten (Array.init jobs (fun _ -> mk_base ())) in
          let s_ratios, s_ns, _ = run_steal ~jobs groups in
          let ok =
            jobs = 1
            ||
            let seq_ratios, _, _ = run_steal ~jobs:1 groups in
            digest_of seq_ratios = digest_of s_ratios
          in
          if not ok then begin
            Printf.eprintf
              "FATAL: weak %s results differ from jobs=1 at jobs=%d — determinism broken\n%!"
              label jobs;
            exit 1
          end;
          check_positive (Printf.sprintf "weak %s jobs=%d" label jobs) s_ns;
          (jobs, total_evals groups, s_ns))
        jobs_list
    in
    let base = match rows with (1, _, ns) :: _ -> float_of_int ns | _ -> assert false in
    List.map
      (fun (jobs, evals, ns) ->
        let eff = base /. float_of_int ns in
        Printf.printf "  weak   %-8s jobs=%d  %6d evals  %8.2f ms  (efficiency %.2f)\n%!"
          label jobs evals
          (float_of_int ns /. 1e6)
          eff;
        (jobs, evals, ns, eff))
      rows
    |> fun r -> (label, r)
  in
  let weak_uniform = weak_shape "uniform" (fun () -> mk_uniform (if quick then 8 else 24)) in
  let weak_skewed =
    weak_shape "skewed" (fun () -> mk_skewed ~giants:1 ~small:(if quick then 6 else 12))
  in
  (* --- cores-gated magnitude assertions ----------------------------- *)
  if (not quick) && cores_available () >= 2 then begin
    if skew_ratio_gate < 1.3 then begin
      Printf.eprintf
        "FATAL: skewed-batch work-stealing throughput %.2fx < 1.3x the fixed-chunk \
         baseline at jobs=%d — the scheduler upgrade has regressed\n%!"
        skew_ratio_gate gate_jobs;
      exit 1
    end;
    if best_uniform_speedup < 1.0 then begin
      Printf.eprintf
        "FATAL: best uniform strong-scaling speedup %.2fx < 1.0x — the pool is slower \
         than sequential on a multi-core host\n%!"
        best_uniform_speedup;
      exit 1
    end
  end;
  let strong_json (label, total, digest, rows) =
    let base = base_of rows in
    U.Json.Obj
      [
        ("shape", U.Json.Str label);
        ("total_evals", U.Json.Int total);
        ("digest", U.Json.Str digest);
        ( "runs",
          U.Json.Arr
            (List.map
               (fun (jobs, s_ns, f_ns, steals) ->
                 U.Json.Obj
                   [
                     ("jobs", U.Json.Int jobs);
                     ("steal_wall_ns", U.Json.Int s_ns);
                     ("fixed_wall_ns", U.Json.Int f_ns);
                     ("steals", U.Json.Int steals);
                     ("steal_speedup", U.Json.Float (base /. float_of_int s_ns));
                     ("fixed_speedup", U.Json.Float (base /. float_of_int f_ns));
                     ( "steal_vs_fixed",
                       U.Json.Float (float_of_int f_ns /. float_of_int s_ns) );
                   ])
               rows) );
      ]
  in
  let weak_json (label, rows) =
    U.Json.Obj
      [
        ("shape", U.Json.Str label);
        ( "runs",
          U.Json.Arr
            (List.map
               (fun (jobs, evals, ns, eff) ->
                 U.Json.Obj
                   [
                     ("jobs", U.Json.Int jobs);
                     ("evals", U.Json.Int evals);
                     ("wall_ns", U.Json.Int ns);
                     ("efficiency", U.Json.Float eff);
                     ("digest_ok", U.Json.Bool true);
                   ])
               rows) );
      ]
  in
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-scaling/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        cores_field ();
        ("jobs_max", U.Json.Int jobs_max);
        ("gate_jobs", U.Json.Int gate_jobs);
        ( "params",
          U.Json.Obj
            [
              ("program", U.Json.Str (Colayout_ir.Program.name program));
              ("num_funcs", U.Json.Int nf);
              ("trace_len", U.Json.Int (T.Trace.length trace));
              ("cache", U.Json.Str (C.Params.to_string params));
              ("small_tasks", U.Json.Int small_tasks);
              ("giants", U.Json.Int giants);
              ("giant_evals", U.Json.Int giant_evals);
            ] );
        ("strong", U.Json.Arr [ strong_json strong_uniform; strong_json strong_skewed ]);
        ("weak", U.Json.Arr [ weak_json weak_uniform; weak_json weak_skewed ]);
        ("identical_results", U.Json.Bool true);
        ("skewed_steal_vs_fixed_at_gate_jobs", U.Json.Float skew_ratio_gate);
        ("skewed_steal_vs_fixed_at_max_jobs", U.Json.Float skew_ratio_max);
        ("best_uniform_strong_speedup", U.Json.Float best_uniform_speedup);
        runtime_field t_start;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" path

(* -------------------------- streaming profile-ingest service bench *)

(* Throughput study for the `repro serve` ingest layer and its exactness
   contract. One stream of synthetic users (per-user seed/fuel from each
   user's own Prng stream, Serve's input distribution) is pre-generated
   once; every (shards x jobs) grid cell then ingests the identical
   stream through [Ingest] and must reproduce the batch-kernel digests
   on the concatenation bit-for-bit — a mismatch anywhere is FATAL in
   every mode. A bounded section re-runs under tight per-shard caps plus
   decay and asserts the approximation is deterministic across jobs
   counts and repeats, that the caps hold at flush boundaries, and that
   eviction/decay actually fired. One end-to-end [Serve.run] (generation
   + ingest + epoch re-optimization) rounds out the manifest with
   service-level throughput and latency percentiles. *)
let run_serve_bench ~quick ~path =
  let t_start = U.Metrics.default_clock () in
  Printf.printf "== Streaming ingest service: sharded online vs batch kernels ==\n\n%!";
  let program_name = "429.mcf" in
  let users = if quick then 10 else 96 in
  let max_fuel = if quick then 1_500 else 6_000 in
  let seed = 1 in
  let trg_window = 64 and affinity_w = 16 in
  let program = W.Spec.build program_name in
  let num_symbols = Colayout_ir.Program.num_blocks program in
  (* Serve's per-user distribution, replicated so the grid cells can
     share one pre-generated stream. *)
  let gen u =
    let prng = U.Prng.create ~seed:(seed + ((u + 1) * 0x9E3779B1)) in
    let input_seed = U.Prng.int prng 1_000_000_000 in
    let fuel = (max_fuel / 2) + U.Prng.int prng ((max_fuel / 2) + 1) in
    (E.Interp.run program (E.Interp.test_input ~seed:input_seed ~max_blocks:fuel ()))
      .E.Interp.bb_trace
  in
  let traces = Array.init users gen in
  let total_events = Array.fold_left (fun a t -> a + T.Trace.length t) 0 traces in
  let batch_trg, batch_aff =
    Ingest.batch_digests_parts ~trg_window ~affinity_w (Array.to_list traces)
  in
  let clock = U.Metrics.default_clock in
  let wall f =
    let t0 = clock () in
    let r = f () in
    (r, Int64.to_int (Int64.sub (clock ()) t0))
  in
  let per_sec count ns =
    if ns <= 0 then 0.0 else float_of_int count *. 1e9 /. float_of_int ns
  in
  (* --- exact grid: shards x jobs, all digest-checked ---------------- *)
  let grid_shards = [ 1; 2; 4 ] and grid_jobs = [ 1; 2; 4 ] in
  let cell ~shards ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let cfg = Ingest.config ~num_symbols ~shards ~trg_window ~affinity_w () in
        let ing = Ingest.create ~pool cfg in
        let (), ingest_ns = wall (fun () -> Array.iter (Ingest.ingest_trace ing) traces) in
        let c, merge_ns = wall (fun () -> Ingest.finalize ing) in
        let trg_d, aff_d = Ingest.consensus_digests c in
        let st = Ingest.stats ing in
        if trg_d <> batch_trg || aff_d <> batch_aff then begin
          Printf.eprintf
            "FATAL: online digests diverge from the batch kernels at shards=%d jobs=%d\n%!"
            shards jobs;
          exit 1
        end;
        if ingest_ns <= 0 then begin
          Printf.eprintf "FATAL: non-positive ingest wall at shards=%d jobs=%d\n%!" shards
            jobs;
          exit 1
        end;
        Printf.printf
          "  shards=%d jobs=%d  ingest %8.2f ms  merge %6.2f ms  %8.0f ev/s  digests ok\n%!"
          shards jobs
          (float_of_int ingest_ns /. 1e6)
          (float_of_int merge_ns /. 1e6)
          (per_sec total_events ingest_ns);
        (shards, jobs, ingest_ns, merge_ns, st))
  in
  let grid =
    List.concat_map
      (fun shards -> List.map (fun jobs -> cell ~shards ~jobs) grid_jobs)
      grid_shards
  in
  let serial_ns =
    match List.find (fun (s, j, _, _, _) -> s = 1 && j = 1) grid with
    | _, _, ns, _, _ -> ns
  in
  let best_parallel_vs_serial =
    List.fold_left
      (fun best (_, jobs, ns, _, _) ->
        if jobs > 1 then Float.max best (float_of_int serial_ns /. float_of_int ns)
        else best)
      0.0 grid
  in
  (* --- bounded-memory mode: deterministic approximation ------------- *)
  let trg_cap = 192 and wits_cap = 256 and decay_shift = 1 in
  let epoch_traces = if quick then 2 else 4 in
  let bounded_run ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let cfg =
          Ingest.config ~num_symbols ~shards:2 ~trg_window ~affinity_w ~trg_cap ~wits_cap
            ~decay_shift ~epoch_traces ()
        in
        let ing = Ingest.create ~pool cfg in
        Array.iter (Ingest.ingest_trace ing) traces;
        let d = Ingest.consensus_digests (Ingest.finalize ing) in
        (d, Ingest.stats ing))
  in
  let bounded_ref, bounded_stats = bounded_run ~jobs:1 in
  let bounded_rows =
    List.map
      (fun jobs ->
        let d, st = bounded_run ~jobs in
        (jobs, d, st))
      [ 1; 2 ]
  in
  let repeat_d, _ = bounded_run ~jobs:2 in
  let bounded_deterministic =
    repeat_d = bounded_ref && List.for_all (fun (_, d, _) -> d = bounded_ref) bounded_rows
  in
  let caps_respected (st : Ingest.stats) =
    st.Ingest.trg_peak_shard <= trg_cap && st.Ingest.wits_peak_shard <= wits_cap
  in
  let bounded_caps_ok = List.for_all (fun (_, _, st) -> caps_respected st) bounded_rows in
  let bounded_evicted =
    bounded_stats.Ingest.trg_evicted > 0 && bounded_stats.Ingest.wits_evicted > 0
    && bounded_stats.Ingest.decay_dropped > 0
  in
  if not bounded_deterministic then begin
    Printf.eprintf "FATAL: bounded-mode ingest is not deterministic across jobs counts\n%!";
    exit 1
  end;
  if not bounded_caps_ok then begin
    Printf.eprintf
      "FATAL: a shard table exceeded its cap at a flush boundary (trg %d/%d, wits %d/%d)\n%!"
      bounded_stats.Ingest.trg_peak_shard trg_cap bounded_stats.Ingest.wits_peak_shard
      wits_cap;
    exit 1
  end;
  if not bounded_evicted then begin
    Printf.eprintf
      "FATAL: bounded-mode pressure knobs did not fire (evicted trg=%d wits=%d decay=%d)\n%!"
      bounded_stats.Ingest.trg_evicted bounded_stats.Ingest.wits_evicted
      bounded_stats.Ingest.decay_dropped;
    exit 1
  end;
  Printf.printf
    "  bounded: caps %d/%d held, evicted trg=%d wits=%d, decay dropped %d, deterministic\n%!"
    trg_cap wits_cap bounded_stats.Ingest.trg_evicted bounded_stats.Ingest.wits_evicted
    bounded_stats.Ingest.decay_dropped;
  (* --- one end-to-end service run (generation + epochs + reopt) ----- *)
  let serve_summary =
    U.Pool.with_pool ~jobs:2 (fun pool ->
        let cfg =
          H.Serve.config ~users:(if quick then 8 else 48)
            ~seed ~fuel:max_fuel ~shards:2 ~trg_window ~affinity_w
            ~epoch_traces:(if quick then 4 else 12)
            ~reopt_steps:(if quick then 40 else 120)
            ~verify:true ~program:program_name ()
        in
        H.Serve.run ~pool cfg)
  in
  (match serve_summary.H.Serve.digests_match with
  | Some true -> ()
  | _ ->
    Printf.eprintf "FATAL: end-to-end Serve.run digests diverge from the batch kernels\n%!";
    exit 1);
  if serve_summary.H.Serve.traces_per_sec <= 0.0 then begin
    Printf.eprintf "FATAL: non-positive service throughput\n%!";
    exit 1
  end;
  Printf.printf "  serve: %.1f traces/s, %.0f events/s, trace p50/p95/p99 = %.0f/%.0f/%.0f us\n%!"
    serve_summary.H.Serve.traces_per_sec serve_summary.H.Serve.events_per_sec
    (serve_summary.H.Serve.trace_p50_ns /. 1e3)
    (serve_summary.H.Serve.trace_p95_ns /. 1e3)
    (serve_summary.H.Serve.trace_p99_ns /. 1e3);
  (* On a multicore host the best pooled grid cell must at least hold its
     own against the serial walker (a single walker no longer uses the
     pool, so this bounds the pool's overhead; generation is outside
     this timing). One core: positivity only. *)
  if (not quick) && cores_available () >= 2 && best_parallel_vs_serial < 0.8 then begin
    Printf.eprintf
      "FATAL: best pooled ingest is %.2fx serial (< 0.8x) on a %d-core host\n%!"
      best_parallel_vs_serial (cores_available ());
    exit 1
  end;
  let grid_json =
    U.Json.Arr
      (List.map
         (fun (shards, jobs, ingest_ns, merge_ns, (st : Ingest.stats)) ->
           U.Json.Obj
             [
               ("shards", U.Json.Int shards);
               ("jobs", U.Json.Int jobs);
               ("ingest_wall_ns", U.Json.Int ingest_ns);
               ("merge_ns", U.Json.Int merge_ns);
               ("events_per_sec", U.Json.Float (per_sec total_events ingest_ns));
               ("traces_per_sec", U.Json.Float (per_sec users ingest_ns));
               ( "edge_ops_per_sec",
                 U.Json.Float (per_sec (st.Ingest.trg_ops + st.Ingest.wit_ops) ingest_ns) );
               ("flushes", U.Json.Int st.Ingest.flushes);
               ("digests_match", U.Json.Bool true);
             ])
         grid)
  in
  let bounded_json =
    U.Json.Obj
      [
        ("shards", U.Json.Int 2);
        ("trg_cap", U.Json.Int trg_cap);
        ("wits_cap", U.Json.Int wits_cap);
        ("decay_shift", U.Json.Int decay_shift);
        ("epoch_traces", U.Json.Int epoch_traces);
        ("deterministic", U.Json.Bool bounded_deterministic);
        ("caps_respected", U.Json.Bool bounded_caps_ok);
        ("evictions_fired", U.Json.Bool bounded_evicted);
        ( "runs",
          U.Json.Arr
            (List.map
               (fun (jobs, (trg_d, aff_d), (st : Ingest.stats)) ->
                 U.Json.Obj
                   [
                     ("jobs", U.Json.Int jobs);
                     ("trg_digest", U.Json.Str trg_d);
                     ("affine_digest", U.Json.Str aff_d);
                     ("trg_peak_shard", U.Json.Int st.Ingest.trg_peak_shard);
                     ("wits_peak_shard", U.Json.Int st.Ingest.wits_peak_shard);
                     ("trg_evicted", U.Json.Int st.Ingest.trg_evicted);
                     ("wits_evicted", U.Json.Int st.Ingest.wits_evicted);
                     ("decay_dropped", U.Json.Int st.Ingest.decay_dropped);
                     ("dead_pruned", U.Json.Int st.Ingest.dead_pruned);
                   ])
               bounded_rows) );
      ]
  in
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-serve/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        cores_field ();
        ( "params",
          U.Json.Obj
            [
              ("program", U.Json.Str program_name);
              ("users", U.Json.Int users);
              ("max_fuel", U.Json.Int max_fuel);
              ("seed", U.Json.Int seed);
              ("num_symbols", U.Json.Int num_symbols);
              ("total_events", U.Json.Int total_events);
              ("trg_window", U.Json.Int trg_window);
              ("affinity_w", U.Json.Int affinity_w);
            ] );
        ( "batch",
          U.Json.Obj
            [
              ("trg_digest", U.Json.Str batch_trg);
              ("affine_digest", U.Json.Str batch_aff);
            ] );
        ("grid", grid_json);
        ("digests_identical", U.Json.Bool true);
        ("best_parallel_vs_serial", U.Json.Float best_parallel_vs_serial);
        ("bounded", bounded_json);
        ("serve", H.Serve.summary_to_json serve_summary);
        runtime_field t_start;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" path

(* Parallel multi-walker ingest: per-stream LRU walkers with the
   witness/occurrence merge algebra. Every grid cell's finalize digests
   must be byte-identical to the merged batch-kernel reference at any
   (walkers, shards, jobs) point — FATAL in every mode. On a >= 2-core
   host the walkers=cores row must beat the serial single-walker row by
   >= 1.5x (positivity-only on one core, per the PR 4 convention). *)
let run_ingest_par_bench ~quick ~path =
  let t_start = U.Metrics.default_clock () in
  Printf.printf "== Parallel multi-walker ingest: partitioned streams vs batch kernels ==\n\n%!";
  let program_name = "429.mcf" in
  let users = if quick then 10 else 96 in
  let max_fuel = if quick then 1_500 else 6_000 in
  let seed = 1 in
  let trg_window = 64 and affinity_w = 16 in
  let program = W.Spec.build program_name in
  let num_symbols = Colayout_ir.Program.num_blocks program in
  let gen u =
    let prng = U.Prng.create ~seed:(seed + ((u + 1) * 0x9E3779B1)) in
    let input_seed = U.Prng.int prng 1_000_000_000 in
    let fuel = (max_fuel / 2) + U.Prng.int prng ((max_fuel / 2) + 1) in
    (E.Interp.run program (E.Interp.test_input ~seed:input_seed ~max_blocks:fuel ()))
      .E.Interp.bb_trace
  in
  let traces = Array.init users gen in
  let total_events = Array.fold_left (fun a t -> a + T.Trace.length t) 0 traces in
  let batch_trg, batch_aff =
    Ingest.batch_digests_parts ~trg_window ~affinity_w (Array.to_list traces)
  in
  let cores = cores_available () in
  let with_cores base = List.sort_uniq compare (if cores > 1 then cores :: base else base) in
  let walkers_list = with_cores [ 1; 2; 4 ] in
  let shards_list = [ 1; 2 ] in
  let jobs_list = with_cores [ 1; 2; 4 ] in
  let clock = U.Metrics.default_clock in
  let wall f =
    let t0 = clock () in
    let r = f () in
    (r, Int64.to_int (Int64.sub (clock ()) t0))
  in
  let per_sec count ns =
    if ns <= 0 then 0.0 else float_of_int count *. 1e9 /. float_of_int ns
  in
  let cell ~walkers ~shards ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let cfg = Ingest.config ~num_symbols ~walkers ~shards ~trg_window ~affinity_w () in
        let ing = Ingest.create ~pool cfg in
        let (), ingest_ns = wall (fun () -> Array.iter (Ingest.ingest_trace ing) traces) in
        let c, merge_ns = wall (fun () -> Ingest.finalize ing) in
        let trg_d, aff_d = Ingest.consensus_digests c in
        let st = Ingest.stats ing in
        if trg_d <> batch_trg || aff_d <> batch_aff then begin
          Printf.eprintf
            "FATAL: multi-walker digests diverge from the batch kernels at walkers=%d \
             shards=%d jobs=%d\n%!"
            walkers shards jobs;
          exit 1
        end;
        if ingest_ns <= 0 || merge_ns <= 0 then begin
          Printf.eprintf "FATAL: non-positive wall at walkers=%d shards=%d jobs=%d\n%!"
            walkers shards jobs;
          exit 1
        end;
        Printf.printf
          "  walkers=%d shards=%d jobs=%d  ingest %8.2f ms  merge %6.2f ms  %8.0f ev/s  \
           digests ok\n%!"
          walkers shards jobs
          (float_of_int ingest_ns /. 1e6)
          (float_of_int merge_ns /. 1e6)
          (per_sec total_events ingest_ns);
        (walkers, shards, jobs, ingest_ns, merge_ns, trg_d, aff_d, st))
  in
  let grid =
    List.concat_map
      (fun walkers ->
        List.concat_map
          (fun shards -> List.map (fun jobs -> cell ~walkers ~shards ~jobs) jobs_list)
          shards_list)
      walkers_list
  in
  let ingest_ns_of (_, _, _, ns, _, _, _, _) = ns in
  let serial =
    List.find (fun (wk, s, j, _, _, _, _, _) -> wk = 1 && s = 1 && j = 1) grid
  in
  let serial_ns = ingest_ns_of serial in
  let gate_walkers = if cores > 1 then cores else 1 in
  let gate_jobs = if cores > 1 then cores else 1 in
  let gate_cell =
    List.find
      (fun (wk, s, j, _, _, _, _, _) -> wk = gate_walkers && s = 2 && j = gate_jobs)
      grid
  in
  let gate_speedup = float_of_int serial_ns /. float_of_int (ingest_ns_of gate_cell) in
  if (not quick) && cores >= 2 && gate_speedup < 1.5 then begin
    Printf.eprintf
      "FATAL: walkers=%d ingest is %.2fx serial (< 1.5x) on a %d-core host\n%!" gate_walkers
      gate_speedup cores;
    exit 1
  end;
  Printf.printf "  gate: walkers=%d jobs=%d is %.2fx the serial walker (%d cores)\n%!"
    gate_walkers gate_jobs gate_speedup cores;
  (* --- bounded mode: per-walker-count deterministic approximation ----- *)
  let trg_cap = 192 and wits_cap = 256 and decay_shift = 1 in
  let epoch_traces = if quick then 2 else 4 in
  let bounded_run ~walkers ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let cfg =
          Ingest.config ~num_symbols ~walkers ~shards:2 ~trg_window ~affinity_w ~trg_cap
            ~wits_cap ~decay_shift ~epoch_traces ()
        in
        let ing = Ingest.create ~pool cfg in
        Array.iter (Ingest.ingest_trace ing) traces;
        let d = Ingest.consensus_digests (Ingest.finalize ing) in
        (d, Ingest.stats ing))
  in
  let bounded_rows =
    List.map
      (fun walkers ->
        let ref_d, ref_st = bounded_run ~walkers ~jobs:1 in
        let j2_d, _ = bounded_run ~walkers ~jobs:2 in
        let rep_d, _ = bounded_run ~walkers ~jobs:2 in
        let deterministic = j2_d = ref_d && rep_d = ref_d in
        let caps_ok =
          ref_st.Ingest.trg_peak_shard <= trg_cap && ref_st.Ingest.wits_peak_shard <= wits_cap
        in
        if not deterministic then begin
          Printf.eprintf
            "FATAL: bounded-mode ingest at walkers=%d is not deterministic across jobs\n%!"
            walkers;
          exit 1
        end;
        if not caps_ok then begin
          Printf.eprintf
            "FATAL: a walker shard table exceeded its cap at walkers=%d (trg %d/%d, wits \
             %d/%d)\n%!"
            walkers ref_st.Ingest.trg_peak_shard trg_cap ref_st.Ingest.wits_peak_shard
            wits_cap;
          exit 1
        end;
        (walkers, ref_d, ref_st))
      [ 1; 2 ]
  in
  Printf.printf "  bounded: caps %d/%d held, per-walker-count deterministic across jobs\n%!"
    trg_cap wits_cap;
  (* --- per-walker latency histograms survive the dispatch fold -------- *)
  let hist_walkers = 2 in
  let walker_hist =
    U.Pool.with_pool ~jobs:2 (fun pool ->
        let metrics = U.Metrics.create () in
        let cfg =
          Ingest.config ~num_symbols ~walkers:hist_walkers ~shards:2 ~trg_window ~affinity_w ()
        in
        let ing = Ingest.create ~pool ~metrics cfg in
        Array.iter (Ingest.ingest_trace ing) traces;
        ignore (Ingest.finalize ing);
        List.init hist_walkers (fun i ->
            let h =
              U.Metrics.histogram metrics (Printf.sprintf "ingest.walker.%d.trace_ns" i)
            in
            (i, U.Metrics.observations h, U.Metrics.percentile h 0.50)))
  in
  let hist_sum = List.fold_left (fun a (_, n, _) -> a + n) 0 walker_hist in
  if hist_sum <> users then begin
    Printf.eprintf
      "FATAL: per-walker latency histograms cover %d traces, expected %d\n%!" hist_sum users;
    exit 1
  end;
  Printf.printf "  histograms: %d per-walker trace observations folded through the pool\n%!"
    hist_sum;
  let grid_json =
    U.Json.Arr
      (List.map
         (fun (walkers, shards, jobs, ingest_ns, merge_ns, trg_d, aff_d, (st : Ingest.stats)) ->
           U.Json.Obj
             [
               ("walkers", U.Json.Int walkers);
               ("shards", U.Json.Int shards);
               ("jobs", U.Json.Int jobs);
               ("ingest_wall_ns", U.Json.Int ingest_ns);
               ("merge_ns", U.Json.Int merge_ns);
               ("events_per_sec", U.Json.Float (per_sec total_events ingest_ns));
               ("traces_per_sec", U.Json.Float (per_sec users ingest_ns));
               ( "edge_ops_per_sec",
                 U.Json.Float (per_sec (st.Ingest.trg_ops + st.Ingest.wit_ops) ingest_ns) );
               ("flushes", U.Json.Int st.Ingest.flushes);
               ("dispatches", U.Json.Int st.Ingest.dispatches);
               ("trg_digest", U.Json.Str trg_d);
               ("affine_digest", U.Json.Str aff_d);
               ("digests_match", U.Json.Bool true);
             ])
         grid)
  in
  let bounded_json =
    U.Json.Obj
      [
        ("shards", U.Json.Int 2);
        ("trg_cap", U.Json.Int trg_cap);
        ("wits_cap", U.Json.Int wits_cap);
        ("decay_shift", U.Json.Int decay_shift);
        ("epoch_traces", U.Json.Int epoch_traces);
        ("deterministic", U.Json.Bool true);
        ("caps_respected", U.Json.Bool true);
        ( "runs",
          U.Json.Arr
            (List.map
               (fun (walkers, (trg_d, aff_d), (st : Ingest.stats)) ->
                 U.Json.Obj
                   [
                     ("walkers", U.Json.Int walkers);
                     ("trg_digest", U.Json.Str trg_d);
                     ("affine_digest", U.Json.Str aff_d);
                     ("trg_peak_shard", U.Json.Int st.Ingest.trg_peak_shard);
                     ("wits_peak_shard", U.Json.Int st.Ingest.wits_peak_shard);
                     ("trg_evicted", U.Json.Int st.Ingest.trg_evicted);
                     ("wits_evicted", U.Json.Int st.Ingest.wits_evicted);
                     ("decay_dropped", U.Json.Int st.Ingest.decay_dropped);
                     ("dead_pruned", U.Json.Int st.Ingest.dead_pruned);
                   ])
               bounded_rows) );
      ]
  in
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-ingest-par/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        cores_field ();
        ( "params",
          U.Json.Obj
            [
              ("program", U.Json.Str program_name);
              ("users", U.Json.Int users);
              ("max_fuel", U.Json.Int max_fuel);
              ("seed", U.Json.Int seed);
              ("num_symbols", U.Json.Int num_symbols);
              ("total_events", U.Json.Int total_events);
              ("trg_window", U.Json.Int trg_window);
              ("affinity_w", U.Json.Int affinity_w);
              ("walkers_list", U.Json.Arr (List.map (fun i -> U.Json.Int i) walkers_list));
              ("shards_list", U.Json.Arr (List.map (fun i -> U.Json.Int i) shards_list));
              ("jobs_list", U.Json.Arr (List.map (fun i -> U.Json.Int i) jobs_list));
            ] );
        ( "batch",
          U.Json.Obj
            [
              ("trg_digest", U.Json.Str batch_trg);
              ("affine_digest", U.Json.Str batch_aff);
            ] );
        ("grid", grid_json);
        ("digests_identical", U.Json.Bool true);
        ("serial_ingest_ns", U.Json.Int serial_ns);
        ( "gate",
          U.Json.Obj
            [
              ("walkers", U.Json.Int gate_walkers);
              ("shards", U.Json.Int 2);
              ("jobs", U.Json.Int gate_jobs);
              ("speedup_vs_serial", U.Json.Float gate_speedup);
            ] );
        ("bounded", bounded_json);
        ( "walker_hist",
          U.Json.Obj
            [
              ("walkers", U.Json.Int hist_walkers);
              ("jobs", U.Json.Int 2);
              ("total_observations", U.Json.Int hist_sum);
              ("traces", U.Json.Int users);
              ( "per_walker",
                U.Json.Arr
                  (List.map
                     (fun (i, n, p50) ->
                       U.Json.Obj
                         [
                           ("walker", U.Json.Int i);
                           ("observations", U.Json.Int n);
                           ("trace_p50_ns", U.Json.Float p50);
                         ])
                     walker_hist) );
            ] );
        runtime_field t_start;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n\n%!" path

(* The interference observatory end to end. Each co-run cell replays a
   (self layout, peer) pair through the profiled shared cache; the
   owner-tagged sink attributes every eviction to (evictor, victim owner)
   and every non-first miss to (misser, last evictor), from which the
   paper's co-run scores fall out exactly. Three hard properties are
   fatal in every mode:
   - conservation: the matrices partition the Cache_stats totals
     (Profile.interference_json raises on any mismatch);
   - transparency: a sinkless replay of the same cell yields bit-identical
     totals — attaching the observatory cannot perturb the experiment;
   - jobs invariance: the serialized cells are byte-identical when the
     context fans out over a 2-domain pool.
   The headline gate then requires the optimized self layout to beat the
   original on BOTH defensiveness and politeness in at least two cells.
   Alongside the manifest, every cell is recorded through an Obs ring
   with a live stream sink, producing the colayout/obs/v1 JSONL artifact
   the stream checker validates. *)
let run_obs_bench ~quick ~path =
  let t_start = U.Metrics.default_clock () in
  Printf.printf "== Interference observatory: politeness/defensiveness attribution ==\n\n%!";
  let cells =
    [ ("445.gobmk", "403.gcc"); ("403.gcc", "429.mcf"); ("429.mcf", "445.gobmk") ]
  in
  let opt_kind = Optimizer.Bb_affinity in
  let scale = if quick then H.Ctx.Fast else H.Ctx.Full in
  (* One cell at one self layout: profiled co-run + transparency check
     against the unprofiled twin; returns the conservation-checked JSON
     plus the two scores of the self thread. *)
  let measure ctx (self_name, peer_name) kind =
    let self = (self_name, kind) and peer = (peer_name, Optimizer.Original) in
    let stats, sink = H.Ctx.profiled_corun ctx ~hw:false ~self ~peer in
    let bare = H.Ctx.corun_stats ctx ~hw:false ~self ~peer in
    let same what a b =
      if a <> b then begin
        Printf.eprintf
          "FATAL: sink perturbs %s of %s|%s/%s (%d profiled, %d bare)\n%!" what
          self_name peer_name (Optimizer.kind_name kind) a b;
        exit 1
      end
    in
    same "accesses" (C.Cache_stats.accesses stats) (C.Cache_stats.accesses bare);
    same "misses" (C.Cache_stats.misses stats) (C.Cache_stats.misses bare);
    same "evictions" (C.Cache_stats.evictions stats) (C.Cache_stats.evictions bare);
    for th = 0 to 1 do
      same "thread accesses"
        (C.Cache_stats.thread_accesses stats th)
        (C.Cache_stats.thread_accesses bare th);
      same "thread misses"
        (C.Cache_stats.thread_misses stats th)
        (C.Cache_stats.thread_misses bare th)
    done;
    let label =
      Printf.sprintf "%s(%s)|%s" self_name (Optimizer.kind_name kind) peer_name
    in
    let interference =
      try C.Profile.interference_json ~label ~sink ~stats
      with Invalid_argument msg ->
        Printf.eprintf "FATAL: conservation violated in cell %s: %s\n%!" label msg;
        exit 1
    in
    ( interference,
      C.Cache_stats.thread_miss_ratio stats 0,
      C.Profile_sink.defensiveness sink ~thread:0,
      C.Profile_sink.politeness sink ~thread:0 )
  in
  let run_cells ctx =
    List.map
      (fun cell ->
        let base = measure ctx cell Optimizer.Original in
        let opt = measure ctx cell opt_kind in
        (cell, base, opt))
      cells
  in
  let rows = run_cells (H.Ctx.create ~scale ()) in
  (* Jobs invariance: the same cells through a pooled context must
     serialize identically, byte for byte. *)
  let serialize rows =
    List.map
      (fun (_, (bj, _, _, _), (oj, _, _, _)) ->
        U.Json.to_string bj ^ "\n" ^ U.Json.to_string oj)
      rows
  in
  let rows_j2 =
    U.Pool.with_pool ~jobs:2 (fun pool -> run_cells (H.Ctx.create ~scale ~pool ()))
  in
  List.iteri
    (fun i (a, b) ->
      if a <> b then begin
        let (s, p), _, _ = List.nth rows i in
        Printf.eprintf "FATAL: cell %s|%s attribution differs between jobs=1 and jobs=2\n%!"
          s p;
        exit 1
      end)
    (List.combine (serialize rows) (serialize rows_j2));
  (* Obs ring + live stream: one snapshot per cell, streamed to the JSONL
     artifact next to the manifest as it is recorded. *)
  let stream_path = Filename.remove_extension path ^ ".jsonl" in
  let obs = U.Obs.create () in
  let oc_stream = open_out stream_path in
  U.Obs.set_stream obs (Some (fun line -> output_string oc_stream (line ^ "\n")));
  let cell_rows =
    List.map
      (fun ((self_name, peer_name), (bj, bmr, bdef, bpol), (oj, omr, odef, opol)) ->
        let improved = odef > bdef && opol > bpol in
        U.Obs.record obs ~label:"cell"
          ([
             ("self", U.Json.Str self_name);
             ("peer", U.Json.Str peer_name);
             ("baseline", bj);
             ("optimized", oj);
             ("improved_both", U.Json.Bool improved);
           ]
          @ U.Obs.gc_fields ());
        Printf.printf
          "  %-10s | %-10s  def %.4f -> %.4f  pol %.4f -> %.4f  miss %.4f -> %.4f%s\n%!"
          self_name peer_name bdef odef bpol opol bmr omr
          (if improved then "  (improved both)" else "");
        U.Json.Obj
          [
            ("self", U.Json.Str self_name);
            ("peer", U.Json.Str peer_name);
            ("optimizer", U.Json.Str (Optimizer.kind_name opt_kind));
            ( "baseline",
              U.Json.Obj
                [
                  ("miss_ratio", U.Json.Float bmr);
                  ("defensiveness", U.Json.Float bdef);
                  ("politeness", U.Json.Float bpol);
                  ("interference", bj);
                ] );
            ( "optimized",
              U.Json.Obj
                [
                  ("miss_ratio", U.Json.Float omr);
                  ("defensiveness", U.Json.Float odef);
                  ("politeness", U.Json.Float opol);
                  ("interference", oj);
                ] );
            ("improved_both", U.Json.Bool improved);
          ])
      rows
  in
  U.Obs.set_stream obs None;
  close_out oc_stream;
  let improved_cells =
    List.length
      (List.filter
         (fun (_, (_, _, bdef, bpol), (_, _, odef, opol)) -> odef > bdef && opol > bpol)
         rows)
  in
  if improved_cells < 2 then begin
    Printf.eprintf
      "FATAL: optimized layout improved both scores in only %d/%d co-run cells (need >= 2)\n%!"
      improved_cells (List.length rows);
    exit 1
  end;
  Printf.printf "  %d/%d cells improved on both scores; conservation and transparency held\n%!"
    improved_cells (List.length rows);
  let manifest =
    U.Json.Obj
      [
        ("schema", U.Json.Str "colayout/bench-obs/v1");
        ("mode", U.Json.Str (if quick then "quick" else "full"));
        cores_field ();
        ( "params",
          U.Json.Obj
            [
              ("scale", U.Json.Str (if quick then "fast" else "full"));
              ("optimizer", U.Json.Str (Optimizer.kind_name opt_kind));
              ("hw", U.Json.Bool false);
              ("threads", U.Json.Int 2);
            ] );
        ("cells", U.Json.Arr cell_rows);
        ("cells_improved_both", U.Json.Int improved_cells);
        ("sink_transparent", U.Json.Bool true);
        ("jobs_invariant", U.Json.Bool true);
        ("obs_stream", U.Json.Str (Filename.basename stream_path));
        ("obs_recorded", U.Json.Int (U.Obs.recorded obs));
        ("obs_dropped", U.Json.Int (U.Obs.dropped obs));
        runtime_field t_start;
      ]
  in
  let oc = open_out path in
  output_string oc (U.Json.to_string ~pretty:true manifest);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n  wrote %s\n\n%!" path stream_path

(* ------------------------------------------------------------- Part 1 *)

let tests () =
  let _program, test_run, analysis, ref_trace, original, optimized = Lazy.force shared in
  let bb_trace = analysis.Optimizer.bb in
  let fn_trimmed = analysis.Optimizer.fn in
  let smt_cfg = E.Smt.default_config () in
  let tiny_trace = T.Trace.of_list ~num_symbols:5 [ 0; 3; 1; 3; 1; 2; 4; 0; 3 ] in
  ignore test_run;
  [
    (* Figure 1 / Figures 5-6 core: the w-window affinity analyses. *)
    Test.make ~name:"fig1/affinity-hierarchy (paper w-range)"
      (Staged.stage (fun () ->
           ignore
             (Affinity_hierarchy.build ~ws:Optimizer.default_config.Optimizer.ws bb_trace)));
    Test.make ~name:"fig1/affinity-single-window w=8"
      (Staged.stage (fun () -> ignore (Affinity.affine_pairs bb_trace ~w:8)));
    Test.make ~name:"fig1/affinity-exact-oracle (9-event trace)"
      (Staged.stage (fun () -> ignore (Affinity.affine_pairs_naive tiny_trace ~w:3)));
    (* Figure 2 / Table II TRG path. *)
    Test.make ~name:"fig2/trg-build (fn trace)"
      (Staged.stage (fun () -> ignore (Trg.build ~window:256 fn_trimmed)));
    Test.make ~name:"fig2/trg-reduce (fn trace, 256 slots)"
      (let trg = Trg.build ~window:256 fn_trimmed in
       Staged.stage (fun () -> ignore (Trg_reduce.reduce trg ~slots:256)));
    (* Table I / Figure 4: trace-driven cache simulation. *)
    Test.make ~name:"fig4/icache-solo-replay"
      (Staged.stage (fun () ->
           ignore (Pipeline.miss_ratio_solo ~params ~layout:original ref_trace)));
    Test.make ~name:"fig4/icache-shared-replay"
      (Staged.stage (fun () ->
           ignore
             (Pipeline.miss_ratio_corun ~params ~self:(original, ref_trace)
                ~peer:(optimized, ref_trace) ())));
    (* Figures 5-7: the SMT timing model. *)
    Test.make ~name:"fig5/smt-solo"
      (Staged.stage (fun () ->
           ignore
             (E.Smt.solo smt_cfg (Layout.to_smt_code original) (T.Trace.events ref_trace))));
    Test.make ~name:"fig6-7/smt-corun"
      (Staged.stage (fun () ->
           ignore
             (E.Smt.corun smt_cfg ~mode:E.Smt.Finish_both
                (Layout.to_smt_code original, T.Trace.events ref_trace)
                (Layout.to_smt_code optimized, T.Trace.events ref_trace))));
    (* Eq 1/2: the footprint-theory model. *)
    Test.make ~name:"eq1/footprint-curve (line trace)"
      (Staged.stage (fun () ->
           ignore (Pipeline.footprint_curve ~params ~layout:original ref_trace)));
    (* §II-F stack structures: hash+linked-list stack vs order-statistic
       red-black tree. *)
    Test.make ~name:"stack/lru-list walk"
      (Staged.stage (fun () ->
           let s = T.Lru_stack.create () in
           T.Trace.iter (fun x -> ignore (T.Lru_stack.access s x)) bb_trace));
    Test.make ~name:"stack/rb-tree distances"
      (Staged.stage (fun () -> ignore (T.Stack_dist.run bb_trace)));
    (* The transformation itself. *)
    Test.make ~name:"transform/bb-layout assignment"
      (let program, _, analysis, _, _, _ = Lazy.force shared in
       let order = Optimizer.block_order_for Optimizer.Bb_affinity program analysis in
       Staged.stage (fun () ->
           ignore (Layout.of_block_order ~function_stubs:true program order)));
  ]

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false () in
  Printf.printf "== Bechamel micro-benchmarks (one per paper artifact) ==\n%!";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            if ns > 1e6 then Printf.printf "  %-48s %10.2f ms/run\n%!" name (ns /. 1e6)
            else if ns > 1e3 then Printf.printf "  %-48s %10.2f us/run\n%!" name (ns /. 1e3)
            else Printf.printf "  %-48s %10.2f ns/run\n%!" name ns
          | _ -> Printf.printf "  %-48s (no estimate)\n%!" name)
        analyzed)
    (tests ());
  print_newline ()

(* ------------------------------------------------------------- Part 2 *)

let miss_with_config config kind =
  let program, test_run, _, ref_trace, _, _ = Lazy.force shared in
  let a =
    Optimizer.analysis_of_traces ~config ~bb:test_run.E.Interp.bb_trace
      ~fn:test_run.E.Interp.fn_trace ()
  in
  let layout = Optimizer.layout_for ~config kind program a in
  C.Cache_stats.miss_ratio (Pipeline.miss_ratio_solo ~params ~layout ref_trace)

let ablations () =
  let program, test_run, analysis, ref_trace, original, _ = Lazy.force shared in
  let base_config = Optimizer.default_config in
  let t =
    U.Table.create ~title:"Ablation: affinity window range (bb-affinity on 445.gobmk)"
      ~columns:[ ("w range", U.Table.Left); ("solo miss ratio", U.Table.Right) ]
  in
  List.iter
    (fun (label, ws) ->
      let mr = miss_with_config { base_config with Optimizer.ws } Optimizer.Bb_affinity in
      U.Table.add_row t [ label; U.Table.fmt_pct (100.0 *. mr) ])
    [
      ("2..20 (paper)", base_config.Optimizer.ws);
      ("small only [2;3;4]", [ 2; 3; 4 ]);
      ("single [8] (TRG-like)", [ 8 ]);
      ("large only [16;20]", [ 16; 20 ]);
    ];
  U.Table.print t;
  let t2 =
    U.Table.create ~title:"Ablation: trace pruning threshold (§II-F, top-N hottest blocks)"
      ~columns:
        [
          ("top N", U.Table.Right);
          ("coverage", U.Table.Right);
          ("bb-affinity miss", U.Table.Right);
        ]
  in
  List.iter
    (fun top ->
      let config = { base_config with Optimizer.prune_top = top } in
      let a =
        Optimizer.analysis_of_traces ~config ~bb:test_run.E.Interp.bb_trace
          ~fn:test_run.E.Interp.fn_trace ()
      in
      let layout = Optimizer.layout_for ~config Optimizer.Bb_affinity program a in
      let mr = C.Cache_stats.miss_ratio (Pipeline.miss_ratio_solo ~params ~layout ref_trace) in
      U.Table.add_row t2
        [
          string_of_int top;
          U.Table.fmt_pct (100.0 *. a.Optimizer.prune.T.Prune.coverage);
          U.Table.fmt_pct (100.0 *. mr);
        ])
    [ 10_000; 1_000; 300; 100 ];
  U.Table.print t2;
  let t3 =
    U.Table.create
      ~title:"Ablation: TRG analysis-cache scale (Gloy & Smith recommend 2x; bb-trg)"
      ~columns:[ ("cache multiplier", U.Table.Right); ("solo miss ratio", U.Table.Right) ]
  in
  List.iter
    (fun m ->
      let mr =
        miss_with_config
          { base_config with Optimizer.cache_multiplier = m }
          Optimizer.Bb_trg
      in
      U.Table.add_row t3 [ U.Table.fmt_float ~decimals:1 m; U.Table.fmt_pct (100.0 *. mr) ])
    [ 0.5; 1.0; 2.0; 4.0 ];
  U.Table.print t3;
  (* The paper's §II-C modification vs the original Gloy-Smith scheme. *)
  let t4 =
    U.Table.create
      ~title:
        "Ablation: TRG as reordering (the paper) vs original padded TPCM placement \
         (Gloy & Smith) on 445.gobmk"
      ~columns:
        [
          ("scheme", U.Table.Left);
          ("code bytes", U.Table.Right);
          ("solo miss ratio", U.Table.Right);
        ]
  in
  let add_scheme name layout =
    let mr = C.Cache_stats.miss_ratio (Pipeline.miss_ratio_solo ~params ~layout ref_trace) in
    U.Table.add_row t4
      [ name; U.Table.fmt_int layout.Layout.total_bytes; U.Table.fmt_pct (100.0 *. mr) ]
  in
  add_scheme "original layout" original;
  add_scheme "func-trg (reorder, no gaps)" (Optimizer.layout_for Optimizer.Func_trg program analysis);
  add_scheme "padded TPCM (gaps)" (Trg_place.layout_for program analysis);
  U.Table.print t4;
  (* All comparators side by side: the paper's optimizers, the compiler
     default (intra-procedural), and the classic call-graph baseline. *)
  let t5 =
    U.Table.create
      ~title:"Comparators on 445.gobmk: the paper's optimizers vs classic baselines (solo)"
      ~columns:[ ("layout", U.Table.Left); ("solo miss ratio", U.Table.Right) ]
  in
  let call_trace =
    (E.Interp.run program (E.Interp.test_input ~max_blocks:30_000 ())).E.Interp.call_trace
  in
  let add_cmp name layout =
    let mr = C.Cache_stats.miss_ratio (Pipeline.miss_ratio_solo ~params ~layout ref_trace) in
    U.Table.add_row t5 [ name; U.Table.fmt_pct (100.0 *. mr) ]
  in
  add_cmp "original" original;
  add_cmp "intra-procedural BB (compiler default)" (Intra_reorder.layout_for program analysis);
  add_cmp "Pettis-Hansen call graph" (Pettis_hansen.layout_for program call_trace);
  add_cmp "CMG reduction (function)" (Cmg.layout_for ~granularity:`Function program analysis);
  add_cmp "CMG reduction (block)" (Cmg.layout_for ~granularity:`Block program analysis);
  add_cmp "static (profile-free)" (Static_layout.layout_for program);
  List.iter
    (fun kind -> add_cmp (Optimizer.kind_name kind) (Optimizer.layout_for kind program analysis))
    [ Optimizer.Func_affinity; Optimizer.Bb_affinity ];
  U.Table.print t5

(* ------------------------------------------------------------- Part 3 *)

let () =
  let quick = ref false in
  let kernels_only = ref false in
  let parallel_only = ref false in
  let profile_only = ref false in
  let layout_eval_only = ref false in
  let layout_eval_delta_only = ref false in
  let scaling_only = ref false in
  let serve_only = ref false in
  let ingest_par_only = ref false in
  let obs_only = ref false in
  let json = ref "BENCH_kernels.json" in
  let harness_json = ref "BENCH_harness.json" in
  let parallel_json = ref "BENCH_parallel.json" in
  let profile_json = ref "BENCH_profile.json" in
  let layout_eval_json = ref "BENCH_layout_eval.json" in
  let layout_eval_delta_json = ref "BENCH_layout_eval_delta.json" in
  let scaling_json = ref "BENCH_scaling.json" in
  let serve_json = ref "BENCH_serve.json" in
  let ingest_par_json = ref "BENCH_ingest_par.json" in
  let obs_json = ref "BENCH_obs.json" in
  let jobs = ref 1 in
  Arg.parse
    [
      ("--quick", Arg.Set quick, " small kernel inputs, kernels + harness + parallel + profile manifests (CI smoke run)");
      ("--kernels-only", Arg.Set kernels_only, " full-size kernel benchmarks only");
      ( "--parallel-only",
        Arg.Set parallel_only,
        " full-matrix parallel-scaling benchmark only (regenerates BENCH_parallel.json)" );
      ( "--profile-only",
        Arg.Set profile_only,
        " cache-profile manifest only (regenerates BENCH_profile.json)" );
      ( "--layout-eval-only",
        Arg.Set layout_eval_only,
        " layout-evaluation engine benchmark only (regenerates BENCH_layout_eval.json)" );
      ( "--layout-eval-delta-only",
        Arg.Set layout_eval_delta_only,
        " delta-evaluation benchmark only (regenerates BENCH_layout_eval_delta.json)" );
      ( "--scaling",
        Arg.Set scaling_only,
        " strong/weak scaling study only (regenerates BENCH_scaling.json)" );
      ( "--serve",
        Arg.Set serve_only,
        " streaming-ingest service benchmark only (regenerates BENCH_serve.json)" );
      ( "--ingest-par-only",
        Arg.Set ingest_par_only,
        " multi-walker ingest benchmark only (regenerates BENCH_ingest_par.json)" );
      ( "--obs",
        Arg.Set obs_only,
        " interference-observatory benchmark only (regenerates BENCH_obs.json + .jsonl)" );
      ("--json", Arg.Set_string json, "FILE path for the kernel-benchmark JSON output");
      ( "--harness-json",
        Arg.Set_string harness_json,
        "FILE path for the harness stage-timing manifest" );
      ( "--parallel-json",
        Arg.Set_string parallel_json,
        "FILE path for the parallel-scaling manifest" );
      ( "--profile-json",
        Arg.Set_string profile_json,
        "FILE path for the cache-profile manifest" );
      ( "--layout-eval-json",
        Arg.Set_string layout_eval_json,
        "FILE path for the layout-evaluation engine manifest" );
      ( "--layout-eval-delta-json",
        Arg.Set_string layout_eval_delta_json,
        "FILE path for the delta-evaluation manifest" );
      ( "--scaling-json",
        Arg.Set_string scaling_json,
        "FILE path for the strong/weak scaling manifest" );
      ( "--serve-json",
        Arg.Set_string serve_json,
        "FILE path for the streaming-ingest service manifest" );
      ( "--ingest-par-json",
        Arg.Set_string ingest_par_json,
        "FILE path for the multi-walker ingest manifest" );
      ( "--obs-json",
        Arg.Set_string obs_json,
        "FILE path for the interference-observatory manifest (stream goes beside it)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N worker domains for the full experiment suite (0 = machine width)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe [--quick] [--kernels-only] [--parallel-only] [--profile-only] [--layout-eval-only] [--layout-eval-delta-only] [--scaling] [--serve] [--ingest-par-only] [--obs] [--jobs N] [--json FILE] [--harness-json FILE] [--parallel-json FILE]";
  H.Report.setup (if !quick then H.Report.Quiet else H.Report.Normal);
  if !parallel_only then begin
    H.Report.setup H.Report.Quiet;
    run_parallel_bench ~quick:!quick ~path:!parallel_json;
    exit 0
  end;
  if !profile_only then begin
    H.Report.setup H.Report.Quiet;
    run_profile_manifest ~quick:!quick ~path:!profile_json;
    exit 0
  end;
  if !layout_eval_only then begin
    H.Report.setup H.Report.Quiet;
    run_layout_eval_bench ~quick:!quick ~path:!layout_eval_json;
    exit 0
  end;
  if !layout_eval_delta_only then begin
    H.Report.setup H.Report.Quiet;
    run_layout_eval_delta_bench ~quick:!quick ~path:!layout_eval_delta_json;
    exit 0
  end;
  if !scaling_only then begin
    H.Report.setup H.Report.Quiet;
    run_scaling_bench ~quick:!quick ~path:!scaling_json;
    exit 0
  end;
  if !serve_only then begin
    H.Report.setup H.Report.Quiet;
    run_serve_bench ~quick:!quick ~path:!serve_json;
    exit 0
  end;
  if !ingest_par_only then begin
    H.Report.setup H.Report.Quiet;
    run_ingest_par_bench ~quick:!quick ~path:!ingest_par_json;
    exit 0
  end;
  if !obs_only then begin
    H.Report.setup H.Report.Quiet;
    run_obs_bench ~quick:!quick ~path:!obs_json;
    exit 0
  end;
  run_kernels ~quick:!quick ~json_path:!json;
  if not !kernels_only then begin
    run_harness_manifest ~quick:!quick ~path:!harness_json;
    run_parallel_bench ~quick:!quick ~path:!parallel_json;
    run_profile_manifest ~quick:!quick ~path:!profile_json;
    run_layout_eval_bench ~quick:!quick ~path:!layout_eval_json;
    run_layout_eval_delta_bench ~quick:!quick ~path:!layout_eval_delta_json;
    run_scaling_bench ~quick:!quick ~path:!scaling_json;
    run_serve_bench ~quick:!quick ~path:!serve_json;
    run_ingest_par_bench ~quick:!quick ~path:!ingest_par_json;
    run_obs_bench ~quick:!quick ~path:!obs_json
  end;
  if not (!quick || !kernels_only) then begin
    run_benchmarks ();
    Printf.printf "== Ablation studies (DESIGN.md section 5) ==\n\n%!";
    ablations ();
    Printf.printf "== Full experiment suite: every table and figure of the paper ==\n\n%!";
    let jobs = if !jobs = 0 then U.Pool.default_jobs () else max 1 !jobs in
    U.Pool.with_pool ~jobs (fun pool ->
        let ctx = H.Ctx.create ~scale:H.Ctx.Full ~pool () in
        let results = H.Registry.run_by_ids ctx H.Registry.ids in
        List.iter (fun (_, tables) -> List.iter U.Table.print tables) results)
  end
