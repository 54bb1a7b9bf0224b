(* Benchmark harness: the manifest sections.

   Each section times one subsystem against its seed baseline or across
   pool widths and returns its params plus cells of digests and timings;
   one writer wraps them in the colayout/bench/v2 envelope (section, mode,
   host, runtime, params, cells, gate verdicts) as BENCH_<section>.json,
   and the section's gates (bench/gates.ml) judge the written manifest
   right away. The paper's tables and figures, and the ablations of the
   optimizers' parameters, are registry experiments: `repro run all`.

   Run with:
     dune exec bench/main.exe                          # every section, full size
     dune exec bench/main.exe -- --quick               # every section, small (CI smoke)
     dune exec bench/main.exe -- --only kernels,obs    # chosen sections, full size
     dune exec bench/main.exe -- --check BENCH_*.json  # re-judge written manifests
   Manifests go to the current directory unless --out DIR says otherwise.
   The run exits 1 if any gate failed; every manifest is written anyway. *)

open Colayout
open Colayout_oracle
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module U = Colayout_util
module H = Colayout_harness
module T = Colayout_trace
module J = U.Json

(* ---------------------------------------------------------------- kit *)

(* The one clock: every timing in every manifest is a monotonic wall
   interval taken here, single-shot. *)
let time f =
  let t0 = U.Metrics.default_clock () in
  let r = f () in
  (r, Int64.to_int (Int64.sub (U.Metrics.default_clock ()) t0))

(* Per-call cost of a short deterministic kernel: warm once, then double
   the batch until one timed batch lasts [budget] seconds. *)
let per_call ~budget f =
  f ();
  let rec go iters =
    let (), ns =
      time (fun () ->
          for _ = 1 to iters do
            f ()
          done)
    in
    if float_of_int ns >= budget *. 1e9 then float_of_int ns /. float_of_int iters
    else go (iters * 2)
  in
  go 1

(* [per_call] from a compacted heap, then more batches of the same size:
   the least of the per-call times, for kernels whose single batch is
   noisy (interference only ever adds time). Six more batches, or two when
   one call alone outlasts [budget]: a call of seconds is timed on its own
   and varies little, and six more would cost it half a minute. *)
let per_call_min ~budget f =
  Gc.compact ();
  let first = per_call ~budget f in
  let iters = ref 1 in
  while float_of_int !iters *. first < budget *. 1e9 do
    iters := !iters * 2
  done;
  let batch () =
    let (), ns =
      time (fun () ->
          for _ = 1 to !iters do
            f ()
          done)
    in
    float_of_int ns /. float_of_int !iters
  in
  let extra = if first >= budget *. 1e9 then 2 else 6 in
  Array.fold_left (fun m _ -> Float.min m (batch ())) first (Array.make extra ())

let digest (fmt : (float -> string, unit, string) format) xs =
  Digest.to_hex (Digest.string (String.concat ";" (List.map (Printf.sprintf fmt) xs)))

(* Exact-result digest of a float array: %.17g round-trips every double. *)
let digest_ratios a = digest "%.17g" (Array.to_list a)

module Out = struct
  let int n = J.Int n

  let num x = J.Float x

  let str s = J.Str s

  let bool b = J.Bool b

  let obj kvs = J.Obj kvs

  let arr f l = J.Arr (List.map f l)
end

(* The recorded host width. Every gate conditioned on cores reads this
   value back from the manifest. *)
let cores_available () = Domain.recommended_domain_count ()

(* The CPU model, from the Linux cpuinfo table when there is one. *)
let host_cpu () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text -> (
    let model line =
      match String.index_opt line ':' with
      | Some i when String.trim (String.sub line 0 i) = "model name" ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None
    in
    match List.find_map model (String.split_on_char '\n' text) with
    | Some m -> m
    | None -> "unknown")

let manifest_file name = "BENCH_" ^ String.map (function '-' -> '_' | c -> c) name ^ ".json"

(* Run one section, write its manifest and judge it: returns the number of
   failed gates and the manifest's digest lines. The gates see the
   manifest as parsed back from its text, exactly what [--check] will
   see. *)
let run_section ~quick ~dir (name, section) =
  let (params, cells), wall_ns = time (fun () -> section ~quick ~dir) in
  let gc = Gc.quick_stat () in
  let m =
    Out.(
      obj
        [
          ("schema", str Gates.schema);
          ("section", str name);
          ("mode", str (if quick then "quick" else "full"));
          ( "host",
            obj
              [
                ("cpu", str (host_cpu ()));
                ("cores_available", int (cores_available ()));
                ("ocaml", str Sys.ocaml_version);
              ] );
          ( "runtime",
            obj
              [
                ("wall_ns", int wall_ns);
                ("minor_words", num gc.Gc.minor_words);
                ("major_words", num gc.Gc.major_words);
                ("compactions", int gc.Gc.compactions);
              ] );
          ("params", obj params);
          ("cells", cells);
        ])
  in
  let m = J.parse (J.to_string m) in
  let verdicts = Gates.evaluate m in
  let path = Filename.concat dir (manifest_file name) in
  Out_channel.with_open_bin path (fun oc ->
      let gates = ("gates", Gates.verdicts_json verdicts) in
      output_string oc
        (J.to_string ~pretty:true (match m with J.Obj kvs -> J.Obj (kvs @ [ gates ]) | m -> m));
      output_char oc '\n');
  let failed = Gates.failed verdicts in
  List.iter (fun (g, why) -> Printf.eprintf "GATE FAILED %s/%s: %s\n%!" name g why) failed;
  Printf.printf "  wrote %s (%d gates, %d failed)\n\n%!" path (List.length verdicts)
    (List.length failed);
  (List.length failed, Gates.digest_lines m)

(* ------------------------------------------------------------ kernels *)

(* The packed-int/CSR analysis kernels (Trg.build, Affinity.affine_pairs,
   Trg_reduce.reduce, the one-pass affinity windows) against the seed
   baselines (Kernel_baseline) on one skewed-popularity trace with enough
   deep reuse to stress the w ≈ 512 window (32 KB / 64 B line). The
   reduction's output is digested on both paths, here and on the paper
   workload's own bb TRG, and the TRG memory footprints compared. The
   co-run cache replay is timed against its per-line oracle last. *)

let kernel_trace ~num_symbols ~len ~seed =
  let prng = U.Prng.create ~seed in
  let t = T.Trace.create ~name:"bench-kernels" ~num_symbols () in
  for _ = 1 to len do
    T.Trace.push t (U.Prng.zipf prng ~n:num_symbols ~s:0.9)
  done;
  T.Trim.trim t

(* Which per-pair counter store the TRG and affinity kernels take at this
   universe: the dense grid up to [Int_pair_tbl.max_grid_universe], the
   packed-pair table above. The speedups of one say nothing of the other. *)
let pair_store num_symbols =
  if num_symbols <= U.Int_pair_tbl.max_grid_universe then "grid" else "table"

(* The timed reductions must agree: same slot lists, same output order. *)
let reduction_digest r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (r.Trg_reduce.order, r.Trg_reduce.slot_lists) [ Marshal.No_sharing ]))

(* The paper workload's own reduction: 445.gobmk's bb TRG (1,293 nodes,
   so the grid store in every mode), profiled at the harness's Fast test
   fuel, at the optimizer's default window and slot count. The seed
   reduction takes seconds here, so it runs once. *)
let real_reduce_program = "445.gobmk"

(* The program's bb trace and TRG at the optimizer's defaults, with the
   reduction's slot count. *)
let real_bb () =
  let config = Optimizer.default_config in
  let params = config.Optimizer.params in
  let cache_multiplier = config.Optimizer.cache_multiplier in
  let block_bytes = config.Optimizer.bb_block_bytes in
  let fuel = H.Ctx.test_fuel (H.Ctx.create ~scale:H.Ctx.Fast ()) in
  let run =
    E.Interp.run (W.Spec.build real_reduce_program) (E.Interp.test_input ~max_blocks:fuel ())
  in
  let an =
    Optimizer.analysis_of_traces ~config ~bb:run.E.Interp.bb_trace ~fn:run.E.Interp.fn_trace ()
  in
  let window = Trg.recommended_window ~params ~block_bytes ~cache_multiplier in
  let slots = Trg_reduce.slots_for ~params ~block_bytes ~cache_multiplier in
  (an.Optimizer.bb, window, Trg.build ~window an.Optimizer.bb, slots)

let real_reduce ~budget (_, _, g, slots) =
  let nodes = Trg.num_nodes g in
  let edges = ref 0 in
  Trg.iter_edges (fun _ _ _ -> incr edges) g;
  let flat_ns = per_call_min ~budget (fun () -> ignore (Trg_reduce.reduce g ~slots)) in
  let seed, seed_ns = time (fun () -> Kernel_baseline.trg_reduce g ~slots) in
  let seed_ns = float_of_int seed_ns in
  Printf.printf "  %-40s %12.1f us/run\n%!" "trg-reduce-real/flat" (flat_ns /. 1e3);
  Printf.printf "  %-40s %12.1f us/run (one run)\n%!" "trg-reduce-real/seed-baseline"
    (seed_ns /. 1e3);
  Printf.printf "  (%s bb TRG: %d nodes, %d edges, %d slots, pair store: %s)\n%!"
    real_reduce_program nodes !edges slots (pair_store nodes);
  Out.
    [
      ("program", str real_reduce_program);
      ("level", str "bb");
      ("nodes", int nodes);
      ("edges", int !edges);
      ("slots", int slots);
      ("pair_store", str (pair_store nodes));
      ("flat_ns", num flat_ns);
      ("seed_ns", num seed_ns);
      ("speedup", num (seed_ns /. flat_ns));
      ("flat_digest", str (reduction_digest (Trg_reduce.reduce g ~slots)));
      ("seed_digest", str (reduction_digest seed));
    ]

(* The trace replays on the cache core (their per-call residency index;
   the co-run over flat line-id streams) against the per-line oracle they
   replaced ([Seed_icache]), on the paper's co-run pair: 445.gobmk
   against 403.gcc, original layouts, reference inputs, the programs'
   fetch rates; the solo replay on 445.gobmk alone. Both paths must
   report the same counters. Each timed path also records what one call
   allocates, from [Gc.quick_stat] deltas over steady-state calls: the
   replays read their traces in place, so a co-run call allocates fewer
   major-heap words than its two traces hold. *)
let corun_program = "445.gobmk"

let corun_peer = "403.gcc"

(* Mean [Gc.quick_stat] deltas over [calls] calls of [f], after one
   warm-up call (a first co-run on a domain sizes its buffers). Minor
   words come from [Gc.minor_words], which counts the words still in the
   minor heap: [quick_stat]'s count moves only at minor collections. *)
let gc_per_call ?(calls = 5) f =
  f ();
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  let g1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let per x0 x1 = (x1 -. x0) /. float_of_int calls in
  let per_int x0 x1 = per (float_of_int x0) (float_of_int x1) in
  Out.(
    obj
      [
        ("minor_words", num (per w0 w1));
        ("major_words", num (per g0.Gc.major_words g1.Gc.major_words));
        ("minor_collections", num (per_int g0.Gc.minor_collections g1.Gc.minor_collections));
        ("major_collections", num (per_int g0.Gc.major_collections g1.Gc.major_collections));
      ])

(* The three pair kernels on the same bb profile, each a steady-state
   call on the domain's reused [Pair_grid]: time per call and what one
   call allocates. A call that allocated its own n × n grid would show
   n² major words, an [Affinity.thresholds] call that allocated its own
   pair marks n(n-1)/16, and a [Trg_reduce.reduce] call that built its
   own symmetric rows 2E. *)
let pair_grid_kernels ~bench (trace, window, g, slots) =
  let wmax = List.fold_left max 1 Optimizer.default_config.Optimizer.ws in
  let n = Trg.num_nodes g in
  let rows =
    let _, nbr, _ = Trg.csr g in
    2 * Array.length nbr
  in
  let cell name f =
    let run () = ignore (f ()) in
    let name, ns = bench ("pair-grid/" ^ name) run in
    ( (name, ns),
      Out.(obj [ ("name", str name); ("ns_per_op", num ns); ("gc_per_call", gc_per_call run) ]) )
  in
  let build = cell "trg-build" (fun () -> Trg.build ~window trace) in
  let thresholds = cell "affinity-thresholds" (fun () -> Affinity.thresholds trace ~wmax) in
  let reduce = cell "trg-reduce" (fun () -> Trg_reduce.reduce g ~slots) in
  let cells = [ build; thresholds; reduce ] in
  Printf.printf "  (%s bb: %d symbols, window %d, wmax %d, %d slots, pair store: %s)\n%!"
    real_reduce_program n window wmax slots (pair_store n);
  ( List.map fst cells,
    Out.
      [
        ("program", str real_reduce_program);
        ("level", str "bb");
        ("nodes", int n);
        ("grid_cells", int (n * n));
        ("pair_marks_words", int (n * (n - 1) / 16));
        ("reduce_rows_words", int rows);
        ("pair_store", str (pair_store n));
        ("kernels", arr snd cells);
      ] )

let cache_replay ~quick ~bench =
  let fuel = if quick then 20_000 else 200_000 in
  let params = C.Params.default_l1i in
  let side name =
    let prog = W.Spec.build name in
    let l = Layout.original prog in
    ( { C.Icache.addr = l.Layout.addr; bytes = l.Layout.bytes },
      T.Trace.events (E.Interp.run prog (E.Interp.ref_input ~max_blocks:fuel ())).E.Interp.bb_trace,
      (W.Spec.profile name).W.Gen.fetch_rate )
  in
  let l0, t0, r0 = side corun_program and l1, t1, r1 = side corun_peer in
  let rates = (r0, r1) and layouts = (l0, l1) in
  let digest st = Digest.to_hex (Digest.string (C.Cache_stats.to_string st)) in
  (* One replay, timed and digested on both paths. *)
  let cell what ~indexed ~seed fields =
    let run f () = ignore (f ()) in
    let indexed_cell = bench ("cache-replay/" ^ what ^ "-indexed") (run indexed) in
    let seed_cell = bench ("cache-replay/" ^ what ^ "-seed-per-line") (run seed) in
    let stats = indexed () in
    ( (indexed_cell, seed_cell),
      Out.(
        obj
          (fields
          @ [
              ("fuel", int fuel);
              ("accesses", int (C.Cache_stats.accesses stats));
              ("indexed_digest", str (digest stats));
              ("seed_digest", str (digest (seed ())));
              ( "gc_per_call",
                obj [ ("indexed", gc_per_call (run indexed)); ("seed", gc_per_call (run seed)) ] );
            ])) )
  in
  let corun_cells, corun =
    cell "corun"
      ~indexed:(fun () -> C.Icache.shared ~rates ~params ~layouts (t0, t1))
      ~seed:(fun () -> Seed_icache.shared ~rates ~params ~layouts (t0, t1))
      Out.
        [
          ("program", str corun_program);
          ("peer", str corun_peer);
          ("trace_words", int (U.Int_vec.length t0 + U.Int_vec.length t1));
        ]
  in
  let solo_cells, solo =
    cell "solo"
      ~indexed:(fun () -> C.Icache.solo ~params ~layout:l0 t0)
      ~seed:(fun () -> Seed_icache.solo ~params ~layout:l0 t0)
      Out.[ ("program", str corun_program); ("trace_words", int (U.Int_vec.length t0)) ]
  in
  Printf.printf "  (%s vs %s, fuel %d)\n%!" corun_program corun_peer fuel;
  (corun_cells, corun, solo_cells, solo)

(* The interpreter against the loop it replaced ([Seed_interp], in
   test/oracle/): 445.gobmk on its reference input, and one 429.mcf user
   at `repro serve`'s default fuel. Both sides must return the same
   result (one digest over every field); the flat loop must allocate
   fewer minor words per call than it executes blocks. *)
let interp_digest (r : E.Interp.result) =
  let b = Buffer.create 65536 in
  let vec v =
    U.Int_vec.iter (fun x -> Printf.bprintf b "%d," x) v;
    Buffer.add_char b '|'
  in
  List.iter
    (fun t ->
      Printf.bprintf b "%s/%d:" (T.Trace.name t) (T.Trace.num_symbols t);
      vec (T.Trace.events t))
    [ r.E.Interp.bb_trace; r.E.Interp.fn_trace ];
  vec r.E.Interp.data_trace;
  vec r.E.Interp.call_trace;
  Printf.bprintf b "%d %d %b" r.E.Interp.instr_count r.E.Interp.block_execs r.E.Interp.completed;
  Digest.to_hex (Digest.string (Buffer.contents b))

let interp ~quick ~bench =
  let case program what input =
    let prog = W.Spec.build program in
    let flat () = E.Interp.run prog input and seed () = Seed_interp.run prog input in
    let run f () = ignore (f ()) in
    let name = Printf.sprintf "interp/%s-%s" (W.Spec.short_name program) what in
    let flat_cell = bench (name ^ "-flat") (run flat) in
    let seed_cell = bench (name ^ "-seed") (run seed) in
    let r = flat () in
    ( (flat_cell, seed_cell),
      Out.(
        obj
          [
            ("case", str (program ^ " " ^ what));
            ("program", str program);
            ("fuel", int input.E.Interp.max_blocks);
            ("seed", int input.E.Interp.seed);
            ("blocks", int r.E.Interp.block_execs);
            ("flat_digest", str (interp_digest r));
            ("seed_digest", str (interp_digest (seed ())));
            ("gc_per_call", obj [ ("flat", gc_per_call (run flat)); ("seed", gc_per_call (run seed)) ]);
          ]) )
  in
  let cases =
    [
      case "445.gobmk" "ref" (E.Interp.ref_input ~max_blocks:(if quick then 20_000 else 200_000) ());
      case "429.mcf" "serve" (E.Interp.test_input ~max_blocks:4_000 ());
    ]
  in
  (List.map fst cases, Out.(obj [ ("runs", arr snd cases) ]))

(* `repro serve`'s users: each user's input seed and fuel (in
   [max_fuel / 2, max_fuel]) come from the user's own Prng stream, as in
   [Serve]; the basic-block traces of [program]. *)
let serve_users program ~users ~max_fuel ~seed =
  List.init users (fun u ->
      let prng = U.Prng.create ~seed:(seed + ((u + 1) * 0x9E3779B1)) in
      let input_seed = U.Prng.int prng 1_000_000_000 in
      let fuel = (max_fuel / 2) + U.Prng.int prng ((max_fuel / 2) + 1) in
      (E.Interp.run program (E.Interp.test_input ~seed:input_seed ~max_blocks:fuel ()))
        .E.Interp.bb_trace)

(* Serve's ingest walk: [Ingest] in `repro serve`'s shape (429.mcf user
   traces at its default fuel, windows 64/16, one walker, so the grid
   store) against the scanning walk the flagged stack replaced
   ([Scan_walk], in test/oracle/), each from the traces to the consensus
   digests. Both sides must produce the same digests. *)
let ingest_walk_program = "429.mcf"

let ingest_walk ~quick ~bench =
  let program = W.Spec.build ingest_walk_program in
  let num_symbols = Colayout_ir.Program.num_blocks program in
  let users = if quick then 16 else 64 in
  let trg_window = 64 and affinity_w = 16 in
  let traces = serve_users program ~users ~max_fuel:4_000 ~seed:1 in
  let flagged () =
    let ing = Ingest.create (Ingest.config ~num_symbols ~trg_window ~affinity_w ()) in
    List.iter (Ingest.ingest_trace ing) traces;
    Ingest.consensus_digests (Ingest.finalize ing)
  in
  let scanning () = Scan_walk.ingest_digests ~trg_window ~affinity_w traces in
  let flagged_cell = bench "ingest-walk/flagged" (fun () -> ignore (flagged ())) in
  let scanning_cell = bench "ingest-walk/scanning-oracle" (fun () -> ignore (scanning ())) in
  let f_trg, f_aff = flagged () and s_trg, s_aff = scanning () in
  let events = List.fold_left (fun a t -> a + T.Trace.length t) 0 traces in
  Printf.printf "  (%s: %d users, %d events, %d symbols, windows %d/%d)\n%!" ingest_walk_program
    users events num_symbols trg_window affinity_w;
  ( (flagged_cell, scanning_cell),
    Out.(
      obj
        [
          ("program", str ingest_walk_program);
          ("users", int users);
          ("events", int events);
          ("num_symbols", int num_symbols);
          ("trg_window", int trg_window);
          ("affinity_w", int affinity_w);
          ("flagged_trg_digest", str f_trg);
          ("flagged_affine_digest", str f_aff);
          ("scanning_trg_digest", str s_trg);
          ("scanning_affine_digest", str s_aff);
        ]) )

let kernels ~quick ~dir:_ =
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
  let bench_with timer name f =
    let ns = timer f in
    Printf.printf "  %-40s %12.1f us/run\n%!" name (ns /. 1e3);
    (name, ns)
  in
  (* Every library cell is the fastest of seven batches from a compacted
     heap: single batches of one cell read up to 1.44x apart across runs
     of one tree. The three tuple-Hashtbl seed kernels keep one batch: one
     call of theirs lasts 0.4-4 s even in quick mode, so seven would
     multiply the section's wall for little. *)
  let bench = bench_with (per_call_min ~budget) in
  let bench_seed = bench_with (per_call ~budget) in
  let trg_packed = bench "trg-build/packed-csr" (fun () -> ignore (Trg.build ~window:w trace)) in
  let trg_legacy =
    bench_seed "trg-build/tuple-hashtbl-baseline" (fun () ->
        ignore (Kernel_baseline.trg_build ~window:w trace))
  in
  let aff_packed =
    bench "affine-pairs/packed" (fun () -> ignore (Affinity.affine_pairs trace ~w))
  in
  let aff_legacy =
    bench_seed "affine-pairs/tuple-hashtbl-baseline" (fun () ->
        ignore (Kernel_baseline.affine_pairs trace ~w))
  in
  let trg = Trg.build ~window:w trace in
  let reduce = bench "trg-reduce/flat" (fun () -> ignore (Trg_reduce.reduce trg ~slots)) in
  let reduce_legacy =
    bench_seed "trg-reduce/seed-baseline" (fun () -> ignore (Kernel_baseline.trg_reduce trg ~slots))
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
  let (corun_indexed, corun_seed), corun, (solo_indexed, solo_seed), solo =
    cache_replay ~quick ~bench
  in
  let bb = real_bb () in
  (* The pair-grid calls take ~5-15 ms each: one quick-budget batch held
     8-16 of them, so these batches last at least 0.2 s. *)
  let grid_timed, pair_grid =
    pair_grid_kernels ~bench:(bench_with (per_call_min ~budget:(Float.max budget 0.2))) bb
  in
  let (walk_flagged, walk_scanning), ingest_walk = ingest_walk ~quick ~bench in
  let interp_timed, interp = interp ~quick ~bench in
  let kernels =
    [
      trg_packed; trg_legacy; aff_packed; aff_legacy; reduce; reduce_legacy; windows_one_pass;
      windows_per_window; corun_indexed; corun_seed; solo_indexed; solo_seed;
    ]
    @ grid_timed @ [ walk_flagged; walk_scanning ]
    @ List.concat_map (fun (f, s) -> [ f; s ]) interp_timed
  in
  let speedups =
    [
      ("trg-build", snd trg_legacy /. snd trg_packed);
      ("affine-pairs", snd aff_legacy /. snd aff_packed);
      ("trg-reduce", snd reduce_legacy /. snd reduce);
      ("affinity-windows", snd windows_per_window /. snd windows_one_pass);
      ("cache-replay", snd corun_seed /. snd corun_indexed);
      ("cache-replay-solo", snd solo_seed /. snd solo_indexed);
      ("ingest-walk", snd walk_scanning /. snd walk_flagged);
    ]
    @ List.map
        (fun ((flat_name, flat_ns), (_, seed_ns)) ->
          ( String.map (function '/' -> '-' | c -> c) (Filename.chop_suffix flat_name "-flat"),
            seed_ns /. flat_ns ))
        interp_timed
  in
  List.iter (fun (n, s) -> Printf.printf "  speedup %-32s %12.2fx\n%!" n s) speedups;
  let real = real_reduce ~budget bb in
  (* Memory-footprint ablation: the CSR stores each undirected edge once;
     the seed adjacency stores it twice, in boxed hash-table cells. Both
     graphs are measured as built. *)
  let legacy = Kernel_baseline.trg_build ~window:w trace in
  let packed_words = Obj.reachable_words (Obj.repr (Trg.build ~window:w trace)) in
  let legacy_words = Obj.reachable_words (Obj.repr legacy) in
  Printf.printf "  TRG resident memory: packed CSR %d words, tuple-hashtbl %d words (%.1f%%)\n%!"
    packed_words legacy_words
    (100.0 *. float_of_int packed_words /. float_of_int legacy_words);
  Out.
    ( [
        ("num_symbols", int num_symbols);
        ("trace_len", int (T.Trace.length trace));
        ("w", int w);
        ("window", int w);
        ("slots", int slots);
        ("pair_store", str (pair_store num_symbols));
      ],
      obj
        [
          ("kernels", arr (fun (n, ns) -> obj [ ("name", str n); ("ns_per_op", num ns) ]) kernels);
          ("speedup", obj (List.map (fun (n, s) -> (n, num s)) speedups));
          ( "memory_words",
            obj
              [
                ("trg_packed_csr", int packed_words);
                ("trg_tuple_hashtbl", int legacy_words);
                ("ratio", num (float_of_int packed_words /. float_of_int legacy_words));
              ] );
          ( "reduce",
            obj
              [
                ("flat_digest", str (reduction_digest (Trg_reduce.reduce trg ~slots)));
                ("seed_digest", str (reduction_digest (Kernel_baseline.trg_reduce trg ~slots)));
              ] );
          ("reduce_real", obj real);
          ("pair_grid", obj pair_grid);
          ("ingest_walk", ingest_walk);
          ("interp", interp);
          ("corun", corun);
          ("solo", solo);
        ] )

(* ------------------------------------------------------------ harness *)

(* End-to-end pipeline stage timings: one Fast-scale pass through the Ctx
   seam — workload build, reference interpretation, analysis, layout, solo
   and co-run simulation — recorded as spans and aggregated per stage and
   per category. *)

let harness_program = "445.gobmk"

let harness_probe = "403.gcc"

let harness ~quick:_ ~dir:_ =
  Printf.printf "== Harness stage timings (end-to-end pipeline, fast scale) ==\n%!";
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let spans = H.Ctx.spans ctx in
  ignore (H.Ctx.solo_stats ctx ~hw:false harness_program Optimizer.Bb_affinity);
  ignore (H.Ctx.solo_stats ctx ~hw:false harness_program Optimizer.Original);
  ignore
    (H.Ctx.corun_stats ctx ~hw:false
       ~self:(harness_program, Optimizer.Bb_affinity)
       ~peer:(harness_probe, Optimizer.Original));
  let totals = U.Span.by_category spans in
  List.iter
    (fun (cat, ns) -> Printf.printf "  %-12s %12.2f ms\n%!" cat (Int64.to_float ns /. 1e6))
    totals;
  let ns v = Out.int (Int64.to_int v) in
  Out.
    ( [ ("scale", str "fast"); ("program", str harness_program); ("probe", str harness_probe) ],
      obj
        [
          ( "stages",
            arr
              (fun (cat, name, calls, total_ns) ->
                obj
                  [
                    ("name", str name);
                    ("cat", str cat);
                    ("calls", int calls);
                    ("total_ns", ns total_ns);
                  ])
              (U.Span.aggregate spans) );
          ("category_totals_ns", obj (List.map (fun (cat, v) -> (cat, ns v)) totals));
          ( "counters",
            obj (List.map (fun (k, v) -> (k, int v)) (U.Metrics.counters (H.Ctx.metrics ctx))) );
        ] )

(* ----------------------------------------------------------- parallel *)

(* The Figure 6 co-run speedup matrix — phase-1 prewarm plus the (kind x
   self x probe) simulation fan-out — re-run from a fresh Fast-scale
   context at each pool width and digested: every width must produce
   bit-identical cell values. Quick mode shrinks the matrix (1 optimizer,
   3 programs) but exercises the same schedule. *)

let pool_widths = [ 1; 2; 4 ]

let parallel ~quick ~dir:_ =
  Printf.printf "== Parallel scaling: fig6 co-run matrix under the domain pool ==\n%!";
  let kinds = if quick then [ Optimizer.Func_affinity ] else H.Exp_fig6.optimizers in
  let selves =
    if quick then [ "400.perlbench"; "429.mcf"; "458.sjeng" ] else W.Spec.deep_eight
  in
  let probes = if quick then selves else W.Spec.deep_eight in
  let cells =
    List.concat_map
      (fun kind -> List.concat_map (fun s -> List.map (fun p -> (kind, s, p)) probes) selves)
      kinds
  in
  let runs =
    List.map
      (fun jobs ->
        let values, wall_ns =
          time (fun () ->
              let metrics = U.Metrics.create () in
              U.Pool.with_pool ~jobs ~metrics (fun pool ->
                  let ctx = H.Ctx.create ~scale:H.Ctx.Fast ~metrics ~pool () in
                  H.Ctx.prewarm ctx ~kinds:(Optimizer.Original :: kinds) selves;
                  H.Ctx.par_map ctx
                    (fun (kind, self, probe) -> H.Exp_fig6.speedup ctx kind ~self ~probe)
                    cells))
        in
        let d = digest "%.12g" values in
        Printf.printf "  jobs=%d  %8.2f s  (%d cells, digest %s)\n%!" jobs
          (float_of_int wall_ns /. 1e9)
          (List.length cells) (String.sub d 0 12);
        (jobs, wall_ns, d))
      pool_widths
  in
  let base_wall = match runs with (_, w, _) :: _ -> float_of_int w | [] -> assert false in
  let speedups =
    List.filter_map
      (fun (jobs, w, _) ->
        if jobs = 1 then None else Some (Printf.sprintf "jobs%d" jobs, base_wall /. float_of_int w))
      runs
  in
  List.iter (fun (name, s) -> Printf.printf "  speedup %-8s %6.2fx\n%!" name s) speedups;
  Out.
    ( [
        ("scale", str "fast");
        ("matrix", str "fig6");
        ("kinds", int (List.length kinds));
        ("selves", int (List.length selves));
        ("probes", int (List.length probes));
      ],
      obj
        [
          ( "runs",
            arr
              (fun (jobs, wall_ns, d) ->
                obj [ ("jobs", int jobs); ("wall_ns", int wall_ns); ("digest", str d) ])
              runs );
          ("speedup", obj (List.map (fun (n, s) -> (n, num s)) speedups));
        ] )

(* ------------------------------------------------------------ profile *)

(* Fast-scale profiled solo runs of the original vs optimized layout,
   recording the cold/capacity/conflict split of each. The claim the
   paper's layouts rest on — optimization moves misses out of the conflict
   class — is gated: at least one workload must show a strict
   conflict-miss drop. *)

let profile_workloads =
  [ ("445.gobmk", Optimizer.Bb_affinity); ("403.gcc", Optimizer.Bb_affinity) ]

let classification_json sink =
  Out.(
    obj
      [
        ("accesses", int (C.Profile_sink.accesses sink));
        ("misses", int (C.Profile_sink.misses sink));
        ("cold", int (C.Profile_sink.cold_misses sink));
        ("capacity", int (C.Profile_sink.capacity_misses sink));
        ("conflict", int (C.Profile_sink.conflict_misses sink));
        ("evictions", int (C.Profile_sink.evictions sink));
      ])

let profile ~quick ~dir:_ =
  Printf.printf "== Cache-profile manifest: conflict-miss reduction by layout ==\n%!";
  let workloads = if quick then [ List.hd profile_workloads ] else profile_workloads in
  let ctx = H.Ctx.create ~scale:H.Ctx.Fast () in
  let row (name, kind) =
    let _, base = H.Ctx.profiled_solo ctx ~hw:false name Optimizer.Original in
    let _, opt = H.Ctx.profiled_solo ctx ~hw:false name kind in
    let drop = C.Profile_sink.conflict_misses base - C.Profile_sink.conflict_misses opt in
    Printf.printf "  %-14s %-12s conflict %6d -> %6d  (drop %d)\n%!" name
      (Optimizer.kind_name kind)
      (C.Profile_sink.conflict_misses base)
      (C.Profile_sink.conflict_misses opt)
      drop;
    Out.(
      obj
        [
          ("program", str name);
          ("optimizer", str (Optimizer.kind_name kind));
          ("baseline", classification_json base);
          ("optimized", classification_json opt);
          ("conflict_drop", int drop);
        ])
  in
  Out.([ ("scale", str "fast") ], obj [ ("workloads", arr row workloads) ])

(* -------------------------------------------------------- layout-eval *)

(* The zero-allocation layout-evaluation engine vs the seed
   evaluate-one-candidate path (Kernel_baseline), on the annealing
   workload shape — one engine, many candidate function orders: (a)
   single-thread cost per candidate over a fixed shuffled-order set, with
   both paths' ratios digested; (b) the annealing search wall before
   (seed loop) and after (engine-backed); (c) eval_batch at each pool
   width, digested; (d) serve's shape — a 429.mcf user trace at the
   paper's L1I, where no set of any candidate is mapped more distinct
   lines than it has ways, so the engine counts instead of replaying —
   per candidate on both paths, digested. *)

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

let layout_eval ~quick ~dir:_ =
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
  (* Per-candidate cost of the engine (one engine reused across all
     candidates — the usage pattern every search loop has) and of the seed
     path over [orders], with both paths' ratios digested. *)
  let single_thread ~params program trace orders =
    let engine = Layout_eval.create ~params program trace in
    let engine_eval o = Layout_eval.miss_ratio_of_order engine o in
    let seed_eval o = Kernel_baseline.miss_ratio_of_function_order ~params program trace o in
    let n = float_of_int (Array.length orders) in
    let per_candidate eval =
      per_call ~budget (fun () -> Array.iter (fun o -> ignore (eval o)) orders) /. n
    in
    let engine_ns = per_candidate engine_eval in
    let seed_ns = per_candidate seed_eval in
    ( engine_ns,
      seed_ns,
      Out.
        [
          ("engine_ns_per_eval", num engine_ns);
          ("seed_ns_per_eval", num seed_ns);
          ("speedup", num (seed_ns /. engine_ns));
          ("engine_digest", str (digest_ratios (Array.map engine_eval orders)));
          ("seed_digest", str (digest_ratios (Array.map seed_eval orders)));
        ] )
  in
  (* (a) The 32 shuffled orders of this program. *)
  let engine_ns, seed_ns, single_thread_cells = single_thread ~params program trace orders in
  let st_speedup = seed_ns /. engine_ns in
  Printf.printf "  %-40s %12.1f us/candidate\n%!" "engine (Layout_eval)" (engine_ns /. 1e3);
  Printf.printf "  %-40s %12.1f us/candidate\n%!" "seed path (Kernel_baseline)" (seed_ns /. 1e3);
  Printf.printf "  speedup %-32s %12.2fx\n%!" "single-thread" st_speedup;
  (* (b) The two searches draw slightly different PRNG streams (the seed
     loop burns steps on a = b proposals), so only wall and final quality
     are compared. *)
  let steps = if quick then 100 else 400 in
  let (_, before_mr, _), before_ns =
    time (fun () -> Kernel_baseline.anneal_search ~seed:11 ~steps ~params program trace)
  in
  let after_r, after_ns = time (fun () -> Anneal.search ~seed:11 ~steps ~params program trace) in
  let anneal_speedup = float_of_int before_ns /. float_of_int after_ns in
  Printf.printf "  anneal %d steps: seed %.2f ms -> engine %.2f ms (%.2fx), miss %.4f -> %.4f\n%!"
    steps
    (float_of_int before_ns /. 1e6)
    (float_of_int after_ns /. 1e6)
    anneal_speedup before_mr after_r.Anneal.miss_ratio;
  (* (c) Batch fan-out at each pool width. *)
  let batch = Array.init (if quick then 32 else 128) (fun _ -> shuffled ()) in
  let batch_run jobs =
    let results, ns =
      time (fun () ->
          U.Pool.with_pool ~jobs (fun pool ->
              Layout_eval.eval_batch (Layout_eval.create ~pool ~params program trace) batch))
    in
    let d = digest_ratios results in
    Printf.printf "  batch %d candidates, jobs=%d  %8.2f ms  (digest %s)\n%!" (Array.length batch)
      jobs
      (float_of_int ns /. 1e6)
      (String.sub d 0 12);
    Out.(obj [ ("jobs", int jobs); ("wall_ns", int ns); ("digest", str d) ])
  in
  let batch_runs = List.map batch_run pool_widths in
  (* (d) Its own PRNG, so the orders of (a)-(c) stay the ones drawn above. *)
  let fitting =
    let params = C.Params.default_l1i in
    let program = W.Spec.build "429.mcf" in
    let trace =
      (E.Interp.run program (E.Interp.test_input ~seed:1 ~max_blocks:3_000 ())).E.Interp.bb_trace
    in
    let nf = Colayout_ir.Program.num_funcs program in
    let prng = U.Prng.create ~seed:7 in
    let orders =
      Array.init 32 (fun _ ->
          let a = Array.init nf Fun.id in
          U.Prng.shuffle prng a;
          a)
    in
    (* The most distinct executed lines any set of any candidate receives. *)
    let most_lines =
      Array.fold_left
        (fun most order ->
          Array.fold_left max most
            (Kernel_baseline.lines_per_set ~params (Layout.of_function_order program order) trace))
        0 orders
    in
    let engine_ns, seed_ns, cells = single_thread ~params program trace orders in
    Printf.printf
      "  429.mcf user trace (%d events, %s, <= %d lines per set): engine %.2f us, seed %.2f us \
       per candidate (%.1fx)\n%!"
      (T.Trace.length trace) (C.Params.to_string params) most_lines (engine_ns /. 1e3)
      (seed_ns /. 1e3) (seed_ns /. engine_ns);
    Out.(
      obj
        ([
           ("program", str (Colayout_ir.Program.name program));
           ("cache", str (C.Params.to_string params));
           ("trace_len", int (T.Trace.length trace));
           ("orders", int (Array.length orders));
           ("most_lines_per_set", int most_lines);
         ]
        @ cells))
  in
  Out.
    ( [
        ("program", str (Colayout_ir.Program.name program));
        ("num_funcs", int nf);
        ("trace_len", int (T.Trace.length trace));
        ("cache", str (C.Params.to_string params));
        ("orders", int (Array.length orders));
        ("anneal_steps", int steps);
        ("batch_candidates", int (Array.length batch));
      ],
      obj
        [
          ("single_thread", obj single_thread_cells);
          ( "anneal",
            obj
              [
                ("seed_wall_ns", int before_ns);
                ("engine_wall_ns", int after_ns);
                ("speedup", num anneal_speedup);
                ("seed_miss_ratio", num before_mr);
                ("engine_miss_ratio", num after_r.Anneal.miss_ratio);
              ] );
          ("batch", J.Arr batch_runs);
          ("fitting", fitting);
        ] )

(* -------------------------------------------------- layout-eval-delta *)

(* Delta (incremental) evaluation vs full recompute, on the move pattern
   annealing actually produces:

   (a) a dirty-% sweep — four move-locality scenarios (nominal 1% / 5% /
       25% / 100% dirty sets), each replaying the IDENTICAL move sequence
       down both paths: a [Layout_eval.Delta] session (all moves
       committed, periodic resync audits included in the wall) and a
       per-move full [miss_ratio_of_order]. Both per-move ratio streams
       are digested. Each side's wall is the median of five runs, the
       sides alternating, as in (b). Measured dirty-%, the share of dirty
       sets counted without a replay, and replayed-event fractions come
       from [Delta.stats], not the nominal labels.

   (b) the anneal wall, [Anneal.search ~max_span:2] (the local refinement
       regime, scored through a delta session) against the full-evaluation
       oracle [Kernel_baseline.anneal_full] with the same arguments. Both
       draw the same PRNG stream, so both results are digested for an
       exact comparison. Each
       side's wall is the median of five settled runs, the sides
       alternating: the delta wall is a fraction of a millisecond, and one
       scheduler hiccup in a single run could decide the ratio.

   The program is many small functions under a 1024-set cache — the shape
   delta evaluation exists for: a local move perturbs a few hundred bytes
   of address space, so only a handful of sets go dirty. *)

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

(* Both sides' walls are a few hundred microseconds in quick mode: each
   starts from a collected heap, so neither pays a major-GC slice owed by
   the set-up or by the other side's run. *)
let settled_time f =
  Gc.full_major ();
  time f

let layout_eval_delta ~quick ~dir:_ =
  Printf.printf "== Delta evaluation: dirty-set re-simulation vs full recompute ==\n%!";
  let params = layout_eval_delta_params in
  let program = W.Gen.build layout_eval_delta_profile in
  let nf = Colayout_ir.Program.num_funcs program in
  let max_blocks = if quick then 8_000 else 40_000 in
  let trace = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks ()) in
  let trace_len = T.Trace.length trace in
  Printf.printf "   (%d functions, %d-event trace, %s)\n%!" nf trace_len
    (C.Params.to_string params);
  let engine = Layout_eval.create ~params program trace in
  let moves = if quick then 150 else 600 in
  (* (label, nominal dirty-%, draw rule). [span] limits |a - b|;
     [far_relocate] forces end-to-end relocations, which shift every
     function between the endpoints and dirty (essentially) every set. *)
  let scenarios =
    [
      ("local-swap", 1, `Span 1);
      ("near", 5, `Span 3);
      ("mid", 25, `Span (max 2 (nf / 5)));
      ("global", 100, `Far);
    ]
  in
  let scenario (label, nominal_pct, rule) =
    (* The drawn sequence is materialized up front so both paths replay
       byte-identical moves. *)
    let prng = U.Prng.create ~seed:(19 + nominal_pct) in
    let mv_a = Array.make moves 0 and mv_b = Array.make moves 0 in
    let mv_swap = Array.make moves false in
    for i = 0 to moves - 1 do
      match rule with
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
        (* Relocate between the two ends: everything in between shifts. *)
        let head = U.Prng.int prng (max 1 (nf / 16)) in
        let tail = nf - 1 - U.Prng.int prng (max 1 (nf / 16)) in
        let fwd = U.Prng.bool prng ~p:0.5 in
        mv_a.(i) <- (if fwd then head else tail);
        mv_b.(i) <- (if fwd then tail else head);
        mv_swap.(i) <- false
    done;
    let delta () =
      settled_time (fun () ->
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
    let full () =
      settled_time (fun () ->
          let order = Array.init nf Fun.id in
          Array.init moves (fun i ->
              if mv_swap.(i) then Anneal.apply_swap order mv_a.(i) mv_b.(i)
              else Anneal.apply_relocate order mv_a.(i) mv_b.(i);
              Layout_eval.miss_ratio_of_order engine order))
    in
    (* Five runs per side, alternating, as the anneal below: one scenario
       wall is ~0.3 ms at its smallest, and a single run let one
       scheduler hiccup reorder two scenarios' speedups. *)
    let runs =
      List.init 5 (fun _ ->
          let d = delta () in
          (d, full ()))
    in
    let ((delta_ratios, st), _), (full_ratios, _) = List.hd runs in
    let delta_walls = List.map (fun ((_, ns), _) -> ns) runs in
    let full_walls = List.map (fun (_, (_, ns)) -> ns) runs in
    let median walls = int_of_float (U.Stats.median (List.map float_of_int walls)) in
    let delta_ns = median delta_walls and full_ns = median full_walls in
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
    (* Share of the dirty sets counted without a replay (their lines fit). *)
    let fit_pct =
      100.0
      *. float_of_int st.Layout_eval.Delta.fit_sets
      /. float_of_int (max 1 st.Layout_eval.Delta.dirty_sets)
    in
    let speedup = float_of_int full_ns /. float_of_int delta_ns in
    Printf.printf
      "  %-12s nominal %3d%%  measured dirty %5.1f%%  fit %5.1f%%  replayed %5.1f%%  full %8.2f \
       ms  delta %8.2f ms  %6.2fx\n%!"
      label nominal_pct dirty_pct fit_pct replayed_pct
      (float_of_int full_ns /. 1e6)
      (float_of_int delta_ns /. 1e6)
      speedup;
    Out.(
      obj
        [
          ("label", str label);
          ("nominal_dirty_pct", int nominal_pct);
          ("measured_dirty_pct", num dirty_pct);
          ("fit_sets_pct", num fit_pct);
          ("replayed_events_pct", num replayed_pct);
          ("full_wall_ns", int full_ns);
          ("delta_wall_ns", int delta_ns);
          ("full_walls_ns", arr int full_walls);
          ("delta_walls_ns", arr int delta_walls);
          ("speedup", num speedup);
          ("delta_digest", str (digest_ratios delta_ratios));
          ("full_digest", str (digest_ratios full_ratios));
          ("resyncs", int st.Layout_eval.Delta.resyncs);
          ("full_walks", int st.Layout_eval.Delta.full_walks);
        ])
  in
  let scenario_rows = List.map scenario scenarios in
  let steps = if quick then 100 else 400 in
  let pairs =
    List.init 5 (fun _ ->
        let full =
          settled_time (fun () ->
              Kernel_baseline.anneal_full ~seed:11 ~steps ~max_span:2 ~params program trace)
        in
        (full, settled_time (fun () -> Anneal.search ~seed:11 ~steps ~max_span:2 ~params program trace)))
  in
  let (full_r, _), (delta_r, _) = List.hd pairs in
  let walls side = List.map (fun p -> snd (side p)) pairs in
  let median side = int_of_float (U.Stats.median (List.map float_of_int (walls side))) in
  let full_ns = median fst and delta_ns = median snd in
  let result_digest r =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%s|%Ld"
            (String.concat ";" (Array.to_list (Array.map string_of_int r.Anneal.order)))
            (Int64.bits_of_float r.Anneal.miss_ratio)))
  in
  let anneal_speedup = float_of_int full_ns /. float_of_int delta_ns in
  Printf.printf
    "  anneal %d steps (max_span 2, median of 5): full %.2f ms -> delta %.2f ms (%.2fx), miss \
     %.4f\n%!"
    steps
    (float_of_int full_ns /. 1e6)
    (float_of_int delta_ns /. 1e6)
    anneal_speedup full_r.Anneal.miss_ratio;
  Out.
    ( [
        ("program", str (Colayout_ir.Program.name program));
        ("num_funcs", int nf);
        ("trace_len", int trace_len);
        ("cache", str (C.Params.to_string params));
        ("num_sets", int params.C.Params.num_sets);
        ("moves_per_scenario", int moves);
        ("anneal_steps", int steps);
        ("anneal_max_span", int 2);
      ],
      obj
        [
          ("scenarios", J.Arr scenario_rows);
          ( "anneal",
            obj
              [
                ("steps", int steps);
                ("full_wall_ns", int full_ns);
                ("delta_wall_ns", int delta_ns);
                ("full_walls_ns", arr int (walls fst));
                ("delta_walls_ns", arr int (walls snd));
                ("speedup", num anneal_speedup);
                ("miss_ratio", num delta_r.Anneal.miss_ratio);
                ("full_result", str (result_digest full_r));
                ("delta_result", str (result_digest delta_r));
              ] );
        ] )

(* ------------------------------------------------------------ scaling *)

(* Strong/weak scaling of the work-stealing pool on the batch shapes the
   optimizer search produces. A pool task is a *group* of candidate
   evaluations run on a per-worker engine:

   - uniform: every task is a single candidate — the homogeneous batch a
     fixed contiguous split handles adequately;
   - skewed: a few front-loaded "giant" tasks carrying many candidates
     ahead of a tail of singletons — the heterogeneous shape of §IV's
     defensiveness/politeness sweep, which pins the heavy tasks plus a
     full share of the tail onto the first chunk under a fixed split.

   Strong scaling holds total work fixed while jobs grows, under both
   work-stealing (one pool task per group) and the fixed-chunk schedule
   (the contiguous split committed up front as [jobs] meta-tasks through
   the same pool, so only the scheduling differs). Weak scaling
   replicates the base workload [jobs] times. Every pooled run is
   digested next to its jobs = 1 twin. The skewed steal-vs-fixed ratio is
   taken at gate_jobs = min(cores, jobs_max): at wider jobs the workers
   oversubscribe the cores and the OS scheduler, not the pool, sets the
   makespan. *)

let scaling ~quick ~dir:_ =
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
  let eval_group ~worker g =
    Array.map (fun o -> Layout_eval.miss_ratio_of_order engines.(worker) o) g
  in
  let flatten parts = Array.concat (Array.to_list parts) in
  (* Work-stealing: one pool task per group; the pool's initial
     contiguous split is rebalanced by idle workers stealing. *)
  let run_steal ~jobs groups =
    let metrics = U.Metrics.create () in
    let ratios, ns =
      U.Pool.with_pool ~jobs ~metrics (fun pool ->
          time (fun () ->
              flatten (U.Pool.map_array_w pool (fun ~worker g -> eval_group ~worker g) groups)))
    in
    let steals = Option.value ~default:0 (U.Metrics.find_counter metrics "pool.steals") in
    (digest_ratios ratios, ns, steals)
  in
  (* Fixed chunks: the contiguous split committed up front as [jobs]
     meta-tasks, so no task boundary exists inside a chunk to steal. *)
  let run_fixed ~jobs groups =
    let n = Array.length groups in
    let chunk = (n + jobs - 1) / jobs in
    let chunks = Array.init jobs (fun i -> (min n (i * chunk), min n ((i + 1) * chunk))) in
    let ratios, ns =
      U.Pool.with_pool ~jobs (fun pool ->
          time (fun () ->
              flatten
                (U.Pool.map_array_w pool
                   (fun ~worker (lo, hi) ->
                     flatten (Array.init (hi - lo) (fun k -> eval_group ~worker groups.(lo + k))))
                   chunks)))
    in
    (digest_ratios ratios, ns)
  in
  let strong_shape label groups =
    let reference, _, _ = run_steal ~jobs:1 groups in
    let rows =
      List.map
        (fun jobs ->
          let s_digest, s_ns, steals = run_steal ~jobs groups in
          let f_digest, f_ns = run_fixed ~jobs groups in
          Printf.printf "  strong %-8s jobs=%d  steal %8.2f ms  fixed %8.2f ms  (%4d steals)\n%!"
            label jobs
            (float_of_int s_ns /. 1e6)
            (float_of_int f_ns /. 1e6)
            steals;
          (jobs, s_ns, f_ns, steals, s_digest, f_digest))
        jobs_list
    in
    (label, total_evals groups, reference, rows)
  in
  let strong_uniform = strong_shape "uniform" (mk_uniform ((giants * giant_evals) + small_tasks)) in
  let strong_skewed = strong_shape "skewed" (mk_skewed ~giants ~small:small_tasks) in
  let wall_at (_, _, _, rows) jobs =
    let _, s, f, _, _, _ = List.find (fun (j, _, _, _, _, _) -> j = jobs) rows in
    (float_of_int s, float_of_int f)
  in
  let best_uniform_speedup =
    let base = fst (wall_at strong_uniform 1) in
    List.fold_left
      (fun acc j -> Float.max acc (base /. fst (wall_at strong_uniform j)))
      0.0 jobs_list
  in
  let skew_ratio jobs = let s, f = wall_at strong_skewed jobs in f /. s in
  Printf.printf "  skewed steal-vs-fixed: %.2fx at jobs=%d (gate), %.2fx at jobs=%d (max)\n%!"
    (skew_ratio gate_jobs) gate_jobs (skew_ratio jobs_max) jobs_max;
  let weak_shape label mk_base =
    let rows =
      List.map
        (fun jobs ->
          let groups = flatten (Array.init jobs (fun _ -> mk_base ())) in
          let d, ns, _ = run_steal ~jobs groups in
          let seq = if jobs = 1 then d else (fun (d, _, _) -> d) (run_steal ~jobs:1 groups) in
          (jobs, total_evals groups, ns, d, seq))
        jobs_list
    in
    let base = match rows with (_, _, ns, _, _) :: _ -> float_of_int ns | [] -> assert false in
    ( label,
      List.map
        (fun (jobs, evals, ns, d, seq) ->
          let eff = base /. float_of_int ns in
          Printf.printf "  weak   %-8s jobs=%d  %6d evals  %8.2f ms  (efficiency %.2f)\n%!" label
            jobs evals
            (float_of_int ns /. 1e6)
            eff;
          (jobs, evals, ns, eff, d, seq))
        rows )
  in
  let weak_uniform = weak_shape "uniform" (fun () -> mk_uniform (if quick then 8 else 24)) in
  let weak_skewed =
    weak_shape "skewed" (fun () -> mk_skewed ~giants:1 ~small:(if quick then 6 else 12))
  in
  let strong_json ((label, total, reference, rows) as shape) =
    let base = fst (wall_at shape 1) in
    Out.(
      obj
        [
          ("shape", str label);
          ("total_evals", int total);
          ("digest", str reference);
          ( "runs",
            arr
              (fun (jobs, s_ns, f_ns, steals, s_digest, f_digest) ->
                obj
                  [
                    ("jobs", int jobs);
                    ("steal_wall_ns", int s_ns);
                    ("fixed_wall_ns", int f_ns);
                    ("steals", int steals);
                    ("steal_speedup", num (base /. float_of_int s_ns));
                    ("fixed_speedup", num (base /. float_of_int f_ns));
                    ("steal_vs_fixed", num (float_of_int f_ns /. float_of_int s_ns));
                    ("steal_digest", str s_digest);
                    ("fixed_digest", str f_digest);
                  ])
              rows );
        ])
  in
  let weak_json (label, rows) =
    Out.(
      obj
        [
          ("shape", str label);
          ( "runs",
            arr
              (fun (jobs, evals, ns, eff, d, seq) ->
                obj
                  [
                    ("jobs", int jobs);
                    ("evals", int evals);
                    ("wall_ns", int ns);
                    ("efficiency", num eff);
                    ("digest", str d);
                    ("seq_digest", str seq);
                  ])
              rows );
        ])
  in
  Out.
    ( [
        ("program", str (Colayout_ir.Program.name program));
        ("num_funcs", int nf);
        ("trace_len", int (T.Trace.length trace));
        ("cache", str (C.Params.to_string params));
        ("small_tasks", int small_tasks);
        ("giants", int giants);
        ("giant_evals", int giant_evals);
      ],
      obj
        [
          ("jobs_max", int jobs_max);
          ("gate_jobs", int gate_jobs);
          ("strong", J.Arr [ strong_json strong_uniform; strong_json strong_skewed ]);
          ("weak", J.Arr [ weak_json weak_uniform; weak_json weak_skewed ]);
          ("skewed_steal_vs_fixed_at_gate_jobs", num (skew_ratio gate_jobs));
          ("skewed_steal_vs_fixed_at_max_jobs", num (skew_ratio jobs_max));
          ("best_uniform_strong_speedup", num best_uniform_speedup);
        ] )

(* ------------------------------------------------------------- ingest *)

(* The `repro serve` ingest layer and its exactness contract. One stream
   of synthetic users (per-user seed/fuel from each user's own Prng
   stream, Serve's input distribution) is pre-generated once; every
   (walkers, jobs) grid cell then ingests the identical stream through
   [Ingest] and records its finalize digests next to the merged
   batch-kernel reference. Per-walker latency histograms must survive the
   dispatch fold, and one end-to-end [Serve.run] (generation + ingest +
   epoch re-optimization) rounds out the manifest with service-level
   throughput and latency percentiles. *)

let ingest ~quick ~dir:_ =
  Printf.printf "== Streaming ingest: multi-walker online vs batch kernels ==\n\n%!";
  let program_name = "429.mcf" in
  let users = if quick then 10 else 96 in
  let max_fuel = if quick then 1_500 else 6_000 in
  let seed = 1 in
  let trg_window = 64 and affinity_w = 16 in
  let program = W.Spec.build program_name in
  let num_symbols = Colayout_ir.Program.num_blocks program in
  let traces = Array.of_list (serve_users program ~users ~max_fuel ~seed) in
  let total_events = Array.fold_left (fun a t -> a + T.Trace.length t) 0 traces in
  let batch_trg, batch_aff =
    Ingest.batch_digests_parts ~trg_window ~affinity_w (Array.to_list traces)
  in
  let cores = cores_available () in
  let with_cores base = List.sort_uniq compare (if cores > 1 then cores :: base else base) in
  let walkers_list = with_cores [ 1; 2; 4 ] in
  let jobs_list = with_cores [ 1; 2; 4 ] in
  let per_sec count ns = if ns <= 0 then 0.0 else float_of_int count *. 1e9 /. float_of_int ns in
  let cell ~walkers ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let cfg = Ingest.config ~num_symbols ~walkers ~trg_window ~affinity_w () in
        let ing = Ingest.create ~pool cfg in
        let (), ingest_ns = time (fun () -> Array.iter (Ingest.ingest_trace ing) traces) in
        let c, merge_ns = time (fun () -> Ingest.finalize ing) in
        let trg_d, aff_d = Ingest.consensus_digests c in
        let st = Ingest.stats ing in
        Printf.printf
          "  walkers=%d jobs=%d  ingest %8.2f ms  merge %6.2f ms  %8.0f ev/s%s\n%!" walkers jobs
          (float_of_int ingest_ns /. 1e6)
          (float_of_int merge_ns /. 1e6)
          (per_sec total_events ingest_ns)
          (if trg_d = batch_trg && aff_d = batch_aff then "  digests ok" else "  DIGESTS DIFFER");
        ( (walkers, jobs),
          ingest_ns,
          Out.(
            obj
              [
                ("walkers", int walkers);
                ("jobs", int jobs);
                ("ingest_wall_ns", int ingest_ns);
                ("merge_ns", int merge_ns);
                ("events_per_sec", num (per_sec total_events ingest_ns));
                ("traces_per_sec", num (per_sec users ingest_ns));
                ( "edge_ops_per_sec",
                  num (per_sec (st.Ingest.trg_ops + st.Ingest.wit_ops) ingest_ns) );
                ("dispatches", int st.Ingest.dispatches);
                ("trg_digest", str trg_d);
                ("affine_digest", str aff_d);
              ]) ))
  in
  let grid =
    List.concat_map (fun walkers -> List.map (fun jobs -> cell ~walkers ~jobs) jobs_list) walkers_list
  in
  let wall_at point =
    let _, ns, _ = List.find (fun (p, _, _) -> p = point) grid in
    float_of_int ns
  in
  let serial_ns = wall_at (1, 1) in
  (* A single walker never uses the pool, so the best pooled single-walker
     cell bounds what merely having a pool costs the walk. *)
  let best_parallel_vs_serial =
    List.fold_left
      (fun best ((w, jobs), ns, _) ->
        if w = 1 && jobs > 1 then Float.max best (serial_ns /. float_of_int ns) else best)
      0.0 grid
  in
  let gate_width = if cores > 1 then cores else 1 in
  let gate_speedup = serial_ns /. wall_at (gate_width, gate_width) in
  Printf.printf "  walkers=%d jobs=%d is %.2fx the serial walker (%d cores)\n%!" gate_width
    gate_width gate_speedup cores;
  (* --- per-walker latency histograms survive the dispatch fold -------- *)
  let hist_walkers = 2 in
  let walker_hist =
    U.Pool.with_pool ~jobs:2 (fun pool ->
        let metrics = U.Metrics.create () in
        let cfg = Ingest.config ~num_symbols ~walkers:hist_walkers ~trg_window ~affinity_w () in
        let ing = Ingest.create ~pool ~metrics cfg in
        Array.iter (Ingest.ingest_trace ing) traces;
        ignore (Ingest.finalize ing);
        List.init hist_walkers (fun i ->
            let h = U.Metrics.histogram metrics (Printf.sprintf "ingest.walker.%d.trace_ns" i) in
            (i, U.Metrics.observations h, U.Metrics.percentile h 0.50)))
  in
  let hist_sum = List.fold_left (fun a (_, n, _) -> a + n) 0 walker_hist in
  Printf.printf "  histograms: %d per-walker trace observations folded through the pool\n%!"
    hist_sum;
  (* --- one end-to-end service run (generation + epochs + reopt) ----- *)
  let serve =
    U.Pool.with_pool ~jobs:2 (fun pool ->
        H.Serve.run ~pool
          (H.Serve.config
             ~users:(if quick then 8 else 48)
             ~seed ~fuel:max_fuel ~trg_window ~affinity_w
             ~epoch_traces:(if quick then 4 else 12)
             ~reopt_steps:(if quick then 40 else 120)
             ~verify:true ~program:program_name ()))
  in
  Printf.printf "  serve: %.1f traces/s, %.0f events/s, trace p50/p95/p99 = %.0f/%.0f/%.0f us\n%!"
    serve.H.Serve.traces_per_sec serve.H.Serve.events_per_sec
    (serve.H.Serve.trace_p50_ns /. 1e3)
    (serve.H.Serve.trace_p95_ns /. 1e3)
    (serve.H.Serve.trace_p99_ns /. 1e3);
  let ints l = Out.arr Out.int l in
  Out.
    ( [
        ("program", str program_name);
        ("users", int users);
        ("max_fuel", int max_fuel);
        ("seed", int seed);
        ("num_symbols", int num_symbols);
        ("total_events", int total_events);
        ("trg_window", int trg_window);
        ("affinity_w", int affinity_w);
        ("walkers_list", ints walkers_list);
        ("jobs_list", ints jobs_list);
      ],
      obj
        [
          ("batch", obj [ ("trg_digest", str batch_trg); ("affine_digest", str batch_aff) ]);
          ("grid", J.Arr (List.map (fun (_, _, j) -> j) grid));
          ("serial_ingest_ns", int (int_of_float serial_ns));
          ("best_parallel_vs_serial", num best_parallel_vs_serial);
          ( "gate",
            obj
              [
                ("walkers", int gate_width);
                ("jobs", int gate_width);
                ("speedup_vs_serial", num gate_speedup);
              ] );
          ( "walker_hist",
            obj
              [
                ("walkers", int hist_walkers);
                ("jobs", int 2);
                ("total_observations", int hist_sum);
                ( "per_walker",
                  arr
                    (fun (i, n, p50) ->
                      obj
                        [ ("walker", int i); ("observations", int n); ("trace_p50_ns", num p50) ])
                    walker_hist );
              ] );
          ("serve", H.Serve.summary_to_json serve);
        ] )

(* ---------------------------------------------------------------- obs *)

(* The interference observatory end to end. Each co-run cell replays a
   (self layout, peer) pair through the profiled shared cache; the
   owner-tagged sink attributes every eviction to (evictor, victim owner)
   and every non-first miss to (misser, last evictor), from which the
   paper's co-run scores fall out exactly. Each side records the
   interference section (conservation re-checked by the gates), the
   totals of the profiled replay next to a sinkless twin's (attaching the
   observatory must not perturb the experiment), and the cells are
   re-run through a 2-domain pooled context, both passes digested. The
   headline gate requires the optimized self layout to beat the original
   on BOTH defensiveness and politeness in at least two cells. Every cell
   is also recorded through an Obs ring with a live stream sink, producing
   the colayout/obs/v1 JSONL artifact beside the manifest. *)

let stats_totals stats =
  let per f = Out.arr (fun th -> Out.int (f stats th)) [ 0; 1 ] in
  Out.(
    obj
      [
        ("accesses", int (C.Cache_stats.accesses stats));
        ("misses", int (C.Cache_stats.misses stats));
        ("evictions", int (C.Cache_stats.evictions stats));
        ("thread_accesses", per C.Cache_stats.thread_accesses);
        ("thread_misses", per C.Cache_stats.thread_misses);
      ])

let obs ~quick ~dir =
  Printf.printf "== Interference observatory: politeness/defensiveness attribution ==\n\n%!";
  let pairs = [ ("445.gobmk", "403.gcc"); ("403.gcc", "429.mcf"); ("429.mcf", "445.gobmk") ] in
  let opt_kind = Optimizer.Bb_affinity in
  let scale = if quick then H.Ctx.Fast else H.Ctx.Full in
  let measure ctx (self_name, peer_name) kind =
    let self = (self_name, kind) and peer = (peer_name, Optimizer.Original) in
    let stats, sink = H.Ctx.profiled_corun ctx ~hw:false ~self ~peer in
    let bare = H.Ctx.corun_stats ctx ~hw:false ~self ~peer in
    let label = Printf.sprintf "%s(%s)|%s" self_name (Optimizer.kind_name kind) peer_name in
    let interference =
      try C.Profile.interference_json ~label ~sink ~stats
      with Invalid_argument msg -> Out.(obj [ ("error", str msg) ])
    in
    let def = C.Profile_sink.defensiveness sink ~thread:0 in
    let pol = C.Profile_sink.politeness sink ~thread:0 in
    ( interference,
      (def, pol),
      Out.(
        obj
          [
            ("miss_ratio", num (C.Cache_stats.thread_miss_ratio stats 0));
            ("defensiveness", num def);
            ("politeness", num pol);
            ("interference", interference);
            ("profiled_totals", stats_totals stats);
            ("bare_totals", stats_totals bare);
          ]) )
  in
  let run_cells ctx =
    List.map (fun p -> (p, measure ctx p Optimizer.Original, measure ctx p opt_kind)) pairs
  in
  let serialized rows =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.concat_map
               (fun (_, (bj, _, _), (oj, _, _)) -> [ J.to_string bj; J.to_string oj ])
               rows)))
  in
  let rows = run_cells (H.Ctx.create ~scale ()) in
  let rows_j2 = U.Pool.with_pool ~jobs:2 (fun pool -> run_cells (H.Ctx.create ~scale ~pool ())) in
  let stream_path = Filename.concat dir "BENCH_obs.jsonl" in
  let obs = U.Obs.create () in
  let corun =
    Out_channel.with_open_bin stream_path (fun oc ->
        U.Obs.set_stream obs (Some (fun line -> output_string oc (line ^ "\n")));
        let corun =
          List.map
            (fun ((self_name, peer_name), (bj, (bdef, bpol), bside), (oj, (odef, opol), oside)) ->
              let improved = odef > bdef && opol > bpol in
              U.Obs.record obs ~label:"cell"
                ([
                   ("self", J.Str self_name);
                   ("peer", J.Str peer_name);
                   ("baseline", bj);
                   ("optimized", oj);
                   ("improved_both", J.Bool improved);
                 ]
                @ U.Obs.gc_fields ());
              Printf.printf "  %-10s | %-10s  def %.4f -> %.4f  pol %.4f -> %.4f%s\n%!" self_name
                peer_name bdef odef bpol opol
                (if improved then "  (improved both)" else "");
              (improved, Out.(
                obj
                  [
                    ("self", str self_name);
                    ("peer", str peer_name);
                    ("optimizer", str (Optimizer.kind_name opt_kind));
                    ("baseline", bside);
                    ("optimized", oside);
                    ("improved_both", bool improved);
                  ])))
            rows
        in
        U.Obs.set_stream obs None;
        corun)
  in
  let improved = List.length (List.filter fst corun) in
  Printf.printf "  %d/%d cells improved on both scores\n%!" improved (List.length corun);
  Out.
    ( [
        ("scale", str (if quick then "fast" else "full"));
        ("optimizer", str (Optimizer.kind_name opt_kind));
        ("hw", bool false);
        ("threads", int 2);
      ],
      obj
        [
          ("corun", J.Arr (List.map snd corun));
          ("cells_improved_both", int improved);
          ( "jobs_digests",
            obj [ ("jobs1", str (serialized rows)); ("jobs2", str (serialized rows_j2)) ] );
          ("obs_stream", str (Filename.basename stream_path));
          ("obs_recorded", int (U.Obs.recorded obs));
          ("obs_dropped", int (U.Obs.dropped obs));
        ] )

let sections =
  [
    ("kernels", kernels);
    ("harness", harness);
    ("parallel", parallel);
    ("profile", profile);
    ("layout-eval", layout_eval);
    ("layout-eval-delta", layout_eval_delta);
    ("scaling", scaling);
    ("ingest", ingest);
    ("obs", obs);
  ]

let () =
  let quick = ref false and only = ref [] and out = ref "." in
  let check = ref None in
  let names = String.concat "," (List.map fst sections) in
  Arg.parse
    [
      ("--quick", Arg.Set quick, " small inputs for every section (CI smoke run)");
      ( "--only",
        Arg.String (fun s -> only := String.split_on_char ',' s),
        "NAME,... run only these sections (" ^ names ^ ")" );
      ( "--out",
        Arg.Set_string out,
        "DIR directory for the BENCH_<section>.json manifests (default .)" );
      ( "--check",
        Arg.Rest_all (fun files -> check := Some files),
        "FILE... re-evaluate the gates of written manifests instead of running" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe [--quick] [--only NAME,...] [--out DIR] | --check FILE...";
  match !check with
  | Some [] ->
    prerr_endline "bench/main.exe: --check needs at least one manifest";
    exit 2
  | Some files -> exit (if Gates.check_files files = 0 then 0 else 1)
  | None ->
    let selected =
      if !only = [] then sections
      else
        List.map
          (fun n ->
            match List.assoc_opt n sections with
            | Some s -> (n, s)
            | None ->
              Printf.eprintf "bench/main.exe: unknown section %S (known: %s)\n" n names;
              exit 2)
          !only
    in
    H.Report.setup H.Report.Quiet;
    U.Fsutil.mkdir_p !out;
    let results = List.map (run_section ~quick:!quick ~dir:!out) selected in
    (* A quick run's digest lines, under the golden file's header, so that
       an intended change regenerates bench/golden_digests.txt by copying
       this file over it (the command is in its header). *)
    if !quick then
      Out_channel.with_open_text (Filename.concat !out "quick_digests.actual") (fun oc ->
          List.iter
            (fun l -> output_string oc (l ^ "\n"))
            (Gates.golden_header Golden_digests.text @ List.concat_map snd results));
    let failed = List.fold_left (fun n (f, _) -> n + f) 0 results in
    if failed > 0 then begin
      Printf.eprintf "bench/main.exe: %d gate(s) failed\n%!" failed;
      exit 1
    end
