(* Gate-rejection tests for the bench manifests (bench/gates.ml).

   For every section: one well-formed manifest that passes every gate (in
   full mode on a 2-core host, so every gate applies), then for every
   declared gate a copy in which only that gate's operand is perturbed —
   a digest flipped, a cap exceeded, a speedup under its floor, an order
   broken — which must be rejected with that gate named. The conditions
   are checked too: a multicore gate is skipped on one recorded core and
   a full-mode gate in quick mode. *)

module J = Colayout_util.Json

let i n = J.Int n

let f x = J.Float x

let s x = J.Str x

let o kvs = J.Obj kvs

let a l = J.Arr l

let manifest ?(params = []) section cells =
  o
    [
      ("schema", s Gates.schema);
      ("section", s section);
      ("mode", s "full");
      ("host", o [ ("cpu", s "test"); ("cores_available", i 2); ("ocaml", s Sys.ocaml_version) ]);
      ("runtime", o [ ("wall_ns", i 1_000) ]);
      ("params", o params);
      ("cells", o cells);
    ]

(* ---------------------------------------------- well-formed manifests *)

let jobs_runs =
  a (List.map (fun j -> o [ ("jobs", i j); ("wall_ns", i 100); ("digest", s "d") ]) [ 1; 2; 4 ])

let kernels =
  manifest "kernels"
    [
      ("reduce", o [ ("flat_digest", s "r"); ("seed_digest", s "r") ]);
      ( "reduce_real",
        o [ ("program", s "p"); ("flat_digest", s "g"); ("seed_digest", s "g") ] );
      ("memory_words", o [ ("trg_packed_csr", i 10); ("trg_tuple_hashtbl", i 30) ]);
      ( "corun",
        o
          [
            ("program", s "p");
            ("peer", s "q");
            ("trace_words", i 400);
            ("indexed_digest", s "c");
            ("seed_digest", s "c");
            ("gc_per_call", o [ ("indexed", o [ ("major_words", f 40.0) ]) ]);
          ] );
      ("solo", o [ ("program", s "p"); ("indexed_digest", s "d"); ("seed_digest", s "d") ]);
      ( "interp",
        o
          [
            ( "runs",
              a
                (List.map
                   (fun case ->
                     o
                       [
                         ("case", s case);
                         ("blocks", i 100);
                         ("flat_digest", s "i");
                         ("seed_digest", s "i");
                         ("gc_per_call", o [ ("flat", o [ ("minor_words", f 50.0) ]) ]);
                       ])
                   [ "p ref"; "q serve" ]) );
          ] );
      ( "ingest_walk",
        o
          [
            ("program", s "p");
            ("flagged_trg_digest", s "t");
            ("flagged_affine_digest", s "a");
            ("scanning_trg_digest", s "t");
            ("scanning_affine_digest", s "a");
          ] );
      ( "pair_grid",
        o
          [
            ("grid_cells", i 100);
            ("pair_marks_words", i 40);
            ("reduce_rows_words", i 60);
            ( "kernels",
              a
                (List.map
                   (fun name ->
                     o [ ("name", s name); ("gc_per_call", o [ ("major_words", f 20.0) ]) ])
                   [ "trg-build"; "affinity-thresholds"; "trg-reduce" ]) );
          ] );
    ]

let harness = manifest "harness" [ ("stages", a [ o [ ("name", s "interp"); ("total_ns", i 5) ] ]) ]

let parallel =
  manifest "parallel"
    [ ("runs", jobs_runs); ("speedup", o [ ("jobs2", f 1.5); ("jobs4", f 1.2) ]) ]

let classification ~misses ~conflict =
  o
    [
      ("accesses", i 100);
      ("misses", i misses);
      ("cold", i 2);
      ("capacity", i 3);
      ("conflict", i conflict);
      ("evictions", i 1);
    ]

let profile =
  manifest "profile"
    [
      ( "workloads",
        a
          [
            o
              [
                ("program", s "p");
                ("baseline", classification ~misses:10 ~conflict:5);
                ("optimized", classification ~misses:8 ~conflict:3);
                ("conflict_drop", i 2);
              ];
          ] );
    ]

let layout_eval =
  manifest "layout-eval"
    [
      ( "single_thread",
        o
          [
            ("engine_ns_per_eval", f 10.0);
            ("seed_ns_per_eval", f 60.0);
            ("speedup", f 6.0);
            ("engine_digest", s "e");
            ("seed_digest", s "e");
          ] );
      ("anneal", o [ ("seed_wall_ns", i 10); ("engine_wall_ns", i 5) ]);
      ("batch", jobs_runs);
      ("fitting", o [ ("engine_digest", s "f"); ("seed_digest", s "f") ]);
    ]

let layout_eval_delta =
  let scenario (label, nominal, speedup) =
    o
      [
        ("label", s label);
        ("nominal_dirty_pct", i nominal);
        ("measured_dirty_pct", f 1.0);
        ("replayed_events_pct", f 1.0);
        ("full_wall_ns", i 10);
        ("delta_wall_ns", i 5);
        ("speedup", f speedup);
        ("delta_digest", s "d");
        ("full_digest", s "d");
        ("resyncs", i 0);
        ("full_walks", i 0);
      ]
  in
  manifest "layout-eval-delta"
    [
      ( "scenarios",
        a (List.map scenario [ ("a", 1, 8.0); ("b", 5, 6.0); ("c", 25, 3.0); ("d", 100, 1.0) ]) );
      ( "anneal",
        o
          [
            ("steps", i 10);
            ("full_wall_ns", i 40);
            ("delta_wall_ns", i 10);
            ("speedup", f 4.0);
            ("full_result", s "r");
            ("delta_result", s "r");
          ] );
    ]

let scaling =
  let strong shape =
    o
      [
        ("shape", s shape);
        ("total_evals", i 4);
        ("digest", s "d");
        ( "runs",
          a
            (List.map
               (fun j ->
                 o
                   [
                     ("jobs", i j);
                     ("steal_wall_ns", i 10);
                     ("fixed_wall_ns", i 15);
                     ("steal_vs_fixed", f 1.5);
                     ("steal_digest", s "d");
                     ("fixed_digest", s "d");
                   ])
               [ 1; 2 ]) );
      ]
  in
  let weak shape =
    o
      [
        ("shape", s shape);
        ( "runs",
          a
            (List.map
               (fun j ->
                 o
                   [
                     ("jobs", i j);
                     ("wall_ns", i 10);
                     ("evals", i 4);
                     ("efficiency", f 1.0);
                     ("digest", s "w");
                     ("seq_digest", s "w");
                   ])
               [ 1; 2 ]) );
      ]
  in
  manifest "scaling"
    [
      ("jobs_max", i 2);
      ("gate_jobs", i 2);
      ("strong", a [ strong "uniform"; strong "skewed" ]);
      ("weak", a [ weak "uniform"; weak "skewed" ]);
      ("skewed_steal_vs_fixed_at_gate_jobs", f 1.5);
      ("best_uniform_strong_speedup", f 1.2);
    ]

let ingest =
  let cell w j =
    o
      [
        ("walkers", i w);
        ("jobs", i j);
        ("ingest_wall_ns", i 10);
        ("merge_ns", i 5);
        ("dispatches", i 1);
        ("events_per_sec", f 1.0);
        ("traces_per_sec", f 1.0);
        ("edge_ops_per_sec", f 1.0);
        ("trg_digest", s "t");
        ("affine_digest", s "a");
      ]
  in
  let ints l = a (List.map i l) in
  manifest "ingest"
    ~params:
      [
        ("users", i 4);
        ("walkers_list", ints [ 1; 2 ]);
        ("jobs_list", ints [ 1; 2; 4 ]);
      ]
    [
      ("batch", o [ ("trg_digest", s "t"); ("affine_digest", s "a") ]);
      ("grid", a (List.concat_map (fun w -> List.map (cell w) [ 1; 2; 4 ]) [ 1; 2 ]));
      ("serial_ingest_ns", i 10);
      ("best_parallel_vs_serial", f 1.0);
      ("gate", o [ ("walkers", i 2); ("speedup_vs_serial", f 2.0) ]);
      ( "walker_hist",
        o
          [
            ("walkers", i 2);
            ("total_observations", i 4);
            ("per_walker", a [ o [ ("observations", i 2) ]; o [ ("observations", i 2) ] ]);
          ] );
      ( "serve",
        o
          [
            ("schema", s "colayout/serve/v2");
            ("verify", o [ ("digests_match", J.Bool true) ]);
            ("traces_per_sec", f 1.0);
            ("trace_p50_ns", f 1.0);
            ("trace_p95_ns", f 2.0);
            ("trace_p99_ns", f 3.0);
            ("epochs", a [ o [] ]);
          ] );
    ]

(* Two threads whose matrices conserve: thread 0 misses 1 first + 1 + 1,
   thread 1 misses 1 first + 0 + 1; 0 suffers 1 of its 10 accesses. *)
let interference =
  o
    [
      ("threads", i 2);
      ("accesses", a [ i 10; i 10 ]);
      ("misses", a [ i 3; i 2 ]);
      ("evictions", i 3);
      ("ev_matrix", a [ a [ i 1; i 1 ]; a [ i 0; i 1 ] ]);
      ("miss_matrix", a [ a [ i 1; i 1 ]; a [ i 0; i 1 ] ]);
      ("first_misses", a [ i 1; i 1 ]);
      ("suffered", a [ i 1; i 0 ]);
      ("inflicted", a [ i 0; i 1 ]);
      ("defensiveness", a [ f 0.9; f 1.0 ]);
      ("politeness", a [ f 0.5; f 0.5 ]);
    ]

let obs =
  let side def pol =
    o
      [
        ("defensiveness", f def);
        ("politeness", f pol);
        ("interference", interference);
        ("profiled_totals", o [ ("accesses", i 20) ]);
        ("bare_totals", o [ ("accesses", i 20) ]);
      ]
  in
  let cell self =
    o
      [
        ("self", s self);
        ("peer", s "q");
        ("baseline", side 0.9 0.5);
        ("optimized", side 0.95 0.6);
        ("improved_both", J.Bool true);
      ]
  in
  manifest "obs"
    [
      ("corun", a [ cell "p"; cell "r" ]);
      ("cells_improved_both", i 2);
      ("jobs_digests", o [ ("jobs1", s "j"); ("jobs2", s "j") ]);
      ("obs_recorded", i 2);
    ]

let manifests =
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

(* ------------------------------------------------------ perturbations *)

(* [update path fn j] rewrites the value at [path]: object keys, or
   decimal indices into arrays. *)
let rec update path fn j =
  match (path, j) with
  | [], _ -> fn j
  | k :: rest, J.Obj kvs ->
    if not (List.mem_assoc k kvs) then Alcotest.failf "no key %S to perturb" k;
    J.Obj (List.map (fun (k', v) -> if k' = k then (k', update rest fn v) else (k', v)) kvs)
  | k :: rest, J.Arr l ->
    let n = int_of_string k in
    if n >= List.length l then Alcotest.failf "no index %d to perturb" n;
    J.Arr (List.mapi (fun idx v -> if idx = n then update rest fn v else v) l)
  | k :: _, _ -> Alcotest.failf "cannot descend into %S" k

let set path v = update path (fun _ -> v)

let cells path = "cells" :: path

let keep n = function J.Arr l -> J.Arr (List.filteri (fun idx _ -> idx < n) l) | j -> j

let ( >> ) p q j = q (p j)

(* (section, gate, perturbation): one line per declared gate. *)
let perturbations =
  [
    ("kernels", "trg-reduce-matches-seed", set (cells [ "reduce"; "seed_digest" ]) (s "x"));
    ( "kernels",
      "trg-reduce-real-matches-seed",
      set (cells [ "reduce_real"; "flat_digest" ]) (s "x") );
    ("kernels", "corun-matches-seed", set (cells [ "corun"; "indexed_digest" ]) (s "x"));
    ("kernels", "solo-matches-seed", set (cells [ "solo"; "seed_digest" ]) (s "x"));
    ( "kernels",
      "ingest-walk-matches-oracle",
      set (cells [ "ingest_walk"; "scanning_trg_digest" ]) (s "x") );
    ( "kernels",
      "ingest-walk-matches-oracle",
      set (cells [ "ingest_walk"; "flagged_affine_digest" ]) (s "x") );
    ("kernels", "interp-matches-seed", set (cells [ "interp"; "runs"; "1"; "seed_digest" ]) (s "x"));
    ( "kernels",
      "interp-alloc-below-blocks",
      set (cells [ "interp"; "runs"; "0"; "gc_per_call"; "flat"; "minor_words" ]) (f 100.0) );
    ( "kernels",
      "corun-no-trace-copy",
      set (cells [ "corun"; "gc_per_call"; "indexed"; "major_words" ]) (f 400.0) );
    ( "kernels",
      "pair-grid-no-alloc",
      set (cells [ "pair_grid"; "kernels"; "2"; "gc_per_call"; "major_words" ]) (f 100.0) );
    ( "kernels",
      "pair-marks-no-alloc",
      set (cells [ "pair_grid"; "kernels"; "1"; "gc_per_call"; "major_words" ]) (f 40.0) );
    ( "kernels",
      "pair-marks-no-alloc",
      set (cells [ "pair_grid"; "kernels"; "1"; "name" ]) (s "affinity-cut") );
    ( "kernels",
      "trg-reduce-rows-reused",
      set (cells [ "pair_grid"; "kernels"; "2"; "gc_per_call"; "major_words" ]) (f 60.0) );
    ( "kernels",
      "trg-reduce-rows-reused",
      set (cells [ "pair_grid"; "kernels"; "2"; "name" ]) (s "trg-reduce-seed") );
    ("kernels", "trg-memory-halved", set (cells [ "memory_words"; "trg_packed_csr" ]) (i 16));
    ("harness", "stage-durations", set (cells [ "stages"; "0"; "total_ns" ]) (i (-1)));
    ("parallel", "jobs-invariant", set (cells [ "runs"; "2"; "digest" ]) (s "x"));
    ("parallel", "walls-positive", set (cells [ "runs"; "1"; "wall_ns" ]) (i 0));
    ( "parallel",
      "best-speedup-1x",
      set (cells [ "speedup"; "jobs2" ]) (f 0.5) >> set (cells [ "speedup"; "jobs4" ]) (f 0.8) );
    ("profile", "classification-sums", set (cells [ "workloads"; "0"; "baseline"; "cold" ]) (i 3));
    ( "profile",
      "conflict-drop-consistent",
      set (cells [ "workloads"; "0"; "conflict_drop" ]) (i 3) );
    ( "profile",
      "conflict-drop",
      set (cells [ "workloads"; "0"; "optimized" ]) (classification ~misses:10 ~conflict:5)
      >> set (cells [ "workloads"; "0"; "conflict_drop" ]) (i 0) );
    ("layout-eval", "engine-matches-seed", set (cells [ "single_thread"; "seed_digest" ]) (s "x"));
    ("layout-eval", "batch-jobs-invariant", set (cells [ "batch"; "1"; "digest" ]) (s "x"));
    ( "layout-eval",
      "fitting-engine-matches-seed",
      set (cells [ "fitting"; "engine_digest" ]) (s "x") );
    ("layout-eval", "timings-positive", set (cells [ "anneal"; "engine_wall_ns" ]) (i 0));
    ("layout-eval", "single-thread-speedup-5x", set (cells [ "single_thread"; "speedup" ]) (f 4.0));
    ("layout-eval", "single-thread-speedup-1x", set (cells [ "single_thread"; "speedup" ]) (f 0.9));
    ( "layout-eval-delta",
      "delta-matches-full",
      set (cells [ "scenarios"; "0"; "full_digest" ]) (s "x") );
    ( "layout-eval-delta",
      "anneal-modes-identical",
      set (cells [ "anneal"; "delta_result" ]) (s "x") );
    ( "layout-eval-delta",
      "timings-positive",
      set (cells [ "scenarios"; "1"; "delta_wall_ns" ]) (i 0) );
    ( "layout-eval-delta",
      "counters-in-range",
      set (cells [ "scenarios"; "2"; "measured_dirty_pct" ]) (f 120.0) );
    ( "layout-eval-delta",
      "full-dirty-no-speedup",
      set (cells [ "scenarios"; "3"; "speedup" ]) (f 1.6) );
    ("layout-eval-delta", "speedup-monotone", set (cells [ "scenarios"; "1"; "speedup" ]) (f 9.0));
    ("layout-eval-delta", "anneal-speedup-3x", set (cells [ "anneal"; "speedup" ]) (f 2.0));
    ( "layout-eval-delta",
      "lowest-dirty-speedup-1x",
      set (cells [ "scenarios"; "0"; "speedup" ]) (f 0.9) );
    ("layout-eval-delta", "anneal-speedup-1x", set (cells [ "anneal"; "speedup" ]) (f 0.9));
    ("scaling", "jobs-range", set (cells [ "gate_jobs" ]) (i 3));
    ("scaling", "shapes-cover-jobs", update (cells [ "weak"; "1"; "runs" ]) (keep 1));
    ( "scaling",
      "results-deterministic",
      set (cells [ "strong"; "1"; "runs"; "1"; "fixed_digest" ]) (s "x") );
    ( "scaling",
      "walls-positive",
      set (cells [ "strong"; "0"; "runs"; "0"; "steal_wall_ns" ]) (i 0) );
    ( "scaling",
      "skewed-steal-vs-fixed-1.3x",
      set (cells [ "skewed_steal_vs_fixed_at_gate_jobs" ]) (f 1.2) );
    ("scaling", "best-uniform-speedup-1x", set (cells [ "best_uniform_strong_speedup" ]) (f 0.9));
    ("ingest", "grid-matches-batch", set (cells [ "grid"; "3"; "affine_digest" ]) (s "x"));
    ("ingest", "grid-covers", update (cells [ "grid" ]) (keep 5));
    ("ingest", "grid-positive", set (cells [ "grid"; "4"; "dispatches" ]) (i 0));
    ( "ingest",
      "walker-hist-covers",
      set (cells [ "walker_hist"; "per_walker"; "1"; "observations" ]) (i 1) );
    ("ingest", "serve-verified", set (cells [ "serve"; "verify"; "digests_match" ]) (J.Bool false));
    ("ingest", "serve-latency-ordered", set (cells [ "serve"; "trace_p95_ns" ]) (f 5.0));
    ("ingest", "pooled-vs-serial-0.8x", set (cells [ "best_parallel_vs_serial" ]) (f 0.7));
    ("ingest", "walkers-vs-serial-1.5x", set (cells [ "gate"; "speedup_vs_serial" ]) (f 1.4));
    ( "obs",
      "conservation",
      set (cells [ "corun"; "0"; "baseline"; "interference"; "ev_matrix"; "0"; "0" ]) (i 2) );
    ( "obs",
      "sink-transparent",
      set (cells [ "corun"; "1"; "optimized"; "bare_totals"; "accesses" ]) (i 21) );
    ("obs", "jobs-invariant", set (cells [ "jobs_digests"; "jobs2" ]) (s "x"));
    ("obs", "improved-both", set (cells [ "corun"; "1"; "optimized"; "politeness" ]) (f 0.4));
    ("obs", "obs-stream-recorded", set (cells [ "obs_recorded" ]) (i 3));
  ]
  @ List.map
      (fun (section, _) -> (section, "envelope", set [ "schema" ] (s "colayout/bench/v1")))
      manifests

let failing m = List.map fst (Gates.failed (Gates.evaluate m))

let gate_of section name =
  match List.find_opt (fun g -> g.Gates.name = name) (List.assoc section Gates.sections) with
  | Some g -> g
  | None when name = "envelope" -> Gates.envelope
  | None -> Alcotest.failf "%s has no gate %s" section name

let test_well_formed_pass () =
  List.iter
    (fun (section, m) ->
      Alcotest.(check (list string)) (section ^ " passes every gate") [] (failing m);
      List.iter
        (fun (g, v) ->
          if v = Gates.Skipped then
            Alcotest.failf "%s/%s skipped in full mode on 2 cores" section g.Gates.name)
        (Gates.evaluate m))
    manifests

let test_every_gate_perturbed () =
  List.iter
    (fun (section, gates) ->
      List.iter
        (fun name ->
          if not (List.exists (fun (s', g, _) -> s' = section && g = name) perturbations) then
            Alcotest.failf "%s/%s has no perturbation case" section name)
        ("envelope" :: List.map (fun g -> g.Gates.name) gates))
    Gates.sections

let test_perturbations_rejected () =
  List.iter
    (fun (section, name, perturb) ->
      ignore (gate_of section name);
      let fails = failing (perturb (List.assoc section manifests)) in
      if not (List.mem name fails) then
        Alcotest.failf "%s/%s: perturbed copy not rejected by that gate (failed: [%s])" section name
          (String.concat "; " fails))
    perturbations

(* The same perturbation outside a gate's condition is not judged by it. *)
let test_conditions () =
  List.iter
    (fun (section, name, perturb) ->
      let g = gate_of section name in
      let outside =
        (if g.Gates.multicore then [ set [ "host"; "cores_available" ] (i 1) ] else [])
        @ if g.Gates.full_only then [ set [ "mode" ] (s "quick") ] else []
      in
      List.iter
        (fun relax ->
          let fails = failing (relax (perturb (List.assoc section manifests))) in
          if List.mem name fails then
            Alcotest.failf "%s/%s judged outside its condition" section name)
        outside)
    perturbations

(* [--check] on files: a passing manifest, a perturbed one, a broken one. *)
let test_check_files () =
  let write name m =
    let path = Filename.temp_file "bench-gates" name in
    Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string ~pretty:true m));
    path
  in
  let good = write "good.json" obs in
  let bad = write "bad.json" (set (cells [ "jobs_digests"; "jobs2" ]) (s "x") obs) in
  let broken = Filename.temp_file "bench-gates" "broken.json" in
  Out_channel.with_open_bin broken (fun oc -> output_string oc "{\"schema\":");
  Alcotest.(check int) "passing manifest" 0 (Gates.check_files [ good ]);
  Alcotest.(check int) "one failed gate" 1 (Gates.check_files [ good; bad ]);
  Alcotest.(check int) "unparsable manifest" 1 (Gates.check_files [ broken ]);
  List.iter Sys.remove [ good; bad; broken ]

(* Golden digests: a quick manifest passes against a file of its own
   digest lines; a changed or missing digest field is rejected, naming
   its path; only quick manifests are compared with the committed file. *)
let test_golden_digests () =
  let quick = set [ "mode" ] (s "quick") kernels in
  let lines = Gates.digest_lines quick in
  Alcotest.(check bool)
    "a digest field under an array is a line" true
    (List.mem "kernels cells.interp.runs[1].seed_digest i" lines);
  let golden = Gates.golden_gate (String.concat "\n" ("# header" :: lines)) in
  let verdict m = Gates.run golden m in
  Alcotest.(check bool) "own lines pass" true (verdict quick = Gates.Passed);
  (match verdict (set (cells [ "reduce"; "flat_digest" ]) (s "x") quick) with
  | Gates.Failed_with why ->
    Alcotest.(check string) "changed" "cells.reduce.flat_digest is x, golden r" why
  | _ -> Alcotest.fail "a changed digest passed");
  (match verdict (set (cells [ "solo" ]) (o [ ("program", s "p") ]) quick) with
  | Gates.Failed_with why ->
    Alcotest.(check string) "missing" "cells.solo.indexed_digest is missing (golden d)" why
  | _ -> Alcotest.fail "a missing digest passed");
  let judged m = List.exists (fun (g, _) -> g.Gates.name = "golden-digests") (Gates.evaluate m) in
  Alcotest.(check bool) "full mode not compared" false (judged kernels);
  Alcotest.(check bool) "quick mode compared" true (judged quick)

let () =
  Alcotest.run "bench_gates"
    [
      ( "gates",
        [
          Alcotest.test_case "well-formed manifests pass" `Quick test_well_formed_pass;
          Alcotest.test_case "every gate has a perturbation" `Quick test_every_gate_perturbed;
          Alcotest.test_case "perturbations rejected" `Quick test_perturbations_rejected;
          Alcotest.test_case "conditions" `Quick test_conditions;
          Alcotest.test_case "check files" `Quick test_check_files;
          Alcotest.test_case "golden digests" `Quick test_golden_digests;
        ] );
    ]
