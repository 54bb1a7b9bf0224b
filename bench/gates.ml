(* The pass/fail conditions of every bench manifest, declared once as data.

   A gate is a name, the condition under which it applies (full mode only,
   a host with >= 2 recorded cores) and a predicate over the written
   manifest. The bench evaluates a section's list right after writing its
   manifest, and [main.exe --check FILE...] evaluates it again on any
   manifest, so a committed file can be re-judged without re-running it.
   Predicates read only the manifest: every exactness contract is recorded
   as two digests (or two totals) that the gate compares. *)

module J = Colayout_util.Json

let schema = "colayout/bench/v2"

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let ensure ok fmt = Printf.ksprintf (fun s -> if not ok then raise (Failed s)) fmt

(* Accessors: a missing or mistyped operand fails the gate that reads it. *)
let get k j = match J.member k j with Some v -> v | None -> fail "missing field %S" k

let typed conv what k j =
  match conv (get k j) with Some v -> v | None -> fail "field %S is not %s" k what

let int = typed J.to_int "an integer"

let num = typed J.to_float "a number"

let str = typed J.to_str "a string"

let bool = typed J.to_bool "a boolean"

let list = typed J.to_list "an array"

let ints k j =
  List.map
    (fun v -> match J.to_int v with Some i -> i | None -> fail "%S holds a non-integer" k)
    (list k j)

let cells m = get "cells" m

let mode m = str "mode" m

let cores m = int "cores_available" (get "host" m)

let at_least what v floor = ensure (v >= floor) "%s is %.2fx (< %.2fx)" what v floor

let positive what v = ensure (v > 0) "%s is not positive (%d)" what v

let positive_num what v = ensure (v > 0.0) "%s is not positive (%g)" what v

let nonempty what = function [] -> fail "no %s" what | l -> l

let covers what seen want =
  List.iter (fun x -> ensure (List.mem x seen) "%s has no entry for %d" what x) want

(* Every row carries a non-empty [key] digest, and all of them agree. *)
let one_digest ?(key = "digest") what rows =
  match List.map (str key) (nonempty what rows) with
  | d :: rest ->
    ensure (d <> "") "%s has an empty %s" what key;
    List.iter (fun d' -> ensure (d' = d) "%s %s %s differs from %s" what key d' d) rest
  | [] -> ()

type gate = {
  name : string;
  full_only : bool;  (** Applies in full mode only. *)
  multicore : bool;  (** Applies only with >= 2 recorded cores. *)
  check : J.t -> unit;  (** Raises [Failed] with the reason. *)
}

let gate ?(full_only = false) ?(multicore = false) name check =
  { name; full_only; multicore; check }

(* Checked on every manifest before its section's list. *)
let envelope =
  gate "envelope" (fun m ->
      ensure (str "schema" m = schema) "schema %S, expected %S" (str "schema" m) schema;
      ensure (mode m = "quick" || mode m = "full") "unknown mode %S" (mode m);
      ignore (cores m);
      positive "runtime.wall_ns" (int "wall_ns" (get "runtime" m)))

(* A gate on the one [pair_grid] kernel whose name ends in [kernel]: a
   steady-state call allocates fewer major words than the cell's
   [field], the words of [what] that the kernel borrows. *)
let pair_kernel_below name ~kernel ~field ~what =
  gate name (fun m ->
      let r = get "pair_grid" (cells m) in
      let words = int field r in
      match
        List.filter (fun k -> String.ends_with ~suffix:kernel (str "name" k)) (list "kernels" r)
      with
      | [ k ] ->
        let major = num "major_words" (get "gc_per_call" k) in
        ensure
          (major < float_of_int words)
          "one %s call allocates %.0f major words, no fewer than its %d words of %s" kernel major
          words what
      | _ -> fail "no single %s kernel among the pair_grid kernels" kernel)

(* ------------------------------------------------------------ sections *)

let kernels =
  [
    gate "trg-reduce-matches-seed" (fun m ->
        let r = get "reduce" (cells m) in
        ensure (str "flat_digest" r = str "seed_digest" r)
          "flat TRG reduction diverges from the seed reduction");
    gate "trg-reduce-real-matches-seed" (fun m ->
        let r = get "reduce_real" (cells m) in
        ensure (str "flat_digest" r = str "seed_digest" r)
          "flat reduction of the %s bb TRG diverges from the seed reduction" (str "program" r));
    gate "corun-matches-seed" (fun m ->
        let r = get "corun" (cells m) in
        ensure
          (str "indexed_digest" r = str "seed_digest" r)
          "indexed co-run replay of %s vs %s diverges from the per-line oracle" (str "program" r)
          (str "peer" r));
    gate "solo-matches-seed" (fun m ->
        let r = get "solo" (cells m) in
        ensure
          (str "indexed_digest" r = str "seed_digest" r)
          "indexed solo replay of %s diverges from the per-line oracle" (str "program" r));
    gate "ingest-walk-matches-oracle" (fun m ->
        let r = get "ingest_walk" (cells m) in
        List.iter
          (fun what ->
            ensure
              (str ("flagged_" ^ what ^ "_digest") r = str ("scanning_" ^ what ^ "_digest") r)
              "the %s ingest walk's %s digest diverges from the scanning oracle's"
              (str "program" r) what)
          [ "trg"; "affine" ]);
    gate "interp-matches-seed" (fun m ->
        List.iter
          (fun r ->
            ensure
              (str "flat_digest" r = str "seed_digest" r)
              "the interpreter's run of %s diverges from the seed loop's" (str "case" r))
          (nonempty "interp runs" (list "runs" (get "interp" (cells m)))));
    (* The loop's per-block work allocates nothing: a steady-state call
       allocating a minor word per executed block is boxing per event. *)
    gate "interp-alloc-below-blocks" (fun m ->
        List.iter
          (fun r ->
            let minor = num "minor_words" (get "flat" (get "gc_per_call" r)) in
            let blocks = int "blocks" r in
            ensure
              (minor < float_of_int blocks)
              "a %s call allocates %.0f minor words, no fewer than its %d blocks" (str "case" r)
              minor blocks)
          (nonempty "interp runs" (list "runs" (get "interp" (cells m)))));
    (* The replays read their traces in place: a steady-state co-run call
       allocating a trace's worth of major words is copying one. *)
    gate "corun-no-trace-copy" (fun m ->
        let r = get "corun" (cells m) in
        let major = num "major_words" (get "indexed" (get "gc_per_call" r)) in
        let traces = int "trace_words" r in
        ensure
          (major < float_of_int traces)
          "a co-run call allocates %.0f major words, no fewer than its traces' %d" major traces);
    (* The pair kernels count on one reused per-domain grid: a
       steady-state call allocating n² major words is allocating a grid
       of its own. *)
    gate "pair-grid-no-alloc" (fun m ->
        let r = get "pair_grid" (cells m) in
        let grid = int "grid_cells" r in
        List.iter
          (fun k ->
            let major = num "major_words" (get "gc_per_call" k) in
            ensure
              (major < float_of_int grid)
              "a %s call allocates %.0f major words, no fewer than its %d grid cells"
              (str "name" k) major grid)
          (nonempty "pair_grid kernels" (list "kernels" r)));
    (* [Affinity.thresholds] also borrows the domain's pair marks, one
       byte per pair: a steady-state call allocating their n(n-1)/16
       words is allocating marks of its own, which the n² bound above
       is too coarse to see. *)
    pair_kernel_below "pair-marks-no-alloc" ~kernel:"affinity-thresholds"
      ~field:"pair_marks_words" ~what:"pair marks";
    (* [Trg_reduce.reduce] reads its symmetric rows from buffers its
       domain keeps: a steady-state call allocating the graph's 2E row
       words is building rows of its own. *)
    pair_kernel_below "trg-reduce-rows-reused" ~kernel:"trg-reduce" ~field:"reduce_rows_words"
      ~what:"symmetric rows";
    gate "trg-memory-halved" (fun m ->
        let w = get "memory_words" (cells m) in
        let packed = int "trg_packed_csr" w and legacy = int "trg_tuple_hashtbl" w in
        ensure (2 * packed <= legacy) "CSR no longer halves TRG resident memory (%d vs %d words)"
          packed legacy);
  ]

let harness =
  [
    gate "stage-durations" (fun m ->
        List.iter
          (fun s ->
            ensure (int "total_ns" s >= 0) "stage %s has a negative duration" (str "name" s))
          (nonempty "stages" (list "stages" (cells m))));
  ]

(* Jobs-swept runs sharing one result digest: the pool's determinism. *)
let jobs_invariant key m =
  let runs = list key (cells m) in
  covers key (List.map (int "jobs") runs) [ 1; 2; 4 ];
  one_digest key runs

let run_walls key m =
  List.iter
    (fun r -> positive (Printf.sprintf "%s jobs=%d wall_ns" key (int "jobs" r)) (int "wall_ns" r))
    (list key (cells m))

let parallel =
  let speedups m = List.map (fun k -> num k (get "speedup" (cells m))) [ "jobs2"; "jobs4" ] in
  [
    gate "jobs-invariant" (jobs_invariant "runs");
    gate "walls-positive" (fun m ->
        run_walls "runs" m;
        List.iter (positive_num "speedup") (speedups m));
    gate ~multicore:true "best-speedup-1x" (fun m ->
        at_least "best speedup" (List.fold_left Float.max 0.0 (speedups m)) 1.0);
  ]

let profile =
  let workloads m = nonempty "workloads" (list "workloads" (cells m)) in
  let side w key = (str "program" w ^ " " ^ key, get key w) in
  [
    gate "classification-sums" (fun m ->
        List.iter
          (fun w ->
            List.iter
              (fun key ->
                let what, c = side w key in
                let misses = int "misses" c in
                let cold = int "cold" c and cap = int "capacity" c and conf = int "conflict" c in
                ensure (cold >= 0 && cap >= 0 && conf >= 0) "%s has a negative count" what;
                ensure (cold + cap + conf = misses) "%s: %d + %d + %d <> %d misses" what cold cap
                  conf misses;
                ensure (int "accesses" c >= misses) "%s has more misses than accesses" what)
              [ "baseline"; "optimized" ])
          (workloads m));
    gate "conflict-drop-consistent" (fun m ->
        List.iter
          (fun w ->
            let conflict key = int "conflict" (get key w) in
            ensure
              (int "conflict_drop" w = conflict "baseline" - conflict "optimized")
              "%s conflict_drop is inconsistent with the classifications" (str "program" w))
          (workloads m));
    gate "conflict-drop" (fun m ->
        ensure
          (List.exists (fun w -> int "conflict_drop" w > 0) (workloads m))
          "no workload shows a conflict-miss reduction");
  ]

let layout_eval =
  let st m = get "single_thread" (cells m) in
  [
    gate "engine-matches-seed" (fun m ->
        ensure
          (str "engine_digest" (st m) = str "seed_digest" (st m))
          "engine miss ratios diverge from the seed evaluator");
    gate "batch-jobs-invariant" (jobs_invariant "batch");
    gate "fitting-engine-matches-seed" (fun m ->
        let c = get "fitting" (cells m) in
        ensure
          (str "engine_digest" c = str "seed_digest" c)
          "engine miss ratios diverge from the seed evaluator where every set fits");
    gate "timings-positive" (fun m ->
        List.iter
          (fun k -> positive_num ("single_thread." ^ k) (num k (st m)))
          [ "engine_ns_per_eval"; "seed_ns_per_eval"; "speedup" ];
        let a = get "anneal" (cells m) in
        List.iter
          (fun k -> positive ("anneal." ^ k) (int k a))
          [ "seed_wall_ns"; "engine_wall_ns" ];
        run_walls "batch" m);
    gate ~full_only:true "single-thread-speedup-5x" (fun m ->
        at_least "single-thread engine speedup" (num "speedup" (st m)) 5.0);
    gate ~multicore:true "single-thread-speedup-1x" (fun m ->
        at_least "single-thread engine speedup" (num "speedup" (st m)) 1.0);
  ]

let layout_eval_delta =
  let scenarios m = nonempty "scenarios" (list "scenarios" (cells m)) in
  let by_dirty m =
    List.sort compare
      (List.map
         (fun sc -> (int "nominal_dirty_pct" sc, str "label" sc, num "speedup" sc))
         (scenarios m))
  in
  let anneal m = get "anneal" (cells m) in
  [
    gate "delta-matches-full" (fun m ->
        List.iter
          (fun sc ->
            one_digest ~key:"delta_digest" ("scenario " ^ str "label" sc) [ sc ];
            ensure
              (str "delta_digest" sc = str "full_digest" sc)
              "scenario %s: delta ratios diverge from the full recompute" (str "label" sc))
          (scenarios m));
    gate "anneal-modes-identical" (fun m ->
        ensure
          (str "full_result" (anneal m) = str "delta_result" (anneal m))
          "anneal results differ across evaluation modes");
    gate "timings-positive" (fun m ->
        List.iter
          (fun sc ->
            let what k = Printf.sprintf "scenario %s %s" (str "label" sc) k in
            positive (what "full_wall_ns") (int "full_wall_ns" sc);
            positive (what "delta_wall_ns") (int "delta_wall_ns" sc);
            positive_num (what "speedup") (num "speedup" sc))
          (scenarios m);
        List.iter (fun k -> positive ("anneal." ^ k) (int k (anneal m)))
          [ "steps"; "full_wall_ns"; "delta_wall_ns" ]);
    gate "counters-in-range" (fun m ->
        List.iter
          (fun sc ->
            let label = str "label" sc in
            ensure
              (int "resyncs" sc >= 0 && int "full_walks" sc >= 0)
              "scenario %s: negative work counters" label;
            List.iter
              (fun k ->
                let v = num k sc in
                ensure (v >= 0.0 && v <= 100.0) "scenario %s: %s %.1f outside [0, 100]" label k v)
              [ "measured_dirty_pct"; "replayed_events_pct" ])
          (scenarios m));
    (* At 100 % dirty the delta path replays the whole trace: a real
       speedup there means the "full replay" skips work. *)
    gate "full-dirty-no-speedup" (fun m ->
        match List.filter (fun (n, _, _) -> n >= 100) (by_dirty m) with
        | [] -> fail "no 100%%-dirty scenario"
        | l ->
          List.iter
            (fun (_, label, s) ->
              ensure (s <= 1.5) "scenario %s claims %.2fx at 100%% dirty" label s)
            l);
    (* Less-dirty scenarios must not be slower than more-dirty ones, within
       a timing slack that widens for the short quick-mode runs. *)
    gate "speedup-monotone" (fun m ->
        let slack = if mode m = "quick" then 1.35 else 1.10 in
        let rec go = function
          | (na, la, sa) :: ((nb, lb, sb) :: _ as rest) ->
            ensure (sb <= sa *. slack)
              "speedup is not monotone non-increasing in dirty-%%: %s (%d%%) %.2fx < %s (%d%%) \
               %.2fx"
              la na sa lb nb sb;
            go rest
          | _ -> ()
        in
        go (by_dirty m));
    gate ~full_only:true "anneal-speedup-3x" (fun m ->
        at_least "delta anneal speedup" (num "speedup" (anneal m)) 3.0);
    gate ~multicore:true "lowest-dirty-speedup-1x" (fun m ->
        match by_dirty m with
        | (n, label, s) :: _ -> at_least (Printf.sprintf "%s (%d%% dirty) speedup" label n) s 1.0
        | [] -> ());
    gate ~multicore:true "anneal-speedup-1x" (fun m ->
        at_least "delta anneal speedup" (num "speedup" (anneal m)) 1.0);
  ]

let scaling =
  let shapes key m =
    let rows = list key (cells m) in
    let names = List.map (str "shape") rows in
    List.iter
      (fun want -> ensure (List.mem want names) "%s has no %S shape" key want)
      [ "uniform"; "skewed" ];
    rows
  in
  let runs key m =
    List.concat_map
      (fun row -> List.map (fun r -> (str "shape" row, r)) (list "runs" row))
      (shapes key m)
  in
  [
    gate "jobs-range" (fun m ->
        let jobs_max = int "jobs_max" (cells m) and gate_jobs = int "gate_jobs" (cells m) in
        ensure (jobs_max >= 1) "jobs_max %d < 1" jobs_max;
        ensure (gate_jobs >= 1 && gate_jobs <= jobs_max) "gate_jobs %d outside 1..%d" gate_jobs
          jobs_max);
    gate "shapes-cover-jobs" (fun m ->
        let want = List.init (int "jobs_max" (cells m)) (fun i -> i + 1) in
        List.iter
          (fun key ->
            List.iter
              (fun row ->
                covers (key ^ "." ^ str "shape" row) (List.map (int "jobs") (list "runs" row)) want)
              (shapes key m))
          [ "strong"; "weak" ];
        List.iter
          (fun row -> positive "strong total_evals" (int "total_evals" row))
          (shapes "strong" m));
    (* Work-stealing may move work, never change results. *)
    gate "results-deterministic" (fun m ->
        List.iter
          (fun row ->
            let reference = str "digest" row in
            ensure (reference <> "") "strong.%s has an empty digest" (str "shape" row);
            List.iter
              (fun r ->
                List.iter
                  (fun k ->
                    ensure (str k r = reference) "strong %s %s differs from jobs=1 at jobs=%d"
                      (str "shape" row) k (int "jobs" r))
                  [ "steal_digest"; "fixed_digest" ])
              (list "runs" row))
          (shapes "strong" m);
        List.iter
          (fun (shape, r) ->
            ensure
              (str "digest" r = str "seq_digest" r)
              "weak %s differs from jobs=1 at jobs=%d" shape (int "jobs" r))
          (runs "weak" m));
    gate "walls-positive" (fun m ->
        List.iter
          (fun (shape, r) ->
            let what k = Printf.sprintf "strong %s jobs=%d %s" shape (int "jobs" r) k in
            positive (what "steal_wall_ns") (int "steal_wall_ns" r);
            positive (what "fixed_wall_ns") (int "fixed_wall_ns" r);
            positive_num (what "steal_vs_fixed") (num "steal_vs_fixed" r))
          (runs "strong" m);
        List.iter
          (fun (shape, r) ->
            let what k = Printf.sprintf "weak %s jobs=%d %s" shape (int "jobs" r) k in
            positive (what "wall_ns") (int "wall_ns" r);
            positive (what "evals") (int "evals" r);
            positive_num (what "efficiency") (num "efficiency" r))
          (runs "weak" m);
        List.iter
          (fun k -> positive_num k (num k (cells m)))
          [ "skewed_steal_vs_fixed_at_gate_jobs"; "best_uniform_strong_speedup" ]);
    gate ~multicore:true "skewed-steal-vs-fixed-1.3x" (fun m ->
        at_least
          (Printf.sprintf "skewed steal-vs-fixed at gate_jobs=%d" (int "gate_jobs" (cells m)))
          (num "skewed_steal_vs_fixed_at_gate_jobs" (cells m))
          1.3);
    gate ~multicore:true "best-uniform-speedup-1x" (fun m ->
        at_least "best uniform strong speedup" (num "best_uniform_strong_speedup" (cells m)) 1.0);
  ]

let ingest =
  let grid m = list "grid" (cells m) in
  let serve m = get "serve" (cells m) in
  let point c = Printf.sprintf "walkers=%d jobs=%d" (int "walkers" c) (int "jobs" c) in
  [
    gate "grid-matches-batch" (fun m ->
        let batch = get "batch" (cells m) in
        List.iter
          (fun k ->
            let want = str k batch in
            ensure (want <> "") "empty batch %s" k;
            List.iter
              (fun c ->
                ensure (str k c = want) "grid %s %s differs from the batch kernels" (point c) k)
              (grid m))
          [ "trg_digest"; "affine_digest" ]);
    gate "grid-covers" (fun m ->
        let p = get "params" m in
        let seen = List.map (fun c -> (int "walkers" c, int "jobs" c)) (grid m) in
        covers "jobs_list" (ints "jobs_list" p) [ 1; 2; 4 ];
        List.iter
          (fun w ->
            List.iter
              (fun j ->
                ensure (List.mem (w, j) seen) "grid has no cell for walkers=%d jobs=%d" w j)
              (ints "jobs_list" p))
          (nonempty "walkers_list" (ints "walkers_list" p)));
    gate "grid-positive" (fun m ->
        List.iter
          (fun c ->
            let what k = Printf.sprintf "grid %s %s" (point c) k in
            List.iter (fun k -> positive (what k) (int k c)) [ "ingest_wall_ns"; "merge_ns" ];
            (* Staged dispatch only exists on the multi-walker path. *)
            if int "walkers" c > 1 then positive (what "dispatches") (int "dispatches" c);
            List.iter
              (fun k -> positive_num (what k) (num k c))
              [ "events_per_sec"; "traces_per_sec"; "edge_ops_per_sec" ])
          (grid m);
        positive "serial_ingest_ns" (int "serial_ingest_ns" (cells m));
        positive_num "best_parallel_vs_serial" (num "best_parallel_vs_serial" (cells m));
        positive_num "gate speedup" (num "speedup_vs_serial" (get "gate" (cells m))));
    (* The dispatch fold must account for every trace exactly once. *)
    gate "walker-hist-covers" (fun m ->
        let h = get "walker_hist" (cells m) in
        let total = int "total_observations" h and users = int "users" (get "params" m) in
        ensure (total = users) "walker_hist covers %d traces, expected %d" total users;
        let rows = list "per_walker" h in
        ensure
          (List.length rows = int "walkers" h)
          "%d per-walker rows for %d walkers" (List.length rows) (int "walkers" h);
        let sum = List.fold_left (fun a r -> a + int "observations" r) 0 rows in
        ensure (sum = total) "per-walker observations sum to %d, total says %d" sum total);
    gate "serve-verified" (fun m ->
        let s = serve m in
        ensure (str "schema" s = "colayout/serve/v2") "serve summary schema %S" (str "schema" s);
        ensure
          (bool "digests_match" (get "verify" s))
          "serve summary diverged from the batch kernels";
        positive_num "serve traces_per_sec" (num "traces_per_sec" s));
    gate "serve-latency-ordered" (fun m ->
        let s = serve m in
        let p50 = num "trace_p50_ns" s and p95 = num "trace_p95_ns" s in
        let p99 = num "trace_p99_ns" s in
        ensure
          (p50 > 0.0 && p50 <= p95 && p95 <= p99)
          "latency percentiles not ordered (%.0f/%.0f/%.0f)" p50 p95 p99;
        ignore (nonempty "serve epochs" (list "epochs" s)));
    gate ~full_only:true ~multicore:true "pooled-vs-serial-0.8x" (fun m ->
        at_least "best pooled ingest vs serial" (num "best_parallel_vs_serial" (cells m)) 0.8);
    gate ~full_only:true ~multicore:true "walkers-vs-serial-1.5x" (fun m ->
        let g = get "gate" (cells m) in
        at_least
          (Printf.sprintf "walkers=%d ingest vs serial" (int "walkers" g))
          (num "speedup_vs_serial" g) 1.5);
  ]

(* The conservation laws of one interference section, re-verified from
   the serialized artifact alone: the eviction matrix sums to the eviction
   total; per thread, first-touch misses plus the miss-provenance row
   reproduce the miss total; suffered/inflicted counts and the
   defensiveness/politeness scores agree with the matrices. *)
let interference ~label j =
  let threads = int "threads" j in
  ensure (threads >= 2) "%s has %d threads (co-run needs >= 2)" label threads;
  let arr key =
    let a = Array.of_list (list key j) in
    ensure (Array.length a = threads) "%s.%s has %d entries for %d threads" label key
      (Array.length a) threads;
    a
  in
  let elt conv what key v =
    match conv v with Some x -> x | None -> fail "%s.%s holds a non-%s" label key what
  in
  let ints key = Array.map (elt J.to_int "integer" key) (arr key) in
  let nums key = Array.map (elt J.to_float "number" key) (arr key) in
  let matrix key =
    Array.map
      (fun row ->
        match J.to_list row with
        | Some cells when List.length cells = threads ->
          Array.of_list (List.map (elt J.to_int "integer" key) cells)
        | _ -> fail "%s %s is not %dx%d" label key threads threads)
      (arr key)
  in
  let accesses = ints "accesses" and misses = ints "misses" and first = ints "first_misses" in
  let suffered = ints "suffered" and inflicted = ints "inflicted" in
  let def = nums "defensiveness" and pol = nums "politeness" in
  let ev = matrix "ev_matrix" and ms = matrix "miss_matrix" in
  let sum2 m = Array.fold_left (fun a row -> Array.fold_left ( + ) a row) 0 m in
  ensure (sum2 ev = int "evictions" j) "%s eviction matrix sums to %d, total says %d" label
    (sum2 ev) (int "evictions" j);
  for t = 0 to threads - 1 do
    let row = Array.fold_left ( + ) first.(t) ms.(t) in
    ensure (row = misses.(t)) "%s thread %d first+row sums to %d, misses say %d" label t row
      misses.(t);
    let suff = ref 0 and infl = ref 0 in
    for o = 0 to threads - 1 do
      if o <> t then begin
        suff := !suff + ms.(t).(o);
        infl := !infl + ms.(o).(t)
      end
    done;
    ensure (!suff = suffered.(t)) "%s thread %d suffered %d but matrix says %d" label t
      suffered.(t) !suff;
    ensure (!infl = inflicted.(t)) "%s thread %d inflicted %d but matrix says %d" label t
      inflicted.(t) !infl;
    List.iter
      (fun (key, v) ->
        ensure (v >= 0.0 && v <= 1.0) "%s thread %d %s %.4f outside [0,1]" label t key v)
      [ ("defensiveness", def.(t)); ("politeness", pol.(t)) ];
    if accesses.(t) > 0 then begin
      let want = 1.0 -. (float_of_int !suff /. float_of_int accesses.(t)) in
      ensure
        (Float.abs (def.(t) -. want) <= 1e-9)
        "%s thread %d defensiveness %.6f != 1 - suffered/accesses = %.6f" label t def.(t) want
    end
  done

let obs =
  let corun m = list "corun" (cells m) in
  let sides c =
    let label = Printf.sprintf "cell %s|%s" (str "self" c) (str "peer" c) in
    List.map (fun k -> (label ^ "." ^ k, get k c)) [ "baseline"; "optimized" ]
  in
  [
    gate "conservation" (fun m ->
        List.iter
          (fun c ->
            List.iter (fun (label, s) -> interference ~label (get "interference" s)) (sides c))
          (corun m));
    (* Attaching the observatory must not perturb the experiment. *)
    gate "sink-transparent" (fun m ->
        List.iter
          (fun c ->
            List.iter
              (fun (label, s) ->
                ensure
                  (get "profiled_totals" s = get "bare_totals" s)
                  "sink perturbs the totals of %s" label)
              (sides c))
          (corun m));
    gate "jobs-invariant" (fun m ->
        let d = get "jobs_digests" (cells m) in
        ensure
          (str "jobs1" d = str "jobs2" d)
          "cell attribution differs between jobs=1 and jobs=2");
    gate "improved-both" (fun m ->
        let improved =
          List.filter
            (fun c ->
              let score s k = num k (get s c) in
              let yes =
                score "optimized" "defensiveness" > score "baseline" "defensiveness"
                && score "optimized" "politeness" > score "baseline" "politeness"
              in
              ensure (yes = bool "improved_both" c)
                "cell %s|%s improved_both flag disagrees with the scores" (str "self" c)
                (str "peer" c);
              yes)
            (corun m)
        in
        let n = List.length improved in
        ensure
          (n = int "cells_improved_both" (cells m))
          "cells_improved_both says %d, recount finds %d" (int "cells_improved_both" (cells m)) n;
        ensure (n >= 2) "optimized layout improved both scores in only %d/%d cells (need >= 2)" n
          (List.length (corun m)));
    gate "obs-stream-recorded" (fun m ->
        ensure
          (int "obs_recorded" (cells m) = List.length (corun m))
          "obs_recorded %d <> %d cells" (int "obs_recorded" (cells m)) (List.length (corun m)));
  ]

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

(* ------------------------------------------------------ golden digests *)

(* A quick-mode manifest's digests are fixed by the code alone: every
   string under a field whose name contains "digest", as one line
   "<section> <path> <value>", the path naming the fields from the
   manifest's root with array indices, e.g.
   "kernels cells.reduce.flat_digest d86e...". *)
let digest_lines m =
  let section = str "section" m in
  let has_digest k =
    let n = String.length k in
    let rec at i = i + 6 <= n && (String.sub k i 6 = "digest" || at (i + 1)) in
    at 0
  in
  let lines = ref [] in
  let rec walk path under = function
    | J.Str v when under -> lines := Printf.sprintf "%s %s %s" section path v :: !lines
    | J.Obj kvs ->
      List.iter
        (fun (k, v) -> walk (if path = "" then k else path ^ "." ^ k) (under || has_digest k) v)
        kvs
    | J.Arr l -> List.iteri (fun i v -> walk (Printf.sprintf "%s[%d]" path i) under v) l
    | _ -> ()
  in
  walk "" false m;
  List.rev !lines

(* The golden file's lines: '#' starts a header line. *)
let golden_header text =
  List.filter (fun l -> String.starts_with ~prefix:"#" l) (String.split_on_char '\n' text)

(* Every golden line of the manifest's section must be among its digest
   lines. A wider host adds rows (more pool widths in scaling and
   ingest) that the file, written on two cores, does not name; those are
   not compared. *)
let golden_gate text =
  let expected =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ section; path; value ] when not (String.starts_with ~prefix:"#" l) ->
          Some (section, path, value)
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  gate "golden-digests" (fun m ->
      let section = str "section" m in
      let actual =
        List.map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ _; path; value ] -> (path, value)
            | _ -> fail "unreadable digest line %S" l)
          (digest_lines m)
      in
      List.iter
        (fun (sec, path, value) ->
          if sec = section then
            match List.assoc_opt path actual with
            | None -> fail "%s is missing (golden %s)" path value
            | Some v -> ensure (v = value) "%s is %s, golden %s" path v value)
        expected)

(* Checked on every quick-mode manifest after its section's list:
   bench/golden_digests.txt, compiled in. *)
let golden = golden_gate Golden_digests.text

type verdict = Skipped | Passed | Failed_with of string

let run g m =
  match
    let applies = (not g.full_only || mode m = "full") && ((not g.multicore) || cores m >= 2) in
    if applies then g.check m;
    applies
  with
  | true -> Passed
  | false -> Skipped
  | exception Failed why -> Failed_with why

(* Every gate of the manifest's section with its verdict, then in quick
   mode the golden digests; a broken envelope or an unknown section is
   reported as the envelope gate. *)
let evaluate m =
  match run envelope m with
  | Failed_with _ as v -> [ (envelope, v) ]
  | _ -> (
    match List.assoc_opt (str "section" m) sections with
    | None -> [ (envelope, Failed_with (Printf.sprintf "unknown section %S" (str "section" m))) ]
    | Some gates ->
      let gates = if mode m = "quick" then gates @ [ golden ] else gates in
      (envelope, Passed) :: List.map (fun g -> (g, run g m)) gates
    | exception Failed why -> [ (envelope, Failed_with why) ])

let failed verdicts =
  List.filter_map (function g, Failed_with why -> Some (g.name, why) | _ -> None) verdicts

let verdicts_json verdicts =
  J.Arr
    (List.map
       (fun (g, v) ->
         J.Obj
           (("name", J.Str g.name)
           ::
           (match v with
           | Skipped -> [ ("status", J.Str "skipped") ]
           | Passed -> [ ("status", J.Str "passed") ]
           | Failed_with why -> [ ("status", J.Str "failed"); ("why", J.Str why) ])))
       verdicts)

(* [--check]: re-judge manifest files; prints one line per failing gate
   and returns how many failed. *)
let check_files paths =
  List.fold_left
    (fun bad path ->
      let fails =
        match J.parse (In_channel.with_open_bin path In_channel.input_all) with
        | m -> failed (evaluate m)
        | exception J.Parse_error (pos, msg) ->
          [ ("parse", Printf.sprintf "%s at byte %d" msg pos) ]
        | exception Sys_error e -> [ ("read", e) ]
      in
      if fails = [] then Printf.printf "check %s: ok\n%!" path;
      List.iter (fun (g, why) -> Printf.eprintf "check %s: FAIL %s: %s\n%!" path g why) fails;
      bad + List.length fails)
    0 paths
