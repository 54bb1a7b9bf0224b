(* Tests for the streaming ingest service core ([Ingest]): the
   multi-walker online TRG/affinity accumulators must be bit-identical
   to the batch kernels merged per trace
   ([Ingest.batch_digests_parts]) at every walker count and jobs count,
   regardless of feed granularity (whole traces, odd-sized chunks, or
   files through the streaming reader). Each trace is an independent
   stream — the LRU stack and trim state reset at trace boundaries — so
   the merged profile is a pure function of the trace multiset and the
   round-robin walker partition cannot change it. Ingest folds into
   dense grids on universes up to [Int_pair_tbl.max_grid_universe] and
   walks packed-pair tables past it; both stores are held to the seed
   kernels, the tables by running the same traces in the first universe
   past the bound. The service driver's spool watcher must ingest files
   that land after the watch starts and exit cleanly on its deadline. *)

open Colayout
open Colayout_trace
module U = Colayout_util
module H = Colayout_harness
module E = Colayout_exec
module W = Colayout_workloads
module KB = Colayout_oracle.Kernel_baseline

let check = Alcotest.check

let jobs_counts = [ 1; 2; 4 ]

let walker_counts = [ 1; 2; 4 ]

(* Zipf-popularity user traces with deliberate consecutive repeats so the
   walker's inline trimming is exercised (the batch side trims each
   trace explicitly). *)
let user_traces ~seed ~users ~num_symbols ~len =
  let prng = U.Prng.create ~seed in
  List.init users (fun _ ->
      let t = Trace.create ~num_symbols () in
      for _ = 1 to len do
        let s = U.Prng.zipf prng ~n:num_symbols ~s:0.9 in
        Trace.push t s;
        if U.Prng.bool prng ~p:0.2 then Trace.push t s
      done;
      t)

let batch_of traces = Ingest.batch_digests_parts ~trg_window:12 ~affinity_w:6 traces

let ingest_all ?pool cfg traces =
  let ing = Ingest.create ?pool cfg in
  List.iter (fun t -> Ingest.ingest_trace ing t) traces;
  ing

(* Events surviving per-trace trimming: the first event plus every
   non-repeat. *)
let trimmed_len t =
  let kept = ref 0 and last = ref (-1) in
  Trace.iter
    (fun s ->
      if s <> !last then incr kept;
      last := s)
    t;
  !kept

(* The table store serves universes past [Int_pair_tbl.max_grid_universe],
   as real inputs reach it. [in_table_universe] re-creates traces over the
   first such universe with the same events, so one input runs on both
   stores; the digests render edges and pairs only, so the universe size
   does not enter them. *)
let table_universe = U.Int_pair_tbl.max_grid_universe + 1

let in_table_universe traces =
  List.map
    (fun t ->
      let wide = Trace.create ~num_symbols:table_universe () in
      Trace.iter (Trace.push wide) t;
      wide)
    traces

(* The universe and traces of a run on the grid store (as given) or on
   the table store. *)
let on_store ~tables num_symbols traces =
  if tables then (table_universe, in_table_universe traces) else (num_symbols, traces)

(* Which store a run took, read off the stats contract: the grid store
   has no witness table, so it reports no witness entries and prunes
   none; the table walk holds an entry per witnessed pair (given any). *)
let check_store ~tables tag (s : Ingest.stats) =
  if tables then Alcotest.(check bool) (tag ^ ": table walk") true (s.wits_live > 0)
  else Alcotest.(check bool) (tag ^ ": grid store") true (s.wits_live = 0 && s.dead_pruned = 0)

(* ---------------------------------------- multi-walker online == batch *)

let test_walkers_equal_batch () =
  let num_symbols = 48 in
  List.iter
    (fun seed ->
      let traces = user_traces ~seed ~users:10 ~num_symbols ~len:300 in
      let batch = batch_of traces in
      List.iter
        (fun walkers ->
          List.iter
            (fun jobs ->
              U.Pool.with_pool ~jobs (fun pool ->
                  let cfg = Ingest.config ~num_symbols ~walkers ~trg_window:12 ~affinity_w:6 () in
                  let ing = ingest_all ~pool cfg traces in
                  let online = Ingest.consensus_digests (Ingest.finalize ing) in
                  check
                    Alcotest.(pair string string)
                    (Printf.sprintf "digests (seed=%d walkers=%d jobs=%d)" seed walkers jobs)
                    batch online))
            jobs_counts)
        [ 1; 2 ])
    [ 1; 2; 42 ]

(* Property form: random trace sets, every walker x jobs combination,
   checked against the per-trace batch merge via the shared digest
   renderings. *)
let prop_walker_partition =
  QCheck.Test.make ~count:10
    ~name:"ingest: walker-partitioned online == per-trace batch merge"
    QCheck.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, users) ->
      let num_symbols = 32 in
      let traces = user_traces ~seed ~users ~num_symbols ~len:120 in
      let batch = Ingest.batch_digests_parts ~trg_window:8 ~affinity_w:4 traces in
      List.for_all
        (fun walkers ->
          List.for_all
            (fun jobs ->
              U.Pool.with_pool ~jobs (fun pool ->
                  let cfg = Ingest.config ~num_symbols ~walkers ~trg_window:8 ~affinity_w:4 () in
                  let ing = ingest_all ~pool cfg traces in
                  Ingest.consensus_digests (Ingest.finalize ing) = batch))
            [ 1; 4 ])
        walker_counts)

(* Feeding granularity must not matter: whole traces, odd chunks, and
   trace files through the streaming reader all describe the same
   per-trace streams — at one walker and at several. *)
let test_chunked_and_file_feeds () =
  let num_symbols = 40 in
  let traces = user_traces ~seed:7 ~users:6 ~num_symbols ~len:250 in
  let cfg = Ingest.config ~num_symbols ~trg_window:10 ~affinity_w:5 () in
  let whole = Ingest.consensus_digests (Ingest.finalize (ingest_all cfg traces)) in
  (* Odd-sized sub-traces cut from each trace's events, fed one after
     another: boundaries inside a trace, at one walker (walked inline)
     and at two (staged). *)
  List.iter
    (fun walkers ->
      let chunked =
        Ingest.create (Ingest.config ~num_symbols ~walkers ~trg_window:10 ~affinity_w:5 ())
      in
      List.iter
        (fun t ->
          let arr = U.Int_vec.to_array (Trace.events t) in
          let n = Array.length arr in
          let pos = ref 0 in
          while !pos < n do
            let len = min 7 (n - !pos) in
            Ingest.feed_trace chunked (Trace.of_array ~num_symbols (Array.sub arr !pos len));
            pos := !pos + len
          done;
          Ingest.end_trace chunked)
        traces;
      check
        Alcotest.(pair string string)
        (Printf.sprintf "chunked at walkers=%d == whole" walkers)
        whole
        (Ingest.consensus_digests (Ingest.finalize chunked)))
    [ 1; 2 ];
  (* Through trace files and the chunked streaming reader, on the staged
     multi-walker path. *)
  let dir = Filename.temp_file "colayout_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let cfg2 = Ingest.config ~num_symbols ~walkers:2 ~trg_window:10 ~affinity_w:5 () in
      U.Pool.with_pool ~jobs:2 (fun pool ->
          let filed = Ingest.create ~pool cfg2 in
          List.iteri
            (fun i t ->
              let path = Filename.concat dir (Printf.sprintf "u%d.trace" i) in
              Trace_io.save ~path t;
              Ingest.feed_file filed ~path)
            traces;
          check
            Alcotest.(pair string string)
            "file-streamed at walkers=2 == whole" whole
            (Ingest.consensus_digests (Ingest.finalize filed))))

(* A spool file cut short is rejected as a whole: [feed_file] raises
   before feeding any event, so a retry on the complete file ingests one
   clean trace. *)
let test_feed_file_all_or_nothing () =
  let num_symbols = 48 in
  let prng = U.Prng.create ~seed:71 in
  let tr = Trace.create ~num_symbols () in
  for _ = 1 to 100_000 do
    Trace.push tr (U.Prng.zipf prng ~n:num_symbols ~s:0.9)
  done;
  let dir = Filename.temp_file "colayout_cut" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let full = Filename.concat dir "full.trc" and cut = Filename.concat dir "cut.trc" in
      Trace_io.save ~path:full tr;
      let bytes = In_channel.with_open_bin full In_channel.input_all in
      Out_channel.with_open_bin cut (fun oc ->
          Out_channel.output_string oc (String.sub bytes 0 (String.length bytes - 100)));
      let want = Ingest.batch_digests_parts ~trg_window:12 ~affinity_w:6 [ tr ] in
      List.iter
        (fun walkers ->
          let tag = Printf.sprintf "walkers=%d" walkers in
          let ing =
            Ingest.create (Ingest.config ~num_symbols ~walkers ~trg_window:12 ~affinity_w:6 ())
          in
          (match Ingest.feed_file ing ~path:cut with
          | () -> Alcotest.fail ("truncated file accepted " ^ tag)
          | exception Failure _ -> ());
          let s = Ingest.stats ing in
          check Alcotest.(pair int int) ("nothing fed by the cut file " ^ tag) (0, 0)
            (s.events, s.traces);
          Ingest.feed_file ing ~path:full;
          let s = Ingest.stats ing in
          check Alcotest.(pair int int) ("one clean trace " ^ tag) (100_000, 1) (s.events, s.traces);
          check Alcotest.(pair string string) ("digests " ^ tag) want
            (Ingest.consensus_digests (Ingest.finalize ing)))
        [ 1; 2 ])

(* Dead-witness pruning is exact: epochs prune the table store without
   changing the affine set (digests equal to batch). Only the table walk
   prunes (the grid store clears its witness state at every trace end), so
   the traces run in the table universe. *)
let test_prune_exactness () =
  let traces = user_traces ~seed:11 ~users:12 ~num_symbols:36 ~len:220 in
  let batch = Ingest.batch_digests_parts ~trg_window:10 ~affinity_w:5 traces in
  List.iter
    (fun walkers ->
      let tag = Printf.sprintf "walkers=%d" walkers in
      let cfg =
        Ingest.config ~num_symbols:table_universe ~walkers ~trg_window:10 ~affinity_w:5
          ~epoch_traces:3 ()
      in
      let ing = ingest_all cfg (in_table_universe traces) in
      check
        Alcotest.(pair string string)
        ("pruned == batch " ^ tag) batch
        (Ingest.consensus_digests (Ingest.finalize ing));
      let s = Ingest.stats ing in
      check_store ~tables:true tag s;
      Alcotest.(check bool) ("pruning fired " ^ tag) true (s.dead_pruned > 0))
    [ 1; 2 ]

(* Per-trace trimming: each trace trims independently; a repeat that
   opens one trace after another trace closed on the same symbol is
   still the new trace's first event (streams are independent). *)
let test_per_trace_trimming () =
  let num_symbols = 8 in
  let mk l =
    let t = Trace.create ~num_symbols () in
    List.iter (Trace.push t) l;
    t
  in
  let parts = [ mk [ 0; 1; 2; 2 ]; mk [ 2; 2; 3 ]; mk [ 3; 3; 3 ] ] in
  let batch = Ingest.batch_digests_parts ~trg_window:4 ~affinity_w:3 parts in
  let cfg = Ingest.config ~num_symbols ~trg_window:4 ~affinity_w:3 () in
  let ing = ingest_all cfg parts in
  check Alcotest.(pair string string) "trimmed per trace" batch
    (Ingest.consensus_digests (Ingest.finalize ing));
  let s = Ingest.stats ing in
  (* [0;1;2] + [2;3] + [3]: the leading 2 and 3 survive because their
     streams restart at the boundary. *)
  check Alcotest.int "kept events" 6 s.kept_events;
  check Alcotest.int "raw events" 10 s.events

(* ---------------------------------------- independent seed-kernel oracle *)

(* [Ingest.batch_digests_parts] runs [Trg.build] and
   [Affinity.affine_pairs], which share the window stack with the
   walkers, so ingest == batch cannot catch a bug in that shared walk.
   This reference recomputes the batch side from the seed [Lru_stack]
   kernels in [Kernel_baseline], with the same per-part merge algebra:
   TRG weights sum across parts; a pair is affine for the union iff
   every part either saturates it or contains neither symbol. *)
let baseline_digests ~trg_window ~affinity_w traces =
  let num_symbols = Trace.num_symbols (List.hd traces) in
  let trimmed = List.map Trim.trim traces in
  let weights = Hashtbl.create 256 in
  List.iter
    (fun tr ->
      List.iter
        (fun (x, y, w) ->
          let old = Option.value ~default:0 (Hashtbl.find_opt weights (x, y)) in
          Hashtbl.replace weights (x, y) (old + w))
        (KB.trg_edges (KB.trg_build ~window:trg_window tr)))
    trimmed;
  let trg =
    Trg.of_edges ~num_nodes:num_symbols
      (Hashtbl.fold (fun (x, y) w acc -> (x, y, w) :: acc) weights [])
  in
  let parts =
    List.map
      (fun tr ->
        let present = Array.make num_symbols false in
        Trace.iter (fun s -> present.(s) <- true) tr;
        (present, KB.affine_pairs tr ~w:affinity_w))
      trimmed
  in
  let cand = List.sort_uniq compare (List.concat_map snd parts) in
  let affine =
    List.filter
      (fun (a, b) ->
        List.for_all
          (fun (present, pairs) -> List.mem (a, b) pairs || ((not present.(a)) && not present.(b)))
          parts)
      cand
    |> List.map (fun (a, b) -> U.Int_pair_tbl.pack a b)
    |> Array.of_list
  in
  Array.sort compare affine;
  Ingest.consensus_digests { Ingest.trg; affine }

(* One run; [tables] runs the traces in the table universe instead of
   [num_symbols], so the walk takes the table store. *)
let online ?pool ?(tables = false) ~walkers ~trg_window ~affinity_w ~num_symbols traces =
  let num_symbols, traces = on_store ~tables num_symbols traces in
  ingest_all ?pool (Ingest.config ~num_symbols ~walkers ~trg_window ~affinity_w ()) traces

let online_digests ?pool ?tables ~walkers ~trg_window ~affinity_w ~num_symbols traces =
  Ingest.consensus_digests
    (Ingest.finalize (online ?pool ?tables ~walkers ~trg_window ~affinity_w ~num_symbols traces))

let stores = [ false; true ]

let store_name tables = if tables then "tables" else "grids"

let test_ingest_vs_seed_kernels () =
  let num_symbols = 40 in
  List.iter
    (fun seed ->
      let traces = user_traces ~seed ~users:7 ~num_symbols ~len:260 in
      let want = baseline_digests ~trg_window:12 ~affinity_w:6 traces in
      check
        Alcotest.(pair string string)
        (Printf.sprintf "batch == seed kernels (seed=%d)" seed)
        want (batch_of traces);
      List.iter
        (fun jobs ->
          U.Pool.with_pool ~jobs (fun pool ->
              List.iter
                (fun tables ->
                  List.iter
                    (fun walkers ->
                      let tag =
                        Printf.sprintf "seed=%d %s walkers=%d jobs=%d" seed (store_name tables)
                          walkers jobs
                      in
                      let ing =
                        online ~pool ~tables ~walkers ~trg_window:12 ~affinity_w:6 ~num_symbols
                          traces
                      in
                      check
                        Alcotest.(pair string string)
                        ("ingest == seed kernels " ^ tag)
                        want
                        (Ingest.consensus_digests (Ingest.finalize ing));
                      check_store ~tables tag (Ingest.stats ing))
                    [ 1; 2; 3 ])
                stores))
        [ 1; 2 ])
    [ 3; 19; 77 ]

(* [finalize] mid-stream: after every k traces the consensus equals the
   seed kernels on that prefix, at every walker count in both stores, and
   accumulation carries on. The stream holds empty and
   single-event traces: an empty trace counts as a trace but contains no
   symbol; a single event makes its symbol present with no pair. *)
let test_seed_kernels_prefixes () =
  let num_symbols = 32 in
  let mk l =
    let t = Trace.create ~num_symbols () in
    List.iter (Trace.push t) l;
    t
  in
  let users = user_traces ~seed:53 ~users:8 ~num_symbols ~len:150 in
  let traces =
    match users with
    | a :: b :: c :: rest -> (mk [] :: a :: mk [ 3 ] :: b :: c :: mk [ 0 ] :: mk [] :: rest) @ [ mk [ 5; 5 ] ]
    | _ -> assert false
  in
  let k = 3 and trg_window = 10 and affinity_w = 5 in
  let len = List.length traces in
  let prefix n = List.filteri (fun i _ -> i < n) traces in
  let want = Hashtbl.create 8 in
  let want_at n =
    match Hashtbl.find_opt want n with
    | Some d -> d
    | None ->
      let d = baseline_digests ~trg_window ~affinity_w (prefix n) in
      Hashtbl.replace want n d;
      d
  in
  U.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun tables ->
          List.iter
            (fun walkers ->
              let num_symbols, fed = on_store ~tables num_symbols traces in
              let ing =
                Ingest.create ~pool (Ingest.config ~num_symbols ~walkers ~trg_window ~affinity_w ())
              in
              List.iteri
                (fun i tr ->
                  Ingest.ingest_trace ing tr;
                  let n = i + 1 in
                  if n mod k = 0 || n = len then
                    check
                      Alcotest.(pair string string)
                      (Printf.sprintf "prefix %d == seed kernels (%s walkers=%d)" n
                         (store_name tables) walkers)
                      (want_at n)
                      (Ingest.consensus_digests (Ingest.finalize ing)))
                fed;
              check Alcotest.int "every trace counted" len (Ingest.stats ing).Ingest.traces)
            walker_counts)
        stores)

(* The merge rule on hand-built parts: a pair affine in one part stays
   affine across parts that contain neither of its symbols, and is lost as
   soon as one part contains one symbol without the other — each case
   against the seed kernels and by name. Parts made of empty and
   single-event traces contribute no pair. *)
let test_seed_kernels_missing_symbol () =
  let num_symbols = 6 in
  let mk l =
    let t = Trace.create ~num_symbols () in
    List.iter (Trace.push t) l;
    t
  in
  let a = mk [ 0; 1; 0; 1; 0; 1 ] (* {0, 1} affine *)
  and b = mk [ 0; 2; 3; 0; 2; 3 ] (* 0 without 1 *)
  and c = mk [ 2; 3; 2; 3 ] (* neither *)
  and d = mk [ 1; 4; 1; 4 ] (* 1 without 0 *) in
  let cases =
    [
      ("A C", [ a; c ], Some true);
      ("A A C", [ a; a; c ], Some true);
      ("A B", [ a; b ], Some false);
      ("C A D", [ c; a; d ], Some false);
      ("empty and single-event", [ mk []; mk [ 5 ]; mk [ 5; 5; 5 ]; mk [] ], None);
      ("A then empty and single 0", [ a; mk []; mk [ 0 ] ], Some false);
    ]
  in
  List.iter
    (fun (name, parts, pair01) ->
      let want = baseline_digests ~trg_window:4 ~affinity_w:3 parts in
      List.iter
        (fun tables ->
          List.iter
            (fun walkers ->
              let tag = Printf.sprintf "%s (%s walkers=%d)" name (store_name tables) walkers in
              let c =
                Ingest.finalize
                  (online ~tables ~walkers ~trg_window:4 ~affinity_w:3 ~num_symbols parts)
              in
              check Alcotest.(pair string string) tag want (Ingest.consensus_digests c);
              match pair01 with
              | Some affine ->
                check Alcotest.bool ("{0, 1} affine: " ^ tag) affine
                  (List.mem (0, 1) (Ingest.affine_list c))
              | None -> check Alcotest.int ("no affine pair: " ^ tag) 0 (Array.length c.Ingest.affine))
            [ 1; 2 ])
        stores)
    cases

(* One symbol past [Int_pair_tbl.max_grid_universe]: exact mode must take
   the table walk, and still equal the seed kernels. *)
let test_seed_kernels_table_universe () =
  let num_symbols = U.Int_pair_tbl.max_grid_universe + 1 in
  let traces = user_traces ~seed:61 ~users:4 ~num_symbols ~len:300 in
  let want = baseline_digests ~trg_window:12 ~affinity_w:6 traces in
  List.iter
    (fun walkers ->
      let tag = Printf.sprintf "%d symbols, walkers=%d" num_symbols walkers in
      let ing = online ~walkers ~trg_window:12 ~affinity_w:6 ~num_symbols traces in
      check Alcotest.(pair string string) tag want (Ingest.consensus_digests (Ingest.finalize ing));
      check_store ~tables:true tag (Ingest.stats ing))
    [ 1; 2 ]

(* Real user traces: 429.mcf basic-block traces from the interpreter,
   at the service's default windows. *)
let test_ingest_vs_seed_kernels_mcf () =
  let program = W.Spec.build "429.mcf" in
  let num_symbols = Colayout_ir.Program.num_blocks program in
  let traces =
    List.init 6 (fun u ->
        (E.Interp.run program (E.Interp.test_input ~seed:(1000 + u) ~max_blocks:(600 + (150 * u)) ()))
          .E.Interp.bb_trace)
  in
  let want = baseline_digests ~trg_window:64 ~affinity_w:16 traces in
  Alcotest.(check bool) "mcf traces yield affine pairs" true
    (snd want <> snd (Ingest.consensus_digests { Ingest.trg = Trg.of_edges ~num_nodes:1 []; affine = [||] }));
  List.iter
    (fun (tables, walkers) ->
      check
        Alcotest.(pair string string)
        (Printf.sprintf "mcf ingest == seed kernels (%s walkers=%d)" (store_name tables) walkers)
        want
        (online_digests ~tables ~walkers ~trg_window:64 ~affinity_w:16 ~num_symbols traces))
    [ (false, 1); (false, 2); (false, 3); (true, 1); (true, 2) ]

(* Window-shape edge cases, each against the seed kernels: a TRG window
   narrower than the affinity window (the stack is sized by the wider
   one), a TRG window of 1 (no block can sit between two occurrences),
   and windows wider than the symbol universe (the stack holds every
   symbol). *)
let test_ingest_window_edges () =
  let num_symbols = 24 in
  let traces = user_traces ~seed:41 ~users:5 ~num_symbols ~len:200 in
  List.iter
    (fun (trg_window, affinity_w) ->
      let want = baseline_digests ~trg_window ~affinity_w traces in
      List.iter
        (fun tables ->
          List.iter
            (fun walkers ->
              check
                Alcotest.(pair string string)
                (Printf.sprintf "trg_window=%d affinity_w=%d %s walkers=%d" trg_window affinity_w
                   (store_name tables) walkers)
                want
                (online_digests ~tables ~walkers ~trg_window ~affinity_w ~num_symbols traces))
            [ 1; 2 ])
        stores)
    [ (3, 9); (1, 4); (1, 1); (2, 2); (200, 150); (24, 24); (30, 5) ]

(* Random window pairs against the seed kernels: trg_window below, equal
   to and above affinity_w, each window drawn from 1, inside the
   universe, the universe size and past it. Below affinity_w the stack is
   deeper than the TRG window, so the walk knows whether an event gets
   TRG bumps only once it has found the event. Every pair runs on both
   stores at walkers 1 and 2; the scanning oracle ([Scan_walk]) is held
   to the same digests. *)
let prop_ingest_window_pairs =
  QCheck.Test.make ~count:60 ~name:"ingest == seed kernels over random window pairs"
    QCheck.(quad (int_range 0 1_000_000) (int_range 0 2) (int_range 0 3) (int_range 0 3))
    (fun (seed, relation, ca, cb) ->
      let prng = U.Prng.create ~seed in
      let num_symbols = 4 + U.Prng.int prng 37 in
      let window = function
        | 0 -> 1
        | 1 -> 2 + U.Prng.int prng (num_symbols - 2)
        | 2 -> num_symbols
        | _ -> num_symbols + 1 + U.Prng.int prng 8
      in
      let a = window ca and b = window cb in
      let lo = min a b and hi = max a b in
      let hi = if hi = lo then hi + 1 else hi in
      let trg_window, affinity_w =
        match relation with 0 -> (lo, lo) | 1 -> (lo, hi) | _ -> (hi, lo)
      in
      let users = 1 + U.Prng.int prng 4 in
      let traces = user_traces ~seed ~users ~num_symbols ~len:(40 + U.Prng.int prng 160) in
      let want = baseline_digests ~trg_window ~affinity_w traces in
      let tag =
        Printf.sprintf "n=%d trg_window=%d affinity_w=%d" num_symbols trg_window affinity_w
      in
      if Colayout_oracle.Scan_walk.ingest_digests ~trg_window ~affinity_w traces <> want then
        QCheck.Test.fail_reportf "scanning oracle != seed kernels (%s)" tag;
      List.iter
        (fun tables ->
          List.iter
            (fun walkers ->
              let got = online_digests ~tables ~walkers ~trg_window ~affinity_w ~num_symbols traces in
              if got <> want then
                QCheck.Test.fail_reportf "ingest != seed kernels (%s %s walkers=%d)" tag
                  (store_name tables) walkers)
            [ 1; 2 ])
        stores;
      true)

(* Once a walker's store holds every cell a trace touches (the same trace
   fed a second time), the walk allocates nothing per event: the window
   stack, the grids and the table slots are updated in place. The few
   words left are per call (the trace-start timestamp). Checked on the
   grid store and on the table walk. *)
let test_walk_allocation () =
  let num_symbols = 64 in
  let tr = List.hd (user_traces ~seed:5 ~users:1 ~num_symbols ~len:6000) in
  List.iter
    (fun tables ->
      let num_symbols, trs = on_store ~tables num_symbols [ tr ] in
      let tr = List.hd trs in
      let ing = Ingest.create (Ingest.config ~num_symbols ~trg_window:16 ~affinity_w:8 ()) in
      Ingest.ingest_trace ing tr;
      let kept0 = (Ingest.stats ing).Ingest.kept_events in
      let w0 = Gc.minor_words () in
      Ingest.feed_trace ing tr;
      let words = int_of_float (Gc.minor_words () -. w0) in
      let kept = (Ingest.stats ing).Ingest.kept_events - kept0 in
      let tag = store_name tables in
      Alcotest.(check bool) "second feed walked the trace" true (kept > 4000);
      check Alcotest.int
        (Printf.sprintf "minor words per kept event (%s, %d words total)" tag words)
        0 (words / kept);
      Alcotest.(check bool)
        (Printf.sprintf "constant per-call allocation (%s): %d words" tag words)
        true (words <= 64))
    stores

(* ---------------------------------------- walker stats + histograms *)

(* Stats are sums over walkers and a pure function of the config: raw
   and trimmed event counts match a direct fold over the traces, and
   every field is identical across jobs counts and repeats. *)
let test_walker_stats_sum () =
  let num_symbols = 48 in
  let traces = user_traces ~seed:13 ~users:9 ~num_symbols ~len:200 in
  let raw = List.fold_left (fun a t -> a + Trace.length t) 0 traces in
  let kept = List.fold_left (fun a t -> a + trimmed_len t) 0 traces in
  let run ~walkers ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let cfg = Ingest.config ~num_symbols ~walkers ~trg_window:12 ~affinity_w:6 () in
        let ing = ingest_all ~pool cfg traces in
        ignore (Ingest.finalize ing);
        Ingest.stats ing)
  in
  List.iter
    (fun walkers ->
      let s = run ~walkers ~jobs:1 in
      check Alcotest.int
        (Printf.sprintf "raw events (walkers=%d)" walkers)
        raw s.Ingest.events;
      check Alcotest.int
        (Printf.sprintf "kept events (walkers=%d)" walkers)
        kept s.Ingest.kept_events;
      check Alcotest.int (Printf.sprintf "traces (walkers=%d)" walkers) 9 s.Ingest.traces;
      (* The whole record — ops, dispatches, live entries — must not depend
         on the pool schedule. *)
      List.iter
        (fun jobs ->
          Alcotest.(check bool)
            (Printf.sprintf "stats identical (walkers=%d jobs=%d)" walkers jobs)
            true
            (run ~walkers ~jobs = s))
        [ 2; 4 ])
    walker_counts

(* Per-walker latency histograms: with W walkers, trace i lands on
   walker i mod W, each observation is folded from the walker's delta
   registry into the main one at the dispatch barrier, and the shared
   ingest.trace_ns histogram still covers every trace. *)
let test_walker_histograms () =
  let num_symbols = 32 in
  let traces = user_traces ~seed:17 ~users:5 ~num_symbols ~len:80 in
  let metrics = U.Metrics.create () in
  U.Pool.with_pool ~jobs:2 (fun pool ->
      let cfg = Ingest.config ~num_symbols ~walkers:2 ~trg_window:8 ~affinity_w:4 () in
      let ing = Ingest.create ~pool ~metrics cfg in
      List.iter (Ingest.ingest_trace ing) traces;
      ignore (Ingest.finalize ing));
  let obs name = U.Metrics.observations (U.Metrics.histogram metrics name) in
  (* Round-robin: traces 0,2,4 -> walker 0; traces 1,3 -> walker 1. *)
  check Alcotest.int "walker 0 observations" 3 (obs "ingest.walker.0.trace_ns");
  check Alcotest.int "walker 1 observations" 2 (obs "ingest.walker.1.trace_ns");
  check Alcotest.int "shared trace histogram covers all" 5 (obs "ingest.trace_ns");
  List.iter
    (fun name ->
      let h = U.Metrics.histogram metrics name in
      Alcotest.(check bool)
        (name ^ " has positive total")
        true
        (U.Metrics.hist_total h > 0))
    [ "ingest.walker.0.trace_ns"; "ingest.walker.1.trace_ns" ]

(* Phrase-structured traces (fixed 4-block runs plus noise blocks), so
   the affine set is not empty. *)
let phrase_traces ~seed ~users ~len =
  let prng = U.Prng.create ~seed in
  List.init users (fun _ ->
      let t = Trace.create ~num_symbols:64 () in
      for _ = 1 to len do
        if U.Prng.bool prng ~p:0.15 then Trace.push t (48 + U.Prng.int prng 16)
        else begin
          let p = U.Prng.zipf prng ~n:12 ~s:0.8 in
          for j = 0 to 3 do
            Trace.push t ((4 * p) + j)
          done
        end
      done;
      t)

(* The stats contract of the grid store: on this fixed input (phrase
   traces, one empty trace, two trimming-heavy traces; an epoch every 4
   traces, one mid-stream finalize) the walk-derived counters are pinned,
   and equal the table walk's on the same input. The table-only fields
   read zero. *)
let stats_pins =
  [
    (1, (12, 2154, 2104, 3627, 20686), (0, 3, 2, 736));
    (2, (12, 2154, 2104, 3627, 20686), (7, 3, 2, 992));
    (4, (12, 2154, 2104, 3627, 20686), (4, 3, 2, 1292));
  ]

let test_grid_stats_pinned () =
  let num_symbols = 64 in
  let traces =
    match
      phrase_traces ~seed:37 ~users:9 ~len:60 @ user_traces ~seed:13 ~users:2 ~num_symbols ~len:100
    with
    | a :: rest -> a :: Trace.create ~num_symbols () :: rest
    | [] -> assert false
  in
  let int4 = Alcotest.(pair int (pair int (pair int int))) in
  let int5 = Alcotest.(pair int int4) in
  let p5 (a, b, c, d, e) = (a, (b, (c, (d, e)))) in
  U.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (walkers, walk, (dispatches, epochs, merges, trg_live)) ->
          List.iter
            (fun tables ->
              let num_symbols, fed = on_store ~tables num_symbols traces in
              let cfg =
                Ingest.config ~num_symbols ~walkers ~trg_window:12 ~affinity_w:6 ~epoch_traces:4 ()
              in
              let ing = Ingest.create ~pool cfg in
              List.iteri
                (fun i t ->
                  Ingest.ingest_trace ing t;
                  if i = 4 then ignore (Ingest.finalize ing))
                fed;
              let tag = Printf.sprintf "%s walkers=%d" (store_name tables) walkers in
              check
                Alcotest.(pair string string)
                ("digests " ^ tag)
                ("26f552b821e8b83801588563c0748d98", "5ce52080c923a574d387c3370b905046")
                (Ingest.consensus_digests (Ingest.finalize ing));
              let s = Ingest.stats ing in
              check int5
                ("traces, events, kept_events, trg_ops, wit_ops " ^ tag)
                (p5 walk)
                (p5 (s.traces, s.events, s.kept_events, s.trg_ops, s.wit_ops));
              check int4
                ("dispatches, epochs, merges, trg_live " ^ tag)
                (dispatches, (epochs, (merges, trg_live)))
                (s.dispatches, (s.epochs, (s.merges, s.trg_live)));
              check_store ~tables tag s)
            stores)
        stats_pins)

(* ---------------------------------------- the service driver *)

(* Flush-on-exit: when users is not a multiple of epoch_traces, the tail
   traces still get an epoch row (marked partial) and an obs snapshot —
   ingested work is never silently absorbed. Each snapshot carries the
   conservation-checked interference probe. *)
let serve_run users =
  let cfg =
    H.Serve.config ~users ~seed:3 ~fuel:600 ~epoch_traces:2 ~reopt_steps:10
      ~program:"429.mcf" ()
  in
  let obs = U.Obs.create () in
  (H.Serve.run ~obs cfg, obs)

let test_flush_on_exit () =
  let s, obs = serve_run 5 in
  let rows = s.H.Serve.epoch_rows in
  check Alcotest.int "two full epochs + one flushed tail" 3 (List.length rows);
  (match List.rev rows with
  | last :: earlier ->
    Alcotest.(check bool) "tail row is partial" true last.H.Serve.partial;
    check Alcotest.int "tail row covers all ingested traces" 5 last.H.Serve.at_trace;
    List.iter
      (fun r -> Alcotest.(check bool) "earlier rows are full epochs" false r.H.Serve.partial)
      earlier
  | [] -> Alcotest.fail "no epoch rows");
  check Alcotest.int "one obs snapshot per epoch row" (List.length rows)
    (U.Obs.recorded obs);
  List.iter
    (fun sn ->
      Alcotest.(check bool) "snapshot carries the interference probe" true
        (List.mem_assoc "interference" sn.U.Obs.fields);
      Alcotest.(check bool) "snapshot carries the partial flag" true
        (List.mem_assoc "partial" sn.U.Obs.fields))
    (U.Obs.snapshots obs);
  (* The summary JSON carries the flag too. *)
  let json = H.Serve.summary_to_json s in
  (match Option.bind (U.Json.member "epochs" json) U.Json.to_list with
  | Some rows_json ->
    let partials =
      List.filter_map
        (fun r -> Option.bind (U.Json.member "partial" r) U.Json.to_bool)
        rows_json
    in
    check (Alcotest.list Alcotest.bool) "partial flags serialized"
      [ false; false; true ] partials
  | None -> Alcotest.fail "no epochs array in summary json");
  (* Users aligned to the epoch size: no partial row appears. *)
  let s2, obs2 = serve_run 4 in
  Alcotest.(check bool) "no partial row when aligned" true
    (List.for_all (fun r -> not r.H.Serve.partial) s2.H.Serve.epoch_rows);
  check Alcotest.int "aligned run snapshots" (List.length s2.H.Serve.epoch_rows)
    (U.Obs.recorded obs2)

(* The multi-walker service end to end: at walkers=2 the driver's own
   batch verification must pass and the summary must equal the
   single-walker run's digests (exact mode is walker-invariant). *)
let test_serve_multi_walker () =
  let run walkers =
    let cfg =
      H.Serve.config ~users:6 ~seed:5 ~fuel:500 ~walkers ~epoch_traces:3
        ~verify:true ~program:"429.mcf" ()
    in
    U.Pool.with_pool ~jobs:2 (fun pool -> H.Serve.run ~pool cfg)
  in
  let s1 = run 1 and s2 = run 2 in
  Alcotest.(check (option bool)) "walkers=1 verified" (Some true) s1.H.Serve.digests_match;
  Alcotest.(check (option bool)) "walkers=2 verified" (Some true) s2.H.Serve.digests_match;
  check Alcotest.string "trg digest walker-invariant" s1.H.Serve.trg_digest
    s2.H.Serve.trg_digest;
  check Alcotest.string "affine digest walker-invariant" s1.H.Serve.affine_digest
    s2.H.Serve.affine_digest

(* Spool watching: a file present before the watch and one landing
   mid-watch are both ingested after their stats stabilize; a file from
   a different symbol universe is skipped permanently; the loop returns
   cleanly at its deadline with the digests of a direct ingest. *)
let test_watch_spool () =
  let num_symbols = 32 in
  let traces = user_traces ~seed:31 ~users:2 ~num_symbols ~len:120 in
  let t0 = List.nth traces 0 and t1 = List.nth traces 1 in
  let dir = Filename.temp_file "colayout_spool" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Trace_io.save ~path:(Filename.concat dir "a.trc") t0;
      (* A trace from another universe: permanently skipped, not retried. *)
      let alien = Trace.create ~num_symbols:(num_symbols + 5) () in
      Trace.push alien 0;
      Trace_io.save ~path:(Filename.concat dir "alien.trc") alien;
      let cfg = Ingest.config ~num_symbols ~walkers:2 ~trg_window:10 ~affinity_w:5 () in
      let ing = Ingest.create cfg in
      let on_poll i =
        (* Lands mid-watch; needs two further stable sightings. *)
        if i = 2 then Trace_io.save ~path:(Filename.concat dir "b.trace") t1
      in
      let r = H.Serve.watch_spool ~ing ~dirs:[ dir ] ~poll_ms:20 ~on_poll ~timeout_s:0.5 () in
      check Alcotest.int "both trace files ingested" 2 r.H.Serve.sp_ingested;
      check Alcotest.int "alien universe skipped" 1 r.H.Serve.sp_skipped;
      check (Alcotest.list Alcotest.string) "nothing pending" [] r.H.Serve.sp_pending;
      Alcotest.(check bool) "polled at least twice" true (r.H.Serve.sp_polls >= 2);
      let watched = Ingest.consensus_digests (Ingest.finalize ing) in
      let direct =
        Ingest.consensus_digests (Ingest.finalize (ingest_all cfg [ t0; t1 ]))
      in
      check Alcotest.(pair string string) "watched == direct ingest" direct watched)

(* An empty [.trc] (a file created but not yet written) fails to decode
   with [Failure]: [feed_file] leaves the stats untouched, and the watch
   returns with the valid file ingested and the empty one pending. *)
let test_watch_spool_empty_file () =
  let num_symbols = 32 in
  let t0 = List.hd (user_traces ~seed:37 ~users:1 ~num_symbols ~len:120) in
  let dir = Filename.temp_file "colayout_spool_empty" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let empty = Filename.concat dir "empty.trc" in
      Trace_io.save ~path:(Filename.concat dir "a.trc") t0;
      Out_channel.with_open_bin empty ignore;
      let cfg = Ingest.config ~num_symbols ~walkers:1 ~trg_window:10 ~affinity_w:5 () in
      let ing = Ingest.create cfg in
      (match Ingest.feed_file ing ~path:empty with
      | () -> Alcotest.fail "empty file accepted"
      | exception Failure _ -> ());
      let s = Ingest.stats ing in
      check Alcotest.(pair int int) "nothing fed by the empty file" (0, 0) (s.events, s.traces);
      let r = H.Serve.watch_spool ~ing ~dirs:[ dir ] ~poll_ms:10 ~timeout_s:0.1 () in
      check Alcotest.int "valid file ingested" 1 r.H.Serve.sp_ingested;
      check (Alcotest.list Alcotest.string) "empty file pending" [ empty ] r.H.Serve.sp_pending;
      check Alcotest.(pair string string) "watched == direct ingest"
        (Ingest.consensus_digests (Ingest.finalize (ingest_all cfg [ t0 ])))
        (Ingest.consensus_digests (Ingest.finalize ing)))

(* Both spool loops refuse a poll interval below 1 ms instead of
   spinning: on an empty spool [wait_spool_symbols] would otherwise
   busy-poll until its deadline. *)
let test_spool_poll_ms () =
  let dir = Filename.temp_file "colayout_spool_poll" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      Alcotest.check_raises "wait_spool_symbols"
        (Invalid_argument "Serve.wait_spool_symbols: poll_ms must be >= 1") (fun () ->
          ignore (H.Serve.wait_spool_symbols ~dirs:[ dir ] ~poll_ms:0 ~timeout_s:0.05 ()));
      let ing =
        Ingest.create (Ingest.config ~num_symbols:8 ~walkers:1 ~trg_window:4 ~affinity_w:2 ())
      in
      Alcotest.check_raises "watch_spool"
        (Invalid_argument "Serve.watch_spool: poll_ms must be >= 1") (fun () ->
          ignore (H.Serve.watch_spool ~ing ~dirs:[ dir ] ~poll_ms:0 ~timeout_s:0.05 ())))

let () =
  Alcotest.run "serve"
    [
      ( "ingest",
        [
          Alcotest.test_case "multi-walker online == batch across walkers x jobs" `Quick
            test_walkers_equal_batch;
          QCheck_alcotest.to_alcotest prop_walker_partition;
          Alcotest.test_case "chunked and file feeds equivalent" `Quick
            test_chunked_and_file_feeds;
          Alcotest.test_case "truncated file leaves ingest untouched" `Quick
            test_feed_file_all_or_nothing;
          Alcotest.test_case "dead-witness pruning exact" `Quick test_prune_exactness;
          Alcotest.test_case "per-trace trimming" `Quick test_per_trace_trimming;
          Alcotest.test_case "walker stats sum + schedule-invariance" `Quick
            test_walker_stats_sum;
          Alcotest.test_case "per-walker latency histograms fold" `Quick
            test_walker_histograms;
          Alcotest.test_case "grid-store stats pinned, equal to the table walk's" `Quick
            test_grid_stats_pinned;
          Alcotest.test_case "ingest == seed kernels across walkers x jobs" `Quick
            test_ingest_vs_seed_kernels;
          Alcotest.test_case "ingest == seed kernels on 429.mcf traces" `Quick
            test_ingest_vs_seed_kernels_mcf;
          Alcotest.test_case "window edge cases vs seed kernels" `Quick test_ingest_window_edges;
          QCheck_alcotest.to_alcotest prop_ingest_window_pairs;
          Alcotest.test_case "finalize every k traces == seed kernels on the prefix" `Quick
            test_seed_kernels_prefixes;
          Alcotest.test_case "parts missing a symbol of an affine pair vs seed kernels" `Quick
            test_seed_kernels_missing_symbol;
          Alcotest.test_case "exact mode past the grid bound takes the table walk" `Quick
            test_seed_kernels_table_universe;
          Alcotest.test_case "warm walk allocates nothing per event" `Quick test_walk_allocation;
        ] );
      ( "service",
        [
          Alcotest.test_case "flush-on-exit partial epoch" `Slow test_flush_on_exit;
          Alcotest.test_case "multi-walker serve verified" `Slow test_serve_multi_walker;
          Alcotest.test_case "spool watch loop" `Quick test_watch_spool;
          Alcotest.test_case "empty spool file stays pending" `Quick test_watch_spool_empty_file;
          Alcotest.test_case "poll_ms below 1 rejected" `Quick test_spool_poll_ms;
        ] );
    ]
