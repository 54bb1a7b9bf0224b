(* Parallel execution layer: Pool unit tests (ordering, exception
   propagation, nested-use rejection, the jobs=1 no-domain path), atomic
   Metrics + merge, per-domain Span recording with exception safety across
   domain boundaries, Ctx memo single-flight under concurrency, and the
   harness-wide determinism contract — every registry experiment renders
   byte-identical tables at jobs=1 and jobs=4, whose digests match the
   committed golden/digests.txt. *)

module U = Colayout_util
module H = Colayout_harness
module Pool = U.Pool

let check = Alcotest.check

exception Boom of int

(* ---------- Pool ---------- *)

let test_pool_ordering () =
  Pool.with_pool ~jobs:4 (fun pool ->
      check Alcotest.int "jobs" 4 (Pool.jobs pool);
      let xs = List.init 100 Fun.id in
      check (Alcotest.list Alcotest.int) "results in input order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs);
      check (Alcotest.list Alcotest.int) "empty batch" [] (Pool.map pool Fun.id []);
      (* The batch really ran off the caller's domain. *)
      let caller = (Domain.self () :> int) in
      let tids = Pool.map pool (fun _ -> (Domain.self () :> int)) (List.init 8 Fun.id) in
      check Alcotest.bool "tasks ran on worker domains" true
        (List.for_all (fun t -> t <> caller) tids))

let test_pool_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* All tasks run; the lowest-indexed failure is re-raised, exactly as
         a sequential fold would have surfaced it first. *)
      let ran = Atomic.make 0 in
      (match
         Pool.map pool
           (fun i ->
             Atomic.incr ran;
             if i = 3 || i = 5 then raise (Boom i);
             i)
           (List.init 8 Fun.id)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check Alcotest.int "lowest failing index wins" 3 i);
      check Alcotest.int "every task still ran" 8 (Atomic.get ran);
      (* The pool survives a failed batch. *)
      check (Alcotest.list Alcotest.int) "pool usable after failure" [ 2; 4 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2 ]))

let test_pool_nested_rejection () =
  Pool.with_pool ~jobs:2 (fun pool ->
      match Pool.map pool (fun () -> Pool.map pool Fun.id [ 1 ]) [ () ] with
      | _ -> Alcotest.fail "nested use should be rejected"
      | exception Invalid_argument msg ->
        check Alcotest.bool "mentions nested use" true
          (String.length msg >= 12 && String.sub msg 0 12 = "Pool: nested"))

let test_pool_jobs1_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      check Alcotest.int "jobs" 1 (Pool.jobs pool);
      let caller = (Domain.self () :> int) in
      let tids = Pool.map pool (fun _ -> (Domain.self () :> int)) [ 0; 1; 2 ] in
      check (Alcotest.list Alcotest.int) "runs inline on the caller's domain"
        [ caller; caller; caller ] tids;
      (* Sequential semantics: a raise stops the batch at its index. *)
      let ran = ref 0 in
      (match
         Pool.map pool
           (fun i ->
             incr ran;
             if i = 1 then raise (Boom i))
           [ 0; 1; 2 ]
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom _ -> ());
      check Alcotest.int "inline batch stopped at the raise" 2 !ran)

let test_pool_run_all_and_metrics () =
  let sink = U.Metrics.create () in
  Pool.with_pool ~jobs:2 ~metrics:sink (fun pool ->
      let hits = Atomic.make 0 in
      Pool.run_all pool (List.init 10 (fun _ () -> Atomic.incr hits));
      check Alcotest.int "run_all ran every thunk" 10 (Atomic.get hits));
  (* Per-domain deltas folded into the sink via Metrics.merge. *)
  check (Alcotest.option Alcotest.int) "pool.tasks folded" (Some 10)
    (U.Metrics.find_counter sink "pool.tasks");
  let per_worker =
    List.filter
      (fun (name, _) ->
        String.length name > 12
        && String.sub name 0 12 = "pool.worker."
        && String.sub name (String.length name - 6) 6 = ".tasks")
      (U.Metrics.counters sink)
  in
  check Alcotest.int "per-worker counters sum to the total" 10
    (List.fold_left (fun acc (_, v) -> acc + v) 0 per_worker)

(* ---------- Work-stealing scheduler properties ---------- *)

(* A deterministic task whose cost scales with [weight] and whose result
   depends only on (weight, index) — never on the executing worker — so
   any result difference across schedules is a real determinism break. *)
let spin weight i =
  let acc = ref (i + 1) in
  for k = 1 to weight * 200 do
    acc := (!acc * 31 + k) land 0xFFFFFF
  done;
  !acc

(* The three batch shapes the scheduler must not reorder results under:
   homogeneous, a heavy head (the worst case for a contiguous split — the
   first worker's chunk holds all the weight), and one giant task among
   singletons. *)
let skew_shapes =
  [
    ("uniform", Array.make 64 1);
    ("front-loaded", Array.init 32 (fun i -> if i < 4 then 50 else 1));
    ("single-giant", Array.init 24 (fun i -> if i = 0 then 200 else 1));
  ]

let test_pool_skew_determinism () =
  List.iter
    (fun (shape, weights) ->
      let expected = Array.mapi (fun i w -> spin w i) weights in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              (* Tasks only record their worker id; the checks run on the
                 calling domain, since Alcotest's reporting is not safe to
                 call from several domains at once. *)
              let workers = Array.make (Array.length weights) (-1) in
              let got =
                Pool.map_array_w pool
                  (fun ~worker w_and_i ->
                    let w, i = w_and_i in
                    workers.(i) <- worker;
                    spin w i)
                  (Array.mapi (fun i w -> (w, i)) weights)
              in
              Array.iter
                (fun worker ->
                  check Alcotest.bool
                    (Printf.sprintf "%s jobs=%d: worker id in range" shape jobs)
                    true
                    (worker >= 0 && worker < jobs))
                workers;
              check (Alcotest.array Alcotest.int)
                (Printf.sprintf "%s jobs=%d: identical to sequential" shape jobs)
                expected got))
        [ 1; 2; 4 ])
    skew_shapes

let test_pool_skew_exception () =
  (* Stealing redistributes the raising tasks across workers; the caller
     must still see the lowest-indexed failure, and the whole batch must
     still run (pooled batches don't stop early). *)
  let weights = Array.init 32 (fun i -> if i < 4 then 50 else 1) in
  Pool.with_pool ~jobs:4 (fun pool ->
      let ran = Atomic.make 0 in
      (match
         Pool.map_array pool
           (fun (w, i) ->
             Atomic.incr ran;
             let r = spin w i in
             if i = 2 || i = 30 then raise (Boom i);
             r)
           (Array.mapi (fun i w -> (w, i)) weights)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        check Alcotest.int "lowest failing index wins under stealing" 2 i);
      check Alcotest.int "every task still ran" 32 (Atomic.get ran))

let test_pool_skew_task_conservation () =
  (* Exactly n tasks execute whatever the steal pattern — no task lost,
     none run twice — and the accounting ([pool.tasks], per-worker splits,
     [pool.steals]) folds to match. *)
  List.iter
    (fun (shape, weights) ->
      let sink = U.Metrics.create () in
      let n = Array.length weights in
      Pool.with_pool ~jobs:4 ~metrics:sink (fun pool ->
          ignore (Pool.map_array pool (fun (w, i) -> spin w i)
                    (Array.mapi (fun i w -> (w, i)) weights)));
      check (Alcotest.option Alcotest.int)
        (shape ^ ": pool.tasks = batch size")
        (Some n)
        (U.Metrics.find_counter sink "pool.tasks");
      let prefixed prefix suffix name =
        let lp = String.length prefix and ls = String.length suffix in
        String.length name > lp + ls
        && String.sub name 0 lp = prefix
        && String.sub name (String.length name - ls) ls = suffix
      in
      let sum suffix =
        List.fold_left
          (fun acc (name, v) ->
            if prefixed "pool.worker." suffix name then acc + v else acc)
          0 (U.Metrics.counters sink)
      in
      check Alcotest.int (shape ^ ": per-worker task counts sum to the total") n
        (sum ".tasks");
      let steals = Option.value ~default:0 (U.Metrics.find_counter sink "pool.steals") in
      check Alcotest.bool (shape ^ ": steal count folded and sane") true
        (steals >= 0 && steals <= n))
    skew_shapes

let test_pool_default_jobs () =
  check Alcotest.int "default_jobs matches the documented formula"
    (max 1 (Domain.recommended_domain_count () - 1))
    (Pool.default_jobs ());
  check Alcotest.bool "default_jobs is at least 1" true (Pool.default_jobs () >= 1)

(* ---------- Metrics ---------- *)

let test_metrics_atomic_increments () =
  let m = U.Metrics.create () in
  let c = U.Metrics.counter m "hammer" in
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.run_all pool
        (List.init 4 (fun _ () ->
             for _ = 1 to 10_000 do
               U.Metrics.incr c
             done)));
  check Alcotest.int "no update lost across 4 domains" 40_000 (U.Metrics.count c)

let test_metrics_merge () =
  let mk lookups hits =
    let m = U.Metrics.create () in
    U.Metrics.add m "t.lookups" lookups;
    U.Metrics.add m "t.hits" hits;
    U.Metrics.add m "t.misses" (lookups - hits);
    U.Metrics.set_gauge m "level" (float_of_int lookups);
    m
  in
  let into = mk 10 4 in
  U.Metrics.merge ~into (mk 6 5);
  let v name = Option.value ~default:0 (U.Metrics.find_counter into name) in
  check Alcotest.int "lookups add" 16 (v "t.lookups");
  check Alcotest.int "hits add" 9 (v "t.hits");
  check Alcotest.int "hits + misses = lookups survives the fold" (v "t.lookups")
    (v "t.hits" + v "t.misses");
  check Alcotest.bool "gauge overwritten with source level" true
    (List.assoc "level" (U.Metrics.gauges into) = 6.0);
  (* Timers accumulate calls and nanoseconds. *)
  let a = U.Metrics.create () and b = U.Metrics.create () in
  ignore (U.Metrics.time a "w" (fun () -> ()));
  ignore (U.Metrics.time b "w" (fun () -> ()));
  ignore (U.Metrics.time b "w" (fun () -> ()));
  U.Metrics.merge ~into:a b;
  (match U.Metrics.timers a with
  | [ ("w", 3, _) ] -> ()
  | _ -> Alcotest.fail "timer calls did not add");
  (* Zero-valued source cells create no entries. *)
  let empty = U.Metrics.create () in
  ignore (U.Metrics.counter empty "untouched");
  let target = U.Metrics.create () in
  U.Metrics.merge ~into:target empty;
  check (Alcotest.option Alcotest.int) "no entry for a zero delta" None
    (U.Metrics.find_counter target "untouched")

(* ---------- Span across domains ---------- *)

let test_span_per_domain_merge () =
  let t = U.Span.create () in
  let caller = (Domain.self () :> int) in
  U.Span.with_span t ~cat:"main" "caller-side" (fun () ->
      Pool.with_pool ~jobs:2 (fun pool ->
          Pool.run_all pool
            (List.init 4 (fun i () ->
                 U.Span.with_span t ~cat:"task" (Printf.sprintf "task-%d" i) (fun () ->
                     ignore (Sys.opaque_identity (List.init 100 Fun.id)))))));
  let spans = U.Span.spans t in
  check Alcotest.int "all five spans recorded" 5 (List.length spans);
  let tasks = List.filter (fun s -> s.U.Span.cat = "task") spans in
  check Alcotest.bool "task spans carry worker domain ids" true
    (List.for_all (fun s -> s.U.Span.tid <> caller) tasks);
  check Alcotest.bool "worker spans are top-level on their own domain" true
    (List.for_all (fun s -> s.U.Span.depth = 0) tasks);
  (* The merged timeline is deterministic and every lane appears in the
     Chrome export with its own tid. *)
  match U.Json.member "traceEvents" (U.Span.to_chrome_json t) with
  | Some (U.Json.Arr evs) -> check Alcotest.int "chrome events" 5 (List.length evs)
  | _ -> Alcotest.fail "no traceEvents"

let test_span_exception_across_domains () =
  let t = U.Span.create () in
  (match
     Pool.with_pool ~jobs:2 (fun pool ->
         Pool.run_all pool
           [
             (fun () -> U.Span.with_span t ~cat:"task" "boom" (fun () -> raise (Boom 7)));
           ])
   with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom 7 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  (* The span closed on the worker before the exception crossed domains. *)
  check Alcotest.int "span recorded despite raise" 1 (U.Span.count t);
  match U.Span.spans t with
  | [ s ] -> check Alcotest.string "failing span kept its name" "boom" s.U.Span.name
  | _ -> Alcotest.fail "expected exactly one span"

let test_span_chrome_under_stealing () =
  (* A single-giant batch is the shape that forces work stealing: the
     worker holding task 0 is busy for the whole batch, so the rest of
     the queue migrates. Every task records a span; the Chrome export
     must carry one complete ("X") event per task with sane timestamps,
     whatever the steal pattern was. *)
  let t = U.Span.create () in
  let weights = Array.init 24 (fun i -> if i = 0 then 200 else 1) in
  Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Pool.map_array pool
           (fun (w, i) ->
             U.Span.with_span t ~cat:"task" (Printf.sprintf "steal-%d" i) (fun () ->
                 spin w i))
           (Array.mapi (fun i w -> (w, i)) weights)));
  check Alcotest.int "one span per task" 24 (U.Span.count t);
  let reparsed = U.Json.parse (U.Json.to_string ~pretty:true (U.Span.to_chrome_json t)) in
  match Option.bind (U.Json.member "traceEvents" reparsed) U.Json.to_list with
  | Some events ->
    check Alcotest.int "one chrome event per span" 24 (List.length events);
    let names =
      List.filter_map (fun ev -> Option.bind (U.Json.member "name" ev) U.Json.to_str) events
    in
    for i = 0 to 23 do
      check Alcotest.bool
        (Printf.sprintf "span steal-%d exported" i)
        true
        (List.mem (Printf.sprintf "steal-%d" i) names)
    done;
    List.iter
      (fun ev ->
        let geti k = Option.bind (U.Json.member k ev) U.Json.to_int in
        check Alcotest.bool "ts non-negative" true (Option.get (geti "ts") >= 0);
        check Alcotest.bool "dur non-negative" true (Option.get (geti "dur") >= 0);
        check Alcotest.bool "tid present" true (geti "tid" <> None);
        check (Alcotest.option Alcotest.string) "complete event" (Some "X")
          (Option.bind (U.Json.member "ph" ev) U.Json.to_str))
      events
  | None -> Alcotest.fail "no traceEvents"

(* ---------- Ctx single-flight ---------- *)

let memo_counts ctx tbl =
  let v s =
    Option.value ~default:0
      (U.Metrics.find_counter (H.Ctx.metrics ctx) (Printf.sprintf "ctx.memo.%s.%s" tbl s))
  in
  (v "lookups", v "hits", v "misses")

let test_ctx_single_flight_analysis () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let ctx = H.Ctx.create ~scale:H.Ctx.Fast ~pool () in
      let name = "429.mcf" in
      let results = H.Ctx.par_map ctx (fun _ -> H.Ctx.analysis ctx name) (List.init 8 Fun.id) in
      check Alcotest.int "everyone got an analysis" 8 (List.length results);
      (* Physically one value: the seven waiters were handed the first
         domain's computation, not copies. *)
      (match results with
      | first :: rest -> List.iter (fun a -> check Alcotest.bool "same value" true (a == first)) rest
      | [] -> assert false);
      let lookups, hits, misses = memo_counts ctx "analyses" in
      check Alcotest.int "computed exactly once" 1 misses;
      check Alcotest.int "eight lookups" 8 lookups;
      check Alcotest.int "seven single-flight hits" 7 hits;
      check Alcotest.int "hits + misses = lookups" lookups (hits + misses))

let test_ctx_single_flight_corun () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let ctx = H.Ctx.create ~scale:H.Ctx.Fast ~pool () in
      let self = ("429.mcf", Colayout.Optimizer.Original) in
      let peer = ("470.lbm", Colayout.Optimizer.Original) in
      let results =
        H.Ctx.par_map ctx
          (fun _ -> H.Ctx.corun_stats ctx ~hw:false ~self ~peer)
          (List.init 6 Fun.id)
      in
      (match results with
      | first :: rest ->
        List.iter (fun s -> check Alcotest.bool "one simulation shared" true (s == first)) rest
      | [] -> assert false);
      let lookups, hits, misses = memo_counts ctx "corun_cache" in
      check Alcotest.int "one co-run simulation" 1 misses;
      check Alcotest.int "six lookups" 6 lookups;
      check Alcotest.int "hits + misses = lookups" lookups (hits + misses))

(* ---------- Harness-wide determinism: jobs=1 vs jobs=4 ---------- *)

(* The optimizers' decision traces on one program, as
   `repro profile PROGRAM KIND --scale fast --decisions FILE` writes them
   (one JSONL per optimizer), from the suite's context, where the
   program's analysis is already memoized. *)
let decisions_program = "445.gobmk"

let decision_jsonls ctx =
  let module O = Colayout.Optimizer in
  let p = decisions_program in
  List.filter_map
    (fun kind ->
      if kind = O.Original then None
      else begin
        let d = Colayout.Decision_trace.create () in
        ignore
          (O.layout_for ~decisions:d ~config:(H.Ctx.opt_config ctx) kind (H.Ctx.program ctx p)
             (H.Ctx.analysis ctx p));
        Some
          ( Printf.sprintf "profile-decisions/%s/%s" p (O.kind_name kind),
            [ Colayout.Decision_trace.to_jsonl d ] )
      end)
    O.all_kinds

let render_suite ~jobs =
  Pool.with_pool ~jobs (fun pool ->
      let ctx = H.Ctx.create ~scale:H.Ctx.Fast ~pool () in
      let tables =
        List.map
          (fun (id, tables) -> (id, List.map U.Table.render tables))
          (H.Registry.run_by_ids ctx H.Registry.ids)
      in
      tables @ decision_jsonls ctx)

(* The committed golden digests: one MD5 per experiment id, of its
   jobs = 1 tables, then one per decision JSONL ([decision_jsonls]). The
   golden file's header and the digests this run computed go to
   [digests.actual] in the working directory, so an intended change
   regenerates the golden file by copying that one over it (the command
   is in the file's header). [dune runtest] runs the
   suite in test/, [dune exec] from the repository root. *)
let golden_file =
  if Sys.file_exists "golden/digests.txt" then "golden/digests.txt" else "test/golden/digests.txt"

let digest_lines suite =
  List.map
    (fun (id, tables) ->
      Printf.sprintf "%s %s" id (Digest.to_hex (Digest.string (String.concat "\n" tables))))
    suite

let check_golden suite =
  let actual = digest_lines suite in
  let header, expected =
    In_channel.with_open_text golden_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.partition (fun l -> l.[0] = '#')
  in
  Out_channel.with_open_text "digests.actual" (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) (header @ actual));
  let id_of l = match String.index_opt l ' ' with Some i -> String.sub l 0 i | None -> l in
  let rec first_diff = function
    | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else Some (id_of e, e, a)
    | e :: _, [] -> Some (id_of e, e, "(missing)")
    | [], a :: _ -> Some (id_of a, "(missing)", a)
    | [], [] -> None
  in
  match first_diff (expected, actual) with
  | None -> ()
  | Some (id, e, a) ->
    Alcotest.failf "golden digests differ first at %s: committed %S, rendered %S" id e a

let test_determinism_all_experiments () =
  let seq = render_suite ~jobs:1 in
  check_golden seq;
  let par = render_suite ~jobs:4 in
  List.iter2
    (fun (id, seq_tables) (id', par_tables) ->
      check Alcotest.string "same experiment" id id';
      check Alcotest.int (id ^ ": same table count") (List.length seq_tables)
        (List.length par_tables);
      List.iteri
        (fun i (a, b) ->
          check Alcotest.string (Printf.sprintf "%s table %d byte-identical" id i) a b)
        (List.combine seq_tables par_tables))
    seq par

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "exception-propagation" `Quick test_pool_exception;
          Alcotest.test_case "nested-rejection" `Quick test_pool_nested_rejection;
          Alcotest.test_case "jobs1-inline" `Quick test_pool_jobs1_inline;
          Alcotest.test_case "run-all-metrics" `Quick test_pool_run_all_and_metrics;
          Alcotest.test_case "skew-determinism" `Quick test_pool_skew_determinism;
          Alcotest.test_case "skew-exception" `Quick test_pool_skew_exception;
          Alcotest.test_case "skew-task-conservation" `Quick test_pool_skew_task_conservation;
          Alcotest.test_case "default-jobs" `Quick test_pool_default_jobs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "atomic-increments" `Quick test_metrics_atomic_increments;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
        ] );
      ( "span",
        [
          Alcotest.test_case "per-domain-merge" `Quick test_span_per_domain_merge;
          Alcotest.test_case "exception-across-domains" `Quick test_span_exception_across_domains;
          Alcotest.test_case "chrome-export-under-stealing" `Quick
            test_span_chrome_under_stealing;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "single-flight-analysis" `Slow test_ctx_single_flight_analysis;
          Alcotest.test_case "single-flight-corun" `Slow test_ctx_single_flight_corun;
        ] );
      ( "determinism",
        [ Alcotest.test_case "all-experiments-jobs1-vs-jobs4" `Slow test_determinism_all_experiments ] );
    ]
