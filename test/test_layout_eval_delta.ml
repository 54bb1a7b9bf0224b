(* Tests for the PR-6 delta (incremental) evaluation path:

   - the property drive: >= 10k random swap/relocate/undo/commit sequences
     through [Layout_eval.Delta] across >= 3 cache geometries, asserting
     the running miss count is bit-equal to a fresh full
     [miss_ratio_of_order] after every resync interval and at the end,
     and equal to the [Kernel_baseline] seed oracle at sampled resync
     points and at the end;
   - undo exactness and the single-pending-move discipline;
   - [Anneal.search] (a delta session) byte-identical to the
     full-evaluation oracle [Kernel_baseline.anneal_full], with and without
     [max_span];
   - [Anneal.search_batch] byte-identical at jobs 1 and 4, and its result
     replayed through the seed evaluator;
   - the degenerate-input guard: single-function programs return the
     trivial order immediately instead of spinning in the b <> a redraw
     loop. *)

open Colayout
open Colayout_oracle
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache
module U = Colayout_util
module Delta = Layout_eval.Delta

let check = Alcotest.check

let bits = Int64.bits_of_float

let check_bit_equal what a b = check Alcotest.int64 what (bits a) (bits b)

let program_of ~seed ~style =
  W.Gen.build
    {
      W.Gen.default_profile with
      pname = Printf.sprintf "layout-eval-delta-%d" seed;
      seed;
      style;
      phases = 2;
      funcs_per_phase = 3;
      shared_funcs = 1;
      arms = 3;
      arm_blocks = 2;
      arm_work = 30;
      cold_funcs = 2;
      iters_per_phase = 25;
    }

let trace_of program = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks:6_000 ())

let geometries =
  [
    C.Params.make ~size_bytes:2048 ~assoc:2 ~line_bytes:64;
    C.Params.make ~size_bytes:1024 ~assoc:1 ~line_bytes:32;
    C.Params.make ~size_bytes:8192 ~assoc:4 ~line_bytes:64;
  ]

(* ------------------------------------------------- the property drive *)

(* [moves] random proposals per geometry: ~45% committed swaps/relocates,
   ~45% undone, ~10% undone-then-reapplied — every path through the move
   API. The ledger is audited against a fresh full evaluation at every
   auto-resync boundary and against the seed oracle at sampled points. *)
let drive_moves ~params ~program ~trace ~moves ~resync_interval ~seed =
  let engine = Layout_eval.create ~params program trace in
  let nf = Layout_eval.num_funcs engine in
  let prng = U.Prng.create ~seed in
  let order0 = Array.init nf Fun.id in
  U.Prng.shuffle prng order0;
  let sess = Delta.start ~resync_interval engine order0 in
  check_bit_equal "session start = full eval"
    (Layout_eval.miss_ratio_of_order engine order0)
    (Delta.miss_ratio sess);
  let committed = ref 0 in
  let reapplied = ref 0 in
  for i = 1 to moves do
    let a = U.Prng.int prng nf in
    let b = ref (U.Prng.int prng nf) in
    while !b = a do
      b := U.Prng.int prng nf
    done;
    let b = !b in
    let swap = U.Prng.bool prng ~p:0.5 in
    let mr = if swap then Delta.apply_swap sess a b else Delta.apply_relocate sess a b in
    let roll = U.Prng.float prng in
    if roll < 0.45 then begin
      Delta.commit sess;
      incr committed;
      if !committed mod resync_interval = 0 then begin
        (* The auto-resync just ran inside [commit]; the running count must
           replay bit-for-bit through a fresh full evaluation... *)
        let order = Delta.order sess in
        check_bit_equal
          (Printf.sprintf "resync point %d = full eval (%s)" i (C.Params.to_string params))
          (Layout_eval.miss_ratio_of_order engine order)
          (Delta.miss_ratio sess);
        (* ... and, sampled (the seed path is ~7x slower), through the seed
           oracle itself. *)
        if !committed mod (resync_interval * 8) = 0 then
          check_bit_equal
            (Printf.sprintf "resync point %d = Kernel_baseline" i)
            (Kernel_baseline.miss_ratio_of_function_order ~params program trace order)
            (Delta.miss_ratio sess)
      end
    end
    else begin
      Delta.undo sess;
      if roll >= 0.9 then begin
        (* Re-apply the identical move: the delta must reproduce the ratio
           it just computed, bit for bit. *)
        incr reapplied;
        let mr2 = if swap then Delta.apply_swap sess a b else Delta.apply_relocate sess a b in
        check_bit_equal (Printf.sprintf "reapplied move %d" i) mr mr2;
        Delta.undo sess
      end
    end
  done;
  (* Explicit final audit: resync (which hard-fails internally on any
     per-set divergence), then full engine and seed-oracle comparisons. *)
  let final = Delta.resync sess in
  let order = Delta.order sess in
  check_bit_equal "final = running" (Delta.miss_ratio sess) final;
  check_bit_equal
    (Printf.sprintf "final = full eval (%s)" (C.Params.to_string params))
    (Layout_eval.miss_ratio_of_order engine order)
    final;
  check_bit_equal "final = Kernel_baseline"
    (Kernel_baseline.miss_ratio_of_function_order ~params program trace order)
    final;
  let st = Delta.stats sess in
  check Alcotest.bool "delta path actually replayed fewer events than full recompute" true
    (st.Delta.replayed_events < st.Delta.moves * Layout_eval.trace_length engine);
  check Alcotest.int "moves counted" (moves + !reapplied) st.Delta.moves

let test_property_drive () =
  let program = program_of ~seed:41 ~style:W.Gen.default_profile.W.Gen.style in
  let trace = trace_of program in
  List.iteri
    (fun i params ->
      drive_moves ~params ~program ~trace ~moves:3_500 ~resync_interval:32 ~seed:(100 + i))
    geometries

let test_property_drive_dispatch () =
  (* A second trace shape (interpreter-style dispatch loop) at a tighter
     resync cadence; together with the phased drive this pushes the move
     count past 10k sequences over >= 3 geometries. *)
  let program = program_of ~seed:57 ~style:(W.Gen.Dispatch { table = 4; zipf_s = 0.8 }) in
  let trace = trace_of program in
  drive_moves
    ~params:(C.Params.make ~size_bytes:4096 ~assoc:2 ~line_bytes:64)
    ~program ~trace ~moves:1_500 ~resync_interval:8 ~seed:7

(* ------------------------------------------ across the assoc boundary *)

let per_set_lines ~params program trace order =
  Kernel_baseline.lines_per_set ~params (Layout.of_function_order program order) trace

(* Moves whose dirty sets cross between fitting their ways and
   overflowing them, in both directions, with a resync after every commit:
   the running ratio must equal a full recompute after every move, commit
   and undo alike. *)
let test_assoc_boundary () =
  let program = program_of ~seed:41 ~style:W.Gen.default_profile.W.Gen.style in
  let trace = trace_of program in
  let params = C.Params.make ~size_bytes:4096 ~assoc:4 ~line_bytes:64 in
  let engine = Layout_eval.create ~params program trace in
  let nf = Layout_eval.num_funcs engine in
  let prng = U.Prng.create ~seed:23 in
  let sess = Delta.start ~resync_interval:1 engine (Array.init nf Fun.id) in
  let lines = ref (per_set_lines ~params program trace (Delta.order sess)) in
  let to_overfull = ref 0 and to_fit = ref 0 in
  for i = 1 to 400 do
    let a = U.Prng.int prng nf in
    let b = ref (U.Prng.int prng nf) in
    while !b = a do
      b := U.Prng.int prng nf
    done;
    let mr =
      if U.Prng.bool prng ~p:0.5 then Delta.apply_swap sess a !b else Delta.apply_relocate sess a !b
    in
    let order = Delta.order sess in
    check_bit_equal (Printf.sprintf "move %d = full eval" i)
      (Layout_eval.miss_ratio_of_order engine order)
      mr;
    if U.Prng.bool prng ~p:0.6 then begin
      let now = per_set_lines ~params program trace order in
      Array.iteri
        (fun s l ->
          let was = !lines.(s) > params.C.Params.assoc and is = l > params.C.Params.assoc in
          if is && not was then incr to_overfull;
          if was && not is then incr to_fit)
        now;
      lines := now;
      Delta.commit sess
    end
    else Delta.undo sess;
    check_bit_equal (Printf.sprintf "after move %d = full eval" i)
      (Layout_eval.miss_ratio_of_order engine (Delta.order sess))
      (Delta.miss_ratio sess)
  done;
  check_bit_equal "final = Kernel_baseline"
    (Kernel_baseline.miss_ratio_of_function_order ~params program trace (Delta.order sess))
    (Delta.miss_ratio sess);
  let st = Delta.stats sess in
  check Alcotest.int "a resync after every commit" st.Delta.accepted st.Delta.resyncs;
  check Alcotest.bool
    (Printf.sprintf "sets went overfull (%d)" !to_overfull)
    true (!to_overfull > 0);
  check Alcotest.bool (Printf.sprintf "sets came back within their ways (%d)" !to_fit) true
    (!to_fit > 0);
  check Alcotest.bool "some dirty sets were counted without a replay" true
    (st.Delta.fit_sets > 0);
  check Alcotest.bool "some were replayed" true (st.Delta.fit_sets < st.Delta.dirty_sets)

(* The shortcut's counter: every dirty set of a cache the program fits in
   is counted without a replay, and none of a cache whose every set is
   overfull under any order. *)
let test_fit_counter () =
  let program = program_of ~seed:41 ~style:W.Gen.default_profile.W.Gen.style in
  let trace = trace_of program in
  let run params =
    let engine = Layout_eval.create ~params program trace in
    let nf = Layout_eval.num_funcs engine in
    let prng = U.Prng.create ~seed:5 in
    let sess = Delta.start ~resync_interval:4 engine (Array.init nf Fun.id) in
    let most = ref 0 and fewest = ref max_int in
    for _ = 1 to 60 do
      let a = U.Prng.int prng nf in
      let b = (a + 1 + U.Prng.int prng (nf - 1)) mod nf in
      ignore (Delta.apply_relocate sess a b);
      let per_set = per_set_lines ~params program trace (Delta.order sess) in
      most := max !most (Array.fold_left max 0 per_set);
      fewest := min !fewest (Array.fold_left min max_int per_set);
      Delta.commit sess
    done;
    check_bit_equal "final = full eval"
      (Layout_eval.miss_ratio_of_order engine (Delta.order sess))
      (Delta.resync sess);
    (Delta.stats sess, !most, !fewest)
  in
  let big = C.Params.make ~size_bytes:65_536 ~assoc:16 ~line_bytes:64 in
  let st, most, _ = run big in
  check Alcotest.bool (Printf.sprintf "every set fits (at most %d lines)" most) true (most <= 16);
  check Alcotest.bool "dirty sets recounted" true (st.Delta.dirty_sets > 0);
  check Alcotest.int "all of them without a replay" st.Delta.dirty_sets st.Delta.fit_sets;
  check Alcotest.int "no event replayed" 0 st.Delta.replayed_events;
  let tiny = C.Params.make ~size_bytes:256 ~assoc:1 ~line_bytes:64 in
  let st, _, fewest = run tiny in
  check Alcotest.bool (Printf.sprintf "every set overflows (at least %d lines)" fewest) true
    (fewest > 1);
  check Alcotest.bool "dirty sets recounted" true (st.Delta.dirty_sets > 0);
  check Alcotest.int "none without a replay" 0 st.Delta.fit_sets;
  check Alcotest.bool "events replayed" true (st.Delta.replayed_events > 0)

(* --------------------------------------------------- API discipline *)

let test_move_api_discipline () =
  let program = program_of ~seed:41 ~style:W.Gen.default_profile.W.Gen.style in
  let trace = trace_of program in
  let params = List.hd geometries in
  let engine = Layout_eval.create ~params program trace in
  let nf = Layout_eval.num_funcs engine in
  let sess = Delta.start engine (Array.init nf Fun.id) in
  let mr0 = Delta.miss_ratio sess in
  (* Undo restores the ratio and the order, bit for bit. *)
  ignore (Delta.apply_swap sess 0 (nf - 1));
  Delta.undo sess;
  check_bit_equal "undo restores ratio" mr0 (Delta.miss_ratio sess);
  check (Alcotest.array Alcotest.int) "undo restores order" (Array.init nf Fun.id)
    (Delta.order sess);
  (* One pending move at a time. *)
  ignore (Delta.apply_swap sess 0 1);
  Alcotest.check_raises "second apply rejected"
    (Invalid_argument "Layout_eval.Delta: a move is already pending — commit or undo it first")
    (fun () -> ignore (Delta.apply_swap sess 0 1));
  Alcotest.check_raises "resync with pending move rejected"
    (Invalid_argument "Layout_eval.Delta.resync: commit or undo the pending move first")
    (fun () -> ignore (Delta.resync sess));
  Delta.commit sess;
  Alcotest.check_raises "commit without pending rejected"
    (Invalid_argument "Layout_eval.Delta.commit: no pending move") (fun () -> Delta.commit sess);
  Alcotest.check_raises "undo without pending rejected"
    (Invalid_argument "Layout_eval.Delta.undo: no pending move") (fun () -> Delta.undo sess);
  (* Degenerate positions. *)
  Alcotest.check_raises "equal positions rejected"
    (Invalid_argument "Layout_eval.Delta.apply_swap: positions are equal (1)") (fun () ->
      ignore (Delta.apply_swap sess 1 1));
  Alcotest.check_raises "out-of-range position rejected"
    (Invalid_argument
       (Printf.sprintf "Layout_eval.Delta.apply_relocate: position %d out of [0,%d)" nf nf))
    (fun () -> ignore (Delta.apply_relocate sess nf 0));
  (* A rejected proposal must not poison the session. *)
  let order = Delta.order sess in
  check_bit_equal "session survives rejections"
    (Layout_eval.miss_ratio_of_order engine order)
    (Delta.miss_ratio sess)

(* ------------------------------------------ Anneal = full-eval oracle *)

let test_anneal_matches_full_oracle () =
  let program = program_of ~seed:41 ~style:W.Gen.default_profile.W.Gen.style in
  let trace = trace_of program in
  let params = C.Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  List.iter
    (fun max_span ->
      let d = Anneal.search ~seed:17 ~steps:120 ?max_span ~params program trace in
      let f = Kernel_baseline.anneal_full ~seed:17 ~steps:120 ?max_span ~params program trace in
      check (Alcotest.array Alcotest.int)
        (Printf.sprintf "same order (max_span=%s)"
           (match max_span with None -> "none" | Some s -> string_of_int s))
        f.Anneal.order d.Anneal.order;
      check_bit_equal "same ratio" f.Anneal.miss_ratio d.Anneal.miss_ratio;
      check_bit_equal "same start" f.Anneal.improved_from d.Anneal.improved_from;
      check Alcotest.int "same steps" f.Anneal.steps d.Anneal.steps;
      (* And the delta result still replays through the seed evaluator. *)
      check_bit_equal "delta result = Kernel_baseline"
        (Kernel_baseline.miss_ratio_of_function_order ~params program trace d.Anneal.order)
        d.Anneal.miss_ratio)
    [ None; Some 2 ]

let test_search_batch_jobs_1_4 () =
  let program = program_of ~seed:41 ~style:W.Gen.default_profile.W.Gen.style in
  let trace = trace_of program in
  let params = C.Params.make ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  let run ~jobs =
    U.Pool.with_pool ~jobs (fun pool ->
        let engine = Layout_eval.create ~pool ~params program trace in
        Anneal.search_batch ~seed:8 ~steps:12 ~width:6 ~max_span:3 engine)
  in
  (* jobs=1 scores each neighbourhood sequentially, jobs=4 fans it out;
     the results must be byte-identical. *)
  let r1 = run ~jobs:1 in
  let r4 = run ~jobs:4 in
  check (Alcotest.array Alcotest.int) "same order at jobs 1 and 4" r1.Anneal.order r4.Anneal.order;
  check_bit_equal "same ratio at jobs 1 and 4" r1.Anneal.miss_ratio r4.Anneal.miss_ratio;
  check Alcotest.int "simulations reported" (1 + (12 * 6)) r1.Anneal.steps;
  check_bit_equal "batched result = Kernel_baseline"
    (Kernel_baseline.miss_ratio_of_function_order ~params program trace r1.Anneal.order)
    r1.Anneal.miss_ratio

(* ------------------------------------------------- degenerate inputs *)

let single_func_program () =
  let open Colayout_ir in
  let b = Builder.create ~name:"one-func" () in
  let f = Builder.func b "main" in
  let entry = Builder.block b f "entry" in
  let loop = Builder.block b f "loop" in
  let done_ = Builder.block b f "done" in
  Builder.set_body b entry [ Types.Assign (0, Types.Const 0) ] (Types.Jump loop);
  Builder.set_body b loop
    [ Types.Work 8; Types.Assign (0, Types.Bin (Types.Add, Types.Var 0, Types.Const 1)) ]
    (Types.Branch
       {
         cond = Types.Bin (Types.Lt, Types.Var 0, Types.Const 5);
         if_true = loop;
         if_false = done_;
       });
  Builder.set_body b done_ [] Types.Halt;
  Builder.set_main b f;
  Builder.finish b

let test_anneal_degenerate_single_function () =
  let program = single_func_program () in
  let trace = Pipeline.reference_trace program (E.Interp.ref_input ~max_blocks:200 ()) in
  let params = List.hd geometries in
  (* Must return immediately (no b <> a redraw spin) with the trivial
     order, in both searches and in the full-evaluation oracle. *)
  List.iter
    (fun r ->
      check (Alcotest.array Alcotest.int) "trivial order" [| 0 |] r.Anneal.order;
      check_bit_equal "miss ratio = initial" r.Anneal.improved_from r.Anneal.miss_ratio;
      check Alcotest.int "steps reported" 50 r.Anneal.steps)
    [
      Anneal.search ~seed:3 ~steps:50 ~params program trace;
      Kernel_baseline.anneal_full ~seed:3 ~steps:50 ~params program trace;
    ];
  let engine = Layout_eval.create ~params program trace in
  let r = Anneal.search_batch ~seed:3 ~steps:40 ~width:4 engine in
  check (Alcotest.array Alcotest.int) "batch trivial order" [| 0 |] r.Anneal.order;
  check_bit_equal "batch miss ratio = initial" r.Anneal.improved_from r.Anneal.miss_ratio;
  (* A delta session on the degenerate universe works too (no moves are
     possible, but start/miss_ratio must agree with the full path). *)
  let sess = Delta.start engine [| 0 |] in
  check_bit_equal "degenerate session = full eval"
    (Layout_eval.miss_ratio_of_order engine [| 0 |])
    (Delta.miss_ratio sess)

let () =
  Alcotest.run "layout_eval_delta"
    [
      ( "property",
        [
          Alcotest.test_case "10k+ move sequences across geometries" `Slow test_property_drive;
          Alcotest.test_case "dispatch trace, tight resync" `Slow test_property_drive_dispatch;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "delta = full across the assoc boundary" `Quick test_assoc_boundary;
          Alcotest.test_case "fit_sets: all fit, none fit" `Quick test_fit_counter;
        ] );
      ( "discipline",
        [ Alcotest.test_case "undo/commit/pending rules" `Quick test_move_api_discipline ] );
      ( "anneal",
        [
          Alcotest.test_case "search = full-eval oracle" `Quick test_anneal_matches_full_oracle;
          Alcotest.test_case "search_batch same at one and four jobs" `Quick
            test_search_batch_jobs_1_4;
          Alcotest.test_case "degenerate single-function guard" `Quick
            test_anneal_degenerate_single_function;
        ] );
    ]
