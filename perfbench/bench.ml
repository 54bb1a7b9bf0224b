(* End-to-end benchmark of the two headline paths, with layer-attributed
   timings.

     bench.exe --workload paper|serve --seed N --seconds S --trace 0|1

   A run prepares its inputs from the seed and serves a first request
   (timed several times: setup_s), checks that request's outputs against
   independent oracles, then repeats the same request for S seconds.
   Every timed request must reproduce the first request's output digest.
   With --trace 0 the last stdout line reports the median request latency
   and the median set-up time, both scaled by a host-speed probe (below).
   With --trace 1 each
   request is split into layers by timers placed around the library
   calls, and the line reports mean per-request time per layer plus the
   unattributed rest, together with per-request work counts. *)

open Colayout
module U = Colayout_util
module T = Colayout_trace
module C = Colayout_cache
module E = Colayout_exec
module W = Colayout_workloads
module Serve = Colayout_harness.Serve

(* --- Layer accounting ---------------------------------------------------- *)

type layer =
  | Interp  (** Interpreter runs that produce block/function traces. *)
  | Profile  (** Trimming, pruning, TRG kernel walks, streaming ingest + merge. *)
  | Model  (** TRG reduction, affinity hierarchy. *)
  | Place  (** Layout construction from orders. *)
  | Cache_sim  (** Solo/co-run cache simulation; the service's epoch re-optimization. *)

let layers = [ Interp; Profile; Model; Place; Cache_sim ]

let layer_index = function Interp -> 0 | Profile -> 1 | Model -> 2 | Place -> 3 | Cache_sim -> 4

let layer_metric = function
  | Interp -> "interp_ms"
  | Profile -> "profile_ms"
  | Model -> "model_ms"
  | Place -> "layout_ms"
  | Cache_sim -> "cache_sim_ms"

let clock = U.Metrics.default_clock

let ms_of_ns ns = Int64.to_float ns /. 1e6

let tracing = ref false

let busy_ns = Array.make (List.length layers) 0L

(* Layers never nest, so each request's wall time splits into the layer
   totals plus an unattributed remainder. Untraced runs call straight
   through. *)
let in_layer l f =
  if not !tracing then f ()
  else begin
    let t0 = clock () in
    let r = f () in
    let i = layer_index l in
    busy_ns.(i) <- Int64.add busy_ns.(i) (Int64.sub (clock ()) t0);
    r
  end

(* For layers timed by the library itself. *)
let charge l ns =
  if !tracing then busy_ns.(layer_index l) <- Int64.add busy_ns.(layer_index l) ns

(* Per-request work counts (deterministic for a given input). *)
type counts = {
  mutable profile_events : int;  (** Events fed to the profile kernels. *)
  mutable sims : int;  (** Cache simulations: evaluations + anneal proposals. *)
  mutable misses : int;  (** Misses summed over the explicit evaluations. *)
}

let counts = { profile_events = 0; sims = 0; misses = 0 }

let reset_counts () =
  counts.profile_events <- 0;
  counts.sims <- 0;
  counts.misses <- 0

(* --- Shared helpers ------------------------------------------------------ *)

let params = C.Params.default_l1i

let config = Optimizer.default_config

let run_program prog input = in_layer Interp (fun () -> E.Interp.run prog input)

let solo layout trace =
  let st = in_layer Cache_sim (fun () -> Pipeline.miss_ratio_solo ~params ~layout trace) in
  counts.sims <- counts.sims + 1;
  counts.misses <- counts.misses + C.Cache_stats.misses st;
  st

let trg_slots block_bytes =
  Trg_reduce.slots_for ~params ~block_bytes ~cache_multiplier:config.Optimizer.cache_multiplier

let trg_window block_bytes =
  Trg.recommended_window ~params ~block_bytes
    ~cache_multiplier:config.Optimizer.cache_multiplier

let check cond fmt = Printf.ksprintf (fun s -> if not cond then failwith s) fmt

let digest_of parts = Digest.to_hex (Digest.string (String.concat "|" parts))

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let stats_str st =
  Printf.sprintf "%d/%d/%d" (C.Cache_stats.accesses st) (C.Cache_stats.misses st)
    (C.Cache_stats.evictions st)

(* A workload's [prepare ~seed] builds its inputs and returns [request]:
   [request ()] serves one request and returns, for use after the timer
   stops, its output digest and a check of those outputs against
   oracles. *)

(* --- paper: the paper's offline path --------------------------------------

   Profile one program on its test input, build the four optimized layouts
   (function/basic-block x affinity/TRG) and evaluate each on the
   reference input, solo and co-run against a gcc peer. As in the
   experiment harness at its Fast scale ([Ctx.test_fuel], [Ctx.ref_fuel]),
   the program runs its standard test and reference inputs; the seed picks
   the peer's input. Seeded program inputs would make the request's work
   depend on the seed: the affinity hierarchy's cost follows the test
   trace. *)

let paper_program = "445.gobmk"

let paper_peer = "403.gcc"

let paper_test_fuel = 80_000

let paper_ref_fuel = 200_000

let paper_prepare ~seed =
  let prog = W.Spec.build paper_program in
  let peer = W.Spec.build paper_peer in
  let peer_seed = U.Prng.int (U.Prng.create ~seed) 1_000_000_000 in
  let peer_trace =
    (E.Interp.run peer (E.Interp.ref_input ~seed:peer_seed ~max_blocks:paper_ref_fuel ()))
      .E.Interp.bb_trace
  in
  let peer_layout = Layout.original peer in
  let rates =
    ((W.Spec.profile paper_program).W.Gen.fetch_rate, (W.Spec.profile paper_peer).W.Gen.fetch_rate)
  in
  let request () =
    let test = run_program prog (E.Interp.test_input ~max_blocks:paper_test_fuel ()) in
    let analysis =
      in_layer Profile (fun () ->
          Optimizer.analysis_of_traces ~config ~bb:test.E.Interp.bb_trace
            ~fn:test.E.Interp.fn_trace ())
    in
    counts.profile_events <-
      counts.profile_events + T.Trace.length analysis.Optimizer.bb
      + T.Trace.length analysis.Optimizer.fn;
    let trg_hot block_bytes tr =
      let g = in_layer Profile (fun () -> Trg.build ~window:(trg_window block_bytes) tr) in
      in_layer Model (fun () ->
          (Trg_reduce.reduce g ~slots:(trg_slots block_bytes)).Trg_reduce.order)
    in
    let aff_hot tr =
      in_layer Model (fun () ->
          Affinity_hierarchy.order
            (Affinity_hierarchy.build ~algo:Affinity_hierarchy.Efficient
               ~ws:config.Optimizer.ws tr))
    in
    let fn_aff = aff_hot analysis.Optimizer.fn in
    let fn_trg = trg_hot config.Optimizer.func_block_bytes analysis.Optimizer.fn in
    let bb_aff = aff_hot analysis.Optimizer.bb in
    let bb_trg = trg_hot config.Optimizer.bb_block_bytes analysis.Optimizer.bb in
    let layouts =
      in_layer Place (fun () ->
          let by_func hot =
            Layout.of_function_order prog (Layout.function_order_of_hot_list prog ~hot)
          in
          let by_block hot =
            Layout.of_block_order ~function_stubs:true prog
              (Layout.block_order_of_hot_list prog ~hot)
          in
          [
            (Optimizer.Original, Layout.original prog);
            (Optimizer.Func_affinity, by_func fn_aff);
            (Optimizer.Bb_affinity, by_block bb_aff);
            (Optimizer.Func_trg, by_func fn_trg);
            (Optimizer.Bb_trg, by_block bb_trg);
          ])
    in
    let ref_trace =
      (run_program prog (E.Interp.ref_input ~max_blocks:paper_ref_fuel ())).E.Interp.bb_trace
    in
    let solos = List.map (fun (_, l) -> solo l ref_trace) layouts in
    let coruns =
      List.map
        (fun (_, l) ->
          let st =
            in_layer Cache_sim (fun () ->
                Pipeline.miss_ratio_corun ~rates ~params ~self:(l, ref_trace)
                  ~peer:(peer_layout, peer_trace) ())
          in
          counts.sims <- counts.sims + 1;
          counts.misses <- counts.misses + C.Cache_stats.misses st;
          st)
        layouts
    in
    let digest () =
      digest_of
        (List.map (fun (_, l) -> ints l.Layout.order) layouts
        @ List.map stats_str solos @ List.map stats_str coruns)
    in
    let verify () =
      (* The composed layer calls must reproduce the optimizer's own
         pipeline, and two independent simulators must agree bit-for-bit
         on every function-order layout. *)
      List.iter
        (fun (kind, l) ->
          let want = Optimizer.layout_for ~config kind prog analysis in
          check (want.Layout.order = l.Layout.order && want.Layout.addr = l.Layout.addr)
            "paper: %s layout differs from Optimizer.layout_for" (Optimizer.kind_name kind))
        layouts;
      let engine = Layout_eval.create ~params prog ref_trace in
      let func_orders =
        [
          ( Optimizer.Original,
            Array.init (Colayout_ir.Program.num_funcs prog) Fun.id,
            List.nth solos 0 );
          ( Optimizer.Func_affinity,
            Layout.function_order_of_hot_list prog ~hot:fn_aff,
            List.nth solos 1 );
          ( Optimizer.Func_trg,
            Layout.function_order_of_hot_list prog ~hot:fn_trg,
            List.nth solos 3 );
        ]
      in
      List.iter
        (fun (kind, order, st) ->
          check
            (Layout_eval.miss_ratio_of_order engine order = C.Cache_stats.miss_ratio st)
            "paper: %s engine and Icache miss ratios differ" (Optimizer.kind_name kind))
        func_orders;
      List.iter2
        (fun st co ->
          check
            (C.Cache_stats.thread_accesses co 0 >= C.Cache_stats.accesses st
            && C.Cache_stats.hits co + C.Cache_stats.misses co = C.Cache_stats.accesses co)
            "paper: co-run counters inconsistent with the solo pass")
        solos coruns
    in
    (digest, verify)
  in
  request

(* --- serve: the streaming ingest service ----------------------------------

   `repro serve 429.mcf --users 64 --seed N` through [Serve.run] with the
   [Serve.config] defaults: 64 users in four ingest epochs, each epoch
   merging the consensus profile and re-optimizing the function order,
   then a last merge on exit. The seed draws every user's input seed and
   fuel; 64 users keep the seed-to-seed spread of the total work small
   and a request under a second (the CLI's default of 256 takes four
   times as long). [Serve.run] times its own phases; they are the
   layers. *)

let serve_program = "429.mcf"

let serve_prepare ~seed =
  let cfg ~walkers ~verify = Serve.config ~seed ~walkers ~verify ~program:serve_program () in
  let served = cfg ~walkers:1 ~verify:false in
  let summary_digest (s : Serve.summary) =
    digest_of
      ([ s.Serve.trg_digest; s.Serve.affine_digest; ints s.Serve.final_order ]
      @ List.map
          (fun (r : Serve.epoch_row) ->
            Printf.sprintf "%d/%d/%d/%h/%h" r.Serve.at_trace r.Serve.trg_edges r.Serve.affine_pairs
              r.Serve.miss_ratio r.Serve.improved_from)
          s.Serve.epoch_rows)
  in
  let request () =
    let s = Serve.run served in
    charge Interp (Int64.of_int s.Serve.gen_ns);
    charge Profile (Int64.of_int s.Serve.ingest_ns);
    charge Cache_sim (Int64.of_int s.Serve.reopt_ns);
    counts.profile_events <- counts.profile_events + s.Serve.stats.Ingest.kept_events;
    counts.sims <- counts.sims + (served.Serve.reopt_steps * List.length s.Serve.epoch_rows);
    let digest () = summary_digest s in
    let verify () =
      (* The same users through two walkers, with the service's own batch
         check on: the merged consensus must equal the batch kernels, and
         the whole service output must not depend on the walker count. *)
      let v = Serve.run (cfg ~walkers:2 ~verify:true) in
      check (v.Serve.digests_match = Some true)
        "serve: consensus digests differ from the batch kernels";
      check (summary_digest v = summary_digest s) "serve: output depends on the walker count";
      List.iter
        (fun (r : Serve.epoch_row) ->
          check (r.Serve.miss_ratio <= r.Serve.improved_from)
            "serve: re-optimized order worse than its start")
        s.Serve.epoch_rows
    in
    (digest, verify)
  in
  request

(* Each workload with the number of set-ups a run times: three of about
   seven seconds for paper, nine sub-second ones for serve. *)
let workloads = [ ("paper", (paper_prepare, 3)); ("serve", (serve_prepare, 9)) ]

(* --- Runner ------------------------------------------------------------- *)

let min_requests = 3

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper|serve --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0. -> (
    match List.assoc_opt w workloads with Some wl -> (wl, s, secs, t) | None -> usage ())
  | _ -> usage ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let secs_since t0 = Int64.to_float (Int64.sub (clock ()) t0) /. 1e9

(* --- Host-speed probe ------------------------------------------------------

   On a shared host, memory-system contention from other tenants slows
   every request by up to 60% in episodes lasting minutes, longer than a
   run. The probe is a fixed memory-bound loop (random read-modify-writes
   over a 32 MiB array, independent of the code under test) timed three
   times just before each timed interval; the interval is reported scaled
   by [probe_ref_ms / median probe time], i.e. as it would read on a host
   where the probe takes [probe_ref_ms], about its time on a quiet 2-vCPU
   Xeon guest. A single probe jitters by about 10% from one call to the
   next, more than the requests it scales. *)

let probe_ref_ms = 20.

let probe_cells = Array.make (1 lsl 22) 0

let probe_once () =
  let t0 = clock () in
  let mask = Array.length probe_cells - 1 in
  let x = ref 88172645463325252 in
  for _ = 1 to 1_000_000 do
    (* xorshift64 *)
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land mask in
    probe_cells.(i) <- probe_cells.(i) + 1
  done;
  ms_of_ns (Int64.sub (clock ()) t0)

let probe_ms () = median [ probe_once (); probe_once (); probe_once () ]

(* Set-up is everything before steady-state serving: preparing the inputs
   and the first, cold request. It is repeated [reps] times on fresh
   inputs and the median scaled time is reported (the fastest one picks
   out probe outliers); the last repetition's first request fixes the
   reference digest and is the one checked against the oracles. *)
let setup ~prepare ~reps ~seed =
  let rec go k times =
    let scale = probe_ref_ms /. probe_ms () in
    let t0 = clock () in
    let request = prepare ~seed in
    let first = request () in
    let times = (secs_since t0 *. scale) :: times in
    if k = 1 then (median times, request, first) else go (k - 1) times
  in
  go reps []

let () =
  let (prepare, reps), seed, seconds, trace = parse_args () in
  let setup_s, request, (digest, verify) = setup ~prepare ~reps ~seed in
  let want = digest () in
  let correct =
    ref
      (match verify () with
      | () -> true
      | exception e ->
        prerr_endline ("check failed: " ^ Printexc.to_string e);
        false)
  in
  tracing := trace;
  let latencies = ref [] and attempted = ref 0 and failed = ref 0 in
  let layer_sum = Array.make (List.length layers) 0L and wall_sum = ref 0L in
  let t_start = clock () in
  while !attempted < min_requests || secs_since t_start < seconds do
    Array.fill busy_ns 0 (Array.length busy_ns) 0L;
    reset_counts ();
    let scale = probe_ref_ms /. probe_ms () in
    let t0 = clock () in
    let outcome = match request () with d, _ -> Ok d | exception e -> Error e in
    let dt = Int64.sub (clock ()) t0 in
    let outcome = Result.map (fun d -> d ()) outcome in
    incr attempted;
    match outcome with
    | Ok d when d = want ->
      latencies := (ms_of_ns dt *. scale) :: !latencies;
      wall_sum := Int64.add !wall_sum dt;
      Array.iteri (fun i ns -> layer_sum.(i) <- Int64.add layer_sum.(i) ns) busy_ns
    | Ok _ ->
      prerr_endline "request output differs from the first request";
      incr failed
    | Error e ->
      prerr_endline ("request failed: " ^ Printexc.to_string e);
      incr failed
  done;
  if !failed > 0 then correct := false;
  let ok = List.length !latencies in
  if ok = 0 then failwith "no request completed";
  let metric name unit v = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit in
  let metrics =
    if not trace then
      [
        metric "latency_ms" "ms" (median !latencies);
        metric "setup_s" "s" setup_s;
      ]
    else begin
      let per_req ns = ms_of_ns ns /. float_of_int ok in
      let attributed = Array.fold_left Int64.add 0L layer_sum in
      (* Counts are a function of the input, so the last request's stand
         for every request. *)
      List.map (fun l -> metric (layer_metric l) "ms" (per_req layer_sum.(layer_index l))) layers
      @ [
          metric "unattributed_ms" "ms" (per_req (Int64.sub !wall_sum attributed));
          metric "profile_events" "count" (float_of_int counts.profile_events);
          metric "cache_sims" "count" (float_of_int counts.sims);
          metric "eval_misses" "count" (float_of_int counts.misses);
        ]
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" !correct
    !attempted !failed (String.concat ", " metrics)
