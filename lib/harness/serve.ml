open Colayout
module U = Colayout_util
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache

(* The `repro serve` driver: a long-lived profile-ingest service fed by
   synthetic "users". Each user is one run of a workload program with a
   per-user input seed and fuel drawn from the user's own [Prng] stream —
   the per-workload input distribution — so thousands of users exercise
   thousands of distinct control paths through the same code. Users are
   generated in pool-parallel batches but committed to the [Ingest]
   walkers in user order, so the accumulated profile (and everything
   downstream: digests, epoch rows, the re-optimized order) is a pure
   function of the config, at any jobs and walker count.

   At every ingest epoch the walkers merge into a consensus profile, whose
   edge and pair counts go into the epoch row, and the function order is
   re-optimized incrementally: a short warm-started anneal ([~initial] =
   the previous epoch's order) scored through [Layout_eval.Delta] against
   the newest user trace. The anneal does not read the consensus profile:
   the order follows the newest trace alone. [improved_from] in each epoch
   row is the previous order's miss ratio on that trace — the drift signal
   the re-optimization absorbs. *)

type config = {
  program : string;
  users : int;
  seed : int;
  fuel : int;  (** Max fuel per user; each user draws from [fuel/2, fuel]. *)
  walkers : int;  (** Parallel ingest walkers (see [Ingest.config]). *)
  trg_window : int;
  affinity_w : int;
  epoch_traces : int;
  gen_batch : int;  (** Users generated per parallel batch. *)
  reopt_steps : int;  (** Anneal steps per epoch re-optimization; 0 = off. *)
  verify : bool;  (** Also run the batch kernels on every user trace and merge. *)
}

let config ?(users = 64) ?(seed = 1) ?(fuel = 4_000) ?(walkers = 1) ?(trg_window = 64)
    ?(affinity_w = 16) ?(epoch_traces = 16) ?(gen_batch = 16) ?(reopt_steps = 120)
    ?(verify = false) ~program () =
  if users < 1 then invalid_arg "Serve.config: users must be >= 1";
  if fuel < 2 then invalid_arg "Serve.config: fuel must be >= 2";
  if walkers < 1 then invalid_arg "Serve.config: walkers must be >= 1";
  if gen_batch < 1 then invalid_arg "Serve.config: gen_batch must be >= 1";
  if reopt_steps < 0 then invalid_arg "Serve.config: reopt_steps must be >= 0";
  {
    program;
    users;
    seed;
    fuel;
    walkers;
    trg_window;
    affinity_w;
    epoch_traces;
    gen_batch;
    reopt_steps;
    verify;
  }

type epoch_row = {
  epoch : int;
  at_trace : int;
  partial : bool;  (** Flush-on-exit row covering an unfinished epoch. *)
  trg_edges : int;
  affine_pairs : int;
  miss_ratio : float;  (** Re-optimized order on the newest trace; nan if reopt off. *)
  improved_from : float;  (** The previous epoch's order on that trace; nan if reopt off. *)
}

type summary = {
  cfg : config;
  num_symbols : int;
  num_funcs : int;
  stats : Ingest.stats;
  wall_ns : int;
  gen_ns : int;
  ingest_ns : int;
  reopt_ns : int;
  traces_per_sec : float;  (** Traces over the end-to-end wall. *)
  events_per_sec : float;  (** Raw events over ingest time alone. *)
  edge_ops_per_sec : float;  (** TRG + witness table ops over ingest time. *)
  trg_digest : string;
  affine_digest : string;
  batch_trg_digest : string option;  (** [verify] only. *)
  batch_affine_digest : string option;
  digests_match : bool option;
  epoch_rows : epoch_row list;
  trace_p50_ns : float;
  trace_p95_ns : float;
  trace_p99_ns : float;
  merge_p50_ns : float;
  final_order : int array;  (** The last epoch's re-optimized function order. *)
}

(* Per-user generation: seed and fuel come from the user's own stream so
   any worker can generate any user independently and identically. *)
let gen_user program cfg u =
  let prng = U.Prng.create ~seed:(cfg.seed + ((u + 1) * 0x9E3779B1)) in
  let input_seed = U.Prng.int prng 1_000_000_000 in
  let fuel = (cfg.fuel / 2) + U.Prng.int prng ((cfg.fuel / 2) + 1) in
  (E.Interp.run program (E.Interp.test_input ~seed:input_seed ~max_blocks:fuel ())).E.Interp
    .bb_trace

let run ?pool ?metrics ?spans ?obs cfg =
  let metrics = match metrics with Some m -> m | None -> U.Metrics.create () in
  let spans = match spans with Some s -> s | None -> U.Span.create () in
  let program = W.Spec.build cfg.program in
  let num_symbols = Colayout_ir.Program.num_blocks program in
  let num_funcs = Colayout_ir.Program.num_funcs program in
  let icfg =
    Ingest.config ~num_symbols ~walkers:cfg.walkers ~trg_window:cfg.trg_window
      ~affinity_w:cfg.affinity_w ~epoch_traces:cfg.epoch_traces ()
  in
  let ing = Ingest.create ?pool ~metrics icfg in
  let clock = U.Metrics.default_clock in
  let t_start = clock () in
  let gen_ns = ref 0L and ingest_ns = ref 0L and reopt_ns = ref 0L in
  let params = C.Params.default_l1i in
  let order = ref (Array.init num_funcs Fun.id) in
  let epoch_rows = ref [] in
  let seen_epochs = ref 0 in
  (* Per-trace streams: the batch reference runs the kernels on each user
     trace independently and merges with [Ingest.batch_digests_parts] —
     the same algebra the walkers use, at any walker count. *)
  let verify_parts = if cfg.verify then Some (ref []) else None in
  (* Interference probe, taken only when an observatory is attached (the
     co-run simulation is real work; without [obs] the epoch loop pays
     nothing): the current re-optimized order co-runs against the unoptimized
     layout of the same program on the newest trace, and the sink's
     conservation-checked matrices say how defensive/polite the layout the
     service is converging on actually is. *)
  let interference tr =
    let self = Layout.of_function_order program !order in
    let peer = Layout.original program in
    let sink =
      C.Profile_sink.create ~threads:2 ~classify:false ~num_blocks:num_symbols ~params ()
    in
    let stats = Pipeline.miss_ratio_corun ~sink ~params ~self:(self, tr) ~peer:(peer, tr) () in
    C.Profile.interference_json ~label:"consensus_vs_original" ~sink ~stats
  in
  let run_epoch ~partial tr =
    let t0 = clock () in
    let ep = if partial then !seen_epochs + 1 else !seen_epochs in
    let c = Ingest.finalize ing in
    let miss, improved =
      if cfg.reopt_steps > 0 then begin
        let r =
          Anneal.search ~seed:(cfg.seed + ep) ~steps:cfg.reopt_steps
            ~initial:(Array.copy !order) ~max_span:8 ~params program tr
        in
        order := r.Anneal.order;
        (r.Anneal.miss_ratio, r.Anneal.improved_from)
      end
      else (Float.nan, Float.nan)
    in
    let trg_edges =
      let n = ref 0 in
      Trg.iter_edges (fun _ _ _ -> incr n) c.Ingest.trg;
      !n
    in
    let at_trace = (Ingest.stats ing).Ingest.traces in
    let affine_pairs = Array.length c.Ingest.affine in
    epoch_rows :=
      { epoch = ep; at_trace; partial; trg_edges; affine_pairs; miss_ratio = miss; improved_from = improved }
      :: !epoch_rows;
    reopt_ns := Int64.add !reopt_ns (Int64.sub (clock ()) t0);
    match obs with
    | None -> ()
    | Some o ->
      let open U.Json in
      let num f = if Float.is_nan f then Null else Float f in
      U.Obs.record o ~label:"epoch"
        ([
           ("epoch", Int ep);
           ("at_trace", Int at_trace);
           ("partial", Bool partial);
           ("trg_edges", Int trg_edges);
           ("affine_pairs", Int affine_pairs);
           ("miss_ratio", num miss);
           ("improved_from", num improved);
           ("drift", num (improved -. miss));
           ("interference", interference tr);
         ]
        @ U.Obs.metrics_fields metrics
        @ U.Obs.gc_fields ())
  in
  let last_trace = ref None in
  let traces_at_epoch = ref 0 in
  U.Span.with_span spans ~cat:"serve" "serve.ingest" (fun () ->
      let u = ref 0 in
      while !u < cfg.users do
        let batch = min cfg.gen_batch (cfg.users - !u) in
        let idx = Array.init batch (fun i -> !u + i) in
        let t0 = clock () in
        let traces =
          match pool with
          | Some p -> U.Pool.map_array p (fun i -> gen_user program cfg i) idx
          | None -> Array.map (fun i -> gen_user program cfg i) idx
        in
        gen_ns := Int64.add !gen_ns (Int64.sub (clock ()) t0);
        Array.iter
          (fun tr ->
            (match verify_parts with Some parts -> parts := tr :: !parts | None -> ());
            let t0 = clock () in
            Ingest.ingest_trace ing tr;
            ingest_ns := Int64.add !ingest_ns (Int64.sub (clock ()) t0);
            last_trace := Some tr;
            let st = Ingest.stats ing in
            if st.Ingest.epochs > !seen_epochs then begin
              seen_epochs := st.Ingest.epochs;
              traces_at_epoch := st.Ingest.traces;
              run_epoch ~partial:false tr
            end)
          traces;
        u := !u + batch
      done;
      (* Flush-on-exit: a run whose user count is not a multiple of
         [epoch_traces] ends mid-epoch; without this the tail's traces
         would be merged into the consensus digests yet never surface in
         an epoch row or snapshot. *)
      match !last_trace with
      | Some tr when (Ingest.stats ing).Ingest.traces > !traces_at_epoch ->
        run_epoch ~partial:true tr
      | _ -> ());
  let consensus = U.Span.with_span spans ~cat:"serve" "serve.merge" (fun () -> Ingest.finalize ing) in
  let trg_digest, affine_digest = Ingest.consensus_digests consensus in
  let batch_trg, batch_aff, digests_match =
    match verify_parts with
    | Some parts ->
      let bt, ba =
        Ingest.batch_digests_parts ~trg_window:cfg.trg_window ~affinity_w:cfg.affinity_w
          (List.rev !parts)
      in
      (Some bt, Some ba, Some (bt = trg_digest && ba = affine_digest))
    | None -> (None, None, None)
  in
  let wall_ns = Int64.to_int (Int64.sub (clock ()) t_start) in
  let stats = Ingest.stats ing in
  let per_sec count ns = if ns <= 0 then 0.0 else float_of_int count *. 1e9 /. float_of_int ns in
  let h_trace = U.Metrics.histogram metrics "ingest.trace_ns" in
  let h_merge = U.Metrics.histogram metrics "ingest.merge_ns" in
  U.Metrics.set_gauge metrics "serve.traces_per_sec" (per_sec stats.Ingest.traces wall_ns);
  U.Metrics.set_gauge metrics "serve.events_per_sec"
    (per_sec stats.Ingest.events (Int64.to_int !ingest_ns));
  U.Metrics.add metrics "serve.users" cfg.users;
  {
    cfg;
    num_symbols;
    num_funcs;
    stats;
    wall_ns;
    gen_ns = Int64.to_int !gen_ns;
    ingest_ns = Int64.to_int !ingest_ns;
    reopt_ns = Int64.to_int !reopt_ns;
    traces_per_sec = per_sec stats.Ingest.traces wall_ns;
    events_per_sec = per_sec stats.Ingest.events (Int64.to_int !ingest_ns);
    edge_ops_per_sec =
      per_sec (stats.Ingest.trg_ops + stats.Ingest.wit_ops) (Int64.to_int !ingest_ns);
    trg_digest;
    affine_digest;
    batch_trg_digest = batch_trg;
    batch_affine_digest = batch_aff;
    digests_match;
    epoch_rows = List.rev !epoch_rows;
    trace_p50_ns = U.Metrics.percentile h_trace 0.50;
    trace_p95_ns = U.Metrics.percentile h_trace 0.95;
    trace_p99_ns = U.Metrics.percentile h_trace 0.99;
    merge_p50_ns = U.Metrics.percentile h_merge 0.50;
    final_order = !order;
  }

let float_or_null f = if Float.is_nan f then U.Json.Null else U.Json.Float f

let summary_to_json (s : summary) =
  let open U.Json in
  let st = s.stats in
  Obj
    [
      ("schema", Str "colayout/serve/v2");
      ( "config",
        Obj
          [
            ("program", Str s.cfg.program);
            ("users", Int s.cfg.users);
            ("seed", Int s.cfg.seed);
            ("fuel", Int s.cfg.fuel);
            ("walkers", Int s.cfg.walkers);
            ("trg_window", Int s.cfg.trg_window);
            ("affinity_w", Int s.cfg.affinity_w);
            ("epoch_traces", Int s.cfg.epoch_traces);
            ("gen_batch", Int s.cfg.gen_batch);
            ("reopt_steps", Int s.cfg.reopt_steps);
          ] );
      ("num_symbols", Int s.num_symbols);
      ("num_funcs", Int s.num_funcs);
      ( "stats",
        Obj
          [
            ("traces", Int st.Ingest.traces);
            ("events", Int st.Ingest.events);
            ("kept_events", Int st.Ingest.kept_events);
            ("trg_ops", Int st.Ingest.trg_ops);
            ("wit_ops", Int st.Ingest.wit_ops);
            ("dispatches", Int st.Ingest.dispatches);
            ("epochs", Int st.Ingest.epochs);
            ("merges", Int st.Ingest.merges);
            ("trg_live", Int st.Ingest.trg_live);
            ("wits_live", Int st.Ingest.wits_live);
            ("dead_pruned", Int st.Ingest.dead_pruned);
          ] );
      ("wall_ns", Int s.wall_ns);
      ("gen_ns", Int s.gen_ns);
      ("ingest_ns", Int s.ingest_ns);
      ("reopt_ns", Int s.reopt_ns);
      ("traces_per_sec", Float s.traces_per_sec);
      ("events_per_sec", Float s.events_per_sec);
      ("edge_ops_per_sec", Float s.edge_ops_per_sec);
      ("trg_digest", Str s.trg_digest);
      ("affine_digest", Str s.affine_digest);
      ( "verify",
        match s.digests_match with
        | None -> Null
        | Some ok ->
          Obj
            [
              ("batch_trg_digest", Str (Option.get s.batch_trg_digest));
              ("batch_affine_digest", Str (Option.get s.batch_affine_digest));
              ("digests_match", Bool ok);
            ] );
      ( "epochs",
        Arr
          (List.map
             (fun (r : epoch_row) ->
               Obj
                 [
                   ("epoch", Int r.epoch);
                   ("at_trace", Int r.at_trace);
                   ("partial", Bool r.partial);
                   ("trg_edges", Int r.trg_edges);
                   ("affine_pairs", Int r.affine_pairs);
                   ("miss_ratio", float_or_null r.miss_ratio);
                   ("improved_from", float_or_null r.improved_from);
                 ])
             s.epoch_rows) );
      ("trace_p50_ns", Float s.trace_p50_ns);
      ("trace_p95_ns", Float s.trace_p95_ns);
      ("trace_p99_ns", Float s.trace_p99_ns);
      ("merge_p50_ns", Float s.merge_p50_ns);
    ]

(* --- Directory-watch spool tail loop (`repro serve --from DIR`) ----------

   Polls one or more spool directories for trace files and feeds each new
   file to the ingest walker exactly once. A file is only ingested after
   its (size, mtime) has been stable across two consecutive polls — the
   cheap "the writer is done" heuristic for files that land via rename or
   a fast sequential write — and a file whose body still turns out to be
   truncated ([Trace_io] raises [Failure]) is retried on later polls.
   Files whose header universe disagrees with the ingest config are
   skipped (counted, never retried): a shared spool can hold traces for
   several programs. *)

type spool_report = {
  sp_polls : int;
  sp_ingested : int;
  sp_skipped : int;  (** Universe mismatches. *)
  sp_pending : string list;  (** Seen but not (yet) ingested at exit. *)
}

let is_trace_file name =
  Filename.check_suffix name ".trc" || Filename.check_suffix name ".trace"

let list_spool dirs =
  List.concat_map
    (fun dir ->
      match Sys.readdir dir with
      | entries ->
        let files =
          Array.to_list entries |> List.filter is_trace_file
          |> List.map (fun e -> Filename.concat dir e)
        in
        List.sort compare files
      | exception Sys_error _ -> [])
    dirs

let stat_file path =
  match Unix.stat path with
  | st -> Some (st.Unix.st_size, st.Unix.st_mtime)
  | exception Unix.Unix_error _ -> None

(* Poll [dirs] until some trace file's header parses, returning its
   symbol-universe size — how `serve --from DIR` bootstraps an [Ingest]
   config when the spool starts empty. *)
let check_poll_ms what poll_ms =
  if poll_ms < 1 then invalid_arg (Printf.sprintf "Serve.%s: poll_ms must be >= 1" what)

let wait_spool_symbols ~dirs ?(poll_ms = 50) ~timeout_s () =
  check_poll_ms "wait_spool_symbols" poll_ms;
  let clock = U.Metrics.default_clock in
  let t0 = clock () in
  let elapsed () = Int64.to_float (Int64.sub (clock ()) t0) /. 1e9 in
  let probe () =
    List.find_map
      (fun path ->
        match Colayout_trace.Trace_io.with_reader ~path Colayout_trace.Trace_io.reader_num_symbols with
        | n -> Some n
        | exception _ -> None)
      (list_spool dirs)
  in
  let rec go () =
    match probe () with
    | Some n -> Some n
    | None ->
      if elapsed () >= timeout_s then None
      else begin
        Unix.sleepf (float_of_int poll_ms /. 1e3);
        go ()
      end
  in
  go ()

(* [Truncated]: the last decode attempt failed; the next poll restarts
   the two-poll stability check. *)
type spool_state = Pending of int * float | Truncated | Ingested | Skipped

let watch_spool ~ing ~dirs ?(poll_ms = 50) ?(skip = []) ?on_poll ~timeout_s () =
  check_poll_ms "watch_spool" poll_ms;
  let clock = U.Metrics.default_clock in
  let t0 = clock () in
  let elapsed () = Int64.to_float (Int64.sub (clock ()) t0) /. 1e9 in
  let seen : (string, spool_state) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace seen p Ingested) skip;
  let ingested = ref 0 and skipped = ref 0 in
  let try_ingest path =
    match Ingest.feed_file ing ~path with
    | () ->
      Hashtbl.replace seen path Ingested;
      incr ingested
    | exception Failure _ ->
      (* Truncated header or body: the stability heuristic lost; retry
         from scratch on a later poll once the stat settles again. *)
      Hashtbl.replace seen path Truncated
    | exception Invalid_argument _ ->
      Hashtbl.replace seen path Skipped;
      incr skipped
  in
  let scan () =
    List.iter
      (fun path ->
        match stat_file path with
        | None -> ()
        | Some (size, mtime) -> (
          match Hashtbl.find_opt seen path with
          | Some Ingested | Some Skipped -> ()
          | Some (Pending (psize, pmtime)) when psize = size && pmtime = mtime ->
            try_ingest path
          | _ -> Hashtbl.replace seen path (Pending (size, mtime))))
      (list_spool dirs)
  in
  let polls = ref 0 in
  let continue = ref true in
  while !continue do
    (match on_poll with Some f -> f !polls | None -> ());
    scan ();
    incr polls;
    (* Always poll at least twice so files present at startup pass the
       two-poll stability check even with [timeout_s = 0.]. *)
    if !polls >= 2 && elapsed () >= timeout_s then continue := false
    else begin
      let remaining = timeout_s -. elapsed () in
      Unix.sleepf (Float.min (float_of_int poll_ms /. 1e3) (Float.max remaining 1e-4))
    end
  done;
  let pending =
    Hashtbl.fold
      (fun p st acc -> match st with Pending _ | Truncated -> p :: acc | _ -> acc)
      seen []
    |> List.sort compare
  in
  { sp_polls = !polls; sp_ingested = !ingested; sp_skipped = !skipped; sp_pending = pending }
