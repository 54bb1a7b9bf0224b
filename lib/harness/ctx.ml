open Colayout
module U = Colayout_util
module W = Colayout_workloads
module E = Colayout_exec
module C = Colayout_cache

type scale = Fast | Full

(* A memoization table with lookup/hit/miss counters in the context's
   metrics registry: every lookup is either a hit or a miss, so
   hits + misses = lookups is an invariant tests can assert (the counters
   are atomic, so it holds under concurrent lookups too).

   The table is single-flight under a pool: the first domain to ask for a
   key marks it [Computing] and computes outside the lock; any other
   domain asking for the same key waits on the condition instead of
   recomputing, and counts a hit once the value lands. A failed
   computation clears the mark (waiters retry, one of them recomputing)
   and re-raises on the computing domain. *)
type 'v slot = Computing | Done of 'v

type 'v memo_tbl = {
  tbl : (string, 'v slot) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  lookups : U.Metrics.counter;
  hits : U.Metrics.counter;
  misses : U.Metrics.counter;
}

type t = {
  scale : scale;
  params : C.Params.t;
  opt_config : Optimizer.config;
  smt_cfg : E.Smt.config;
  hw_prefetch : C.Prefetch.t;
  metrics : U.Metrics.t;
  spans : U.Span.t;
  pool : U.Pool.t option;
  programs : Colayout_ir.Program.t memo_tbl;
  ref_results : E.Interp.result memo_tbl;
  analyses : Optimizer.analysis memo_tbl;
  layouts : Layout.t memo_tbl;
  solo_cache : C.Cache_stats.t memo_tbl;
  corun_cache : C.Cache_stats.t memo_tbl;
  smt_solo_cache : E.Smt.thread_stats memo_tbl;
  smt_corun_cache : E.Smt.corun_result memo_tbl;
}

let memo_tbl metrics name size =
  {
    tbl = Hashtbl.create size;
    lock = Mutex.create ();
    cond = Condition.create ();
    lookups = U.Metrics.counter metrics (Printf.sprintf "ctx.memo.%s.lookups" name);
    hits = U.Metrics.counter metrics (Printf.sprintf "ctx.memo.%s.hits" name);
    misses = U.Metrics.counter metrics (Printf.sprintf "ctx.memo.%s.misses" name);
  }

let create ?(scale = Full) ?metrics ?spans ?pool () =
  let params = C.Params.default_l1i in
  let metrics = match metrics with Some m -> m | None -> U.Metrics.create () in
  let spans = match spans with Some s -> s | None -> U.Span.create () in
  {
    scale;
    params;
    opt_config = { Optimizer.default_config with params };
    smt_cfg = E.Smt.default_config ~prefetch:(C.Prefetch.create ~degree:1 ()) ();
    hw_prefetch = C.Prefetch.create ~degree:2 ();
    metrics;
    spans;
    pool;
    programs = memo_tbl metrics "programs" 32;
    ref_results = memo_tbl metrics "ref_results" 32;
    analyses = memo_tbl metrics "analyses" 32;
    layouts = memo_tbl metrics "layouts" 64;
    solo_cache = memo_tbl metrics "solo_cache" 64;
    corun_cache = memo_tbl metrics "corun_cache" 256;
    smt_solo_cache = memo_tbl metrics "smt_solo_cache" 64;
    smt_corun_cache = memo_tbl metrics "smt_corun_cache" 256;
  }

let scale t = t.scale

let pool t = t.pool

(* Parallel fan-out seam for the experiments: a pooled context maps over
   the pool's worker domains, an unpooled one (or jobs = 1, where the pool
   spawns no domains) is plain List.map on the calling domain. Results are
   in input order either way — table construction downstream is identical
   whatever the jobs count. *)
let par_map t f xs = match t.pool with None -> List.map f xs | Some p -> U.Pool.map p f xs

let par_iter t f xs = ignore (par_map t f xs)

let params t = t.params

let opt_config t = t.opt_config

let metrics t = t.metrics

let spans t = t.spans

let ref_fuel t = match t.scale with Fast -> 200_000 | Full -> 600_000

let test_fuel t = match t.scale with Fast -> 80_000 | Full -> 200_000

let memo m key f =
  U.Metrics.incr m.lookups;
  Mutex.lock m.lock;
  let rec resolve () =
    match Hashtbl.find_opt m.tbl key with
    | Some (Done v) ->
      Mutex.unlock m.lock;
      U.Metrics.incr m.hits;
      v
    | Some Computing ->
      (* Another domain is computing this key: await it (single-flight). *)
      Condition.wait m.cond m.lock;
      resolve ()
    | None ->
      Hashtbl.replace m.tbl key Computing;
      Mutex.unlock m.lock;
      U.Metrics.incr m.misses;
      (match f () with
      | v ->
        Mutex.lock m.lock;
        Hashtbl.replace m.tbl key (Done v);
        Condition.broadcast m.cond;
        Mutex.unlock m.lock;
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock m.lock;
        Hashtbl.remove m.tbl key;
        Condition.broadcast m.cond;
        Mutex.unlock m.lock;
        Printexc.raise_with_backtrace e bt)
  in
  resolve ()

let progress _t msg = Report.info "%s" msg

let publish_cache_stats t ~mode stats =
  let add name v =
    U.Metrics.add t.metrics ("cache." ^ name) v;
    U.Metrics.add t.metrics (Printf.sprintf "cache.%s.%s" mode name) v
  in
  add "accesses" (C.Cache_stats.accesses stats);
  add "misses" (C.Cache_stats.misses stats);
  add "evictions" (C.Cache_stats.evictions stats);
  add "prefetches" (C.Cache_stats.prefetches stats)

let program t name =
  memo t.programs name (fun () ->
      U.Span.with_span t.spans ~cat:"workload" ("build:" ^ name) (fun () ->
          W.Gen.build (W.Spec.profile name)))

let fetch_rate _t name = (W.Spec.profile name).W.Gen.fetch_rate

let ref_result t name =
  memo t.ref_results name (fun () ->
      let p = program t name in
      U.Span.with_span t.spans ~cat:"interp" ("ref-run:" ^ name) (fun () ->
          E.Interp.run ~metrics:t.metrics p (E.Interp.ref_input ~max_blocks:(ref_fuel t) ())))

let ref_trace t name = (ref_result t name).E.Interp.bb_trace

let analysis t name =
  memo t.analyses name (fun () ->
      progress t (Printf.sprintf "analyzing %s (test input)" name);
      let p = program t name in
      U.Span.with_span t.spans ~cat:"optimizer" ("analyze:" ^ name) (fun () ->
          Optimizer.analyze ~config:t.opt_config p
            (E.Interp.test_input ~max_blocks:(test_fuel t) ())))

let kname = Optimizer.kind_name

let layout t name kind =
  memo t.layouts
    (name ^ "/" ^ kname kind)
    (fun () ->
      match kind with
      | Optimizer.Original ->
        let p = program t name in
        U.Span.with_span t.spans ~cat:"optimizer"
          ("layout:" ^ name ^ "/original")
          (fun () -> Layout.original p)
      | _ ->
        progress t (Printf.sprintf "laying out %s with %s" name (kname kind));
        let p = program t name in
        let a = analysis t name in
        U.Span.with_span t.spans ~cat:"optimizer"
          (Printf.sprintf "layout:%s/%s" name (kname kind))
          (fun () -> Optimizer.layout_for ~config:t.opt_config kind p a))

let smt_code t name kind = Layout.to_smt_code (layout t name kind)

let hw_tag hw = if hw then "hw" else "sim"

let solo_stats t ~hw name kind =
  memo t.solo_cache
    (Printf.sprintf "%s/%s/%s" name (kname kind) (hw_tag hw))
    (fun () ->
      let lay = layout t name kind and trace = ref_trace t name in
      U.Span.with_span t.spans ~cat:"cache-sim"
        (Printf.sprintf "solo:%s/%s/%s" name (kname kind) (hw_tag hw))
        (fun () ->
          let prefetch = if hw then Some t.hw_prefetch else None in
          let stats = Pipeline.miss_ratio_solo ?prefetch ~params:t.params ~layout:lay trace in
          publish_cache_stats t ~mode:"solo" stats;
          stats))

let corun_stats t ~hw ~self ~peer =
  let sn, sk = self and pn, pk = peer in
  memo t.corun_cache
    (Printf.sprintf "%s/%s|%s/%s|%s" sn (kname sk) pn (kname pk) (hw_tag hw))
    (fun () ->
      let self_lay = layout t sn sk and self_trace = ref_trace t sn in
      let peer_lay = layout t pn pk and peer_trace = ref_trace t pn in
      U.Span.with_span t.spans ~cat:"cache-sim"
        (Printf.sprintf "corun:%s/%s|%s/%s|%s" sn (kname sk) pn (kname pk) (hw_tag hw))
        (fun () ->
          let prefetch = if hw then Some t.hw_prefetch else None in
          let stats =
            Pipeline.miss_ratio_corun ?prefetch
              ~rates:(fetch_rate t sn, fetch_rate t pn)
              ~params:t.params ~self:(self_lay, self_trace) ~peer:(peer_lay, peer_trace) ()
          in
          publish_cache_stats t ~mode:"corun" stats;
          stats))

let smt_solo t name kind =
  memo t.smt_solo_cache
    (name ^ "/" ^ kname kind)
    (fun () ->
      let code = smt_code t name kind and trace = ref_trace t name in
      U.Span.with_span t.spans ~cat:"smt"
        (Printf.sprintf "smt-solo:%s/%s" name (kname kind))
        (fun () ->
          let work_scale = 1.0 /. fetch_rate t name in
          E.Smt.solo ~work_scale t.smt_cfg code (Colayout_trace.Trace.events trace)))

let mode_tag = function E.Smt.Finish_both -> "fb" | E.Smt.Measure_first -> "mf"

let rotate_half v =
  let open Colayout_util in
  let n = Int_vec.length v in
  let out = Int_vec.create ~capacity:(max 1 n) () in
  for i = 0 to n - 1 do
    Int_vec.push out (Int_vec.get v ((i + (n / 2)) mod n))
  done;
  out

let smt_corun ?(rotate_peer = false) t ~mode ~self ~peer =
  let sn, sk = self and pn, pk = peer in
  memo t.smt_corun_cache
    (Printf.sprintf "%s/%s|%s/%s|%s%s" sn (kname sk) pn (kname pk) (mode_tag mode)
       (if rotate_peer then "|rot" else ""))
    (fun () ->
      let self_code = smt_code t sn sk and self_trace = ref_trace t sn in
      let peer_code = smt_code t pn pk and peer_trace = ref_trace t pn in
      U.Span.with_span t.spans ~cat:"smt"
        (Printf.sprintf "smt-corun:%s/%s|%s/%s|%s" sn (kname sk) pn (kname pk) (mode_tag mode))
        (fun () ->
          let ws = (1.0 /. fetch_rate t sn, 1.0 /. fetch_rate t pn) in
          let peer_events = Colayout_trace.Trace.events peer_trace in
          let peer_events = if rotate_peer then rotate_half peer_events else peer_events in
          E.Smt.corun ~work_scales:ws t.smt_cfg ~mode
            (self_code, Colayout_trace.Trace.events self_trace)
            (peer_code, peer_events)))

(* Profiled twins of solo_stats/corun_stats. Deliberately unmemoized: a
   sink is mutable per-run state, and sharing one across callers would
   double-count. The expensive inputs (layouts, traces) still come from the
   memo tables, so a profiled run costs one extra simulation pass. *)
let publish_profile t sink =
  let add name v = U.Metrics.add t.metrics ("ctx.profile." ^ name) v in
  add "runs" 1;
  add "accesses" (C.Profile_sink.accesses sink);
  add "misses" (C.Profile_sink.misses sink);
  add "evictions" (C.Profile_sink.evictions sink);
  add "cold" (C.Profile_sink.cold_misses sink);
  add "capacity" (C.Profile_sink.capacity_misses sink);
  add "conflict" (C.Profile_sink.conflict_misses sink)

let profiled_solo t ~hw name kind =
  let lay = layout t name kind and trace = ref_trace t name in
  U.Span.with_span t.spans ~cat:"profile"
    (Printf.sprintf "profile-solo:%s/%s/%s" name (kname kind) (hw_tag hw))
    (fun () ->
      let sink =
        C.Profile_sink.create ~num_blocks:(Array.length lay.Layout.addr) ~params:t.params ()
      in
      let prefetch = if hw then Some t.hw_prefetch else None in
      let stats = Pipeline.miss_ratio_solo ?prefetch ~sink ~params:t.params ~layout:lay trace in
      publish_cache_stats t ~mode:"solo" stats;
      publish_profile t sink;
      (stats, sink))

let profiled_corun t ~hw ~self ~peer =
  let sn, sk = self and pn, pk = peer in
  let self_lay = layout t sn sk and self_trace = ref_trace t sn in
  let peer_lay = layout t pn pk and peer_trace = ref_trace t pn in
  U.Span.with_span t.spans ~cat:"profile"
    (Printf.sprintf "profile-corun:%s/%s|%s/%s|%s" sn (kname sk) pn (kname pk) (hw_tag hw))
    (fun () ->
      let nb = max (Array.length self_lay.Layout.addr) (Array.length peer_lay.Layout.addr) in
      let sink = C.Profile_sink.create ~threads:2 ~num_blocks:nb ~params:t.params () in
      let prefetch = if hw then Some t.hw_prefetch else None in
      let stats =
        Pipeline.miss_ratio_corun ?prefetch ~sink
          ~rates:(fetch_rate t sn, fetch_rate t pn)
          ~params:t.params ~self:(self_lay, self_trace) ~peer:(peer_lay, peer_trace) ()
      in
      publish_cache_stats t ~mode:"corun" stats;
      publish_profile t sink;
      (stats, sink))

(* Phase 1 of the two-phase parallel experiment schedule: compute every
   per-program artifact (program build, reference trace, analysis when an
   optimizing kind needs it, and the requested layouts) with one pool task
   per program. Phase 2 — the solo/co-run simulation fan-out — then finds
   all its inputs memoized, so its tasks are pure simulations of roughly
   even size. Values are identical to the lazy sequential path; only the
   order of computation changes. *)
let prewarm ?(kinds = []) t names =
  U.Span.with_span t.spans ~cat:"experiment" "prewarm" (fun () ->
      par_iter t
        (fun name ->
          ignore (ref_trace t name);
          if List.exists (fun k -> k <> Optimizer.Original) kinds then
            ignore (analysis t name);
          List.iter (fun kind -> ignore (layout t name kind)) kinds)
        names)

let solo_miss_ratio t ~hw name kind = C.Cache_stats.miss_ratio (solo_stats t ~hw name kind)

let corun_miss_ratio t ~hw ~self ~peer =
  C.Cache_stats.thread_miss_ratio (corun_stats t ~hw ~self ~peer) 0
