open Colayout_trace

type evaluated = {
  kind : Optimizer.kind;
  layout : Layout.t;
  miss_ratio : float;
  accesses : int;
  misses : int;
}

let reference_trace program input = (Colayout_exec.Interp.run program input).bb_trace

let miss_ratio_solo ?prefetch ?sink ~params ~layout trace =
  Colayout_cache.Icache.solo ?prefetch ?sink ~params ~layout:(Layout.to_icache layout)
    (Trace.events trace)

let miss_ratio_corun ?prefetch ?sink ?rates ~params ~self ~peer () =
  let self_layout, self_trace = self in
  let peer_layout, peer_trace = peer in
  Colayout_cache.Icache.shared ?prefetch ?sink ?rates ~params
    ~layouts:(Layout.to_icache self_layout, Layout.to_icache peer_layout)
    (Trace.events self_trace, Trace.events peer_trace)

let evaluate_kinds ?(config = Optimizer.default_config) ?prefetch
    ?(kinds = Optimizer.all_kinds) program ~test_input ~ref_input =
  let analysis = Optimizer.analyze ~config program test_input in
  let ref_trace = reference_trace program ref_input in
  List.map
    (fun kind ->
      let layout = Optimizer.layout_for ~config kind program analysis in
      let stats = miss_ratio_solo ?prefetch ~params:config.Optimizer.params ~layout ref_trace in
      {
        kind;
        layout;
        miss_ratio = Colayout_cache.Cache_stats.miss_ratio stats;
        accesses = Colayout_cache.Cache_stats.accesses stats;
        misses = Colayout_cache.Cache_stats.misses stats;
      })
    kinds

let footprint_curve ~params ~layout trace =
  Footprint.curve (Layout.line_trace ~params ~layout trace)
