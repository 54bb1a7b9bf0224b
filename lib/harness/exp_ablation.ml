open Colayout
open Colayout_util
module O = Colayout.Optimizer
module T = Colayout_trace

let program_name = "445.gobmk"

let miss_of_layout ctx layout =
  Colayout_cache.Cache_stats.miss_ratio
    (Pipeline.miss_ratio_solo ~params:(Ctx.params ctx) ~layout (Ctx.ref_trace ctx program_name))

(* Solo miss ratio of [kind] on the study program, laid out under [config]
   from [analysis]. At the paper's configuration and the harness's own
   analysis this is the memoized number every other experiment reads; any
   other row lays out afresh and replays the same reference trace under the
   same cache. *)
let solo_miss ctx ?analysis config kind =
  match analysis with
  | None when config = Ctx.opt_config ctx -> Ctx.solo_miss_ratio ctx ~hw:false program_name kind
  | _ ->
    let analysis = Option.value analysis ~default:(Ctx.analysis ctx program_name) in
    miss_of_layout ctx (O.layout_for ~config kind (Ctx.program ctx program_name) analysis)

let pct mr = Table.fmt_pct (100.0 *. mr)

let table ctx ~title ~columns row xs =
  let t = Table.create ~title ~columns in
  List.iter (Table.add_row t) (Ctx.par_map ctx row xs);
  t

let w_range ctx =
  let base = Ctx.opt_config ctx in
  table ctx ~title:"Ablation: affinity window range (bb-affinity on 445.gobmk)"
    ~columns:[ ("w range", Table.Left); ("solo miss ratio", Table.Right) ]
    (fun (label, ws) -> [ label; pct (solo_miss ctx { base with O.ws } O.Bb_affinity) ])
    [
      ("2..20 (paper)", base.O.ws);
      ("small only [2;3;4]", [ 2; 3; 4 ]);
      ("single [8] (TRG-like)", [ 8 ]);
      ("large only [16;20]", [ 16; 20 ]);
    ]

(* Pruning the analysis's trace again at a top N under the paper's 10,000
   keeps exactly the events that pruning the trimmed trace once at N keeps:
   the N hottest blocks are among the 10,000. Coverage is over the trimmed
   trace. *)
let prune ctx =
  let base = Ctx.opt_config ctx and analysis = Ctx.analysis ctx program_name in
  let total = float_of_int analysis.O.prune.T.Prune.total_events in
  table ctx ~title:"Ablation: trace pruning threshold (§II-F, top-N hottest blocks)"
    ~columns:
      [ ("top N", Table.Right); ("coverage", Table.Right); ("bb-affinity miss", Table.Right) ]
    (fun top ->
      let pruned, report =
        if top = base.O.prune_top then (None, analysis.O.prune)
        else
          let bb, report = T.Prune.prune analysis.O.bb ~top in
          (Some { analysis with O.bb; prune = report }, report)
      in
      [
        string_of_int top;
        pct (float_of_int report.T.Prune.kept_events /. total);
        pct (solo_miss ctx ?analysis:pruned base O.Bb_affinity);
      ])
    [ base.O.prune_top; 1_000; 300; 100 ]

let trg_cache ctx =
  let base = Ctx.opt_config ctx in
  table ctx ~title:"Ablation: TRG analysis-cache scale (Gloy & Smith recommend 2x; bb-trg)"
    ~columns:[ ("cache multiplier", Table.Right); ("solo miss ratio", Table.Right) ]
    (fun m ->
      [
        Table.fmt_float ~decimals:1 m;
        pct (solo_miss ctx { base with O.cache_multiplier = m } O.Bb_trg);
      ])
    [ 0.5; 1.0; 2.0; 4.0 ]

(* The paper's §II-C modification (TRG as a reordering) against the
   original Gloy-Smith placement, which pads functions apart. *)
let trg_vs_tpcm ctx =
  let kind k () =
    (Ctx.layout ctx program_name k, Ctx.solo_miss_ratio ctx ~hw:false program_name k)
  in
  let tpcm () =
    let l =
      Trg_place.layout_for ~config:(Ctx.opt_config ctx) (Ctx.program ctx program_name)
        (Ctx.analysis ctx program_name)
    in
    (l, miss_of_layout ctx l)
  in
  table ctx
    ~title:
      "Ablation: TRG as reordering (the paper) vs original padded TPCM placement (Gloy & \
       Smith) on 445.gobmk"
    ~columns:
      [ ("scheme", Table.Left); ("code bytes", Table.Right); ("solo miss ratio", Table.Right) ]
    (fun (name, scheme) ->
      let l, mr = scheme () in
      [ name; Table.fmt_int l.Layout.total_bytes; pct mr ])
    [
      ("original layout", kind O.Original);
      ("func-trg (reorder, no gaps)", kind O.Func_trg);
      ("padded TPCM (gaps)", tpcm);
    ]

let run ctx = [ w_range ctx; prune ctx; trg_cache ctx; trg_vs_tpcm ctx ]
