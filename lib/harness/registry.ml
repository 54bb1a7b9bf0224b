type experiment = {
  id : string;
  paper_ref : string;
  summary : string;
  run : Ctx.t -> Colayout_util.Table.t list;
}

let all =
  [
    {
      id = "intro";
      paper_ref = "Section I table";
      summary = "average miss ratio of non-trivial programs, solo vs two co-runs";
      run = Exp_intro.run;
    };
    {
      id = "table1";
      paper_ref = "Table I";
      summary = "characteristics of the 8 deep-study programs";
      run = Exp_table1.run;
    };
    {
      id = "fig4";
      paper_ref = "Figure 4";
      summary = "L1I miss ratios of all 29 programs, solo and probed";
      run = Exp_fig4.run;
    };
    {
      id = "fig5";
      paper_ref = "Figure 5";
      summary = "solo-run speedup and miss reduction of the affinity optimizers";
      run = Exp_fig5.run;
    };
    {
      id = "fig6";
      paper_ref = "Figure 6";
      summary = "co-run speedups of three optimizers against every probe";
      run = Exp_fig6.run;
    };
    {
      id = "table2";
      paper_ref = "Table II";
      summary = "average co-run speedup and miss reduction (hw vs simulated)";
      run = Exp_table2.run;
    };
    {
      id = "fig7";
      paper_ref = "Figure 7";
      summary = "hyper-threading throughput gain and its magnification";
      run = Exp_fig7.run;
    };
    {
      id = "optopt";
      paper_ref = "Section III-F";
      summary = "optimized+optimized co-run (defensiveness meets politeness)";
      run = Exp_optopt.run;
    };
    {
      id = "wall";
      paper_ref = "Section III-D";
      summary = "Petrank-Rawitz wall: heuristics vs the exhaustive optimum";
      run = Exp_wall.run;
    };
    {
      id = "unified";
      paper_ref = "Section II-A, Eq 1 (extension)";
      summary = "unified-L2 hierarchy: layout optimization relieves the data side too";
      run = Exp_unified.run;
    };
    {
      id = "model";
      paper_ref = "Section II-A, Eqs 1-2 (validation)";
      summary = "footprint-theory predictions vs the trace-driven simulator";
      run = Exp_model.run;
    };
    {
      id = "mrc";
      paper_ref = "HOTL companion (extension)";
      summary = "working-set knees per layout via one-pass miss-ratio curves";
      run = Exp_mrc.run;
    };
    {
      id = "synergy";
      paper_ref = "Section III-F (conjecture)";
      summary = "big-code co-run where optimizing both sides is synergistic";
      run = Exp_synergy.run;
    };
    {
      id = "ablation";
      paper_ref = "Section II-B/C/F";
      summary = "affinity w range, prune top-N, TRG cache scale, TRG vs padded TPCM";
      run = Exp_ablation.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids = List.map (fun e -> e.id) all

let run_by_ids ctx requested =
  List.map
    (fun id ->
      match find id with
      | None ->
        invalid_arg
          (Printf.sprintf "unknown experiment %S (known: %s)" id (String.concat ", " ids))
      | Some e ->
        Report.info "== running %s (%s) ==" e.id e.paper_ref;
        let tables =
          Colayout_util.Span.with_span (Ctx.spans ctx) ~cat:"experiment" ("exp:" ^ e.id)
            (fun () -> e.run ctx)
        in
        (id, tables))
    requested
