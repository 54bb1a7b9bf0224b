open Colayout_ir
module E = Colayout_exec
module T = Colayout_trace

let check = Alcotest.check

(* main: v0 = 0; loop 3 times calling callee; callee returns. *)
let call_loop_program () =
  let b = Builder.create ~name:"callloop" () in
  let f = Builder.func b "main" in
  let g = Builder.func b "callee" in
  let entry = Builder.block b f "entry" in
  let loop = Builder.block b f "loop" in
  let tail = Builder.block b f "tail" in
  let stop = Builder.block b f "stop" in
  let g_entry = Builder.block b g "g.entry" in
  Builder.set_body b entry [ Types.Assign (0, Types.Const 0) ] (Types.Jump loop);
  Builder.set_body b loop [] (Types.Call { callee = g; return_to = tail });
  Builder.set_body b tail
    [ Types.Assign (0, Types.Bin (Types.Add, Types.Var 0, Types.Const 1)) ]
    (Types.Branch
       { cond = Types.Bin (Types.Lt, Types.Var 0, Types.Const 3); if_true = loop; if_false = stop });
  Builder.set_body b stop [] Types.Halt;
  Builder.set_body b g_entry [ Types.Work 5 ] Types.Return;
  Builder.finish b

let test_call_loop_trace () =
  let p = call_loop_program () in
  let r = E.Interp.run p (E.Interp.test_input ()) in
  check Alcotest.bool "completed" true r.E.Interp.completed;
  (* entry loop g tail | loop g tail | loop g tail | stop = 11 blocks. *)
  check Alcotest.int "block execs" 11 r.E.Interp.block_execs;
  check Alcotest.int "bb trace length" 11 (T.Trace.length r.E.Interp.bb_trace);
  (* fn trace: main entry + 3 calls to callee. *)
  check Alcotest.int "fn trace length" 4 (T.Trace.length r.E.Interp.fn_trace);
  check (Alcotest.list Alcotest.int) "fn trace" [ 0; 1; 1; 1 ] (T.Trace.to_list r.E.Interp.fn_trace)

let test_instr_count_matches_static () =
  let p = call_loop_program () in
  let r = E.Interp.run p (E.Interp.test_input ()) in
  let counts = E.Interp.block_instr_counts p in
  let expected =
    T.Trace.to_list r.E.Interp.bb_trace |> List.fold_left (fun acc bid -> acc + counts.(bid)) 0
  in
  check Alcotest.int "instr count from trace" expected r.E.Interp.instr_count

let test_fuel_cutoff () =
  let b = Builder.create ~name:"inf" () in
  let f = Builder.func b "main" in
  let blk = Builder.block b f "spin" in
  Builder.set_body b blk [ Types.Work 1 ] (Types.Jump blk);
  let p = Builder.finish b in
  let r = E.Interp.run p { seed = 1; params = [||]; max_blocks = 100 } in
  check Alcotest.bool "not completed" false r.E.Interp.completed;
  check Alcotest.int "fuel bound" 100 r.E.Interp.block_execs

let test_switch_semantics () =
  let b = Builder.create ~name:"sw" () in
  let f = Builder.func b "main" in
  let entry = Builder.block b f "entry" in
  let c0 = Builder.block b f "c0" in
  let c1 = Builder.block b f "c1" in
  let dflt = Builder.block b f "default" in
  let stop = Builder.block b f "stop" in
  Builder.set_body b entry
    [ Types.Assign (0, Types.Const 1) ]
    (Types.Switch { sel = Types.Var 0; targets = [| c0; c1 |]; default = dflt });
  Builder.set_body b c0 [] (Types.Jump stop);
  Builder.set_body b c1 [] (Types.Jump stop);
  Builder.set_body b dflt [] (Types.Jump stop);
  Builder.set_body b stop [] Types.Halt;
  let p = Builder.finish b in
  let r = E.Interp.run p (E.Interp.test_input ()) in
  check (Alcotest.list Alcotest.int) "takes case 1" [ entry; c1; stop ]
    (T.Trace.to_list r.E.Interp.bb_trace)

let test_switch_default_out_of_range () =
  let b = Builder.create ~name:"sw2" () in
  let f = Builder.func b "main" in
  let entry = Builder.block b f "entry" in
  let c0 = Builder.block b f "c0" in
  let dflt = Builder.block b f "default" in
  Builder.set_body b entry
    [ Types.Assign (0, Types.Const 7) ]
    (Types.Switch { sel = Types.Var 0; targets = [| c0 |]; default = dflt });
  Builder.set_body b c0 [] Types.Halt;
  Builder.set_body b dflt [] Types.Halt;
  let p = Builder.finish b in
  let r = E.Interp.run p (E.Interp.test_input ()) in
  check (Alcotest.list Alcotest.int) "takes default" [ entry; dflt ]
    (T.Trace.to_list r.E.Interp.bb_trace)

let test_return_from_main_completes () =
  let b = Builder.create ~name:"retmain" () in
  let f = Builder.func b "main" in
  let blk = Builder.block b f "entry" in
  Builder.set_body b blk [] Types.Return;
  let p = Builder.finish b in
  let r = E.Interp.run p (E.Interp.test_input ()) in
  check Alcotest.bool "completed" true r.E.Interp.completed

let test_determinism_and_seed_sensitivity () =
  let prof = { Colayout_workloads.Gen.default_profile with pname = "t"; seed = 99 } in
  let p = Colayout_workloads.Gen.build prof in
  let r1 = E.Interp.run p { seed = 5; params = [||]; max_blocks = 5000 } in
  let r2 = E.Interp.run p { seed = 5; params = [||]; max_blocks = 5000 } in
  check Alcotest.bool "same seed same trace" true
    (T.Trace.equal r1.E.Interp.bb_trace r2.E.Interp.bb_trace);
  let r3 = E.Interp.run p { seed = 6; params = [||]; max_blocks = 5000 } in
  check Alcotest.bool "different seed different trace" false
    (T.Trace.equal r1.E.Interp.bb_trace r3.E.Interp.bb_trace)

let test_div_mod_by_zero () =
  let b = Builder.create ~name:"div0" () in
  let f = Builder.func b "main" in
  let blk = Builder.block b f "entry" in
  Builder.set_body b blk
    [
      Types.Assign (0, Types.Bin (Types.Div, Types.Const 7, Types.Const 0));
      Types.Assign (1, Types.Bin (Types.Mod, Types.Const 7, Types.Const 0));
    ]
    Types.Halt;
  let p = Builder.finish b in
  let r = E.Interp.run p (E.Interp.test_input ()) in
  check Alcotest.bool "no crash" true r.E.Interp.completed

(* ---------------------------------------------- Interp against Seed_interp *)

module U = Colayout_util
module Seed_interp = Colayout_oracle.Seed_interp

(* Every field of [result], both traces' names and universes included,
   and the metric counters the run adds. *)
let check_same what (p : Program.t) (input : E.Interp.input) =
  let mn = U.Metrics.create () and mo = U.Metrics.create () in
  let n = E.Interp.run ~metrics:mn p input and o = Seed_interp.run ~metrics:mo p input in
  let trace label x y =
    let l = Printf.sprintf "%s: %s" what label in
    check Alcotest.string (l ^ " name") (T.Trace.name y) (T.Trace.name x);
    check Alcotest.int (l ^ " universe") (T.Trace.num_symbols y) (T.Trace.num_symbols x);
    check Alcotest.int (l ^ " length") (T.Trace.length y) (T.Trace.length x);
    check Alcotest.bool (l ^ " events") true (T.Trace.equal x y);
    check Alcotest.int (l ^ " distinct") (T.Trace.distinct_count y) (T.Trace.distinct_count x)
  in
  trace "bb" n.E.Interp.bb_trace o.E.Interp.bb_trace;
  trace "fn" n.E.Interp.fn_trace o.E.Interp.fn_trace;
  let vec label x y =
    check (Alcotest.list Alcotest.int) (what ^ ": " ^ label) (U.Int_vec.to_list y)
      (U.Int_vec.to_list x)
  in
  vec "data" n.E.Interp.data_trace o.E.Interp.data_trace;
  vec "calls" n.E.Interp.call_trace o.E.Interp.call_trace;
  check Alcotest.int (what ^ ": instr_count") o.E.Interp.instr_count n.E.Interp.instr_count;
  check Alcotest.int (what ^ ": block_execs") o.E.Interp.block_execs n.E.Interp.block_execs;
  check Alcotest.bool (what ^ ": completed") o.E.Interp.completed n.E.Interp.completed;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (what ^ ": metrics") (U.Metrics.counters mo) (U.Metrics.counters mn);
  n

let test_spec_programs () =
  List.iter
    (fun name ->
      let p = Colayout_workloads.Spec.build name in
      List.iter
        (fun seed ->
          List.iter
            (fun max_blocks ->
              ignore
                (check_same
                   (Printf.sprintf "%s seed %d fuel %d" name seed max_blocks)
                   p
                   { E.Interp.seed; params = [||]; max_blocks }))
            [ 0; 1; 2; 777; 4_000; 30_000 ])
        [ 1; 12345; 987654321 ])
    Colayout_workloads.Spec.names

(* A fuel that runs out inside a call: the last block executed belongs to
   a function other than main, with returns still pending. *)
let test_cutoff_inside_call () =
  let p = Colayout_workloads.Spec.build "445.gobmk" in
  let main = (Program.main p).Program.fid in
  let full = E.Interp.run p { E.Interp.seed = 3; params = [||]; max_blocks = 5_000 } in
  let ev = T.Trace.to_list full.E.Interp.bb_trace in
  let rec first_callee i = function
    | [] -> Alcotest.fail "no block outside main"
    | b :: rest -> if (Program.block p b).Program.fn <> main then i else first_callee (i + 1) rest
  in
  let i = first_callee 0 ev in
  List.iter
    (fun fuel ->
      let r =
        check_same (Printf.sprintf "cut at %d" fuel) p
          { E.Interp.seed = 3; params = [||]; max_blocks = fuel }
      in
      let last = List.nth (T.Trace.to_list r.E.Interp.bb_trace) (fuel - 1) in
      check Alcotest.bool "stopped inside a call" true ((Program.block p last).Program.fn <> main);
      check Alcotest.bool "not completed" false r.E.Interp.completed)
    [ i + 1; i + 2 ]

(* Params, loads, stores, rand, a switch, nested calls; [main] ends by
   returning (first program) or halting (second). *)
let text_program ~stop =
  Colayout_ir.Ir_text.parse
    (Printf.sprintf
       {|program textdiff
func main *
  block entry:
    v2 := (v0 * 3)
    store (v1 + 8)
    jump loop
  block loop:
    work 4
    v2 := (v2 + rand(7))
    load (v2 * 64)
    call leaf -> after
  block after:
    v3 := (v3 + 1)
    switch (v3 %% 2) [loop mid] default done
  block mid:
    store [(v2 - 1)]
    branch (v3 < v0) ? loop : done
  block done:
    %s
func leaf
  block top:
    v4 := (v4 ^ v2)
    load (v4 & 4095)
    branch (v4 < 100) ? inner : out
  block inner:
    call twig -> out
  block out:
    return
func twig
  block t:
    store (v1 - 5)
    return
|}
       stop)

let test_text_programs () =
  List.iter
    (fun stop ->
      let p = text_program ~stop in
      List.iter
        (fun (params, max_blocks) ->
          let r =
            check_same
              (Printf.sprintf "%s params [%s] fuel %d" stop
                 (String.concat ";" (Array.to_list (Array.map string_of_int params)))
                 max_blocks)
              p
              { E.Interp.seed = 5; params; max_blocks }
          in
          if max_blocks = 10_000 then begin
            check Alcotest.bool "ran to its stop" true r.E.Interp.completed;
            check Alcotest.bool "loads and stores" true
              (U.Int_vec.length r.E.Interp.data_trace > 0)
          end)
        [
          ([| 40; 16 |], 10_000); ([| 40; 16 |], 0); ([| 40; 16 |], 1); ([| 40; 16 |], 9);
          ([| 7 |], 10_000); ([| 70; 1; 2; 3 |], 10_000); (Array.init 70 (fun i -> i), 10_000);
        ])
    [ "return"; "halt" ]

(* Malformed programs (built unchecked) raise the same error on both
   sides, at every fuel. *)
let test_same_errors () =
  let outcome f =
    match f () with
    | (_ : E.Interp.result) -> "ok"
    | exception Invalid_argument m -> "Invalid_argument " ^ m
  in
  let same what p =
    List.iter
      (fun max_blocks ->
        let input = { E.Interp.seed = 1; params = [||]; max_blocks } in
        check Alcotest.string
          (Printf.sprintf "%s, fuel %d" what max_blocks)
          (outcome (fun () -> Seed_interp.run p input))
          (outcome (fun () -> E.Interp.run p input)))
      [ 0; 1; 5 ]
  in
  (* main's entry block gets [instrs] and [term]; main's second block
     halts and g returns. *)
  let program instrs term =
    let b = Builder.create ~name:"bad" () in
    let f = Builder.func b "main" in
    let g = Builder.func b "g" in
    let entry = Builder.block b f "entry" in
    let next = Builder.block b f "next" in
    let gb = Builder.block b g "g.entry" in
    Builder.set_body b entry instrs (term next);
    Builder.set_body b next [] Types.Halt;
    Builder.set_body b gb [] Types.Return;
    Builder.finish_unchecked b
  in
  let call callee ret next = Types.Call { callee; return_to = (if ret then next else -3) } in
  let jump next = Types.Jump next in
  List.iter
    (fun (what, instrs, term) -> same what (program instrs term))
    [
      ("bad callee", [], call 9 true);
      ("negative callee", [], call (-2) true);
      ("bad return site", [], call 1 false);
      ("bad jump", [ Types.Work 3 ], fun _ -> Types.Jump 42);
      ("bad variable", [ Types.Assign (64, Types.Rand 0) ], jump);
      ("bad variable read", [ Types.Load (Types.Var (-1)) ], jump);
      ("rand 0", [ Types.Store (Types.Rand 0) ], jump);
    ];
  let empty = Builder.finish_unchecked (Builder.create ~name:"empty" ()) in
  let input = E.Interp.test_input () in
  check Alcotest.string "empty program"
    (outcome (fun () -> Seed_interp.run empty input))
    (outcome (fun () -> E.Interp.run empty input))

(* A steady-state run allocates fewer minor words than it executes
   blocks: the per-block work allocates nothing. *)
let test_interp_allocation () =
  let p = Colayout_workloads.Spec.build "445.gobmk" in
  let input = E.Interp.ref_input ~max_blocks:50_000 () in
  ignore (E.Interp.run p input);
  let w0 = Gc.minor_words () in
  let r = E.Interp.run p input in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words < %d blocks" words r.E.Interp.block_execs)
    true
    (words < float_of_int r.E.Interp.block_execs)

(* ----------------------------------------------------------------- Smt *)

let straightline_code n =
  (* n blocks of 64 bytes each, 16 instructions. *)
  let layout : Colayout_cache.Icache.layout =
    { addr = Array.init n (fun i -> i * 64); bytes = Array.make n 64 }
  in
  { E.Smt.layout; instr_counts = Array.make n 16 }

let test_smt_solo_basics () =
  let cfg = E.Smt.default_config () in
  let code = straightline_code 4 in
  let trace = Colayout_util.Int_vec.of_list [ 0; 1; 2; 3; 0; 1; 2; 3 ] in
  let s = E.Smt.solo cfg code trace in
  check Alcotest.int "instrs" (8 * 16) s.E.Smt.instrs;
  check Alcotest.int "accesses" 8 s.E.Smt.fetch_accesses;
  (* First pass misses all 4 lines; second pass hits. *)
  check Alcotest.int "misses" 4 s.E.Smt.fetch_misses;
  check Alcotest.bool "cycles sane" true (s.E.Smt.cycles > 0);
  check Alcotest.bool "ipc bounded by ilp" true (E.Smt.ipc s <= cfg.E.Smt.ilp +. 1e-6)

let test_smt_work_scale_slows () =
  let cfg = E.Smt.default_config () in
  let code = straightline_code 4 in
  let trace = Colayout_util.Int_vec.of_list (List.init 100 (fun i -> i mod 4)) in
  let fastt = E.Smt.solo cfg code trace in
  let slow = E.Smt.solo ~work_scale:2.0 cfg code trace in
  check Alcotest.bool "work scale slows thread" true (slow.E.Smt.cycles > fastt.E.Smt.cycles)

let test_smt_corun_contention () =
  let cfg = E.Smt.default_config () in
  let code = straightline_code 16 in
  let trace () = Colayout_util.Int_vec.of_list (List.init 2000 (fun i -> i mod 16)) in
  let solo = E.Smt.solo cfg code (trace ()) in
  let co = E.Smt.corun cfg ~mode:E.Smt.Finish_both (code, trace ()) (code, trace ()) in
  (* Each thread must be slower than solo but the pair faster than 2x solo. *)
  check Alcotest.bool "t0 slower than solo" true (co.E.Smt.t0.E.Smt.cycles >= solo.E.Smt.cycles);
  check Alcotest.bool "SMT beats sequential" true
    (co.E.Smt.total_cycles < 2 * solo.E.Smt.cycles);
  check Alcotest.int "t0 instrs" solo.E.Smt.instrs co.E.Smt.t0.E.Smt.instrs

let test_smt_measure_first_probe_restarts () =
  let cfg = E.Smt.default_config () in
  let code = straightline_code 4 in
  let long = Colayout_util.Int_vec.of_list (List.init 4000 (fun i -> i mod 4)) in
  let short = Colayout_util.Int_vec.of_list [ 0; 1 ] in
  let co = E.Smt.corun cfg ~mode:E.Smt.Measure_first (code, long) (code, short) in
  (* The probe loops: it must have executed far more blocks than its trace. *)
  check Alcotest.bool "probe restarted" true (co.E.Smt.t1.E.Smt.blocks > 2);
  check Alcotest.int "measured thread ran its pass" 4000 co.E.Smt.t0.E.Smt.blocks

let () =
  Alcotest.run "exec"
    [
      ( "interp",
        [
          Alcotest.test_case "call loop trace" `Quick test_call_loop_trace;
          Alcotest.test_case "instr counts" `Quick test_instr_count_matches_static;
          Alcotest.test_case "fuel" `Quick test_fuel_cutoff;
          Alcotest.test_case "switch" `Quick test_switch_semantics;
          Alcotest.test_case "switch default" `Quick test_switch_default_out_of_range;
          Alcotest.test_case "return from main" `Quick test_return_from_main_completes;
          Alcotest.test_case "determinism" `Quick test_determinism_and_seed_sensitivity;
          Alcotest.test_case "div/mod by zero" `Quick test_div_mod_by_zero;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "spec programs" `Quick test_spec_programs;
          Alcotest.test_case "cut-off inside a call" `Quick test_cutoff_inside_call;
          Alcotest.test_case "text programs" `Quick test_text_programs;
          Alcotest.test_case "same errors" `Quick test_same_errors;
          Alcotest.test_case "allocation" `Quick test_interp_allocation;
        ] );
      ( "smt",
        [
          Alcotest.test_case "solo basics" `Quick test_smt_solo_basics;
          Alcotest.test_case "work scale" `Quick test_smt_work_scale_slows;
          Alcotest.test_case "corun contention" `Quick test_smt_corun_contention;
          Alcotest.test_case "probe restarts" `Quick test_smt_measure_first_probe_restarts;
        ] );
    ]
