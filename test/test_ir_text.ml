(* Tests for the textual IR printer/parser. *)

open Colayout_ir
module W = Colayout_workloads
module E = Colayout_exec

let check = Alcotest.check

let sample_text =
  {|program demo
# a comment
func main *
  block entry:
    v0 := 0
    jump loop
  block loop:
    work 10
    v0 := (v0 + 1)
    load (v0 * 64)
    store [4096]
    branch (v0 < 100) ? loop : done    # loop back
  block done:
    call helper -> finish
  block finish:
    halt
func helper
  block top:
    switch rand(2) [a b] default a
  block a:
    return
  block b:
    v1 := (v0 % 7)
    return
|}

let test_parse_sample () =
  let p = Ir_text.parse sample_text in
  check Alcotest.string "name" "demo" (Program.name p);
  check Alcotest.int "funcs" 2 (Program.num_funcs p);
  check Alcotest.int "blocks" 7 (Program.num_blocks p);
  check Alcotest.string "main" "main" (Program.main p).fname;
  (* The program must actually run. *)
  let r = E.Interp.run p (E.Interp.test_input ()) in
  check Alcotest.bool "completed" true r.E.Interp.completed;
  (* 100 loop iterations with a load and a store each. *)
  check Alcotest.int "data accesses" 200 (Colayout_util.Int_vec.length r.E.Interp.data_trace)

let test_roundtrip_sample () =
  let p = Ir_text.parse sample_text in
  let p' = Ir_text.parse (Ir_text.print p) in
  check Alcotest.bool "structurally equal" true (Ir_text.equal_structure p p')

let test_roundtrip_generated () =
  List.iter
    (fun seed ->
      let p =
        W.Gen.build
          { W.Gen.default_profile with pname = "rt"; seed; data_region_bytes = 512 }
      in
      let p' = Ir_text.parse (Ir_text.print p) in
      check Alcotest.bool
        (Printf.sprintf "roundtrip seed %d" seed)
        true
        (Ir_text.equal_structure p p');
      (* Semantics preserved: identical traces. *)
      let input = { E.Interp.seed = 77; params = [||]; max_blocks = 10_000 } in
      let r = E.Interp.run p input and r' = E.Interp.run p' input in
      check Alcotest.bool "same execution" true
        (Colayout_trace.Trace.equal r.E.Interp.bb_trace r'.E.Interp.bb_trace))
    [ 1; 2; 3 ]

let test_roundtrip_spec_analog () =
  let p = W.Spec.build "429.mcf" in
  let p' = Ir_text.parse (Ir_text.print p) in
  check Alcotest.bool "mcf roundtrip" true (Ir_text.equal_structure p p')

let expect_error ?(line = 0) text =
  match Ir_text.parse text with
  | exception Ir_text.Parse_error (l, _) ->
    if line > 0 then check Alcotest.int "error line" line l
  | _ -> Alcotest.fail "expected Parse_error"

let test_parse_errors () =
  expect_error "";
  expect_error ~line:1 "block orphan:\n";
  expect_error ~line:2 "func f\n  work 3\n";
  expect_error ~line:3 "func f\n  block a:\n    bogus stuff\n";
  (* Unknown jump target. *)
  expect_error "func f\n  block a:\n    jump nowhere\n";
  (* Unknown callee. *)
  expect_error "func f\n  block a:\n    call ghost -> a\n";
  (* Missing terminator. *)
  expect_error "func f\n  block a:\n    work 1\n";
  (* Statement after terminator. *)
  expect_error ~line:4 "func f\n  block a:\n    halt\n    work 1\n";
  (* Duplicate function. *)
  expect_error "func f\n  block a:\n    halt\nfunc f\n  block b:\n    halt\n";
  (* Duplicate block. *)
  expect_error "func f\n  block a:\n    halt\n  block a:\n    halt\n";
  (* Two mains. *)
  expect_error "func f *\n  block a:\n    halt\nfunc g *\n  block b:\n    halt\n";
  (* Malformed expression. *)
  expect_error "func f\n  block a:\n    v0 := (1 +\n    halt\n";
  (* Literals past the int range, in an assignment and in rand(...). *)
  List.iter
    (fun e -> expect_error ~line:3 (Printf.sprintf "func f\n  block a:\n    v0 := %s\n    halt\n" e))
    [
      "99999999999999999999";
      "-99999999999999999999";
      "rand(99999999999999999999)";
      "rand(-99999999999999999999)";
    ]

(* Expression errors report the column on the source line, counted
   from 1 across the indentation, not from the start of the operand. *)
let test_error_columns () =
  let column_of msg =
    let key = "at column " in
    let k = String.length key in
    let rec find i =
      if i + k > String.length msg then Alcotest.failf "no column in %S" msg
      else if String.sub msg i k = key then int_of_string (String.sub msg (i + k) (String.length msg - i - k))
      else find (i + 1)
    in
    find 0
  in
  List.iter
    (fun (stmt, col) ->
      let text = Printf.sprintf "func f\n  block a:\n%s\n    halt\n" stmt in
      match Ir_text.parse text with
      | exception Ir_text.Parse_error (l, msg) ->
        check Alcotest.int (stmt ^ ": line") 3 l;
        check Alcotest.int (stmt ^ ": column") col (column_of msg)
      | _ -> Alcotest.failf "%S parsed" stmt)
    [
      ("    v0 := 99999999999999999999", 11);
      ("    v0 := -99999999999999999999", 11);
      ("    v0 :=    99999999999999999999", 14);
      ("\tv0 := 99999999999999999999", 8);
      ("    v0 := rand(99999999999999999999)", 16);
      ("    v0 := rand 7", 16);
      ("    v0 := (1 +", 15);
      ("    v0 := (1 @ 2)", 14);
      ("    branch (v0 < ) ? a : a", 18);
      ("    switch (v0 ? 1) [a] default a", 16);
      ("    load [ (v0 $ 1) ]", 16);
      ("    store (v0 $ 1)", 15);
      ("    load x", 10);
    ]

let test_expr_corner_cases () =
  let roundtrip s =
    let text = Printf.sprintf "func f\n  block a:\n    v0 := %s\n    halt\n" s in
    let p = Ir_text.parse text in
    let p' = Ir_text.parse (Ir_text.print p) in
    check Alcotest.bool ("expr " ^ s) true (Ir_text.equal_structure p p')
  in
  List.iter roundtrip
    [
      "-42";
      "((1 <= 2) ^ (3 != 4))";
      "(v63 % rand(9))";
      "((v1 & v2) | (v3 >= -1))";
      string_of_int max_int;
      string_of_int min_int;
    ]

let test_default_main_is_first () =
  let p = Ir_text.parse "func first\n  block a:\n    halt\nfunc second\n  block b:\n    halt\n" in
  check Alcotest.string "first is main" "first" (Program.main p).fname

let () =
  Alcotest.run "ir_text"
    [
      ( "parse",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error columns" `Quick test_error_columns;
          Alcotest.test_case "default main" `Quick test_default_main_is_first;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "sample" `Quick test_roundtrip_sample;
          Alcotest.test_case "generated" `Quick test_roundtrip_generated;
          Alcotest.test_case "spec analog" `Quick test_roundtrip_spec_analog;
          Alcotest.test_case "expressions" `Quick test_expr_corner_cases;
        ] );
    ]
