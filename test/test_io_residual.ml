(* Tests for trace persistence (Trace_io) and residual code elimination. *)

open Colayout
open Colayout_trace
module W = Colayout_workloads
module E = Colayout_exec

let check = Alcotest.check

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("colayout_test_" ^ name)

(* ------------------------------------------------------------- Trace_io *)

let test_varint_zigzag () =
  List.iter
    (fun n ->
      check Alcotest.int (Printf.sprintf "zigzag roundtrip %d" n) n
        (Trace_io.unzigzag (Trace_io.zigzag n)))
    [ 0; 1; -1; 63; -64; 1000000; -1000000; max_int / 4 ];
  check Alcotest.int "zigzag 0" 0 (Trace_io.zigzag 0);
  check Alcotest.int "zigzag -1" 1 (Trace_io.zigzag (-1));
  check Alcotest.int "zigzag 1" 2 (Trace_io.zigzag 1);
  let buf = Buffer.create 8 in
  Trace_io.write_varint buf 300;
  check Alcotest.int "varint 300 is 2 bytes" 2 (Buffer.length buf);
  Alcotest.check_raises "negative varint" (Invalid_argument "Trace_io.write_varint: negative")
    (fun () -> Trace_io.write_varint buf (-1))

let test_trace_roundtrip () =
  let path = tmp "roundtrip.trc" in
  let t = Trace.of_list ~num_symbols:100 [ 5; 99; 0; 5; 5; 42; 7 ] in
  Trace_io.save ~path t;
  let t' = Trace_io.load ~path in
  check Alcotest.bool "events equal" true (Trace.equal t t');
  check Alcotest.int "universe" 100 (Trace.num_symbols t');
  Sys.remove path

let trace_roundtrip_prop =
  QCheck.Test.make ~name:"trace save/load roundtrip" ~count:50
    QCheck.(list (int_bound 30))
    (fun xs ->
      let path = tmp "prop.trc" in
      let t = Trace.of_list ~num_symbols:31 xs in
      Trace_io.save ~path t;
      let t' = Trace_io.load ~path in
      Sys.remove path;
      Trace.equal t t' && Trace.num_symbols t' = 31)

let test_trace_io_real_workload () =
  let path = tmp "workload.trc" in
  let p = W.Gen.build { W.Gen.default_profile with pname = "io"; seed = 3 } in
  let r = E.Interp.run p { seed = 1; params = [||]; max_blocks = 30_000 } in
  Trace_io.save ~path r.E.Interp.bb_trace;
  let loaded = Trace_io.load ~path in
  check Alcotest.bool "30k-event roundtrip" true (Trace.equal r.E.Interp.bb_trace loaded);
  (* Delta encoding should beat 4 bytes/event comfortably. *)
  let size = (Unix.stat path).Unix.st_size in
  check Alcotest.bool "compact encoding" true (size < 3 * Trace.length loaded);
  Sys.remove path

let test_bad_magic () =
  let path = tmp "bad.trc" in
  let oc = open_out path in
  output_string oc "NOTATRACE";
  close_out oc;
  (match Trace_io.load ~path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  Sys.remove path

(* Malformed headers: an over-long varint would wrap its shift, and a
   negative count would make [load] return an empty trace or drive
   [read_chunk] past the caller's buffer. Each must raise [Failure]. *)
let test_malformed_header () =
  let case name header =
    let path = tmp ("malformed-" ^ name ^ ".trc") in
    let oc = open_out_bin path in
    output_string oc "CLTR1\n";
    List.iter (fun b -> output_char oc (Char.chr b)) header;
    close_out oc;
    (match Trace_io.load ~path with
    | exception Failure _ -> ()
    | t -> Alcotest.failf "%s: loaded %d events instead of failing" name (Trace.length t));
    Sys.remove path
  in
  let zeros n = List.init n (fun _ -> 0x80) in
  case "long num_symbols varint" (zeros 12 @ [ 0x01; 0x00 ]);
  case "negative length" ([ 0x04 ] @ zeros 8 @ [ 0x60 ]);
  case "min_int length" ([ 0x04 ] @ zeros 8 @ [ 0x40 ])

(* A file shorter than the 6-byte magic (empty, or a magic cut short
   mid-write) raises [Failure], the error the spool watcher retries, from
   both the eager and the streaming reader. *)
let test_short_header () =
  List.iter
    (fun len ->
      let path = tmp (Printf.sprintf "short-%d.trc" len) in
      Out_channel.with_open_bin path (fun oc -> output_string oc (String.sub "CLTR1\n" 0 len));
      (match Trace_io.load ~path with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "load: %d-byte file accepted" len);
      (match Trace_io.with_reader ~path Trace_io.reader_num_symbols with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "with_reader: %d-byte file accepted" len);
      Sys.remove path)
    [ 0; 1; 5 ]

(* The chunked streaming reader: header decoded eagerly, events handed
   out through a caller buffer whose size need not divide the stream —
   draining through odd-sized chunks must reproduce the eager load. *)
let test_streaming_reader_chunks () =
  let path = tmp "reader.trc" in
  let t =
    Trace.of_list ~num_symbols:257
      (List.init 10_000 (fun i -> ((i * i) + (i lsr 3)) mod 257))
  in
  Trace_io.save ~path t;
  let eager = Trace_io.load ~path in
  Trace_io.with_reader ~path (fun r ->
      check Alcotest.int "header num_symbols" 257 (Trace_io.reader_num_symbols r);
      check Alcotest.int "header length" (Trace.length t) (Trace_io.reader_length r);
      check Alcotest.int "nothing consumed yet" (Trace.length t)
        (Trace_io.reader_remaining r);
      let buf = Array.make 777 0 in
      let got = Trace.create ~num_symbols:257 () in
      let rec drain () =
        let n = Trace_io.read_chunk r buf in
        if n > 0 then begin
          for i = 0 to n - 1 do
            Trace.push got buf.(i)
          done;
          drain ()
        end
      in
      drain ();
      check Alcotest.int "stream drained" 0 (Trace_io.reader_remaining r);
      check Alcotest.int "read past end returns 0" 0 (Trace_io.read_chunk r buf);
      check Alcotest.bool "chunked == eager load" true (Trace.equal eager got));
  Sys.remove path

let test_fold_chunks () =
  let path = tmp "fold.trc" in
  let t = Trace.of_list ~num_symbols:97 (List.init 5_000 (fun i -> (i * 13) mod 97)) in
  Trace_io.save ~path t;
  let got = Trace.create ~num_symbols:97 () in
  let count =
    Trace_io.fold_chunks ~path ~chunk:123
      (fun c buf n ->
        for i = 0 to n - 1 do
          Trace.push got buf.(i)
        done;
        c + n)
      0
  in
  check Alcotest.int "fold sees every event" (Trace.length t) count;
  check Alcotest.bool "fold preserves order" true (Trace.equal t got);
  Sys.remove path

let test_reader_truncated_and_closed () =
  let path = tmp "trunc.trc" in
  let t = Trace.of_list ~num_symbols:50 (List.init 1_000 (fun i -> i mod 50)) in
  Trace_io.save ~path t;
  (* Chop the file mid-payload: the reader must fail loudly, not hand
     out a short stream. *)
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub bytes 0 (String.length bytes / 2));
  close_out oc;
  (match
     Trace_io.fold_chunks ~path (fun c _ n -> c + n) 0
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on truncated stream");
  (* Reading through a closed reader is a programming error. *)
  Trace_io.save ~path t;
  let r = Trace_io.open_reader ~path in
  Trace_io.close_reader r;
  Trace_io.close_reader r;
  (match Trace_io.read_chunk r (Array.make 16 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument after close");
  Sys.remove path

let test_mapping_roundtrip () =
  let path = tmp "mapping.txt" in
  let names = [| "main.entry"; "f.loop"; "weird name with spaces" |] in
  Trace_io.save_mapping ~path ~names;
  let names' = Trace_io.load_mapping ~path in
  check (Alcotest.array Alcotest.string) "names" names names';
  Sys.remove path

let test_mapping_rejects_gaps () =
  let path = tmp "gaps.txt" in
  let oc = open_out path in
  output_string oc "0\ta\n2\tb\n";
  close_out oc;
  (match Trace_io.load_mapping ~path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  Sys.remove path

(* ------------------------------------------------------------- Residual *)

let workload =
  {
    W.Gen.default_profile with
    pname = "residual";
    seed = 21;
    phases = 2;
    funcs_per_phase = 3;
    shared_funcs = 1;
    cold_funcs = 4;
    cold_arms = 2;
    iters_per_phase = 25;
  }

let test_eliminate_removes_cold () =
  let p = W.Gen.build workload in
  let stripped, block_map, report = Residual.eliminate p in
  check Alcotest.bool "blocks removed" true (report.Residual.removed_blocks > 0);
  check Alcotest.bool "cold functions removed" true (report.Residual.removed_funcs >= 4);
  check Alcotest.bool "bytes removed" true (report.Residual.removed_bytes > 0);
  check Alcotest.int "kept = total - removed"
    (Colayout_ir.Program.num_blocks p - report.Residual.removed_blocks)
    report.Residual.kept_blocks;
  check Alcotest.int "stripped block count" report.Residual.kept_blocks
    (Colayout_ir.Program.num_blocks stripped);
  (* Map covers exactly the kept blocks. *)
  let mapped = Array.to_list block_map |> List.filter (fun x -> x >= 0) in
  check Alcotest.int "map cardinality" report.Residual.kept_blocks (List.length mapped);
  check (Alcotest.list Alcotest.int) "map is a bijection onto new ids"
    (List.init report.Residual.kept_blocks Fun.id)
    (List.sort compare mapped)

let test_eliminate_preserves_semantics () =
  let p = W.Gen.build workload in
  let stripped, block_map, _ = Residual.eliminate p in
  let input = { E.Interp.seed = 9; params = [||]; max_blocks = 20_000 } in
  let orig = E.Interp.run p input in
  let strp = E.Interp.run stripped input in
  let mapped =
    Residual.map_trace ~block_map orig.E.Interp.bb_trace
      ~num_symbols:(Colayout_ir.Program.num_blocks stripped)
  in
  check Alcotest.bool "identical executions" true
    (Trace.equal mapped strp.E.Interp.bb_trace);
  check Alcotest.int "same instruction count" orig.E.Interp.instr_count strp.E.Interp.instr_count

let test_eliminate_idempotent () =
  let p = W.Gen.build workload in
  let stripped, _, _ = Residual.eliminate p in
  let _, _, report2 = Residual.eliminate stripped in
  check Alcotest.int "second pass removes nothing" 0 report2.Residual.removed_blocks

let test_eliminate_keeps_everything_reachable () =
  (* A fully-reachable program loses nothing. *)
  let b = Colayout_ir.Builder.create ~name:"full" () in
  let f = Colayout_ir.Builder.func b "main" in
  let e = Colayout_ir.Builder.block b f "e" in
  let l = Colayout_ir.Builder.block b f "l" in
  Colayout_ir.Builder.set_body b e [] (Colayout_ir.Types.Jump l);
  Colayout_ir.Builder.set_body b l [ Colayout_ir.Types.Work 1 ] Colayout_ir.Types.Halt;
  let p = Colayout_ir.Builder.finish b in
  let _, _, report = Residual.eliminate p in
  check Alcotest.int "nothing removed" 0 report.Residual.removed_blocks

let test_map_trace_rejects_removed () =
  let p = W.Gen.build workload in
  let _, block_map, _ = Residual.eliminate p in
  (* Find a removed block and fabricate a trace hitting it. *)
  let removed = ref (-1) in
  Array.iteri (fun old new_ -> if new_ < 0 && !removed < 0 then removed := old) block_map;
  check Alcotest.bool "have a removed block" true (!removed >= 0);
  let t = Trace.of_list ~num_symbols:(Colayout_ir.Program.num_blocks p) [ !removed ] in
  (match Residual.map_trace ~block_map t ~num_symbols:10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let () =
  Alcotest.run "io_residual"
    [
      ( "trace_io",
        [
          Alcotest.test_case "varint/zigzag" `Quick test_varint_zigzag;
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          QCheck_alcotest.to_alcotest trace_roundtrip_prop;
          Alcotest.test_case "real workload" `Quick test_trace_io_real_workload;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "malformed header" `Quick test_malformed_header;
          Alcotest.test_case "header shorter than the magic" `Quick test_short_header;
          Alcotest.test_case "streaming reader chunks" `Quick test_streaming_reader_chunks;
          Alcotest.test_case "fold_chunks" `Quick test_fold_chunks;
          Alcotest.test_case "truncated and closed" `Quick test_reader_truncated_and_closed;
          Alcotest.test_case "mapping roundtrip" `Quick test_mapping_roundtrip;
          Alcotest.test_case "mapping gaps" `Quick test_mapping_rejects_gaps;
        ] );
      ( "residual",
        [
          Alcotest.test_case "removes cold" `Quick test_eliminate_removes_cold;
          Alcotest.test_case "preserves semantics" `Quick test_eliminate_preserves_semantics;
          Alcotest.test_case "idempotent" `Quick test_eliminate_idempotent;
          Alcotest.test_case "keeps reachable" `Quick test_eliminate_keeps_everything_reachable;
          Alcotest.test_case "map rejects removed" `Quick test_map_trace_rejects_removed;
        ] );
    ]
