exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

(* ------------------------------------------------------------- printing *)

let print program =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "program %s\n" (Program.name program));
  let main_fid = (Program.main program).Program.fid in
  Array.iter
    (fun (f : Program.func) ->
      Buffer.add_string buf
        (Printf.sprintf "func %s%s\n" f.fname (if f.fid = main_fid then " *" else ""));
      Array.iter
        (fun bid ->
          let b = Program.block program bid in
          Buffer.add_string buf (Printf.sprintf "  block %s:\n" b.name);
          List.iter
            (fun i -> Buffer.add_string buf ("    " ^ Types.instr_to_string i ^ "\n"))
            b.instrs;
          let bname x = (Program.block program x).Program.name in
          let term =
            match b.term with
            | Types.Jump x -> Printf.sprintf "jump %s" (bname x)
            | Types.Branch { cond; if_true; if_false } ->
              Printf.sprintf "branch %s ? %s : %s" (Types.expr_to_string cond) (bname if_true)
                (bname if_false)
            | Types.Switch { sel; targets; default } ->
              Printf.sprintf "switch %s [%s] default %s" (Types.expr_to_string sel)
                (String.concat " " (Array.to_list (Array.map bname targets)))
                (bname default)
            | Types.Call { callee; return_to } ->
              Printf.sprintf "call %s -> %s" (Program.func program callee).Program.fname
                (bname return_to)
            | Types.Return -> "return"
            | Types.Halt -> "halt"
          in
          Buffer.add_string buf ("    " ^ term ^ "\n"))
        f.blocks)
    (Program.funcs program);
  Buffer.contents buf

(* ------------------------------------------------------ expression parse *)

(* Tiny recursive-descent parser over a string with a cursor. Grammar:
     expr   ::= int | vN | rand '(' int ')' | '(' expr OP expr ')'
   OP is one of the binop symbols. The text is a piece of a source line
   starting at column [col + 1], so errors report source-line columns. *)
type cursor = {
  s : string;
  mutable pos : int;
  line : int;
  col : int;
}

(* The source-line column of [c.s.[i]], counting from 1. *)
let column c i = c.col + i + 1

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while peek c = Some ' ' || peek c = Some '\t' do
    advance c
  done

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c.line "expected '%c' at column %d" ch (column c c.pos)

let is_digit ch = ch >= '0' && ch <= '9'

let parse_int c =
  skip_ws c;
  let start = c.pos in
  if peek c = Some '-' then advance c;
  while (match peek c with Some ch -> is_digit ch | None -> false) do
    advance c
  done;
  if c.pos = start || (c.pos = start + 1 && c.s.[start] = '-') then
    fail c.line "expected integer at column %d" (column c start);
  match int_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some n -> n
  | None -> fail c.line "integer out of range at column %d" (column c start)

let binop_symbols =
  (* Longest-match order. *)
  [
    ("<=", Types.Le); (">=", Types.Ge); ("==", Types.Eq); ("!=", Types.Ne); ("<", Types.Lt);
    (">", Types.Gt); ("+", Types.Add); ("-", Types.Sub); ("*", Types.Mul); ("/", Types.Div);
    ("%", Types.Mod); ("^", Types.Xor); ("&", Types.And); ("|", Types.Or);
  ]

let parse_binop c =
  skip_ws c;
  let rest = String.sub c.s c.pos (String.length c.s - c.pos) in
  match
    List.find_opt (fun (sym, _) -> String.length rest >= String.length sym
                                   && String.sub rest 0 (String.length sym) = sym)
      binop_symbols
  with
  | Some (sym, op) ->
    c.pos <- c.pos + String.length sym;
    op
  | None -> fail c.line "expected operator at column %d" (column c c.pos)

let rec parse_expr c =
  skip_ws c;
  match peek c with
  | Some '(' ->
    advance c;
    let a = parse_expr c in
    let op = parse_binop c in
    let b = parse_expr c in
    expect c ')';
    Types.Bin (op, a, b)
  | Some 'v' ->
    advance c;
    Types.Var (parse_int c)
  | Some 'r' ->
    (* rand(N) *)
    let kw = "rand" in
    if
      c.pos + String.length kw <= String.length c.s
      && String.sub c.s c.pos (String.length kw) = kw
    then begin
      c.pos <- c.pos + String.length kw;
      expect c '(';
      let n = parse_int c in
      expect c ')';
      Types.Rand n
    end
    else fail c.line "expected 'rand' at column %d" (column c c.pos)
  | Some ch when is_digit ch || ch = '-' -> Types.Const (parse_int c)
  | _ -> fail c.line "expected expression at column %d" (column c c.pos)

let expr_of_string ~line ~col s =
  let c = { s; pos = 0; line; col } in
  let e = parse_expr c in
  skip_ws c;
  if c.pos <> String.length s then fail line "trailing characters in expression: %S" s;
  e

(* ------------------------------------------------------------- program *)

type raw_term =
  | RJump of string
  | RBranch of Types.expr * string * string
  | RSwitch of Types.expr * string list * string
  | RCall of string * string
  | RReturn
  | RHalt

type raw_block = {
  rb_name : string;
  rb_line : int;
  mutable rb_instrs : Types.instr list; (* reversed *)
  mutable rb_term : raw_term option;
}

type raw_func = {
  rf_name : string;
  rf_line : int;
  rf_main : bool;
  mutable rf_blocks : raw_block list; (* reversed *)
}

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens_of line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

(* The blanks [String.trim] removes, counted from the front of [s]. *)
let leading_blanks s =
  let i = ref 0 in
  while !i < String.length s && String.contains " \012\n\r\t" s.[!i] do
    incr i
  done;
  !i

(* [String.trim (String.sub s a n)] and the offset in [s] where it starts. *)
let trimmed_sub s a n =
  let sub = String.sub s a n in
  (String.trim sub, a + leading_blanks sub)

(* A load or store operand: the rest of [line] after its [kw]-character
   keyword, without the surrounding [ ] the printer emits. *)
let operand line kw =
  let text, at = trimmed_sub line kw (String.length line - kw) in
  let n = String.length text in
  if n >= 2 && text.[0] = '[' && text.[n - 1] = ']' then trimmed_sub line (at + 1) (n - 2)
  else (text, at)

let parse ?name text =
  let lines = String.split_on_char '\n' text in
  let prog_name = ref "parsed" in
  let funcs : raw_func list ref = ref [] in
  let current_func () =
    match !funcs with [] -> None | f :: _ -> Some f
  in
  let current_block () =
    match current_func () with
    | Some f -> (match f.rf_blocks with [] -> None | b :: _ -> Some b)
    | None -> None
  in
  List.iteri
    (fun i raw_line ->
      let lnum = i + 1 in
      let line = String.trim (strip_comment raw_line) in
      (* An expression found at offset [at] of [line], parsed with
         source-line columns. *)
      let expr (text, at) = expr_of_string ~line:lnum ~col:(leading_blanks raw_line + at) text in
      if line <> "" then begin
        let toks = tokens_of line in
        match toks with
        | [ "program"; n ] -> prog_name := n
        | "func" :: n :: rest ->
          let is_main = rest = [ "*" ] in
          if rest <> [] && not is_main then fail lnum "junk after func declaration";
          funcs := { rf_name = n; rf_line = lnum; rf_main = is_main; rf_blocks = [] } :: !funcs
        | [ "block"; n ] when String.length n > 0 && n.[String.length n - 1] = ':' -> (
          let bname = String.sub n 0 (String.length n - 1) in
          match current_func () with
          | None -> fail lnum "block outside any function"
          | Some f ->
            f.rf_blocks <-
              { rb_name = bname; rb_line = lnum; rb_instrs = []; rb_term = None }
              :: f.rf_blocks)
        | _ -> (
          match current_block () with
          | None -> fail lnum "statement outside any block"
          | Some b ->
            if b.rb_term <> None then fail lnum "statement after the block's terminator";
            let set_term t = b.rb_term <- Some t in
            let add_instr instr = b.rb_instrs <- instr :: b.rb_instrs in
            (match toks with
            | [ "work"; n ] -> (
              match int_of_string_opt n with
              | Some v -> add_instr (Types.Work v)
              | None -> fail lnum "bad work count %S" n)
            | [ "jump"; target ] -> set_term (RJump target)
            | [ "return" ] -> set_term RReturn
            | [ "halt" ] -> set_term RHalt
            | [ "call"; callee; "->"; ret ] -> set_term (RCall (callee, ret))
            | "branch" :: _ -> (
              (* branch <expr> ? <t> : <f> — the expression may contain
                 spaces; split on the '?' instead. *)
              let body = String.sub line 6 (String.length line - 6) in
              match String.index_opt body '?' with
              | None -> fail lnum "branch needs '?'"
              | Some q ->
                let cond = expr (trimmed_sub line 6 q) in
                let rest = String.sub body (q + 1) (String.length body - q - 1) in
                (match tokens_of (String.map (fun c -> if c = ':' then ' ' else c) rest) with
                | [ t; f ] -> set_term (RBranch (cond, t, f))
                | _ -> fail lnum "branch needs 'COND ? TRUE : FALSE'"))
            | "switch" :: _ -> (
              (* switch <expr> [a b c] default <d> *)
              let body = String.sub line 6 (String.length line - 6) in
              match (String.index_opt body '[', String.index_opt body ']') with
              | Some l, Some r when l < r ->
                let sel = expr (trimmed_sub line 6 l) in
                let targets = tokens_of (String.sub body (l + 1) (r - l - 1)) in
                let tail = tokens_of (String.sub body (r + 1) (String.length body - r - 1)) in
                (match tail with
                | [ "default"; d ] -> set_term (RSwitch (sel, targets, d))
                | _ -> fail lnum "switch needs 'default TARGET' after the table")
              | _ -> fail lnum "switch needs a [target] table")
            | "load" :: _ -> add_instr (Types.Load (expr (operand line 4)))
            | "store" :: _ -> add_instr (Types.Store (expr (operand line 5)))
            | v :: ":=" :: _ when String.length v > 1 && v.[0] = 'v' -> (
              match int_of_string_opt (String.sub v 1 (String.length v - 1)) with
              | None -> fail lnum "bad variable %S" v
              | Some var ->
                let idx =
                  match String.index_opt line '=' with Some i -> i | None -> assert false
                in
                let rhs = trimmed_sub line (idx + 1) (String.length line - idx - 1) in
                add_instr (Types.Assign (var, expr rhs)))
            | t :: _ -> fail lnum "unknown statement %S" t
            | [] -> assert false))
      end)
    lines;
  let funcs = List.rev !funcs in
  if funcs = [] then fail 0 "no functions";
  (* Resolve names. *)
  let b = Builder.create ~name:(Option.value ~default:!prog_name name) () in
  let fids = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if Hashtbl.mem fids f.rf_name then fail f.rf_line "duplicate function %S" f.rf_name;
      Hashtbl.replace fids f.rf_name (Builder.func b f.rf_name))
    funcs;
  (* Declare blocks. *)
  let bids = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let fid = Hashtbl.find fids f.rf_name in
      List.iter
        (fun blk ->
          let key = (f.rf_name, blk.rb_name) in
          if Hashtbl.mem bids key then
            fail blk.rb_line "duplicate block %S in %S" blk.rb_name f.rf_name;
          Hashtbl.replace bids key (Builder.block b fid blk.rb_name))
        (List.rev f.rf_blocks))
    funcs;
  (* Bodies. *)
  List.iter
    (fun f ->
      List.iter
        (fun blk ->
          let local target =
            match Hashtbl.find_opt bids (f.rf_name, target) with
            | Some id -> id
            | None -> fail blk.rb_line "unknown block %S in %S" target f.rf_name
          in
          let term =
            match blk.rb_term with
            | None -> fail blk.rb_line "block %S has no terminator" blk.rb_name
            | Some (RJump t) -> Types.Jump (local t)
            | Some (RBranch (cond, t, fl)) ->
              Types.Branch { cond; if_true = local t; if_false = local fl }
            | Some (RSwitch (sel, targets, d)) ->
              Types.Switch
                { sel; targets = Array.of_list (List.map local targets); default = local d }
            | Some (RCall (callee, ret)) -> (
              match Hashtbl.find_opt fids callee with
              | None -> fail blk.rb_line "unknown function %S" callee
              | Some c -> Types.Call { callee = c; return_to = local ret })
            | Some RReturn -> Types.Return
            | Some RHalt -> Types.Halt
          in
          Builder.set_body b
            (Hashtbl.find bids (f.rf_name, blk.rb_name))
            (List.rev blk.rb_instrs) term)
        (List.rev f.rf_blocks))
    funcs;
  (match List.filter (fun f -> f.rf_main) funcs with
  | [] -> () (* first function is main by default *)
  | [ f ] -> Builder.set_main b (Hashtbl.find fids f.rf_name)
  | f :: _ -> fail f.rf_line "multiple functions marked '*'");
  try Builder.finish b with
  | Validate.Invalid msg -> fail 0 "invalid program: %s" msg
  | Invalid_argument msg -> fail 0 "invalid program: %s" msg

let equal_structure p1 p2 =
  let sig_of p =
    let bname bid = (Program.block p bid).Program.name in
    ( Program.name p,
      (Program.main p).Program.fname,
      Array.to_list
        (Array.map
           (fun (f : Program.func) ->
             ( f.fname,
               Array.to_list
                 (Array.map
                    (fun bid ->
                      let blk = Program.block p bid in
                      let term =
                        match blk.term with
                        | Types.Jump x -> "j:" ^ bname x
                        | Types.Branch { cond; if_true; if_false } ->
                          Printf.sprintf "b:%s?%s:%s" (Types.expr_to_string cond)
                            (bname if_true) (bname if_false)
                        | Types.Switch { sel; targets; default } ->
                          Printf.sprintf "s:%s[%s]%s" (Types.expr_to_string sel)
                            (String.concat ","
                               (Array.to_list (Array.map bname targets)))
                            (bname default)
                        | Types.Call { callee; return_to } ->
                          Printf.sprintf "c:%s->%s" (Program.func p callee).Program.fname
                            (bname return_to)
                        | Types.Return -> "r"
                        | Types.Halt -> "h"
                      in
                      (blk.name, List.map Types.instr_to_string blk.instrs, term))
                    f.blocks) ))
           (Program.funcs p)) )
  in
  sig_of p1 = sig_of p2
