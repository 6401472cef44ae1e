(** Hand-written lexer for the InCA C subset.

    Tokens carry their location and byte span so the parser can recover
    the exact source text of assertion conditions — the ANSI-C [assert]
    failure message quotes the original expression text. *)

type token =
  | IDENT of string
  | INT of int64
  | KW of string            (** keyword, see [keywords] *)
  | PRAGMA of string        (** [#pragma <text>] up to end of line *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACK | RBRACK
  | SEMI | COMMA
  | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | SHL | SHR
  | LT | LE | GT | GE | EQ | NE
  | AMP | PIPE | CARET | AMPAMP | PIPEPIPE | BANG | TILDE
  | EOF
[@@deriving show, eq]

type lexed = {
  tok : token;
  loc : Loc.t;
  start_ofs : int;  (** byte offset of first char *)
  end_ofs : int;    (** byte offset one past last char *)
}

exception Error of string * Loc.t

let keywords =
  [ "process"; "hw"; "sw"; "stream"; "extern"; "latency"; "depth"; "const";
    "int8"; "int16"; "int32"; "int64"; "uint8"; "uint16"; "uint32"; "uint64";
    "bool"; "void"; "true"; "false";
    "if"; "else"; "while"; "for"; "return"; "assert";
    "stream_read"; "stream_write" ]

let keyword_table =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

let is_keyword s = Hashtbl.mem keyword_table s

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* Characters are read straight from [src] with explicit bounds tests:
   no [char option] per character, no substring per token except the
   text an [IDENT]/[KW]/[PRAGMA] token carries and the message of an
   error. *)
type state = {
  src : string;
  len : int;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let loc_of st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

(* [src.[i] = c], false past the end. *)
let char_at st i c = i < st.len && String.unsafe_get st.src i = c

let next_is st c = char_at st (st.pos + 1) c

(* Advance over the character at [pos] (which exists), counting lines. *)
let advance st =
  if String.unsafe_get st.src st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let skip_while st p =
  while st.pos < st.len && p (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

let rec skip_ws_and_comments st =
  if st.pos < st.len then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_ws_and_comments st
    | '/' when next_is st '/' ->
        skip_while st (fun c -> c <> '\n');
        skip_ws_and_comments st
    | '/' when next_is st '*' ->
        let start = loc_of st in
        st.pos <- st.pos + 2;
        while not (char_at st st.pos '*' && next_is st '/') do
          if st.pos >= st.len then raise (Error ("unterminated comment", start));
          advance st
        done;
        st.pos <- st.pos + 2;
        skip_ws_and_comments st
    | _ -> ()

let slice st start = String.sub st.src start (st.pos - start)

let hex_value c = if is_digit c then Char.code c - 48 else (Char.code c lor 0x20) - 87

(* Literals accumulate as unsigned 64-bit words: values in [2^63, 2^64)
   wrap like C unsigned constants (4294967296 from the paper's Figure 3
   must lex, and so must 2^64-1); anything wider is an error. *)
let lex_number st loc =
  let start = st.pos in
  if char_at st start '0' && (char_at st (start + 1) 'x' || char_at st (start + 1) 'X')
  then begin
    st.pos <- start + 2;
    skip_while st is_hex_digit;
    if st.pos = start + 2 then raise (Error ("bad hex literal " ^ slice st start, loc));
    let v = ref 0L in
    for i = start + 2 to st.pos - 1 do
      if Int64.unsigned_compare !v 0x0FFF_FFFF_FFFF_FFFFL > 0 then
        raise (Error ("bad hex literal " ^ slice st start, loc));
      v := Int64.add (Int64.shift_left !v 4)
             (Int64.of_int (hex_value (String.unsafe_get st.src i)))
    done;
    INT !v
  end
  else begin
    skip_while st is_digit;
    let v = ref 0L in
    for i = start to st.pos - 1 do
      let d = Int64.of_int (Char.code (String.unsafe_get st.src i) - 48) in
      (* 1844674407370955161 = (2^64 - 1) / 10 *)
      if Int64.unsigned_compare !v 1844674407370955161L > 0
         || (Int64.equal !v 1844674407370955161L && Int64.compare d 5L > 0)
      then raise (Error ("integer literal out of range: " ^ slice st start, loc));
      v := Int64.add (Int64.mul !v 10L) d
    done;
    INT !v
  end

let lex_ident st =
  let start = st.pos in
  skip_while st is_ident_char;
  let text = slice st start in
  if is_keyword text then KW text else IDENT text

let lex_pragma st loc =
  let start = st.pos in
  skip_while st (fun c -> c <> '\n');
  let text = slice st start in
  if String.length text > 7 && String.sub text 0 7 = "#pragma" then
    PRAGMA (String.trim (String.sub text 7 (String.length text - 7)))
  else raise (Error ("unknown directive " ^ text, loc))

let one st tok = st.pos <- st.pos + 1; tok
let two st tok = st.pos <- st.pos + 2; tok

(* One token starting at [pos], which holds a character. *)
let lex_token st loc =
  let c = String.unsafe_get st.src st.pos in
  if is_ident_start c then lex_ident st
  else if is_digit c then lex_number st loc
  else
    match c with
    | '#' -> lex_pragma st loc
    | '<' -> if next_is st '<' then two st SHL else if next_is st '=' then two st LE else one st LT
    | '>' -> if next_is st '>' then two st SHR else if next_is st '=' then two st GE else one st GT
    | '=' -> if next_is st '=' then two st EQ else one st ASSIGN
    | '!' -> if next_is st '=' then two st NE else one st BANG
    | '&' -> if next_is st '&' then two st AMPAMP else one st AMP
    | '|' -> if next_is st '|' then two st PIPEPIPE else one st PIPE
    | '^' -> one st CARET
    | '~' -> one st TILDE
    | '+' -> one st PLUS
    | '-' -> one st MINUS
    | '*' -> one st STAR
    | '/' -> one st SLASH
    | '%' -> one st PERCENT
    | '(' -> one st LPAREN
    | ')' -> one st RPAREN
    | '{' -> one st LBRACE
    | '}' -> one st RBRACE
    | '[' -> one st LBRACK
    | ']' -> one st RBRACK
    | ';' -> one st SEMI
    | ',' -> one st COMMA
    | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, loc))

(* Tokens are stored in chunks of [chunk_size] entries.  An array that
   small is allocated in the minor heap, so storing a fresh token into it
   crosses no major-to-minor write barrier, and the tokens of a source
   die young with their chunks once it is parsed.  One flat array sized
   for the whole source would live in the major heap and drag every
   token there with it. *)
let chunk_bits = 8
let chunk_size = 1 lsl chunk_bits

type tokens = { chunks : lexed array array; count : int }

(* Filler of a chunk's unused entries. *)
let filler = { tok = EOF; loc = Loc.none; start_ofs = 0; end_ofs = 0 }

let length t = t.count
let get t i = t.chunks.(i lsr chunk_bits).(i land (chunk_size - 1))

let scan ?(file = "<string>") src =
  let len = String.length src in
  let st = { src; len; file; pos = 0; line = 1; bol = 0 } in
  let chunks = ref [||] and n = ref 0 in
  let push lexed =
    let c = !n lsr chunk_bits and k = !n land (chunk_size - 1) in
    if k = 0 then begin
      if c = Array.length !chunks then begin
        let more = Array.make (max 4 (2 * c)) [||] in
        Array.blit !chunks 0 more 0 c;
        chunks := more
      end;
      !chunks.(c) <- Array.make chunk_size filler
    end;
    !chunks.(c).(k) <- lexed;
    incr n
  in
  let rec go () =
    skip_ws_and_comments st;
    let loc = loc_of st and start = st.pos in
    if start >= len then push { tok = EOF; loc; start_ofs = start; end_ofs = start }
    else begin
      let tok = lex_token st loc in
      push { tok; loc; start_ofs = start; end_ofs = st.pos };
      go ()
    end
  in
  go ();
  { chunks = !chunks; count = !n }

let tokenize ?file src =
  let t = scan ?file src in
  Array.init t.count (get t)
