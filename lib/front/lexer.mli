(** Hand-written lexer for the InCA C subset.

    Tokens carry their location and byte span so the parser can recover
    the exact source text of assertion conditions — the ANSI-C [assert]
    failure message quotes the original expression text. *)

type token =
  | IDENT of string
  | INT of int64
  | KW of string            (** keyword, see {!keywords} *)
  | PRAGMA of string        (** [#pragma <text>] up to end of line *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACK | RBRACK
  | SEMI | COMMA
  | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | SHL | SHR
  | LT | LE | GT | GE | EQ | NE
  | AMP | PIPE | CARET | AMPAMP | PIPEPIPE | BANG | TILDE
  | EOF

val equal_token : token -> token -> bool
val show_token : token -> string
val pp_token : Format.formatter -> token -> unit

type lexed = {
  tok : token;
  loc : Loc.t;
  start_ofs : int;  (** byte offset of first char *)
  end_ofs : int;    (** byte offset one past last char *)
}

exception Error of string * Loc.t

val keywords : string list
val is_keyword : string -> bool

(** Tokenize [src]; the result always ends with [EOF].
    @raise Error on lexical errors. *)
val tokenize : ?file:string -> string -> lexed array

(** The tokens of a source, as the parser indexes them: entries [0] to
    [length t - 1], the last of them [EOF].  They are stored in chunks
    small enough for the minor heap, so a parsed source's tokens die
    young. *)
type tokens

(** @raise Error on lexical errors. *)
val scan : ?file:string -> string -> tokens

val length : tokens -> int

(** [get t i] for [0 <= i < length t]. *)
val get : tokens -> int -> lexed
