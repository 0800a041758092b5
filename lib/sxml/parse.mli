(** XML parser.

    Handwritten recursive-descent parser for the XML subset produced by
    {!Doc.to_string} and common XMI exporters: prolog, comments, CDATA,
    DOCTYPE (skipped), elements, attributes (single or double quoted),
    character and entity references.  Names are plain strings: a prefix
    such as [xmi:] is part of the name, not a resolved namespace.

    It scans by slices: each run of text, name, attribute value or
    comment body is located first and copied once, so the cost per byte
    is a comparison, not an allocation. *)

exception Error of {
  line : int;
  column : int;
  message : string;
}
(** [line] and [column] are 1-based and count bytes.  The parser keeps
    only an offset while it scans; on error it recomputes both from the
    offset by counting the newlines before it. *)

val parse_string : ?keep_whitespace:bool -> string -> Doc.t
(** Parse a complete document and return the root element.
    Whitespace-only text nodes between elements are dropped unless
    [keep_whitespace] is set (default [false]).
    @raise Error on malformed input. *)

val error_message : exn -> string option
(** Render an [Error]; [None] for other exceptions. *)
