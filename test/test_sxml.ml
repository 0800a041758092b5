(* Tests for the XML substrate: tree queries, printer, parser,
   round-trip, and the parser against its byte-stepping predecessor
   (differential, pinned error positions, allocation gate). *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let doc_tests =
  [
    tc "attr lookup" (fun () ->
        match Sxml.Doc.element ~attrs:[ ("a", "1") ] "t" [] with
        | Sxml.Doc.Element e ->
          check Alcotest.bool "found" true (Sxml.Doc.attr e "a" = Some "1");
          check Alcotest.bool "missing" true (Sxml.Doc.attr e "b" = None)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "find_children filters by tag" (fun () ->
        match
          Sxml.Doc.element "root"
            [
              Sxml.Doc.element "a" [];
              Sxml.Doc.element "b" [];
              Sxml.Doc.element "a" [];
            ]
        with
        | Sxml.Doc.Element e ->
          check Alcotest.int "two" 2 (List.length (Sxml.Doc.find_children e "a"))
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "text_content concatenates" (fun () ->
        match
          Sxml.Doc.element "t"
            [ Sxml.Doc.text "a"; Sxml.Doc.element "x" []; Sxml.Doc.text "b" ]
        with
        | Sxml.Doc.Element e ->
          check Alcotest.string "ab" "ab" (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "escape handles the five specials" (fun () ->
        check Alcotest.string "escaped" "&amp;&lt;&gt;&quot;&apos;"
          (Sxml.Doc.escape "&<>\"'"));
    tc "equal ignores attribute order" (fun () ->
        let d1 = Sxml.Doc.element ~attrs:[ ("a", "1"); ("b", "2") ] "t" [] in
        let d2 = Sxml.Doc.element ~attrs:[ ("b", "2"); ("a", "1") ] "t" [] in
        check Alcotest.bool "equal" true (Sxml.Doc.equal d1 d2));
  ]

let parse s = Sxml.Parse.parse_string s

let parser_tests =
  [
    tc "simple element" (fun () ->
        match parse "<a/>" with
        | Sxml.Doc.Element e -> check Alcotest.string "tag" "a" e.Sxml.Doc.tag
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "attributes with both quote styles" (fun () ->
        match parse "<a x=\"1\" y='2'/>" with
        | Sxml.Doc.Element e ->
          check Alcotest.bool "x" true (Sxml.Doc.attr e "x" = Some "1");
          check Alcotest.bool "y" true (Sxml.Doc.attr e "y" = Some "2")
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "nested elements and text" (fun () ->
        match parse "<a><b>hello</b></a>" with
        | Sxml.Doc.Element e -> (
          match Sxml.Doc.find_child e "b" with
          | Some b ->
            check Alcotest.string "text" "hello" (Sxml.Doc.text_content b)
          | None -> Alcotest.fail "child b expected")
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "prolog, doctype and comments are skipped" (fun () ->
        match
          parse
            "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]>\n\
             <!-- hi --><a/><!-- bye -->"
        with
        | Sxml.Doc.Element e -> check Alcotest.string "tag" "a" e.Sxml.Doc.tag
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "entities decode" (fun () ->
        match parse "<a>&lt;x&gt; &amp; &quot;y&quot; &apos;z&apos;</a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.string "decoded" "<x> & \"y\" 'z'"
            (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "numeric character references" (fun () ->
        match parse "<a>&#65;&#x42;</a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.string "AB" "AB" (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "astral-plane character reference encodes as 4 UTF-8 bytes" (fun () ->
        match parse "<a>&#x1F600;</a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.string "U+1F600" "\xF0\x9F\x98\x80"
            (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "character reference beyond U+10FFFF fails" (fun () ->
        match parse "<a>&#x200000;</a>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "surrogate character reference fails" (fun () ->
        match parse "<a>&#xD800;</a>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "negative character reference fails" (fun () ->
        match parse "<a>&#-5;</a>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "CDATA preserved verbatim" (fun () ->
        match parse "<a><![CDATA[<not> &parsed;]]></a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.string "raw" "<not> &parsed;" (Sxml.Doc.text_content e)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "entity in attribute value" (fun () ->
        match parse "<a x=\"1 &amp; 2\"/>" with
        | Sxml.Doc.Element e ->
          check Alcotest.bool "decoded" true (Sxml.Doc.attr e "x" = Some "1 & 2")
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "whitespace-only text dropped by default" (fun () ->
        match parse "<a>\n  <b/>\n</a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.int "one child" 1 (List.length e.Sxml.Doc.children)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "keep_whitespace retains it" (fun () ->
        match Sxml.Parse.parse_string ~keep_whitespace:true "<a> <b/> </a>" with
        | Sxml.Doc.Element e ->
          check Alcotest.int "three children" 3
            (List.length e.Sxml.Doc.children)
        | Sxml.Doc.Text _ -> Alcotest.fail "element expected");
    tc "mismatched closing tag fails" (fun () ->
        match parse "<a></b>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "trailing content fails" (fun () ->
        match parse "<a/><b/>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "unterminated element fails" (fun () ->
        match parse "<a><b></b>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error _ -> ());
    tc "error positions are 1-based" (fun () ->
        match parse "<a>\n<b>oops</a>" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception Sxml.Parse.Error { line; _ } ->
          check Alcotest.int "line 2" 2 line);
    tc "error_message renders" (fun () ->
        match parse "<" with
        | _doc -> Alcotest.fail "expected parse error"
        | exception e ->
          check Alcotest.bool "some" true (Sxml.Parse.error_message e <> None));
  ]

(* random tree round-trip *)
let gen_tree =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "tag"; "x-y"; "ns:t" ] in
  let attr_value =
    oneofl [ "v"; "1 & 2"; "<q>"; "it's"; "\"quoted\""; "plain" ]
  in
  let text_value = oneofl [ "hello"; "a<b"; "x&y"; "tail "; " lead" ] in
  fix
    (fun self depth ->
      let attrs =
        list_size (int_bound 2)
          (map2 (fun k v -> (k, v)) (oneofl [ "k"; "id"; "w" ]) attr_value)
      in
      (* attribute keys must be distinct *)
      let attrs =
        map
          (fun l ->
            let seen = Hashtbl.create 4 in
            List.filter
              (fun (k, _) ->
                if Hashtbl.mem seen k then false
                else begin
                  Hashtbl.add seen k ();
                  true
                end)
              l)
          attrs
      in
      if depth = 0 then
        map2 (fun t a -> Sxml.Doc.element ~attrs:a t []) name attrs
      else
        let child =
          frequency
            [ (3, self (depth - 1)); (1, map Sxml.Doc.text text_value) ]
        in
        map3
          (fun t a cs -> Sxml.Doc.element ~attrs:a t cs)
          name attrs
          (list_size (int_bound 3) child))
    2

let roundtrip_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"print-parse round-trip" ~count:200
         (QCheck.make gen_tree)
         (fun doc ->
           (* adjacent text nodes merge on reparse: normalize both sides *)
           let rec normalize = function
             | Sxml.Doc.Text _ as t -> t
             | Sxml.Doc.Element e ->
               let rec merge = function
                 | Sxml.Doc.Text a :: Sxml.Doc.Text b :: rest ->
                   merge (Sxml.Doc.Text (a ^ b) :: rest)
                 | c :: rest -> normalize c :: merge rest
                 | [] -> []
               in
               Sxml.Doc.element ~attrs:e.Sxml.Doc.attrs e.Sxml.Doc.tag
                 (merge e.Sxml.Doc.children)
           in
           let printed = Sxml.Doc.to_string ~indent:false doc in
           let reparsed =
             Sxml.Parse.parse_string ~keep_whitespace:true printed
           in
           Sxml.Doc.equal (normalize doc) (normalize reparsed)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"indented print-parse round-trip (no text)"
         ~count:100
         (QCheck.make gen_tree)
         (fun doc ->
           (* drop text nodes: indentation only round-trips elements *)
           let rec strip = function
             | Sxml.Doc.Element e ->
               Sxml.Doc.element ~attrs:e.Sxml.Doc.attrs e.Sxml.Doc.tag
                 (List.filter_map
                    (fun c ->
                      match c with
                      | Sxml.Doc.Element _ -> Some (strip c)
                      | Sxml.Doc.Text _ -> None)
                    e.Sxml.Doc.children)
             | Sxml.Doc.Text _ as t -> t
           in
           let doc = strip doc in
           let printed = Sxml.Doc.to_string ~indent:true doc in
           Sxml.Doc.equal doc (Sxml.Parse.parse_string printed)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parser raises nothing but Parse.Error"
         ~count:1000
         (QCheck.make
            QCheck.Gen.(
              string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 60)))
         (fun src ->
           match Sxml.Parse.parse_string src with
           | _doc -> true
           | exception Sxml.Parse.Error _ -> true));
  ]


(* --- differential: slice scanner vs the byte-stepping parser ---------- *)

(* The parser the slice scanner replaced, kept verbatim as the simpler
   oracle: it steps one byte at a time, tracks line and column as it
   goes and copies text through a fresh buffer byte by byte.  The
   scanner must return the same tree, or raise the same error at the
   same line and column, on every input. *)
module Oracle = struct
  module Doc = Sxml.Doc

  exception Error of {
    line : int;
    column : int;
    message : string;
  }

  type state = {
    input : string;
    mutable pos : int;
    mutable line : int;
    mutable bol : int;  (** offset of the beginning of the current line *)
    keep_whitespace : bool;
  }

  let fail st message =
    raise (Error { line = st.line; column = st.pos - st.bol + 1; message })

  let eof st = st.pos >= String.length st.input

  let peek st =
    if eof st then '\000' else st.input.[st.pos]

  let peek2 st =
    if st.pos + 1 >= String.length st.input then '\000'
    else st.input.[st.pos + 1]

  let advance st =
    if not (eof st) then begin
      if st.input.[st.pos] = '\n' then begin
        st.line <- st.line + 1;
        st.bol <- st.pos + 1
      end;
      st.pos <- st.pos + 1
    end

  let skip_n st n =
    for _ = 1 to n do
      advance st
    done

  let looking_at st s =
    let n = String.length s in
    st.pos + n <= String.length st.input
    && String.sub st.input st.pos n = s

  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

  let skip_spaces st =
    while (not (eof st)) && is_space (peek st) do
      advance st
    done

  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.' || c = ':'

  let read_name st =
    let start = st.pos in
    while (not (eof st)) && is_name_char (peek st) do
      advance st
    done;
    if st.pos = start then fail st "expected a name";
    String.sub st.input start (st.pos - start)

  let decode_entity st buf =
    (* called just past '&' *)
    let start = st.pos in
    while (not (eof st)) && peek st <> ';' do
      advance st
    done;
    if eof st then fail st "unterminated entity reference";
    let name = String.sub st.input start (st.pos - start) in
    advance st (* ';' *);
    match name with
    | "amp" -> Buffer.add_char buf '&'
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "quot" -> Buffer.add_char buf '"'
    | "apos" -> Buffer.add_char buf '\''
    | _ ->
      let numeric =
        if String.length name > 1 && name.[0] = '#' then
          let body = String.sub name 1 (String.length name - 1) in
          let value =
            if String.length body > 1 && (body.[0] = 'x' || body.[0] = 'X')
            then
              int_of_string_opt ("0x" ^ String.sub body 1 (String.length body - 1))
            else int_of_string_opt body
          in
          value
        else None
      in
      (match numeric with
       | Some code ->
         if code < 0 || code > 0x10FFFF then
           fail st
             (Printf.sprintf "character reference &%s; is outside Unicode" name);
         if code >= 0xD800 && code <= 0xDFFF then
           fail st
             (Printf.sprintf "character reference &%s; is a surrogate" name);
         (* encode as UTF-8 *)
         let add c = Buffer.add_char buf (Char.chr c) in
         if code < 0x80 then add code
         else if code < 0x800 then begin
           add (0xC0 lor (code lsr 6));
           add (0x80 lor (code land 0x3F))
         end
         else if code < 0x10000 then begin
           add (0xE0 lor (code lsr 12));
           add (0x80 lor ((code lsr 6) land 0x3F));
           add (0x80 lor (code land 0x3F))
         end
         else begin
           add (0xF0 lor (code lsr 18));
           add (0x80 lor ((code lsr 12) land 0x3F));
           add (0x80 lor ((code lsr 6) land 0x3F));
           add (0x80 lor (code land 0x3F))
         end
       | None -> fail st (Printf.sprintf "unknown entity &%s;" name))

  let read_quoted st =
    let quote = peek st in
    if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
    advance st;
    let buf = Buffer.create 16 in
    let rec loop () =
      if eof st then fail st "unterminated attribute value"
      else
        let c = peek st in
        if c = quote then advance st
        else if c = '&' then begin
          advance st;
          decode_entity st buf;
          loop ()
        end
        else begin
          Buffer.add_char buf c;
          advance st;
          loop ()
        end
    in
    loop ();
    Buffer.contents buf

  let skip_comment st =
    (* called at "<!--" *)
    skip_n st 4;
    let rec loop () =
      if eof st then fail st "unterminated comment"
      else if looking_at st "-->" then skip_n st 3
      else begin
        advance st;
        loop ()
      end
    in
    loop ()

  let skip_pi st =
    (* called at "<?" *)
    skip_n st 2;
    let rec loop () =
      if eof st then fail st "unterminated processing instruction"
      else if looking_at st "?>" then skip_n st 2
      else begin
        advance st;
        loop ()
      end
    in
    loop ()

  let skip_doctype st =
    (* called at "<!DOCTYPE"; skip to the matching '>' (no nested subsets
       with '>' inside supported beyond bracket balancing) *)
    let depth = ref 0 in
    let rec loop () =
      if eof st then fail st "unterminated DOCTYPE"
      else begin
        let c = peek st in
        advance st;
        match c with
        | '[' ->
          incr depth;
          loop ()
        | ']' ->
          decr depth;
          loop ()
        | '>' when !depth = 0 -> ()
        | _ -> loop ()
      end
    in
    loop ()

  let read_cdata st buf =
    (* called at "<![CDATA[" *)
    skip_n st 9;
    let rec loop () =
      if eof st then fail st "unterminated CDATA section"
      else if looking_at st "]]>" then skip_n st 3
      else begin
        Buffer.add_char buf (peek st);
        advance st;
        loop ()
      end
    in
    loop ()

  let is_blank s = String.for_all is_space s

  let rec parse_element st =
    (* at '<' of a start tag *)
    advance st;
    let tag = read_name st in
    let rec read_attrs acc =
      skip_spaces st;
      let c = peek st in
      if c = '/' || c = '>' then List.rev acc
      else begin
        let name = read_name st in
        skip_spaces st;
        if peek st <> '=' then fail st "expected '=' after attribute name";
        advance st;
        skip_spaces st;
        let value = read_quoted st in
        read_attrs ((name, value) :: acc)
      end
    in
    let attrs = read_attrs [] in
    if peek st = '/' then begin
      advance st;
      if peek st <> '>' then fail st "expected '>' after '/'";
      advance st;
      Doc.element ~attrs tag []
    end
    else begin
      if peek st <> '>' then fail st "expected '>'";
      advance st;
      let children = parse_content st tag in
      Doc.element ~attrs tag children
    end

  and parse_content st closing_tag =
    let children = ref [] in
    let textbuf = Buffer.create 16 in
    let flush_text () =
      let s = Buffer.contents textbuf in
      Buffer.clear textbuf;
      if s = "" then ()
      else if (not st.keep_whitespace) && is_blank s then ()
      else children := Doc.text s :: !children
    in
    let rec loop () =
      if eof st then fail st (Printf.sprintf "unterminated element <%s>" closing_tag)
      else if looking_at st "<!--" then begin
        flush_text ();
        skip_comment st;
        loop ()
      end
      else if looking_at st "<![CDATA[" then begin
        read_cdata st textbuf;
        loop ()
      end
      else if looking_at st "</" then begin
        flush_text ();
        skip_n st 2;
        let name = read_name st in
        if name <> closing_tag then
          fail st
            (Printf.sprintf "mismatched closing tag </%s> (expected </%s>)"
               name closing_tag);
        skip_spaces st;
        if peek st <> '>' then fail st "expected '>' in closing tag";
        advance st
      end
      else if peek st = '<' && peek2 st = '?' then begin
        flush_text ();
        skip_pi st;
        loop ()
      end
      else if peek st = '<' then begin
        flush_text ();
        let child = parse_element st in
        children := child :: !children;
        loop ()
      end
      else if peek st = '&' then begin
        advance st;
        decode_entity st textbuf;
        loop ()
      end
      else begin
        Buffer.add_char textbuf (peek st);
        advance st;
        loop ()
      end
    in
    loop ();
    List.rev !children

  let parse_string ?(keep_whitespace = false) input =
    let st = { input; pos = 0; line = 1; bol = 0; keep_whitespace } in
    let rec skip_misc () =
      skip_spaces st;
      if looking_at st "<?" then begin
        skip_pi st;
        skip_misc ()
      end
      else if looking_at st "<!--" then begin
        skip_comment st;
        skip_misc ()
      end
      else if looking_at st "<!DOCTYPE" then begin
        skip_n st 9;
        skip_doctype st;
        skip_misc ()
      end
    in
    skip_misc ();
    if eof st || peek st <> '<' then fail st "expected root element";
    let root = parse_element st in
    skip_misc ();
    if not (eof st) then fail st "trailing content after root element";
    root
end

(* What a parse shows: the tree, or the error and where it was raised. *)
type outcome =
  | Tree of Sxml.Doc.t
  | Failed of int * int * string

let scanner ~keep_whitespace src =
  match Sxml.Parse.parse_string ~keep_whitespace src with
  | doc -> Tree doc
  | exception Sxml.Parse.Error { line; column; message } ->
    Failed (line, column, message)

let oracle ~keep_whitespace src =
  match Oracle.parse_string ~keep_whitespace src with
  | doc -> Tree doc
  | exception Oracle.Error { line; column; message } ->
    Failed (line, column, message)

(* Structural [=]: attribute order and text node boundaries count. *)
let agrees src =
  List.for_all
    (fun keep_whitespace ->
      scanner ~keep_whitespace src = oracle ~keep_whitespace src)
    [ false; true ]

let xmlish = "<>/&;=\"' \n\t!-?[]CDATA#x"

let gen_xmlish =
  QCheck.Gen.(
    string_size
      ~gen:(map (String.get xmlish) (int_bound (String.length xmlish - 1)))
      (int_bound 80))

(* Whole tokens reach the multi-byte openers ("<!--", "<![CDATA[",
   "<!DOCTYPE", entities) that single bytes rarely spell. *)
let gen_tokens =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 24)
         (oneofl
            [ "<"; ">"; "</"; "/>"; "<a"; "</a>"; "<b>"; "</b>"; "<a/>";
              " x=\"1\""; " y='&amp;'"; "<!--"; "-->"; "<![CDATA["; "]]>";
              "<?"; "?>"; "<!DOCTYPE d [<!ELEMENT d ANY>]>"; "&lt;";
              "&#x41;"; "&#65;"; "&#xD800;"; "&#x110000;"; "&bogus;"; "&";
              ";"; "="; "\""; "'"; " "; "\n"; "\r\n"; "\t"; "text"; "x" ])))

(* XMI of a small generated model, with 1-4 bytes replaced, deleted or
   inserted. *)
let gen_mutated_xmi =
  let xmis =
    Array.init 4 (fun seed ->
        Xmi.Write.to_string
          (Workload.Gen_model.structural ~seed ~classes:(2 + seed)))
  in
  QCheck.Gen.(
    int_bound 3 >>= fun which ->
    let src = xmis.(which) in
    list_size (int_range 1 4)
      (triple (int_bound 2) (int_bound (String.length src - 1))
         (map (String.get xmlish) (int_bound (String.length xmlish - 1))))
    >|= List.fold_left
          (fun s (op, at, c) ->
            let at = at mod (String.length s + 1) in
            let before = String.sub s 0 at in
            let c = String.make 1 c in
            match op with
            | 0 when at < String.length s ->
              before ^ c ^ String.sub s (at + 1) (String.length s - at - 1)
            | 1 when at < String.length s ->
              before ^ String.sub s (at + 1) (String.length s - at - 1)
            | _ -> before ^ c ^ String.sub s at (String.length s - at))
          src)

(* Well-formed documents whose content mixes text, whitespace, CDATA,
   references, comments and PIs: where text nodes merge or split, and
   which blank runs are dropped, depends on the order of these. *)
let gen_mixed =
  let open QCheck.Gen in
  let item =
    oneofl
      [ "text"; " "; "\n  "; "\r\n"; "<![CDATA[c]]>"; "<![CDATA[ ]]>";
        "<![CDATA[]]>"; "&amp;"; "&#32;"; "&#x9;"; "<!-- c -->"; "<?pi x?>" ]
  in
  fix
    (fun self depth ->
      let child =
        if depth = 0 then item
        else frequency [ (4, item); (1, self (depth - 1)) ]
      in
      map2
        (fun tag items ->
          "<" ^ tag ^ ">" ^ String.concat "" items ^ "</" ^ tag ^ ">")
        (oneofl [ "a"; "b"; "ns:t" ])
        (list_size (int_bound 6) child))
    3

let differential name count gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.make ~print:String.escaped gen)
       agrees)

let oracle_tests =
  [
    differential "scanner = oracle on XML-ish bytes" 3000 gen_xmlish;
    differential "scanner = oracle on XML-ish tokens" 3000 gen_tokens;
    differential "scanner = oracle on mutated XMI" 400 gen_mutated_xmi;
    differential "scanner = oracle on mixed content" 1000 gen_mixed;
    differential "scanner = oracle on printed trees" 300
      QCheck.Gen.(
        map2
          (fun indent doc -> Sxml.Doc.to_string ~indent doc)
          bool gen_tree);
  ]

(* Errors whose position is easy to get wrong when line and column are
   recomputed from the offset.  Each expectation is a literal, and the
   oracle must agree with it too, so neither parser can drift. *)
let pinned_error name src ~line ~column message =
  tc name (fun () ->
      let expected = Failed (line, column, message) in
      List.iter
        (fun keep_whitespace ->
          check Alcotest.bool "oracle" true
            (oracle ~keep_whitespace src = expected);
          match scanner ~keep_whitespace src with
          | Failed (l, c, m) ->
            check
              Alcotest.(triple int int string)
              "line, column, message" (line, column, message) (l, c, m)
          | Tree _ -> Alcotest.fail "expected a parse error")
        [ false; true ])

let error_tests =
  [
    pinned_error "mismatched close tag deep in a document"
      "<?xml version=\"1.0\"?>\n<a>\n  <b>\n    <c>\n      <d x=\"1\"/>\n\
      \    </c>\n  </e>\n</a>\n"
      ~line:7 ~column:6 "mismatched closing tag </e> (expected </b>)";
    pinned_error "unterminated attribute value over newlines"
      "<a>\n  <b x=\"one\ntwo\n  three" ~line:4 ~column:8
      "unterminated attribute value";
    pinned_error "surrogate reference after CRLF lines"
      "<a>\r\n<b>\r\nx&#xD800;y</b></a>" ~line:3 ~column:10
      "character reference &#xD800; is a surrogate";
    pinned_error "unterminated comment at end of input"
      "<a>\n<!-- open -" ~line:2 ~column:12 "unterminated comment";
    pinned_error "unterminated CDATA at end of input"
      "<a>\n<![CDATA[ open ]]" ~line:2 ~column:18
      "unterminated CDATA section";
    pinned_error "unterminated PI at end of input" "<a>\n  <?pi open ?"
      ~line:2 ~column:14 "unterminated processing instruction";
    pinned_error "unterminated prolog PI" "\n\n<?xml version" ~line:3
      ~column:14 "unterminated processing instruction";
    pinned_error "lone <" "<" ~line:1 ~column:2 "expected a name";
  ]

(* Minor-heap words allocated by one call.  On one domain the count is
   a property of the code path, not of timing. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let alloc_tests =
  [
    tc "scanner allocates at most 0.6x the oracle on XMI" (fun () ->
        let src =
          Xmi.Write.to_string
            (Workload.Gen_model.structural ~seed:3 ~classes:100)
        in
        let ours = minor_words (fun () -> Sxml.Parse.parse_string src) in
        let theirs = minor_words (fun () -> Oracle.parse_string src) in
        let ratio = ours /. theirs in
        if ratio > 0.6 then
          Alcotest.failf "scanner %.0f words vs oracle %.0f words: ratio %.3f"
            ours theirs ratio);
  ]

let () =
  Alcotest.run "sxml"
    [
      ("doc", doc_tests);
      ("parser", parser_tests);
      ("roundtrip", roundtrip_tests);
      ("oracle", oracle_tests);
      ("errors", error_tests);
      ("alloc", alloc_tests);
    ]
