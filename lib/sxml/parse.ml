exception Error of {
  line : int;
  column : int;
  message : string;
}

(* A slice scanner: the hot loops find the end of a run (text, name,
   attribute value, comment body) and copy it once, so a byte costs a
   comparison, not an allocation.  Line and column are only needed by
   errors, so the state keeps the offset alone and [fail] recomputes
   them. *)
type state = {
  input : string;
  len : int;
  mutable pos : int;
  keep_whitespace : bool;
  text : Buffer.t;  (** pending text of the innermost open element *)
  value : Buffer.t;  (** attribute values that contain an entity *)
}

let fail st message =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to st.pos - 1 do
    if String.unsafe_get st.input i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  raise (Error { line = !line; column = st.pos - !bol + 1; message })

let eof st = st.pos >= st.len

let peek_at st i = if i >= st.len then '\000' else String.unsafe_get st.input i
let peek st = peek_at st st.pos

let matches_at st i s =
  let n = String.length s in
  i + n <= st.len
  &&
  let k = ref 0 in
  while
    !k < n && String.unsafe_get st.input (i + !k) = String.unsafe_get s !k
  do
    incr k
  done;
  !k = n

let looking_at st s = matches_at st st.pos s

(* Offset of the first occurrence of [s] at or after [i], or [len]. *)
let find st s i =
  let i = ref i in
  while !i < st.len && not (matches_at st !i s) do
    incr i
  done;
  if !i < st.len then !i else st.len

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_spaces st =
  while (not (eof st)) && is_space (String.unsafe_get st.input st.pos) do
    st.pos <- st.pos + 1
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

(* Offset just past the name starting at [pos]; fails on an empty one. *)
let name_end st =
  let j = ref st.pos in
  while !j < st.len && is_name_char (String.unsafe_get st.input !j) do
    incr j
  done;
  if !j = st.pos then fail st "expected a name";
  !j

let read_name st =
  let start = st.pos in
  st.pos <- name_end st;
  String.sub st.input start (st.pos - start)

let decode_entity st buf =
  (* called just past '&' *)
  let start = st.pos in
  (match String.index_from_opt st.input start ';' with
   | Some j -> st.pos <- j
   | None ->
     st.pos <- st.len;
     fail st "unterminated entity reference");
  let name = String.sub st.input start (st.pos - start) in
  st.pos <- st.pos + 1 (* ';' *);
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
        if String.length body > 1 && (body.[0] = 'x' || body.[0] = 'X') then
          int_of_string_opt ("0x" ^ String.sub body 1 (String.length body - 1))
        else int_of_string_opt body
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
       Buffer.add_utf_8_uchar buf (Uchar.of_int code)
     | None -> fail st (Printf.sprintf "unknown entity &%s;" name))

(* Offset of the first [c1] or [c2] at or after [i], or [len]. *)
let index2 st i c1 c2 =
  let j = ref i in
  while
    !j < st.len
    &&
    let c = String.unsafe_get st.input !j in
    c <> c1 && c <> c2
  do
    incr j
  done;
  !j

let read_quoted st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  let start = st.pos + 1 in
  let j = index2 st start quote '&' in
  if j < st.len && String.unsafe_get st.input j = quote then begin
    (* no entity: the value is a slice of the input *)
    st.pos <- j + 1;
    String.sub st.input start (j - start)
  end
  else begin
    let buf = st.value in
    Buffer.clear buf;
    let rec loop i =
      let j = index2 st i quote '&' in
      Buffer.add_substring buf st.input i (j - i);
      st.pos <- j;
      if j = st.len then fail st "unterminated attribute value"
      else if String.unsafe_get st.input j = quote then st.pos <- j + 1
      else begin
        st.pos <- j + 1;
        decode_entity st buf;
        loop st.pos
      end
    in
    loop start;
    Buffer.contents buf
  end

(* Move past the first [close] at or after [pos + open_len] and return
   where it starts; fails at end of input if there is none. *)
let skip_past st ~open_len close message =
  let j = find st close (st.pos + open_len) in
  if j = st.len then begin
    st.pos <- st.len;
    fail st message
  end;
  st.pos <- j + String.length close;
  j

let skip_comment st =
  ignore (skip_past st ~open_len:4 "-->" "unterminated comment")

let skip_pi st =
  ignore (skip_past st ~open_len:2 "?>" "unterminated processing instruction")

let skip_doctype st =
  (* called past "<!DOCTYPE"; skip to the matching '>' (no nested subsets
     with '>' inside supported beyond bracket balancing) *)
  let depth = ref 0 in
  let rec loop () =
    if eof st then fail st "unterminated DOCTYPE"
    else begin
      let c = String.unsafe_get st.input st.pos in
      st.pos <- st.pos + 1;
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

let read_cdata st =
  (* called at "<![CDATA[" *)
  let start = st.pos + 9 in
  let j = skip_past st ~open_len:9 "]]>" "unterminated CDATA section" in
  Buffer.add_substring st.text st.input start (j - start)

let buffer_is_blank buf =
  let i = ref 0 in
  while !i < Buffer.length buf && is_space (Buffer.nth buf !i) do
    incr i
  done;
  !i = Buffer.length buf

let rec read_attrs st acc =
  skip_spaces st;
  let c = peek st in
  if c = '/' || c = '>' then List.rev acc
  else begin
    let name = read_name st in
    skip_spaces st;
    if peek st <> '=' then fail st "expected '=' after attribute name";
    st.pos <- st.pos + 1;
    skip_spaces st;
    let value = read_quoted st in
    read_attrs st ((name, value) :: acc)
  end

let rec parse_element st =
  (* at '<' of a start tag *)
  st.pos <- st.pos + 1;
  let tag = read_name st in
  let attrs = read_attrs st [] in
  if peek st = '/' then begin
    st.pos <- st.pos + 1;
    if peek st <> '>' then fail st "expected '>' after '/'";
    st.pos <- st.pos + 1;
    Doc.element ~attrs tag []
  end
  else begin
    st.pos <- st.pos + 1 (* '>' *);
    Doc.element ~attrs tag (List.rev (parse_content st tag []))
  end

(* The text buffer is empty whenever an element starts: every markup
   that ends a text run flushes it first, so one buffer serves the whole
   recursion. *)
and flush_text st children =
  let buf = st.text in
  if Buffer.length buf = 0 then children
  else begin
    let children =
      if st.keep_whitespace || not (buffer_is_blank buf) then
        Doc.text (Buffer.contents buf) :: children
      else children
    in
    Buffer.clear buf;
    children
  end

(* Children in reverse order, up to and including the closing tag. *)
and parse_content st closing_tag children =
  if eof st then
    fail st (Printf.sprintf "unterminated element <%s>" closing_tag);
  match String.unsafe_get st.input st.pos with
  | '<' -> (
    match peek_at st (st.pos + 1) with
    | '/' ->
      let children = flush_text st children in
      close_tag st closing_tag;
      children
    | '?' ->
      let children = flush_text st children in
      skip_pi st;
      parse_content st closing_tag children
    | '!' when looking_at st "<!--" ->
      let children = flush_text st children in
      skip_comment st;
      parse_content st closing_tag children
    | '!' when looking_at st "<![CDATA[" ->
      read_cdata st;
      parse_content st closing_tag children
    | _ ->
      let children = flush_text st children in
      let child = parse_element st in
      parse_content st closing_tag (child :: children))
  | '&' ->
    st.pos <- st.pos + 1;
    decode_entity st st.text;
    parse_content st closing_tag children
  | _ ->
    let j = index2 st st.pos '<' '&' in
    Buffer.add_substring st.text st.input st.pos (j - st.pos);
    st.pos <- j;
    parse_content st closing_tag children

and close_tag st closing_tag =
  (* at "</" *)
  st.pos <- st.pos + 2;
  let start = st.pos in
  st.pos <- name_end st;
  if
    not
      (st.pos - start = String.length closing_tag
      && matches_at st start closing_tag)
  then
    fail st
      (Printf.sprintf "mismatched closing tag </%s> (expected </%s>)"
         (String.sub st.input start (st.pos - start))
         closing_tag);
  skip_spaces st;
  if peek st <> '>' then fail st "expected '>' in closing tag";
  st.pos <- st.pos + 1

let parse_string ?(keep_whitespace = false) input =
  let st =
    {
      input;
      len = String.length input;
      pos = 0;
      keep_whitespace;
      text = Buffer.create 256;
      value = Buffer.create 64;
    }
  in
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
      st.pos <- st.pos + 9;
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

let error_message = function
  | Error { line; column; message } ->
    Some (Printf.sprintf "XML parse error at %d:%d: %s" line column message)
  | _exn -> None
