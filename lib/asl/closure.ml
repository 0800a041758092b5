exception Runtime_error of string

type signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

type t = {
  istore : Store.t;
  resolve : string -> string -> method_impl option;
  attr_defaults : string -> (string * Value.t) list;
  initial_fuel : int;
  mutable fuel : int;
  mutable signals : signal_out list;  (** reverse order *)
  mutable out_lines : string list;  (** reverse order *)
  i_metrics : Telemetry.Metrics.t;
  m_stmts : Telemetry.Metrics.counter;
  m_reads : Telemetry.Metrics.counter;
  m_writes : Telemetry.Metrics.counter;
}

and method_impl =
  | Builtin of (t -> self:Value.t -> Value.t list -> Value.t)
  | Body of body

and body = {
  b_param_slots : int array;  (** per parameter; [-1] when the body never uses it *)
  b_code : unit code;
}

and 'a code = {
  c_names : string array;  (** slot index -> local name *)
  c_run : frame -> 'a;
}

(* One frame per body execution: the interpreter state, the slots of
   the body's locals and [self].  Compiled closures receive the frame
   and capture nothing mutable, so one compiled body serves every
   interpreter, request and domain. *)
and frame = {
  st : t;
  slots : Value.t array;
  self_ : Value.t;
}

type program = unit code
type guard = Value.t code

(* [Return] unwinds to the enclosing body execution. *)
exception Returning of Value.t option

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

let create ?(fuel = 1_000_000) ?resolve ?attr_defaults
    ?(metrics = Telemetry.Metrics.null) istore =
  let resolve =
    match resolve with
    | Some r -> r
    | None -> fun _class _op -> None
  in
  let attr_defaults =
    match attr_defaults with
    | Some f -> f
    | None -> fun _class -> []
  in
  {
    istore;
    resolve;
    attr_defaults;
    initial_fuel = fuel;
    fuel;
    signals = [];
    out_lines = [];
    i_metrics = metrics;
    m_stmts = Telemetry.Metrics.counter metrics "asl.statements";
    m_reads = Telemetry.Metrics.counter metrics "asl.store_reads";
    m_writes = Telemetry.Metrics.counter metrics "asl.store_writes";
  }

let store st = st.istore
let metrics st = st.i_metrics

(* --- runtime helpers ----------------------------------------------- *)

(* One unit of fuel per AST node, taken at node entry (before any
   child runs), and one per loop iteration. *)
let tick st =
  if st.fuel <= 0 then fail "out of fuel (non-terminating model behavior?)";
  st.fuel <- st.fuel - 1

(* A slot nobody has assigned yet.  Compared physically: no program can
   build this block. *)
let unbound = Value.V_string (String.make 1 '\000')
let v_true = Value.V_bool true
let v_false = Value.V_bool false
let of_bool b = if b then v_true else v_false

let as_int = function
  | Value.V_int i -> i
  | v -> fail "expected Integer, got %s" (Value.type_name v)

let as_bool = function
  | Value.V_bool b -> b
  | v -> fail "expected Boolean, got %s" (Value.type_name v)

let as_obj st = function
  | Value.V_obj r ->
    if Store.is_alive st.istore r then r else fail "access to deleted object"
  | v -> fail "expected an object, got %s" (Value.type_name v)

let num2 name v1 v2 int_case real_case =
  match v1, v2 with
  | Value.V_int a, Value.V_int b -> Value.V_int (int_case a b)
  | Value.V_int a, Value.V_real b -> Value.V_real (real_case (float_of_int a) b)
  | Value.V_real a, Value.V_int b -> Value.V_real (real_case a (float_of_int b))
  | Value.V_real a, Value.V_real b -> Value.V_real (real_case a b)
  | v1, v2 ->
    fail "arithmetic %s on %s and %s" name (Value.type_name v1)
      (Value.type_name v2)

let cmp2 name v1 v2 =
  match v1, v2 with
  | Value.V_int a, Value.V_int b -> compare a b
  | Value.V_real a, Value.V_real b -> compare a b
  | Value.V_int a, Value.V_real b -> compare (float_of_int a) b
  | Value.V_real a, Value.V_int b -> compare a (float_of_int b)
  | Value.V_string a, Value.V_string b -> String.compare a b
  | v1, v2 ->
    fail "ordering %s on %s and %s" name (Value.type_name v1)
      (Value.type_name v2)

let value_eq v1 v2 =
  match v1, v2 with
  | Value.V_int a, Value.V_int b -> a = b
  | Value.V_int a, Value.V_real b -> float_of_int a = b
  | Value.V_real a, Value.V_int b -> a = float_of_int b
  | v1, v2 -> Value.equal v1 v2

(* The value of a binary operator on evaluated operands ([And]/[Or]
   short-circuit and never get here). *)
let binop (op : Ast.binop) v1 v2 =
  match op, v1, v2 with
  | Ast.Add, Value.V_int a, Value.V_int b -> Value.V_int (a + b)
  | Ast.Add, _, _ -> num2 "+" v1 v2 ( + ) ( +. )
  | Ast.Sub, Value.V_int a, Value.V_int b -> Value.V_int (a - b)
  | Ast.Sub, _, _ -> num2 "-" v1 v2 ( - ) ( -. )
  | Ast.Mul, Value.V_int a, Value.V_int b -> Value.V_int (a * b)
  | Ast.Mul, _, _ -> num2 "*" v1 v2 ( * ) ( *. )
  | Ast.Div, _, (Value.V_int 0 | Value.V_real 0.) -> fail "division by zero"
  | Ast.Div, _, _ -> num2 "/" v1 v2 ( / ) ( /. )
  | Ast.Mod, Value.V_int _, Value.V_int 0 -> fail "modulo by zero"
  | Ast.Mod, Value.V_int a, Value.V_int b -> Value.V_int (((a mod b) + b) mod b)
  | Ast.Mod, _, _ ->
    fail "mod on %s and %s" (Value.type_name v1) (Value.type_name v2)
  | Ast.Concat, _, _ -> Value.V_string (Value.to_string v1 ^ Value.to_string v2)
  | Ast.Eq, _, _ -> of_bool (value_eq v1 v2)
  | Ast.Ne, _, _ -> of_bool (not (value_eq v1 v2))
  | Ast.Lt, Value.V_int a, Value.V_int b -> of_bool (a < b)
  | Ast.Lt, _, _ -> of_bool (cmp2 "<" v1 v2 < 0)
  | Ast.Le, Value.V_int a, Value.V_int b -> of_bool (a <= b)
  | Ast.Le, _, _ -> of_bool (cmp2 "<=" v1 v2 <= 0)
  | Ast.Gt, Value.V_int a, Value.V_int b -> of_bool (a > b)
  | Ast.Gt, _, _ -> of_bool (cmp2 ">" v1 v2 > 0)
  | Ast.Ge, Value.V_int a, Value.V_int b -> of_bool (a >= b)
  | Ast.Ge, _, _ -> of_bool (cmp2 ">=" v1 v2 >= 0)
  | (Ast.And | Ast.Or), _, _ -> assert false

(* Execute a compiled body in a fresh frame; a [return] ends it. *)
let exec_body st (code : unit code) slots self_ =
  match code.c_run { st; slots; self_ } with
  | () -> None
  | exception Returning v -> v

(* Receiver, class and operation lookup happen after the arguments
   were evaluated. *)
let invoke f recv name args =
  let st = f.st in
  let self_value =
    match recv with
    | None -> f.self_
    | Some r -> r f
  in
  let class_name =
    match self_value with
    | Value.V_obj r -> (
      match Store.class_of st.istore r with
      | Some c -> c
      | None -> fail "operation call on deleted object")
    | v -> fail "operation call on %s" (Value.type_name v)
  in
  match st.resolve class_name name with
  | None -> fail "class %s has no operation %s" class_name name
  | Some (Builtin g) -> g st ~self:self_value args
  | Some (Body b) -> (
    let n_params = Array.length b.b_param_slots in
    let n_args = List.length args in
    if n_params <> n_args then
      fail "operation %s.%s expects %d arguments, got %d" class_name name
        n_params n_args;
    let slots = Array.make (Array.length b.b_code.c_names) unbound in
    (* in parameter order: a duplicated name keeps its last argument *)
    List.iteri
      (fun i v ->
        let s = b.b_param_slots.(i) in
        if s >= 0 then slots.(s) <- v)
      args;
    match exec_body st b.b_code slots self_value with
    | Some v -> v
    | None -> Value.V_null)

(* --- compilation ---------------------------------------------------- *)

(* Compile-time scope of one body: every distinct local name gets a
   slot, whether it is first met as a read, a [var], an assignment or
   a [for] variable. *)
type scope = (string, int) Hashtbl.t

let slot (sc : scope) name =
  match Hashtbl.find_opt sc name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length sc in
    Hashtbl.add sc name i;
    i

let names_of (sc : scope) =
  let names = Array.make (Hashtbl.length sc) "" in
  Hashtbl.iter (fun name i -> names.(i) <- name) sc;
  names

let const v f =
  tick f.st;
  v

(* Every statement starts by taking its tick and counting itself. *)
let enter st =
  tick st;
  Telemetry.Metrics.incr st.m_stmts

(* A one-argument builtin: the call's tick, then the argument. *)
let unary c k f =
  tick f.st;
  k f (c f)

let rec expr sc (e : Ast.expr) : frame -> Value.t =
  match e with
  | Ast.Int_lit i -> const (Value.V_int i)
  | Ast.Real_lit r -> const (Value.V_real r)
  | Ast.Bool_lit b -> const (of_bool b)
  | Ast.String_lit s -> const (Value.V_string s)
  | Ast.Null_lit -> const Value.V_null
  | Ast.Self ->
    fun f ->
      tick f.st;
      f.self_
  | Ast.Var name ->
    let i = slot sc name in
    fun f ->
      tick f.st;
      let v = f.slots.(i) in
      if v == unbound then fail "unbound variable %s" name else v
  | Ast.New class_name ->
    fun f ->
      let st = f.st in
      tick st;
      let attrs = st.attr_defaults class_name in
      Value.V_obj (Store.alloc st.istore ~class_name ~attrs)
  | Ast.Attr (obj_e, attr) -> (
    let obj = expr sc obj_e in
    fun f ->
      let st = f.st in
      tick st;
      let r = as_obj st (obj f) in
      Telemetry.Metrics.incr st.m_reads;
      match Store.get_attr st.istore r attr with
      | Some v -> v
      | None -> fail "object has no attribute %s" attr)
  | Ast.Unop (Ast.Neg, e1) -> (
    let c = expr sc e1 in
    fun f ->
      tick f.st;
      match c f with
      | Value.V_int i -> Value.V_int (-i)
      | Value.V_real r -> Value.V_real (-.r)
      | v -> fail "unary minus on %s" (Value.type_name v))
  | Ast.Unop (Ast.Not, e1) ->
    let c = expr sc e1 in
    fun f ->
      tick f.st;
      of_bool (not (as_bool (c f)))
  | Ast.Binop (Ast.And, e1, e2) ->
    let c1 = expr sc e1 in
    let c2 = expr sc e2 in
    fun f ->
      tick f.st;
      (* short-circuit *)
      of_bool (as_bool (c1 f) && as_bool (c2 f))
  | Ast.Binop (Ast.Or, e1, e2) ->
    let c1 = expr sc e1 in
    let c2 = expr sc e2 in
    fun f ->
      tick f.st;
      of_bool (as_bool (c1 f) || as_bool (c2 f))
  | Ast.Binop (op, e1, e2) ->
    let c1 = expr sc e1 in
    let c2 = expr sc e2 in
    fun f ->
      tick f.st;
      let v1 = c1 f in
      let v2 = c2 f in
      binop op v1 v2
  | Ast.Call (recv, name, args) -> call sc recv name args

(* A builtin only when called without a receiver and with its arity;
   [abs] of a non-number falls through to an operation of [self]. *)
and call sc recv name args =
  let recv = Option.map (expr sc) recv in
  let args = List.map (expr sc) args in
  match recv, name, args with
  | None, "abs", [ c ] ->
    unary c (fun f -> function
      | Value.V_int i -> Value.V_int (abs i)
      | Value.V_real r -> Value.V_real (Float.abs r)
      | v -> invoke f None name [ v ])
  | None, "to_string", [ c ] ->
    unary c (fun _f v -> Value.V_string (Value.to_string v))
  | None, "print", [ c ] ->
    unary c (fun f v ->
        f.st.out_lines <- Value.to_string v :: f.st.out_lines;
        Value.V_null)
  | None, (("min" | "max") as which), [ c1; c2 ] ->
    let keep_first = if which = "min" then fun c -> c <= 0 else fun c -> c >= 0 in
    fun f ->
      tick f.st;
      let v1 = c1 f in
      let v2 = c2 f in
      if keep_first (cmp2 which v1 v2) then v1 else v2
  | _other ->
    fun f ->
      tick f.st;
      (* stdlib [List.map] applies left to right *)
      let vs = List.map (fun c -> c f) args in
      invoke f recv name vs

and stmt sc (s : Ast.stmt) : frame -> unit =
  match s with
  | Ast.Skip -> fun f -> enter f.st
  | Ast.Var_decl (name, e) | Ast.Assign (Ast.L_var name, e) ->
    let i = slot sc name in
    let c = expr sc e in
    fun f ->
      enter f.st;
      f.slots.(i) <- c f
  | Ast.Assign (Ast.L_attr (obj_e, attr), e) ->
    let obj = expr sc obj_e in
    let c = expr sc e in
    fun f ->
      let st = f.st in
      enter st;
      let r = as_obj st (obj f) in
      let v = c f in
      Telemetry.Metrics.incr st.m_writes;
      if not (Store.set_attr st.istore r attr v) then
        fail "attribute write on deleted object"
  | Ast.Expr_stmt e ->
    let c = expr sc e in
    fun f ->
      enter f.st;
      ignore (c f : Value.t)
  | Ast.If (cond, then_branch, else_branch) ->
    let c = expr sc cond in
    let t = block sc then_branch in
    let e = block sc else_branch in
    fun f ->
      enter f.st;
      if as_bool (c f) then t f else e f
  | Ast.While (cond, body) ->
    let c = expr sc cond in
    let b = block sc body in
    fun f ->
      let st = f.st in
      enter st;
      while
        tick st;
        as_bool (c f)
      do
        b f
      done
  | Ast.For (name, low, high, body) ->
    let i = slot sc name in
    let lo = expr sc low in
    let hi = expr sc high in
    let b = block sc body in
    fun f ->
      let st = f.st in
      enter st;
      let lo = as_int (lo f) in
      let hi = as_int (hi f) in
      (* not a [for] loop: the counter wraps past [max_int] as it
         always has, and fuel ends the run *)
      let k = ref lo in
      while !k <= hi do
        tick st;
        f.slots.(i) <- Value.V_int !k;
        b f;
        incr k
      done
  | Ast.Return None ->
    fun f ->
      enter f.st;
      raise (Returning None)
  | Ast.Return (Some e) ->
    let c = expr sc e in
    fun f ->
      enter f.st;
      raise (Returning (Some (c f)))
  | Ast.Send (signal, args, target) ->
    let args = List.map (expr sc) args in
    let target = Option.map (expr sc) target in
    fun f ->
      let st = f.st in
      enter st;
      let sig_args = List.map (fun c -> c f) args in
      let sig_target = Option.map (fun c -> c f) target in
      st.signals <- { sig_name = signal; sig_args; sig_target } :: st.signals
  | Ast.Delete e ->
    let c = expr sc e in
    fun f ->
      let st = f.st in
      enter st;
      let r = as_obj st (c f) in
      ignore (Store.delete st.istore r : bool)

and block sc stmts =
  match List.map (stmt sc) stmts with
  | [] -> fun _f -> ()
  | [ s ] -> s
  | [ s1; s2 ] ->
    fun f ->
      s1 f;
      s2 f
  | stmts ->
    let stmts = Array.of_list stmts in
    fun f ->
      for k = 0 to Array.length stmts - 1 do
        stmts.(k) f
      done

let with_scope compile x =
  let sc = Hashtbl.create 8 in
  let c_run = compile sc x in
  { c_names = names_of sc; c_run }

let program prog = with_scope block prog
let guard e = with_scope expr e

(* The slot of [name] in a compiled body, [-1] when the body never
   mentions it. *)
let slot_of (code : _ code) name =
  let rec go i =
    if i = Array.length code.c_names then -1
    else if String.equal code.c_names.(i) name then i
    else go (i + 1)
  in
  go 0

let body params prog =
  let code = program prog in
  Body
    {
      b_param_slots = Array.of_list (List.map (slot_of code) params);
      b_code = code;
    }

(* --- execution ------------------------------------------------------- *)

(* A frame for a top-level run: params bind by name in order, so a later
   duplicate wins, and names the body never uses are dropped. *)
let top_slots code params =
  let slots = Array.make (Array.length code.c_names) unbound in
  List.iter
    (fun (name, v) ->
      let i = slot_of code name in
      if i >= 0 then slots.(i) <- v)
    params;
  slots

let run ?(self_ = Value.V_null) ?(params = []) st (code : program) =
  st.fuel <- st.initial_fuel;
  exec_body st code (top_slots code params) self_

let eval ?(self_ = Value.V_null) ?(params = []) st (code : guard) =
  st.fuel <- st.initial_fuel;
  code.c_run { st; slots = top_slots code params; self_ }

let drain_signals st =
  let out = List.rev st.signals in
  st.signals <- [];
  out

let output st = List.rev st.out_lines
let clear_output st = st.out_lines <- []
