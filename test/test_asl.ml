(* Tests for the action language: lexer, parser, typechecker,
   interpreter. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* --- lexer -------------------------------------------------------------- *)

let lexer_tests =
  [
    tc "numbers, idents, operators" (fun () ->
        let toks = Asl.Lexer.tokenize "x := 1 + 2.5;" in
        check Alcotest.int "count" 7 (List.length toks);
        check Alcotest.bool "assign" true
          (List.exists (Asl.Lexer.equal_token Asl.Lexer.ASSIGN) toks));
    tc "keywords are not idents" (fun () ->
        match Asl.Lexer.tokenize "if then else end" with
        | [ Asl.Lexer.KW_IF; Asl.Lexer.KW_THEN; Asl.Lexer.KW_ELSE;
            Asl.Lexer.KW_END; Asl.Lexer.EOF ] ->
          ()
        | _other -> Alcotest.fail "keyword tokens expected");
    tc "string literal with escapes" (fun () ->
        match Asl.Lexer.tokenize "\"a\\nb\"" with
        | [ Asl.Lexer.STRING s; Asl.Lexer.EOF ] ->
          check Alcotest.string "escape" "a\nb" s
        | _other -> Alcotest.fail "string token expected");
    tc "comments skipped" (fun () ->
        match Asl.Lexer.tokenize "1 // comment\n 2" with
        | [ Asl.Lexer.INT 1; Asl.Lexer.INT 2; Asl.Lexer.EOF ] -> ()
        | _other -> Alcotest.fail "two ints expected");
    tc "two-char operators" (fun () ->
        match Asl.Lexer.tokenize "<> <= >= :=" with
        | [ Asl.Lexer.NE; Asl.Lexer.LE; Asl.Lexer.GE; Asl.Lexer.ASSIGN;
            Asl.Lexer.EOF ] ->
          ()
        | _other -> Alcotest.fail "operator tokens expected");
    tc "bad character raises" (fun () ->
        match Asl.Lexer.tokenize "@" with
        | _toks -> Alcotest.fail "expected Lex_error"
        | exception Asl.Lexer.Lex_error _ -> ());
    tc "overflowing integer literal raises Lex_error" (fun () ->
        match Asl.Lexer.tokenize "x := 123456789012345678901;" with
        | _toks -> Alcotest.fail "expected Lex_error"
        | exception Asl.Lexer.Lex_error { position; _ } ->
          check Alcotest.int "position" 5 position);
    tc "overflowing real literal raises Lex_error" (fun () ->
        (* a mantissa far beyond the float range *)
        let lit = String.make 400 '9' ^ ".0" in
        match Asl.Lexer.tokenize lit with
        | [ Asl.Lexer.REAL r; Asl.Lexer.EOF ] ->
          (* float_of_string saturates to infinity rather than failing;
             accept either behavior as long as nothing escapes *)
          check Alcotest.bool "infinite" true (r = infinity)
        | _toks -> Alcotest.fail "one real token expected"
        | exception Asl.Lexer.Lex_error _ -> ());
  ]

(* --- parser -------------------------------------------------------------- *)

let parse_e = Asl.Parser.parse_expression
let parse_p = Asl.Parser.parse_program

let parser_tests =
  [
    tc "precedence: mul over add" (fun () ->
        check Alcotest.bool "1+2*3" true
          (Asl.Ast.equal_expr (parse_e "1 + 2 * 3")
             (Asl.Ast.Binop
                ( Asl.Ast.Add,
                  Asl.Ast.Int_lit 1,
                  Asl.Ast.Binop (Asl.Ast.Mul, Asl.Ast.Int_lit 2, Asl.Ast.Int_lit 3) ))));
    tc "precedence: and over or" (fun () ->
        check Alcotest.bool "a or b and c" true
          (Asl.Ast.equal_expr
             (parse_e "true or false and false")
             (Asl.Ast.Binop
                ( Asl.Ast.Or,
                  Asl.Ast.Bool_lit true,
                  Asl.Ast.Binop
                    (Asl.Ast.And, Asl.Ast.Bool_lit false, Asl.Ast.Bool_lit false) ))));
    tc "comparison binds looser than arithmetic" (fun () ->
        match parse_e "x + 1 > y * 2" with
        | Asl.Ast.Binop (Asl.Ast.Gt, _, _) -> ()
        | _other -> Alcotest.fail "top operator must be >");
    tc "postfix attribute chains" (fun () ->
        check Alcotest.bool "a.b.c" true
          (Asl.Ast.equal_expr (parse_e "a.b.c")
             (Asl.Ast.Attr (Asl.Ast.Attr (Asl.Ast.Var "a", "b"), "c"))));
    tc "method call with arguments" (fun () ->
        match parse_e "self.f(1, x)" with
        | Asl.Ast.Call (Some Asl.Ast.Self, "f", [ _; _ ]) -> ()
        | _other -> Alcotest.fail "call expected");
    tc "parenthesized grouping" (fun () ->
        match parse_e "(1 + 2) * 3" with
        | Asl.Ast.Binop (Asl.Ast.Mul, Asl.Ast.Binop (Asl.Ast.Add, _, _), _) -> ()
        | _other -> Alcotest.fail "mul of sum expected");
    tc "statement forms" (fun () ->
        let p =
          parse_p
            "var x := 1; x := x + 1; if x > 1 then y := 1; else y := 2; end; \
             while x < 5 do x := x + 1; end; for i := 1 to 3 do x := x + i; \
             end; send done(x) to self; return x;"
        in
        check Alcotest.int "seven statements" 7 (List.length p));
    tc "if without else" (fun () ->
        match parse_p "if true then x := 1; end;" with
        | [ Asl.Ast.If (_, [ _ ], []) ] -> ()
        | _other -> Alcotest.fail "if expected");
    tc "attribute assignment" (fun () ->
        match parse_p "self.x := 2;" with
        | [ Asl.Ast.Assign (Asl.Ast.L_attr (Asl.Ast.Self, "x"), _) ] -> ()
        | _other -> Alcotest.fail "attr assign expected");
    tc "new and delete" (fun () ->
        match parse_p "var c := new Counter; delete c;" with
        | [ Asl.Ast.Var_decl ("c", Asl.Ast.New "Counter");
            Asl.Ast.Delete (Asl.Ast.Var "c") ] ->
          ()
        | _other -> Alcotest.fail "new/delete expected");
    tc "parse error on garbage" (fun () ->
        match parse_p "if if;" with
        | _p -> Alcotest.fail "expected Parse_error"
        | exception Asl.Parser.Parse_error _ -> ());
    tc "assignment to literal rejected" (fun () ->
        match parse_p "1 := 2;" with
        | _p -> Alcotest.fail "expected Parse_error"
        | exception Asl.Parser.Parse_error _ -> ());
  ]

(* --- typechecker -------------------------------------------------------- *)

let info_ab : Asl.Typecheck.class_info =
  {
    Asl.Typecheck.class_exists = (fun n -> n = "A" || n = "B");
    attr_type =
      (fun c a ->
        match c, a with
        | "A", "x" -> Some Asl.Typecheck.T_int
        | "A", "peer" -> Some (Asl.Typecheck.T_obj (Some "B"))
        | "B", "flag" -> Some Asl.Typecheck.T_bool
        | _other -> None);
    op_signature =
      (fun c o ->
        match c, o with
        | "A", "inc" -> Some ([ Asl.Typecheck.T_int ], Asl.Typecheck.T_int)
        | _other -> None);
  }

let ok_program ?self_class src =
  match Asl.Typecheck.check_program ?self_class info_ab (parse_p src) with
  | Ok () -> true
  | Error _ -> false

let errors_of ?self_class src =
  match Asl.Typecheck.check_program ?self_class info_ab (parse_p src) with
  | Ok () -> []
  | Error es -> es

let typecheck_tests =
  [
    tc "well-typed program accepted" (fun () ->
        check Alcotest.bool "ok" true
          (ok_program ~self_class:"A"
             "var y := self.x + 1; if y > 0 then self.x := y; end;"));
    tc "unbound variable reported" (fun () ->
        check Alcotest.bool "err" true (errors_of "x := zz + 1;" <> []));
    tc "condition must be boolean" (fun () ->
        check Alcotest.bool "err" true
          (errors_of "if 1 then x := 1; end;" <> []));
    tc "unknown attribute reported" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "y := self.ghost;" <> []));
    tc "attribute through object chain" (fun () ->
        check Alcotest.bool "ok" true
          (ok_program ~self_class:"A" "var f := self.peer.flag;"));
    tc "operation arity checked" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "y := self.inc(1, 2);" <> []));
    tc "operation argument type checked" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "y := self.inc(true);" <> []));
    tc "for bounds must be integers" (fun () ->
        check Alcotest.bool "err" true
          (errors_of "for i := true to 3 do x := i; end;" <> []));
    tc "int promotes to real" (fun () ->
        check Alcotest.bool "ok" true (ok_program "var r := 1.5 + 2;"));
    tc "guard must be boolean" (fun () ->
        check Alcotest.bool "bad" true
          (Asl.Typecheck.check_guard Asl.Typecheck.no_classes "1 + 2"
          <> Ok ());
        check Alcotest.bool "good" true
          (Asl.Typecheck.check_guard Asl.Typecheck.no_classes "1 < 2" = Ok ()));
    tc "unknown class in new" (fun () ->
        check Alcotest.bool "err" true (errors_of "var c := new Ghost;" <> []));
    tc "concat needs a string operand" (fun () ->
        check Alcotest.bool "err" true (errors_of "x := 1 & 2;" <> []);
        check Alcotest.bool "ok" true (ok_program "x := \"n=\" & 2;"));
    tc "send target must be an object" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "send go() to 42;" <> []);
        check Alcotest.bool "ok" true
          (ok_program ~self_class:"A" "send go() to self.peer;"));
    tc "attribute assignment type mismatch" (fun () ->
        check Alcotest.bool "err" true
          (errors_of ~self_class:"A" "self.x := \"oops\";" <> []);
        check Alcotest.bool "ok" true
          (ok_program ~self_class:"A" "self.x := 7;"));
    tc "delete on non-object is rejected" (fun () ->
        check Alcotest.bool "err" true (errors_of "delete 3;" <> []));
  ]

(* --- interpreter ---------------------------------------------------------- *)

let run_int ?fuel ?resolve ?self_ ?params src =
  let store = Asl.Store.create () in
  let interp = Asl.Interp.create ?fuel ?resolve store in
  Asl.Interp.run_source ?self_ ?params interp src

let interp_tests =
  [
    tc "arithmetic and return" (fun () ->
        check Alcotest.bool "7" true
          (run_int "return 1 + 2 * 3;" = Some (Asl.Value.V_int 7)));
    tc "mod is mathematical" (fun () ->
        check Alcotest.bool "2" true
          (run_int "return (-3) mod 5;" = Some (Asl.Value.V_int 2)));
    tc "division by zero raises" (fun () ->
        match run_int "return 1 / 0;" with
        | _v -> Alcotest.fail "expected Runtime_error"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "while loop" (fun () ->
        check Alcotest.bool "10" true
          (run_int "var x := 0; while x < 10 do x := x + 1; end; return x;"
          = Some (Asl.Value.V_int 10)));
    tc "for loop accumulates" (fun () ->
        check Alcotest.bool "55" true
          (run_int
             "var s := 0; for i := 1 to 10 do s := s + i; end; return s;"
          = Some (Asl.Value.V_int 55)));
    tc "short-circuit and" (fun () ->
        (* would raise division by zero if not short-circuited *)
        check Alcotest.bool "false" true
          (run_int "return false and (1 / 0 = 1);"
          = Some (Asl.Value.V_bool false)));
    tc "short-circuit or" (fun () ->
        check Alcotest.bool "true" true
          (run_int "return true or (1 / 0 = 1);"
          = Some (Asl.Value.V_bool true)));
    tc "string concatenation" (fun () ->
        check Alcotest.bool "ab1" true
          (run_int "return \"ab\" & 1;" = Some (Asl.Value.V_string "ab1")));
    tc "builtins" (fun () ->
        check Alcotest.bool "abs" true
          (run_int "return abs(-4);" = Some (Asl.Value.V_int 4));
        check Alcotest.bool "min" true
          (run_int "return min(3, 7);" = Some (Asl.Value.V_int 3));
        check Alcotest.bool "max" true
          (run_int "return max(3, 7);" = Some (Asl.Value.V_int 7)));
    tc "print collects output" (fun () ->
        let store = Asl.Store.create () in
        let interp = Asl.Interp.create store in
        let _r = Asl.Interp.run_source interp "print(1); print(\"two\");" in
        check (Alcotest.list Alcotest.string) "lines" [ "1"; "two" ]
          (Asl.Interp.output interp));
    tc "objects: new, attrs, delete" (fun () ->
        let store = Asl.Store.create () in
        let interp =
          Asl.Interp.create
            ~attr_defaults:(fun _cl -> [ ("x", Asl.Value.V_int 0) ])
            store
        in
        let r =
          Asl.Interp.run_source interp
            "var c := new Counter; c.x := 41; c.x := c.x + 1; return c.x;"
        in
        check Alcotest.bool "42" true (r = Some (Asl.Value.V_int 42));
        check Alcotest.int "live" 1 (Asl.Store.live_count store);
        let _r2 =
          Asl.Interp.run_source interp "var d := new Counter; delete d;"
        in
        check Alcotest.int "still one" 1 (Asl.Store.live_count store));
    tc "deleted object access raises" (fun () ->
        match
          run_int "var c := new K; delete c; return c.x;"
        with
        | _v -> Alcotest.fail "expected Runtime_error"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "method dispatch through resolver" (fun () ->
        let resolve cl op =
          match cl, op with
          | "K", "double" ->
            Some
              (Asl.Interp.body [ "n" ]
                 (Asl.Parser.parse_program "return n * 2;"))
          | _other -> None
        in
        check Alcotest.bool "84" true
          (run_int ~resolve "var k := new K; return k.double(42);"
          = Some (Asl.Value.V_int 84)));
    tc "recursive method bounded by fuel" (fun () ->
        let resolve cl op =
          match cl, op with
          | "K", "loop" ->
            Some
              (Asl.Interp.body [] (Asl.Parser.parse_program "self.loop();"))
          | _other -> None
        in
        match run_int ~fuel:20_000 ~resolve "var k := new K; k.loop();" with
        | _v -> Alcotest.fail "expected fuel exhaustion"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "infinite while bounded by fuel" (fun () ->
        match run_int ~fuel:20_000 "while true do ; end;" with
        | _v -> Alcotest.fail "expected fuel exhaustion"
        | exception Asl.Interp.Runtime_error _ -> ());
    tc "send collects signals" (fun () ->
        let store = Asl.Store.create () in
        let interp = Asl.Interp.create store in
        let _r =
          Asl.Interp.run_source interp "send go(1); send stop() to null;"
        in
        match Asl.Interp.drain_signals interp with
        | [ s1; s2 ] ->
          check Alcotest.string "go" "go" s1.Asl.Interp.sig_name;
          check Alcotest.string "stop" "stop" s2.Asl.Interp.sig_name;
          check Alcotest.int "drained" 0
            (List.length (Asl.Interp.drain_signals interp))
        | _other -> Alcotest.fail "two signals expected");
    tc "eval_guard" (fun () ->
        let store = Asl.Store.create () in
        let interp = Asl.Interp.create store in
        check Alcotest.bool "true" true
          (Asl.Interp.eval_guard ~params:[ ("x", Asl.Value.V_int 5) ] interp
             "x > 3");
        check Alcotest.bool "false" false
          (Asl.Interp.eval_guard ~params:[ ("x", Asl.Value.V_int 2) ] interp
             "x > 3"));
    tc "params are visible" (fun () ->
        check Alcotest.bool "sum" true
          (run_int
             ~params:[ ("a", Asl.Value.V_int 2); ("b", Asl.Value.V_int 3) ]
             "return a + b;"
          = Some (Asl.Value.V_int 5)));
    tc "comparison across int and real" (fun () ->
        check Alcotest.bool "eq" true
          (run_int "return 2 = 2.0;" = Some (Asl.Value.V_bool true)));
    tc "var declared in a branch is visible after" (fun () ->
        check Alcotest.bool "3" true
          (run_int "if true then var z := 3; end; return z;"
          = Some (Asl.Value.V_int 3)));
    tc "untaken branch leaves a variable unbound" (fun () ->
        match run_int "if false then z := 1; end; return z;" with
        | _v -> Alcotest.fail "expected Runtime_error"
        | exception Asl.Interp.Runtime_error m ->
          check Alcotest.string "message" "unbound variable z" m);
    tc "for variable after the loop" (fun () ->
        check Alcotest.bool "last value" true
          (run_int "for k := 1 to 4 do ; end; return k;"
          = Some (Asl.Value.V_int 4));
        check Alcotest.bool "empty loop leaves it" true
          (run_int "k := 9; for k := 5 to 1 do ; end; return k;"
          = Some (Asl.Value.V_int 9)));
    tc "guards read event and e1" (fun () ->
        let open Uml.Smachine in
        let a = simple_state "A" and b = simple_state "B" in
        let init = pseudostate Initial in
        let sm =
          make "G"
            [
              region
                [ Pseudo init; State a; State b ]
                [
                  transition ~source:init.ps_id ~target:a.st_id ();
                  transition
                    ~triggers:[ Signal_trigger "go" ]
                    ~guard:"event = \"go\" and e1 > 2" ~source:a.st_id
                    ~target:b.st_id ();
                ];
            ]
        in
        let engine = Statechart.Engine.create sm in
        Statechart.Engine.start engine;
        let go n =
          Statechart.Engine.dispatch engine
            (Statechart.Event.make ~args:[ Asl.Value.V_int n ] "go");
          Statechart.Engine.active_leaf_names engine
        in
        check (Alcotest.list Alcotest.string) "e1 = 1 blocks" [ "A" ] (go 1);
        check (Alcotest.list Alcotest.string) "e1 = 3 fires" [ "B" ] (go 3));
    tc "call arguments run before the receiver" (fun () ->
        let interp = Asl.Interp.create (Asl.Store.create ()) in
        (match
           Asl.Interp.run_source interp
             "return r.twice(print(\"arg\"));"
         with
        | _v -> Alcotest.fail "expected Runtime_error"
        | exception Asl.Interp.Runtime_error m ->
          check Alcotest.string "receiver fails" "unbound variable r" m);
        check (Alcotest.list Alcotest.string) "argument ran" [ "arg" ]
          (Asl.Interp.output interp));
    tc "prints before out of fuel" (fun () ->
        (* a while statement, then per iteration: loop tick, condition,
           statement, call, argument — print fires after the argument *)
        let lines fuel =
          let interp = Asl.Interp.create ~fuel (Asl.Store.create ()) in
          match Asl.Interp.run_source interp "while true do print(1); end;" with
          | _v -> Alcotest.fail "expected fuel exhaustion"
          | exception Asl.Interp.Runtime_error _ ->
            List.length (Asl.Interp.output interp)
        in
        check Alcotest.int "fuel 20" 3 (lines 20);
        check Alcotest.int "fuel 21" 4 (lines 21));
  ]

(* --- differential: compiled evaluator vs the tree walker --------------- *)

(* The tree-walking evaluator the closure compiler replaced, kept here as
   the simpler oracle: a frame is a name-keyed [Hashtbl], every node
   re-dispatches on the AST.  Operation bodies are ASTs; the state
   counts statements and store traffic the way the interpreter's
   [asl.*] counters do. *)
module Oracle = struct
  module V = Asl.Value
  module A = Asl.Ast

  exception Error of string
  exception Returning of V.t option

  type t = {
    store : Asl.Store.t;
    resolve : string -> string -> (string list * A.program) option;
    attr_defaults : string -> (string * V.t) list;
    mutable fuel : int;
    mutable signals : (string * V.t list * V.t option) list;
    mutable out : string list;
    mutable stmts : int;
    mutable reads : int;
    mutable writes : int;
  }

  type frame = {
    locals : (string, V.t) Hashtbl.t;
    self_ : V.t;
  }

  let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

  let tick t =
    if t.fuel <= 0 then fail "out of fuel (non-terminating model behavior?)";
    t.fuel <- t.fuel - 1

  let as_int = function
    | V.V_int i -> i
    | v -> fail "expected Integer, got %s" (V.type_name v)

  let as_bool = function
    | V.V_bool b -> b
    | v -> fail "expected Boolean, got %s" (V.type_name v)

  let as_obj t = function
    | V.V_obj r ->
      if Asl.Store.is_alive t.store r then r
      else fail "access to deleted object"
    | v -> fail "expected an object, got %s" (V.type_name v)

  let num2 name v1 v2 int_case real_case =
    match v1, v2 with
    | V.V_int a, V.V_int b -> V.V_int (int_case a b)
    | V.V_int a, V.V_real b -> V.V_real (real_case (float_of_int a) b)
    | V.V_real a, V.V_int b -> V.V_real (real_case a (float_of_int b))
    | V.V_real a, V.V_real b -> V.V_real (real_case a b)
    | v1, v2 ->
      fail "arithmetic %s on %s and %s" name (V.type_name v1) (V.type_name v2)

  let cmp2 name v1 v2 =
    match v1, v2 with
    | V.V_int a, V.V_int b -> compare a b
    | V.V_real a, V.V_real b -> compare a b
    | V.V_int a, V.V_real b -> compare (float_of_int a) b
    | V.V_real a, V.V_int b -> compare a (float_of_int b)
    | V.V_string a, V.V_string b -> String.compare a b
    | v1, v2 ->
      fail "ordering %s on %s and %s" name (V.type_name v1) (V.type_name v2)

  let value_eq v1 v2 =
    match v1, v2 with
    | V.V_int a, V.V_real b -> float_of_int a = b
    | V.V_real a, V.V_int b -> a = float_of_int b
    | v1, v2 -> V.equal v1 v2

  let rec eval_expr t frame (e : A.expr) : V.t =
    tick t;
    match e with
    | A.Int_lit i -> V.V_int i
    | A.Real_lit r -> V.V_real r
    | A.Bool_lit b -> V.V_bool b
    | A.String_lit s -> V.V_string s
    | A.Null_lit -> V.V_null
    | A.Self -> frame.self_
    | A.Var name -> (
      match Hashtbl.find_opt frame.locals name with
      | Some v -> v
      | None -> fail "unbound variable %s" name)
    | A.New class_name ->
      let attrs = t.attr_defaults class_name in
      V.V_obj (Asl.Store.alloc t.store ~class_name ~attrs)
    | A.Attr (obj_e, attr) -> (
      let r = as_obj t (eval_expr t frame obj_e) in
      t.reads <- t.reads + 1;
      match Asl.Store.get_attr t.store r attr with
      | Some v -> v
      | None -> fail "object has no attribute %s" attr)
    | A.Unop (A.Neg, e1) -> (
      match eval_expr t frame e1 with
      | V.V_int i -> V.V_int (-i)
      | V.V_real r -> V.V_real (-.r)
      | v -> fail "unary minus on %s" (V.type_name v))
    | A.Unop (A.Not, e1) -> V.V_bool (not (as_bool (eval_expr t frame e1)))
    | A.Binop (A.And, e1, e2) ->
      if as_bool (eval_expr t frame e1) then
        V.V_bool (as_bool (eval_expr t frame e2))
      else V.V_bool false
    | A.Binop (A.Or, e1, e2) ->
      if as_bool (eval_expr t frame e1) then V.V_bool true
      else V.V_bool (as_bool (eval_expr t frame e2))
    | A.Binop (op, e1, e2) ->
      let v1 = eval_expr t frame e1 in
      let v2 = eval_expr t frame e2 in
      eval_binop op v1 v2
    | A.Call (recv, name, args) -> eval_call t frame recv name args

  and eval_binop op v1 v2 =
    match op with
    | A.Add -> num2 "+" v1 v2 ( + ) ( +. )
    | A.Sub -> num2 "-" v1 v2 ( - ) ( -. )
    | A.Mul -> num2 "*" v1 v2 ( * ) ( *. )
    | A.Div -> (
      match v1, v2 with
      | _any, V.V_int 0 -> fail "division by zero"
      | _any, V.V_real 0. -> fail "division by zero"
      | v1, v2 -> num2 "/" v1 v2 ( / ) ( /. ))
    | A.Mod -> (
      match v1, v2 with
      | V.V_int _, V.V_int 0 -> fail "modulo by zero"
      | V.V_int a, V.V_int b -> V.V_int (((a mod b) + b) mod b)
      | v1, v2 -> fail "mod on %s and %s" (V.type_name v1) (V.type_name v2))
    | A.Concat -> V.V_string (V.to_string v1 ^ V.to_string v2)
    | A.Eq -> V.V_bool (value_eq v1 v2)
    | A.Ne -> V.V_bool (not (value_eq v1 v2))
    | A.Lt -> V.V_bool (cmp2 "<" v1 v2 < 0)
    | A.Le -> V.V_bool (cmp2 "<=" v1 v2 <= 0)
    | A.Gt -> V.V_bool (cmp2 ">" v1 v2 > 0)
    | A.Ge -> V.V_bool (cmp2 ">=" v1 v2 >= 0)
    | A.And | A.Or -> assert false

  and eval_call t frame recv name args =
    let arg_values = List.map (eval_expr t frame) args in
    match recv, name, arg_values with
    | None, "abs", [ V.V_int i ] -> V.V_int (abs i)
    | None, "abs", [ V.V_real r ] -> V.V_real (Float.abs r)
    | None, "min", [ v1; v2 ] -> if cmp2 "min" v1 v2 <= 0 then v1 else v2
    | None, "max", [ v1; v2 ] -> if cmp2 "max" v1 v2 >= 0 then v1 else v2
    | None, "to_string", [ v ] -> V.V_string (V.to_string v)
    | None, "print", [ v ] ->
      t.out <- V.to_string v :: t.out;
      V.V_null
    | _other -> (
      let self_value =
        match recv with
        | None -> frame.self_
        | Some r -> eval_expr t frame r
      in
      let class_name =
        match self_value with
        | V.V_obj r -> (
          match Asl.Store.class_of t.store r with
          | Some c -> c
          | None -> fail "operation call on deleted object")
        | v -> fail "operation call on %s" (V.type_name v)
      in
      match t.resolve class_name name with
      | None -> fail "class %s has no operation %s" class_name name
      | Some (param_names, body) -> (
        if List.length param_names <> List.length arg_values then
          fail "operation %s.%s expects %d arguments, got %d" class_name name
            (List.length param_names) (List.length arg_values);
        let locals = Hashtbl.create 8 in
        List.iter2 (fun p v -> Hashtbl.replace locals p v) param_names
          arg_values;
        match exec_block t { locals; self_ = self_value } body with
        | () -> V.V_null
        | exception Returning v -> Option.value v ~default:V.V_null))

  and exec_block t frame stmts = List.iter (exec_stmt t frame) stmts

  and exec_stmt t frame (s : A.stmt) =
    tick t;
    t.stmts <- t.stmts + 1;
    match s with
    | A.Skip -> ()
    | A.Var_decl (name, e) | A.Assign (A.L_var name, e) ->
      Hashtbl.replace frame.locals name (eval_expr t frame e)
    | A.Assign (A.L_attr (obj_e, attr), e) ->
      let r = as_obj t (eval_expr t frame obj_e) in
      let v = eval_expr t frame e in
      t.writes <- t.writes + 1;
      if not (Asl.Store.set_attr t.store r attr v) then
        fail "attribute write on deleted object"
    | A.Expr_stmt e -> ignore (eval_expr t frame e)
    | A.If (cond, then_branch, else_branch) ->
      if as_bool (eval_expr t frame cond) then exec_block t frame then_branch
      else exec_block t frame else_branch
    | A.While (cond, body) ->
      let rec loop () =
        tick t;
        if as_bool (eval_expr t frame cond) then begin
          exec_block t frame body;
          loop ()
        end
      in
      loop ()
    | A.For (name, low, high, body) ->
      let lo = as_int (eval_expr t frame low) in
      let hi = as_int (eval_expr t frame high) in
      let rec loop i =
        if i <= hi then begin
          tick t;
          Hashtbl.replace frame.locals name (V.V_int i);
          exec_block t frame body;
          loop (i + 1)
        end
      in
      loop lo
    | A.Return None -> raise (Returning None)
    | A.Return (Some e) -> raise (Returning (Some (eval_expr t frame e)))
    | A.Send (signal, args, target) ->
      let arg_values = List.map (eval_expr t frame) args in
      let target_value = Option.map (eval_expr t frame) target in
      t.signals <- (signal, arg_values, target_value) :: t.signals
    | A.Delete e ->
      let r = as_obj t (eval_expr t frame e) in
      ignore (Asl.Store.delete t.store r)

  let run t ~self_ ~params prog =
    let locals = Hashtbl.create 8 in
    List.iter (fun (k, v) -> Hashtbl.replace locals k v) params;
    match exec_block t { locals; self_ } prog with
    | () -> None
    | exception Returning v -> v
end

(* Operations of class [K] the generated programs call: a duplicated
   parameter ([pick]: the last argument wins) and a body without
   [return]. *)
let diff_methods =
  [
    ("twice", ([ "n" ], "return n * 2;"));
    ("pick", ([ "n"; "m"; "n" ], "return n;"));
    ("bump", ([], "self.x := self.x + 1; print(self.x);"));
  ]

let diff_attrs = [ ("x", Asl.Value.V_int 0); ("s", Asl.Value.V_string "s") ]

(* Everything a run can show: the result or error message, the print
   lines, the drained signals, [self]'s attributes, the live object
   count and the three [asl.*] counters. *)
type diff_outcome = {
  d_result : (Asl.Value.t option, string) result;
  d_prints : string list;
  d_signals : (string * Asl.Value.t list * Asl.Value.t option) list;
  d_self : (string * Asl.Value.t) list;
  d_live : int;
  d_counts : int * int * int;
}

let fresh_self () =
  let store = Asl.Store.create () in
  let self_ref = Asl.Store.alloc store ~class_name:"K" ~attrs:diff_attrs in
  (store, self_ref)

let run_compiled_outcome ~fuel ~params prog =
  let store, self_ref = fresh_self () in
  let methods =
    List.map
      (fun (name, (ps, src)) ->
        (name, Asl.Interp.body ps (Asl.Parser.parse_program src)))
      diff_methods
  in
  let resolve cl op = if cl = "K" then List.assoc_opt op methods else None in
  let reg = Telemetry.Metrics.create () in
  let interp =
    Asl.Interp.create ~fuel ~resolve
      ~attr_defaults:(fun _ -> diff_attrs)
      ~metrics:reg store
  in
  let d_result =
    match
      Asl.Interp.run ~self_:(Asl.Value.V_obj self_ref) ~params interp prog
    with
    | v -> Ok v
    | exception Asl.Interp.Runtime_error m -> Error m
  in
  let count name =
    Telemetry.Metrics.counter_value (Telemetry.Metrics.counter reg name)
  in
  {
    d_result;
    d_prints = Asl.Interp.output interp;
    d_signals =
      List.map
        (fun (s : Asl.Interp.signal_out) ->
          (s.Asl.Interp.sig_name, s.Asl.Interp.sig_args, s.Asl.Interp.sig_target))
        (Asl.Interp.drain_signals interp);
    d_self = Asl.Store.attrs store self_ref;
    d_live = Asl.Store.live_count store;
    d_counts =
      (count "asl.statements", count "asl.store_reads", count "asl.store_writes");
  }

let run_oracle_outcome ~fuel ~params prog =
  let store, self_ref = fresh_self () in
  let resolve cl op =
    if cl = "K" then
      Option.map
        (fun (ps, src) -> (ps, Asl.Parser.parse_program src))
        (List.assoc_opt op diff_methods)
    else None
  in
  let t =
    {
      Oracle.store;
      resolve;
      attr_defaults = (fun _ -> diff_attrs);
      fuel;
      signals = [];
      out = [];
      stmts = 0;
      reads = 0;
      writes = 0;
    }
  in
  let d_result =
    match Oracle.run t ~self_:(Asl.Value.V_obj self_ref) ~params prog with
    | v -> Ok v
    | exception Oracle.Error m -> Error m
  in
  {
    d_result;
    d_prints = List.rev t.Oracle.out;
    d_signals = List.rev t.Oracle.signals;
    d_self = Asl.Store.attrs store self_ref;
    d_live = Asl.Store.live_count store;
    d_counts = (t.Oracle.stmts, t.Oracle.reads, t.Oracle.writes);
  }

(* [test_dataflow]'s program generator, widened to every construct the
   compiler handles: attributes of [self], every operator (division and
   [mod] by zero included), real and string literals, the builtins,
   operation calls with and without a receiver, sends with a target,
   [return], nested loops, reads of never-assigned [d].  Expressions are
   mostly well typed, so runs get past their first statement; a few are
   wild, so every error path is reached too. *)
let gen_diff_program =
  let open QCheck.Gen in
  let open Asl.Ast in
  let ivar =
    frequency
      [ (12, oneofl [ "a"; "b"; "c" ]); (2, return "p"); (1, return "d") ]
  in
  let int_e =
    fix
      (fun self depth ->
        let leaf =
          frequency
            [
              (3, map (fun n -> Int_lit n) (int_range (-3) 8));
              (4, map (fun x -> Var x) ivar);
              (1, return (Attr (Self, "x")));
              (1, map (fun r -> Real_lit r) (oneofl [ 0.; 1.5; -2.0 ]));
            ]
        in
        if depth = 0 then leaf
        else
          let sub = self (depth - 1) in
          frequency
            [
              (3, leaf);
              ( 4,
                map3
                  (fun op a b -> Binop (op, a, b))
                  (oneofl [ Add; Sub; Mul; Div; Mod ])
                  sub sub );
              (1, map (fun a -> Unop (Neg, a)) sub);
              (1, map (fun a -> Call (None, "abs", [ a ])) sub);
              ( 1,
                map3
                  (fun name a b -> Call (None, name, [ a; b ]))
                  (oneofl [ "min"; "max" ])
                  sub sub );
              ( 1,
                map2
                  (fun recv a -> Call (recv, "twice", [ a ]))
                  (oneofl [ None; Some Self ])
                  sub );
              (1, map3 (fun a b c -> Call (None, "pick", [ a; b; c ])) sub sub sub);
            ])
  in
  let bool_e =
    fix
      (fun self depth ->
        let cmp =
          map3
            (fun op a b -> Binop (op, a, b))
            (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])
            (int_e 1) (int_e 1)
        in
        if depth = 0 then
          frequency [ (3, cmp); (1, map (fun b -> Bool_lit b) bool) ]
        else
          let sub = self (depth - 1) in
          frequency
            [
              (3, cmp);
              (1, map (fun b -> Bool_lit b) bool);
              ( 2,
                map3
                  (fun op a b -> Binop (op, a, b))
                  (oneofl [ And; Or ])
                  sub sub );
              (1, map (fun a -> Unop (Not, a)) sub);
            ])
  in
  let str_e =
    frequency
      [
        (2, map (fun s -> String_lit s) (oneofl [ ""; "s"; "t" ]));
        (1, return (Attr (Self, "s")));
        (1, map (fun a -> Call (None, "to_string", [ a ])) (int_e 1));
        (2, map2 (fun a b -> Binop (Concat, a, b)) (return (Attr (Self, "s"))) (int_e 1));
      ]
  in
  (* ill-typed, missing or side-effecting on purpose *)
  let wild =
    oneof
      [
        return Null_lit;
        return Self;
        return (Var "d");
        return (Attr (Self, "y"));
        return (New "K");
        map (fun a -> Attr (a, "x")) (int_e 1);
        map (fun a -> Call (None, "print", [ a ])) (int_e 1);
        map (fun args -> Call (Some Self, "nope", args))
          (list_size (int_bound 2) (int_e 1));
        map (fun args -> Call (Some Self, "bump", args))
          (list_size (int_bound 1) (int_e 0));
        map2
          (fun op a -> Binop (op, a, String_lit "s"))
          (oneofl [ Add; Mod; Lt; And ])
          (int_e 1);
        map (fun a -> Unop (Neg, a)) (return (Bool_lit true));
      ]
  in
  let any_e =
    frequency [ (6, int_e 2); (2, bool_e 1); (1, str_e); (1, wild) ]
  in
  let gen_stmt =
    fix
      (fun self depth ->
        let leaf =
          frequency
            [
              (1, return Skip);
              (3, map2 (fun x e -> Var_decl (x, e)) ivar (int_e 2));
              (4, map2 (fun x e -> Assign (L_var x, e)) ivar (int_e 2));
              (2, map (fun e -> Assign (L_attr (Self, "x"), e)) (int_e 2));
              (1, map (fun e -> Assign (L_attr (Self, "s"), e)) str_e);
              (1, map2 (fun o e -> Assign (L_attr (o, "y"), e)) (oneofl [ Self; Var "a" ]) any_e);
              (3, map (fun e -> Expr_stmt (Call (None, "print", [ e ]))) any_e);
              (1, return (Expr_stmt (Call (Some Self, "bump", []))));
              (1, map (fun e -> Expr_stmt e) wild);
              (1, map (fun e -> Return e) (opt any_e));
              ( 2,
                map3
                  (fun s args target -> Send (s, args, target))
                  (oneofl [ "go"; "stop" ])
                  (list_size (int_bound 2) any_e)
                  (opt (oneofl [ Self; Null_lit; Var "d"; Attr (Self, "x") ])) );
              (1, map (fun e -> Delete e) (oneofl [ New "K"; Var "a"; Self ]));
            ]
        in
        if depth = 0 then leaf
        else
          let body = list_size (int_bound 3) (self (depth - 1)) in
          frequency
            [
              (5, leaf);
              (2, map3 (fun c t e -> If (c, t, e)) (bool_e 1) body body);
              (1, map2 (fun c b -> While (c, b)) (bool_e 1) body);
              ( 2,
                map3
                  (fun (x, lo) hi b -> For (x, lo, hi, b))
                  (pair ivar (int_e 1))
                  (map (fun n -> Int_lit n) (int_range (-1) 4))
                  body );
            ])
      2
  in
  let init =
    [ Var_decl ("a", Int_lit 1); Var_decl ("b", Int_lit 2); Var_decl ("c", Int_lit 0) ]
  in
  let params =
    (* [a] and [p] are read by programs, [q] never is, [p] may repeat *)
    list_size (int_bound 3)
      (pair (oneofl [ "a"; "p"; "p"; "q" ])
         (map (fun n -> Asl.Value.V_int n) (int_range 0 5)))
  in
  pair
    (map2
       (fun with_init body -> if with_init then init @ body else body)
       (frequencyl [ (3, true); (1, false) ])
       (list_size (int_range 1 8) gen_stmt))
    params

let print_diff_program (prog, params) =
  Printf.sprintf "%s\nparams: %s" (Asl.Ast.show_program prog)
    (String.concat ", "
       (List.map (fun (k, v) -> k ^ "=" ^ Asl.Value.show v) params))

let arb_diff_program =
  QCheck.make ~print:print_diff_program gen_diff_program

let diff_agrees ~fuel (prog, params) =
  run_compiled_outcome ~fuel ~params prog = run_oracle_outcome ~fuel ~params prog

let out_of_fuel = function
  | Error m -> String.length m >= 11 && String.sub m 0 11 = "out of fuel"
  | Ok _ -> false

(* Every fuel allowance from 1 up, until a run no longer runs dry: the
   error must strike at the same node, after the same side effects. *)
let fuel_sweep_agrees (prog, params) =
  let rec go fuel =
    fuel > 150
    ||
    let c = run_compiled_outcome ~fuel ~params prog in
    c = run_oracle_outcome ~fuel ~params prog
    && ((not (out_of_fuel c.d_result)) || go (fuel + 1))
  in
  go 1

(* differential property: random integer expressions evaluate like a
   reference evaluator written directly in OCaml *)
let gen_int_expr =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth = 0 then map (fun n -> Asl.Ast.Int_lit n) (int_range (-20) 20)
      else
        frequency
          [
            (2, map (fun n -> Asl.Ast.Int_lit n) (int_range (-20) 20));
            ( 3,
              map3
                (fun op a b -> Asl.Ast.Binop (op, a, b))
                (oneofl [ Asl.Ast.Add; Asl.Ast.Sub; Asl.Ast.Mul ])
                (self (depth - 1))
                (self (depth - 1)) );
            (1, map (fun a -> Asl.Ast.Unop (Asl.Ast.Neg, a)) (self (depth - 1)));
          ])
    3

let rec reference_eval (e : Asl.Ast.expr) =
  match e with
  | Asl.Ast.Int_lit n -> n
  | Asl.Ast.Unop (Asl.Ast.Neg, a) -> -reference_eval a
  | Asl.Ast.Binop (Asl.Ast.Add, a, b) -> reference_eval a + reference_eval b
  | Asl.Ast.Binop (Asl.Ast.Sub, a, b) -> reference_eval a - reference_eval b
  | Asl.Ast.Binop (Asl.Ast.Mul, a, b) -> reference_eval a * reference_eval b
  | _other -> failwith "unexpected node"

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"interpreter agrees with reference arithmetic"
         ~count:300 (QCheck.make gen_int_expr)
         (fun e ->
           let store = Asl.Store.create () in
           let interp = Asl.Interp.create store in
           Asl.Interp.eval interp e = Asl.Value.V_int (reference_eval e)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"lexer raises nothing but Lex_error" ~count:1000
         (QCheck.make
            QCheck.Gen.(
              string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 60)))
         (fun src ->
           match Asl.Lexer.tokenize src with
           | _toks -> true
           | exception Asl.Lexer.Lex_error _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compiled agrees with tree walker" ~count:500
         arb_diff_program (diff_agrees ~fuel:2000));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"same point of fuel exhaustion" ~count:200
         arb_diff_program fuel_sweep_agrees);
  ]

let () =
  Alcotest.run "asl"
    [
      ("lexer", lexer_tests);
      ("parser", parser_tests);
      ("typecheck", typecheck_tests);
      ("interp", interp_tests);
      ("properties", property_tests);
    ]
