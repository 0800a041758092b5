(* Tests for the whole-model lint subsystem: rule registry, the four
   model passes, the HDL lift, report rendering, and the acceptance
   scenario from the roadmap (one model carrying a defect per layer). *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let codes diags =
  List.sort_uniq compare
    (List.map (fun d -> d.Wfr.diag_rule) diags)

let has_code code diags = List.mem code (codes diags)

(* --- fixtures --------------------------------------------------------- *)

(* A class with an Integer attribute, a non-query op and a query op. *)
let controller () =
  Classifier.make
    ~attributes:[ Classifier.property "threshold" Dtype.Integer ]
    ~operations:
      [
        Classifier.operation
          ~params:
            [
              Classifier.parameter "x" Dtype.Integer;
              Classifier.parameter ~direction:Classifier.Return "r"
                Dtype.Integer;
            ]
          "step";
        Classifier.operation ~is_query:true
          ~params:
            [ Classifier.parameter ~direction:Classifier.Return "r"
                Dtype.Boolean ]
          "ready";
      ]
    "Controller"

let machine_with ?guard ?effect () =
  let cl = controller () in
  let a = Smachine.simple_state "A" in
  let b = Smachine.simple_state "B" in
  let init = Smachine.pseudostate Smachine.Initial in
  let region =
    Smachine.region
      [ Smachine.Pseudo init; Smachine.State a; Smachine.State b ]
      [
        Smachine.transition ~source:init.Smachine.ps_id
          ~target:a.Smachine.st_id ();
        Smachine.transition
          ~triggers:[ Smachine.Signal_trigger "go" ]
          ?guard ?effect ~source:a.Smachine.st_id ~target:b.Smachine.st_id ();
      ]
  in
  let sm =
    Smachine.make ~context:cl.Classifier.cl_id "M" [ region ]
  in
  let m = Model.create "m" in
  Model.add m (Model.E_classifier cl);
  Model.add m (Model.E_state_machine sm);
  m

let lint = Lint.Check.check_model

(* --- rules registry --------------------------------------------------- *)

let rules_tests =
  [
    tc "codes are unique and sorted" (fun () ->
        let cs = List.map (fun r -> r.Lint.Rules.rule_code) Lint.Rules.all in
        check (Alcotest.list Alcotest.string) "sorted unique"
          (List.sort_uniq compare cs) cs);
    tc "find" (fun () ->
        check Alcotest.bool "ASL-01" true (Lint.Rules.find "ASL-01" <> None);
        check Alcotest.bool "ZZZ-99" true (Lint.Rules.find "ZZZ-99" = None));
    tc "selection prefixes" (fun () ->
        let sel =
          Lint.Rules.selection_of_strings ~only:[ "ASL"; "SC-03" ] ()
        in
        check Alcotest.bool "ASL-02 on" true (Lint.Rules.enabled sel "ASL-02");
        check Alcotest.bool "SC-03 on" true (Lint.Rules.enabled sel "SC-03");
        check Alcotest.bool "SC-01 off" false (Lint.Rules.enabled sel "SC-01");
        let sel = Lint.Rules.selection_of_strings ~disabled:[ "HDL" ] () in
        check Alcotest.bool "HDL-05 off" false
          (Lint.Rules.enabled sel "HDL-05");
        check Alcotest.bool "ASL-01 on" true (Lint.Rules.enabled sel "ASL-01"));
    tc "unknown selectors are reported" (fun () ->
        let sel =
          Lint.Rules.selection_of_strings ~only:[ "ASL"; "BOGUS" ] ()
        in
        check (Alcotest.list Alcotest.string) "unknown" [ "BOGUS" ]
          (Lint.Rules.unknown_selectors sel));
  ]

(* --- ASL pass --------------------------------------------------------- *)

let asl_tests =
  [
    tc "well-typed guard and effect are clean" (fun () ->
        let m =
          machine_with ~guard:"e1 > self.threshold"
            ~effect:"self.threshold := e1;" ()
        in
        check (Alcotest.list Alcotest.string) "codes" [] (codes (lint m)));
    tc "guard parse error is ASL-01" (fun () ->
        let m = machine_with ~guard:"1 +" () in
        check Alcotest.bool "ASL-01" true (has_code "ASL-01" (lint m)));
    tc "non-boolean guard is ASL-02" (fun () ->
        let m = machine_with ~guard:"self.threshold" () in
        check Alcotest.bool "ASL-02" true (has_code "ASL-02" (lint m)));
    tc "unknown attribute in guard is ASL-02" (fun () ->
        let m = machine_with ~guard:"self.missing > 0" () in
        check Alcotest.bool "ASL-02" true (has_code "ASL-02" (lint m)));
    tc "non-query call in guard is ASL-03" (fun () ->
        let m = machine_with ~guard:"self.step(1) > 0" () in
        let diags = lint m in
        check Alcotest.bool "ASL-03" true (has_code "ASL-03" diags);
        check Alcotest.bool "no ASL-02" false (has_code "ASL-02" diags));
    tc "query call in guard is clean" (fun () ->
        let m = machine_with ~guard:"self.ready()" () in
        check (Alcotest.list Alcotest.string) "codes" [] (codes (lint m)));
    tc "broken effect is ASL-01" (fun () ->
        let m = machine_with ~effect:"if if" () in
        check Alcotest.bool "ASL-01" true (has_code "ASL-01" (lint m)));
    tc "operation body is checked against its class" (fun () ->
        let cl =
          Classifier.make
            ~operations:
              [ Classifier.operation ~body:"return self.ghost;" "f" ]
            "C"
        in
        let m = Model.create "m" in
        Model.add m (Model.E_classifier cl);
        check Alcotest.bool "ASL-02" true (has_code "ASL-02" (lint m)));
    tc "action bodies share one store across the activity" (fun () ->
        let a1 = Activityg.action ~body:"blocks := 64;" "produce" in
        let a2 = Activityg.action ~body:"blocks := blocks - 1;" "consume" in
        let init = Activityg.initial () in
        let final = Activityg.activity_final () in
        let id = Activityg.node_id in
        let e s t = Activityg.edge ~source:(id s) ~target:(id t) () in
        let act =
          Activityg.make "pipeline"
            [ init; a1; a2; final ]
            [ e init a1; e a1 a2; e a2 final ]
        in
        let m = Model.create "m" in
        Model.add m (Model.E_activity act);
        check (Alcotest.list Alcotest.string) "codes" [] (codes (lint m)));
  ]

(* --- statechart pass -------------------------------------------------- *)

let sc_tests =
  [
    tc "unreachable state is SC-01" (fun () ->
        let a = Smachine.simple_state "A" in
        let orphan = Smachine.simple_state "Orphan" in
        let init = Smachine.pseudostate Smachine.Initial in
        let region =
          Smachine.region
            [ Smachine.Pseudo init; Smachine.State a; Smachine.State orphan ]
            [
              Smachine.transition ~source:init.Smachine.ps_id
                ~target:a.Smachine.st_id ();
            ]
        in
        let m = Model.create "m" in
        Model.add m (Model.E_state_machine (Smachine.make "M" [ region ]));
        let diags = lint m in
        check Alcotest.bool "SC-01" true (has_code "SC-01" diags);
        check Alcotest.bool "element" true
          (List.exists
             (fun d ->
               d.Wfr.diag_element = Some orphan.Smachine.st_id)
             diags));
    tc "junction cycle is SC-02" (fun () ->
        let j1 = Smachine.pseudostate ~name:"j1" Smachine.Junction in
        let j2 = Smachine.pseudostate ~name:"j2" Smachine.Junction in
        let a = Smachine.simple_state "A" in
        let init = Smachine.pseudostate Smachine.Initial in
        let region =
          Smachine.region
            [
              Smachine.Pseudo init; Smachine.State a; Smachine.Pseudo j1;
              Smachine.Pseudo j2;
            ]
            [
              Smachine.transition ~source:init.Smachine.ps_id
                ~target:a.Smachine.st_id ();
              Smachine.transition ~source:a.Smachine.st_id
                ~target:j1.Smachine.ps_id ();
              Smachine.transition ~source:j1.Smachine.ps_id
                ~target:j2.Smachine.ps_id ();
              Smachine.transition ~source:j2.Smachine.ps_id
                ~target:j1.Smachine.ps_id ();
            ]
        in
        let m = Model.create "m" in
        Model.add m (Model.E_state_machine (Smachine.make "M" [ region ]));
        check Alcotest.bool "SC-02" true (has_code "SC-02" (lint m)));
    tc "junction cycle with an exit is not SC-02, for any id spelling"
      (fun () ->
        (* X -> Y, Y -> X, Y -> S: both junctions stabilize via S.  The
           20x20 grid of id spellings covers both Hashtbl.fold visit
           orders of the pass. *)
        let sc02 xid yid =
          let s = Smachine.simple_state ~id:"s" "S" in
          let x = Smachine.pseudostate ~id:xid ~name:"X" Smachine.Junction in
          let y = Smachine.pseudostate ~id:yid ~name:"Y" Smachine.Junction in
          let init = Smachine.pseudostate ~id:"init" Smachine.Initial in
          let r =
            Smachine.region ~id:"r0"
              [
                Smachine.State s; Smachine.Pseudo x; Smachine.Pseudo y;
                Smachine.Pseudo init;
              ]
              [
                Smachine.transition ~id:"t0" ~source:"init" ~target:xid ();
                Smachine.transition ~id:"t1" ~source:xid ~target:yid ();
                Smachine.transition ~id:"t2" ~source:yid ~target:xid ();
                Smachine.transition ~id:"t3" ~source:yid ~target:"s" ();
              ]
          in
          let m = Model.create "test" in
          Model.add m (Model.E_state_machine (Smachine.make ~id:"sm" "M" [ r ]));
          List.filter_map
            (fun d ->
              if d.Wfr.diag_rule = "SC-02" then Some (Wfr.to_string d)
              else None)
            (Lint.Sc_pass.check m)
        in
        for i = 0 to 19 do
          for j = 0 to 19 do
            let xid = Printf.sprintf "x%d" i and yid = Printf.sprintf "y%d" j in
            check
              Alcotest.(list string)
              (Printf.sprintf "ids (%s,%s)" xid yid)
              [] (sc02 xid yid)
          done
        done);
    tc "overlapping transitions are SC-03" (fun () ->
        let a = Smachine.simple_state "A" in
        let b = Smachine.simple_state "B" in
        let c = Smachine.simple_state "C" in
        let init = Smachine.pseudostate Smachine.Initial in
        let go = [ Smachine.Signal_trigger "go" ] in
        let region =
          Smachine.region
            [
              Smachine.Pseudo init; Smachine.State a; Smachine.State b;
              Smachine.State c;
            ]
            [
              Smachine.transition ~source:init.Smachine.ps_id
                ~target:a.Smachine.st_id ();
              Smachine.transition ~triggers:go ~source:a.Smachine.st_id
                ~target:b.Smachine.st_id ();
              Smachine.transition ~triggers:go ~source:a.Smachine.st_id
                ~target:c.Smachine.st_id ();
            ]
        in
        let m = Model.create "m" in
        Model.add m (Model.E_state_machine (Smachine.make "M" [ region ]));
        check Alcotest.bool "SC-03" true (has_code "SC-03" (lint m)));
    tc "distinct guards suppress SC-03" (fun () ->
        let a = Smachine.simple_state "A" in
        let b = Smachine.simple_state "B" in
        let c = Smachine.simple_state "C" in
        let init = Smachine.pseudostate Smachine.Initial in
        let go = [ Smachine.Signal_trigger "go" ] in
        let region =
          Smachine.region
            [
              Smachine.Pseudo init; Smachine.State a; Smachine.State b;
              Smachine.State c;
            ]
            [
              Smachine.transition ~source:init.Smachine.ps_id
                ~target:a.Smachine.st_id ();
              Smachine.transition ~triggers:go ~guard:"e1 > 0"
                ~source:a.Smachine.st_id ~target:b.Smachine.st_id ();
              Smachine.transition ~triggers:go ~guard:"e1 <= 0"
                ~source:a.Smachine.st_id ~target:c.Smachine.st_id ();
            ]
        in
        let m = Model.create "m" in
        Model.add m (Model.E_state_machine (Smachine.make "M" [ region ]));
        check Alcotest.bool "no SC-03" false (has_code "SC-03" (lint m)));
    tc "composite region without initial is SC-04" (fun () ->
        let inner = Smachine.simple_state "Inner" in
        let sub_region = Smachine.region [ Smachine.State inner ] [] in
        let comp = Smachine.composite_state "Comp" [ sub_region ] in
        let init = Smachine.pseudostate Smachine.Initial in
        let region =
          Smachine.region
            [ Smachine.Pseudo init; Smachine.State comp ]
            [
              Smachine.transition ~source:init.Smachine.ps_id
                ~target:comp.Smachine.st_id ();
            ]
        in
        let m = Model.create "m" in
        Model.add m (Model.E_state_machine (Smachine.make "M" [ region ]));
        check Alcotest.bool "SC-04" true (has_code "SC-04" (lint m)));
    tc "machine without initial skips SC-01" (fun () ->
        let a = Smachine.simple_state "A" in
        let region = Smachine.region [ Smachine.State a ] [] in
        let m = Model.create "m" in
        Model.add m (Model.E_state_machine (Smachine.make "M" [ region ]));
        check Alcotest.bool "no SC-01" false (has_code "SC-01" (lint m)));
  ]

(* --- activity pass ---------------------------------------------------- *)

(* decision feeds only one branch of a two-input join: structural
   deadlock, and the join (plus everything after it) can never fire. *)
let deadlocking_activity () =
  let init = Activityg.initial () in
  let d = Activityg.decision "d" in
  let a1 = Activityg.action "a1" in
  let a2 = Activityg.action "a2" in
  let j = Activityg.join "j" in
  let final = Activityg.activity_final () in
  let id = Activityg.node_id in
  let e s t = Activityg.edge ~source:(id s) ~target:(id t) () in
  Activityg.make "broken"
    [ init; d; a1; a2; j; final ]
    [ e init d; e d a1; e d a2; e a1 j; e a2 j; e j final ]

let act_tests =
  [
    tc "sound series-parallel activity is clean" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_activity
             (Workload.Gen_activity.series_parallel ~seed:5 ~size:12
                ~max_width:3));
        check (Alcotest.list Alcotest.string) "codes" [] (codes (lint m)));
    tc "decision into join deadlocks (ACT-01)" (fun () ->
        let m = Model.create "m" in
        Model.add m (Model.E_activity (deadlocking_activity ()));
        let diags = lint m in
        check Alcotest.bool "ACT-01" true (has_code "ACT-01" diags);
        check Alcotest.bool "ACT-03 for the dead join" true
          (has_code "ACT-03" diags));
    tc "token-generating loop is ACT-02" (fun () ->
        (* merge-based loop around a fork: every lap leaves one extra
           token on the fork's exit edge *)
        let init = Activityg.initial () in
        let mg = Activityg.merge "m" in
        let a = Activityg.action "a" in
        let f = Activityg.fork "f" in
        let b = Activityg.action "b" in
        let id = Activityg.node_id in
        let e s t = Activityg.edge ~source:(id s) ~target:(id t) () in
        let act =
          Activityg.make "pump"
            [ init; mg; a; f; b ]
            [ e init mg; e mg a; e a f; e f mg; e f b ]
        in
        let m = Model.create "m" in
        Model.add m (Model.E_activity act);
        check Alcotest.bool "ACT-02" true (has_code "ACT-02" (lint m)));
    tc "unresolved edges are skipped (Wfr territory)" (fun () ->
        let a = Activityg.action "a" in
        let act =
          Activityg.make "dangling" [ a ]
            [
              Activityg.edge ~source:(Activityg.node_id a) ~target:"ghost" ();
            ]
        in
        let m = Model.create "m" in
        Model.add m (Model.E_activity act);
        check Alcotest.bool "no ACT codes" true
          (List.for_all
             (fun c -> not (String.length c >= 3 && String.sub c 0 3 = "ACT"))
             (codes (lint m))));
  ]

(* --- component pass --------------------------------------------------- *)

let comp_tests =
  [
    tc "unconnected required port is COMP-01" (fun () ->
        let iface = Classifier.make ~kind:Classifier.Interface "IBus" in
        let port =
          Component.port ~required:[ iface.Classifier.cl_id ] "bus"
        in
        let inner = Component.make ~ports:[ port ] "Core" in
        let part = Component.part "u0" inner.Component.cmp_id in
        let outer = Component.make ~parts:[ part ] "Soc" in
        let m = Model.create "m" in
        Model.add m (Model.E_classifier iface);
        Model.add m (Model.E_component inner);
        Model.add m (Model.E_component outer);
        check Alcotest.bool "COMP-01" true (has_code "COMP-01" (lint m)));
    tc "mismatched assembly is COMP-02" (fun () ->
        let i1 = Classifier.make ~kind:Classifier.Interface "I1" in
        let i2 = Classifier.make ~kind:Classifier.Interface "I2" in
        let need = Component.port ~required:[ i1.Classifier.cl_id ] "need" in
        let give = Component.port ~provided:[ i2.Classifier.cl_id ] "give" in
        let c1 = Component.make ~ports:[ need ] "C1" in
        let c2 = Component.make ~ports:[ give ] "C2" in
        let p1 = Component.part "u1" c1.Component.cmp_id in
        let p2 = Component.part "u2" c2.Component.cmp_id in
        let conn =
          Component.assembly
            ~from_:(Some p1.Component.part_id, need.Component.port_id)
            ~to_:(Some p2.Component.part_id, give.Component.port_id)
            ()
        in
        let outer =
          Component.make ~parts:[ p1; p2 ] ~connectors:[ conn ] "Soc"
        in
        let m = Model.create "m" in
        Model.add m (Model.E_classifier i1);
        Model.add m (Model.E_classifier i2);
        Model.add m (Model.E_component c1);
        Model.add m (Model.E_component c2);
        Model.add m (Model.E_component outer);
        check Alcotest.bool "COMP-02" true (has_code "COMP-02" (lint m)));
    tc "matching assembly is clean" (fun () ->
        let i1 = Classifier.make ~kind:Classifier.Interface "I1" in
        let need = Component.port ~required:[ i1.Classifier.cl_id ] "need" in
        let give = Component.port ~provided:[ i1.Classifier.cl_id ] "give" in
        let c1 = Component.make ~ports:[ need ] "C1" in
        let c2 = Component.make ~ports:[ give ] "C2" in
        let p1 = Component.part "u1" c1.Component.cmp_id in
        let p2 = Component.part "u2" c2.Component.cmp_id in
        let conn =
          Component.assembly
            ~from_:(Some p1.Component.part_id, need.Component.port_id)
            ~to_:(Some p2.Component.part_id, give.Component.port_id)
            ()
        in
        let outer =
          Component.make ~parts:[ p1; p2 ] ~connectors:[ conn ] "Soc"
        in
        let m = Model.create "m" in
        Model.add m (Model.E_classifier i1);
        Model.add m (Model.E_component c1);
        Model.add m (Model.E_component c2);
        Model.add m (Model.E_component outer);
        let comp_codes =
          List.filter
            (fun c -> String.length c >= 4 && String.sub c 0 4 = "COMP")
            (codes (lint m))
        in
        check (Alcotest.list Alcotest.string) "codes" [] comp_codes);
  ]

(* --- HDL pass --------------------------------------------------------- *)

let hdl_tests =
  [
    tc "undriven signal lifts to HDL-10" (fun () ->
        let m =
          Hdl.Module_.make
            ~ports:[ Hdl.Module_.output "q" Hdl.Htype.Bit ]
            ~signals:[ Hdl.Module_.signal "floating" Hdl.Htype.Bit ]
            ~processes:
              [
                Hdl.Module_.comb_process ~name:"p"
                  [ Hdl.Stmt.Assign ("q", Hdl.Expr.Ref "floating") ];
              ]
            "m"
        in
        let d = Hdl.Module_.design ~top:"m" [ m ] in
        let diags = Lint.Check.check_design d in
        check Alcotest.bool "HDL-10" true (has_code "HDL-10" diags);
        check Alcotest.bool "is error" true
          (List.exists
             (fun dg ->
               dg.Wfr.diag_rule = "HDL-10"
               && dg.Wfr.diag_severity = Wfr.Error)
             diags));
    tc "selection filters the HDL pass" (fun () ->
        let m =
          Hdl.Module_.make
            ~signals:[ Hdl.Module_.signal "idle" Hdl.Htype.Bit ]
            "m"
        in
        let d = Hdl.Module_.design ~top:"m" [ m ] in
        let sel = Lint.Rules.selection_of_strings ~disabled:[ "HDL-11" ] () in
        check (Alcotest.list Alcotest.string) "filtered" []
          (codes (Lint.Check.check_design ~selection:sel d));
        check Alcotest.bool "present by default" true
          (has_code "HDL-11" (Lint.Check.check_design d)));
  ]

(* --- acceptance: one defect per layer --------------------------------- *)

let acceptance_tests =
  [
    tc "four-layer defect model yields four distinct codes" (fun () ->
        let m = machine_with ~guard:"self.threshold" () in
        (* unreachable state in a second machine *)
        let orphan = Smachine.simple_state "Orphan" in
        let a = Smachine.simple_state "A" in
        let init = Smachine.pseudostate Smachine.Initial in
        let region =
          Smachine.region
            [ Smachine.Pseudo init; Smachine.State a; Smachine.State orphan ]
            [
              Smachine.transition ~source:init.Smachine.ps_id
                ~target:a.Smachine.st_id ();
            ]
        in
        Model.add m (Model.E_state_machine (Smachine.make "M2" [ region ]));
        Model.add m (Model.E_activity (deadlocking_activity ()));
        let hmod =
          Hdl.Module_.make
            ~ports:[ Hdl.Module_.output "q" Hdl.Htype.Bit ]
            ~signals:[ Hdl.Module_.signal "floating" Hdl.Htype.Bit ]
            ~processes:
              [
                Hdl.Module_.comb_process ~name:"p"
                  [ Hdl.Stmt.Assign ("q", Hdl.Expr.Ref "floating") ];
              ]
            "top"
        in
        let design = Hdl.Module_.design ~top:"top" [ hmod ] in
        let diags = Lint.Check.check ~design m in
        List.iter
          (fun code ->
            check Alcotest.bool code true (has_code code diags))
          [ "ASL-02"; "SC-01"; "ACT-01"; "HDL-10" ];
        check Alcotest.bool "has errors" true (Wfr.errors diags <> []));
  ]

(* --- report rendering ------------------------------------------------- *)

let report_tests =
  [
    tc "text report is stable and counted" (fun () ->
        let m = machine_with ~guard:"self.threshold" () in
        let diags = lint m in
        let text = Lint.Report.to_text ~model:"m" diags in
        check Alcotest.bool "has summary" true
          (List.exists
             (fun line ->
               line = "1 diagnostics (1 errors, 0 warnings)")
             (String.split_on_char '\n' text)));
    tc "json escapes and counts" (fun () ->
        let d =
          {
            Wfr.diag_severity = Wfr.Error;
            diag_rule = "ASL-01";
            diag_element = Some "e1";
            diag_message = "bad \"quote\"\nand newline";
          }
        in
        let json = Lint.Report.to_json ~model:"m\"odel" [ d ] in
        check Alcotest.bool "escaped quote" true
          (let sub = "bad \\\"quote\\\"\\nand newline" in
           let rec find i =
             i + String.length sub <= String.length json
             && (String.sub json i (String.length sub) = sub || find (i + 1))
           in
           find 0);
        check Alcotest.bool "error count" true
          (let sub = "\"errors\": 1" in
           let rec find i =
             i + String.length sub <= String.length json
             && (String.sub json i (String.length sub) = sub || find (i + 1))
           in
           find 0));
  ]

(* --- properties ------------------------------------------------------- *)

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"lint never raises on generated models"
         ~count:25
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let m = Workload.Gen_model.structural ~seed ~classes:12 in
           Model.add m
             (Model.E_state_machine
                (Workload.Gen_statechart.hierarchical ~seed ~depth:3
                   ~breadth:2 ~events:3));
           Model.add m
             (Model.E_state_machine
                (Workload.Gen_statechart.flat ~seed ~states:6 ~events:3));
           Model.add m
             (Model.E_activity
                (Workload.Gen_activity.with_decisions ~seed ~size:10
                   ~max_width:3));
           let _diags = Lint.Check.check_model m in
           true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"lint reports are deterministic" ~count:10
         QCheck.(int_range 1 10_000)
         (fun seed ->
           let build () =
             Ident.reset_counter ();
             let m = Workload.Gen_model.structural ~seed ~classes:10 in
             Model.add m
               (Model.E_activity
                  (Workload.Gen_activity.series_parallel ~seed ~size:10
                     ~max_width:3));
             m
           in
           let render m =
             let diags = Lint.Check.check_model m in
             Lint.Report.to_text ~model:"w" diags
             ^ Lint.Report.to_json ~model:"w" diags
           in
           render (build ()) = render (build ())));
  ]

let () =
  Alcotest.run "lint"
    [
      ("rules", rules_tests);
      ("asl", asl_tests);
      ("statechart", sc_tests);
      ("activity", act_tests);
      ("component", comp_tests);
      ("hdl", hdl_tests);
      ("acceptance", acceptance_tests);
      ("report", report_tests);
      ("properties", property_tests);
    ]
