(* Tests for the well-formedness checker: every rule family is triggered
   by a minimal ill-formed model, and clean models stay clean. *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let rules_of diags =
  List.sort_uniq compare (List.map (fun d -> d.Wfr.diag_rule) diags)

let has_rule rule m = List.mem rule (rules_of (Wfr.check m))

let clean_model () =
  let m = Model.create "clean" in
  let itf = Classifier.make ~kind:Classifier.Interface "I" in
  Model.add m (Model.E_classifier itf);
  let c =
    Classifier.make
      ~attributes:[ Classifier.property "x" Dtype.Integer ]
      ~operations:[ Classifier.operation "f" ]
      ~realized:[ itf.Classifier.cl_id ]
      "A"
  in
  Model.add m (Model.E_classifier c);
  m

let structural_tests =
  [
    tc "clean model has no diagnostics" (fun () ->
        check Alcotest.int "none" 0 (List.length (Wfr.check (clean_model ()))));
    tc "is_valid on clean model" (fun () ->
        check Alcotest.bool "valid" true (Wfr.is_valid (clean_model ())));
    tc "CL-01 unresolved attribute type" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_classifier
             (Classifier.make
                ~attributes:
                  [ Classifier.property "x" (Dtype.Ref (Ident.of_string "nope")) ]
                "A"));
        check Alcotest.bool "CL-01" true (has_rule "CL-01" m));
    tc "CL-03 unresolved generalization" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_classifier
             (Classifier.make ~generals:[ Ident.of_string "nope" ] "A"));
        check Alcotest.bool "CL-03" true (has_rule "CL-03" m));
    tc "NS-01 duplicate attribute names" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_classifier
             (Classifier.make
                ~attributes:
                  [
                    Classifier.property "x" Dtype.Integer;
                    Classifier.property "x" Dtype.Boolean;
                  ]
                "A"));
        check Alcotest.bool "NS-01" true (has_rule "NS-01" m));
    tc "NS-03 duplicate top-level names warn" (fun () ->
        let m = Model.create "m" in
        Model.add m (Model.E_classifier (Classifier.make "A"));
        Model.add m (Model.E_classifier (Classifier.make "A"));
        let diags = Wfr.check m in
        check Alcotest.bool "NS-03" true (List.mem "NS-03" (rules_of diags));
        (* warnings only: model still valid *)
        check Alcotest.bool "valid" true (Wfr.errors diags = []));
    tc "GE-01 generalization cycle" (fun () ->
        let m = Model.create "m" in
        let ida = Ident.fresh () in
        let idb = Ident.fresh () in
        Model.add m
          (Model.E_classifier (Classifier.make ~id:ida ~generals:[ idb ] "A"));
        Model.add m
          (Model.E_classifier (Classifier.make ~id:idb ~generals:[ ida ] "B"));
        check Alcotest.bool "GE-01" true (has_rule "GE-01" m));
    tc "GE-02 class cannot specialize interface" (fun () ->
        let m = Model.create "m" in
        let itf = Classifier.make ~kind:Classifier.Interface "I" in
        Model.add m (Model.E_classifier itf);
        Model.add m
          (Model.E_classifier
             (Classifier.make ~generals:[ itf.Classifier.cl_id ] "A"));
        check Alcotest.bool "GE-02" true (has_rule "GE-02" m));
    tc "AS-01 association needs two ends" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_association
             { Classifier.assoc_id = Ident.fresh (); assoc_name = "a";
               assoc_ends = [] });
        check Alcotest.bool "AS-01" true (has_rule "AS-01" m));
    tc "PK-01 unresolved package member" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_package (Pkg.make ~owned:[ Ident.of_string "ghost" ] "p"));
        check Alcotest.bool "PK-01" true (has_rule "PK-01" m));
  ]

let sm_model region =
  let m = Model.create "m" in
  Model.add m (Model.E_state_machine (Smachine.make "sm" [ region ]));
  m

let statemachine_tests =
  [
    tc "SM-01 dangling transition endpoint" (fun () ->
        let s = Smachine.simple_state "S" in
        let r =
          Smachine.region
            [ Smachine.State s ]
            [
              Smachine.transition ~source:s.Smachine.st_id
                ~target:(Ident.of_string "ghost") ();
            ]
        in
        check Alcotest.bool "SM-01" true (has_rule "SM-01" (sm_model r)));
    tc "SM-02 two initial pseudostates" (fun () ->
        let i1 = Smachine.pseudostate Smachine.Initial in
        let i2 = Smachine.pseudostate Smachine.Initial in
        let s = Smachine.simple_state "S" in
        let r =
          Smachine.region
            [ Smachine.Pseudo i1; Smachine.Pseudo i2; Smachine.State s ]
            [
              Smachine.transition ~source:i1.Smachine.ps_id
                ~target:s.Smachine.st_id ();
              Smachine.transition ~source:i2.Smachine.ps_id
                ~target:s.Smachine.st_id ();
            ]
        in
        check Alcotest.bool "SM-02" true (has_rule "SM-02" (sm_model r)));
    tc "SM-03 final state with outgoing" (fun () ->
        let f = Smachine.final () in
        let s = Smachine.simple_state "S" in
        let r =
          Smachine.region
            [ Smachine.Final f; Smachine.State s ]
            [
              Smachine.transition ~source:f.Smachine.fs_id
                ~target:s.Smachine.st_id ();
            ]
        in
        check Alcotest.bool "SM-03" true (has_rule "SM-03" (sm_model r)));
    tc "SM-04 initial without outgoing" (fun () ->
        let i = Smachine.pseudostate Smachine.Initial in
        let r = Smachine.region [ Smachine.Pseudo i ] [] in
        check Alcotest.bool "SM-04" true (has_rule "SM-04" (sm_model r)));
    tc "SM-05 guarded initial transition" (fun () ->
        let i = Smachine.pseudostate Smachine.Initial in
        let s = Smachine.simple_state "S" in
        let r =
          Smachine.region
            [ Smachine.Pseudo i; Smachine.State s ]
            [
              Smachine.transition ~guard:"true" ~source:i.Smachine.ps_id
                ~target:s.Smachine.st_id ();
            ]
        in
        check Alcotest.bool "SM-05" true (has_rule "SM-05" (sm_model r)));
    tc "SM-06 degenerate fork" (fun () ->
        let fk = Smachine.pseudostate Smachine.Fork in
        let s = Smachine.simple_state "S" in
        let r =
          Smachine.region
            [ Smachine.Pseudo fk; Smachine.State s ]
            [
              Smachine.transition ~source:s.Smachine.st_id
                ~target:fk.Smachine.ps_id ();
              Smachine.transition ~source:fk.Smachine.ps_id
                ~target:s.Smachine.st_id ();
            ]
        in
        check Alcotest.bool "SM-06" true (has_rule "SM-06" (sm_model r)));
    tc "SM-09 terminate with outgoing" (fun () ->
        let t = Smachine.pseudostate Smachine.Terminate in
        let s = Smachine.simple_state "S" in
        let r =
          Smachine.region
            [ Smachine.Pseudo t; Smachine.State s ]
            [
              Smachine.transition ~source:t.Smachine.ps_id
                ~target:s.Smachine.st_id ();
            ]
        in
        check Alcotest.bool "SM-09" true (has_rule "SM-09" (sm_model r)));
  ]

let activity_wfr_tests =
  [
    tc "AC-01 dangling edge" (fun () ->
        let a = Activityg.action "a" in
        let e =
          Activityg.edge ~source:(Activityg.node_id a)
            ~target:(Ident.of_string "ghost") ()
        in
        let m = Model.create "m" in
        Model.add m (Model.E_activity (Activityg.make "act" [ a ] [ e ]));
        check Alcotest.bool "AC-01" true (has_rule "AC-01" m));
    tc "AC-03 initial with incoming" (fun () ->
        let i = Activityg.initial () in
        let a = Activityg.action "a" in
        let e =
          Activityg.edge ~source:(Activityg.node_id a)
            ~target:(Activityg.node_id i) ()
        in
        let m = Model.create "m" in
        Model.add m (Model.E_activity (Activityg.make "act" [ i; a ] [ e ]));
        check Alcotest.bool "AC-03" true (has_rule "AC-03" m));
    tc "AC-04 final with outgoing" (fun () ->
        let f = Activityg.activity_final () in
        let a = Activityg.action "a" in
        let e =
          Activityg.edge ~source:(Activityg.node_id f)
            ~target:(Activityg.node_id a) ()
        in
        let m = Model.create "m" in
        Model.add m (Model.E_activity (Activityg.make "act" [ f; a ] [ e ]));
        check Alcotest.bool "AC-04" true (has_rule "AC-04" m));
    tc "AC-10 unreachable nodes warn" (fun () ->
        let i = Activityg.initial () in
        let a = Activityg.action "a" in
        let orphan = Activityg.action "orphan" in
        let e =
          Activityg.edge ~source:(Activityg.node_id i)
            ~target:(Activityg.node_id a) ()
        in
        let m = Model.create "m" in
        Model.add m
          (Model.E_activity (Activityg.make "act" [ i; a; orphan ] [ e ]));
        let diags = Wfr.check m in
        check Alcotest.bool "AC-10" true (List.mem "AC-10" (rules_of diags));
        (* a warning, not an error *)
        check Alcotest.bool "still valid" true (Wfr.errors diags = []));
    tc "AC-02 non-positive weight" (fun () ->
        let a = Activityg.action "a" in
        let b = Activityg.action "b" in
        let e =
          Activityg.edge ~weight:0 ~source:(Activityg.node_id a)
            ~target:(Activityg.node_id b) ()
        in
        let m = Model.create "m" in
        Model.add m (Model.E_activity (Activityg.make "act" [ a; b ] [ e ]));
        check Alcotest.bool "AC-02" true (has_rule "AC-02" m));
  ]

let misc_tests =
  [
    tc "UC-03 include cycle" (fun () ->
        let m = Model.create "m" in
        let ida = Ident.fresh () in
        let idb = Ident.fresh () in
        Model.add m
          (Model.E_use_case (Usecase.make ~id:ida ~includes:[ idb ] "a"));
        Model.add m
          (Model.E_use_case (Usecase.make ~id:idb ~includes:[ ida ] "b"));
        check Alcotest.bool "UC-03" true (has_rule "UC-03" m));
    tc "OB-02 nonconforming instance" (fun () ->
        let m = Model.create "m" in
        let cl = Classifier.make "A" in
        Model.add m (Model.E_classifier cl);
        Model.add m
          (Model.E_instance
             (Instance.make ~classifier:cl.Classifier.cl_id
                ~slots:[ Instance.slot "ghost" [] ]
                "i"));
        check Alcotest.bool "OB-02" true (has_rule "OB-02" m));
    tc "CO-04 connector references foreign port" (fun () ->
        let m = Model.create "m" in
        let conn =
          Component.delegation ~outer:(Ident.of_string "ghost")
            ~inner:(None, Ident.of_string "ghost2") ()
        in
        Model.add m (Model.E_component (Component.make ~connectors:[ conn ] "C"));
        check Alcotest.bool "CO-04" true (has_rule "CO-04" m));
    tc "CO-03 part with unresolved type" (fun () ->
        let m = Model.create "m" in
        let part = Component.part "u0" (Ident.of_string "ghost") in
        Model.add m (Model.E_component (Component.make ~parts:[ part ] "C"));
        check Alcotest.bool "CO-03" true (has_rule "CO-03" m));
    tc "PR-02 undeclared tag value" (fun () ->
        let m = Model.create "m" in
        let s = Profile.stereotype "st" in
        Model.add m (Model.E_profile (Profile.make "p" [ s ]));
        let c = Classifier.make "A" in
        Model.add m (Model.E_classifier c);
        Model.add_application m
          (Profile.apply
             ~values:[ ("ghost", Vspec.of_int 1) ]
             ~stereotype:s.Profile.ster_id ~element:c.Classifier.cl_id ());
        check Alcotest.bool "PR-02" true (has_rule "PR-02" m));
    tc "PR-04 wrong metaclass" (fun () ->
        let m = Model.create "m" in
        let s = Profile.stereotype ~extends:[ Profile.M_component ] "st" in
        Model.add m (Model.E_profile (Profile.make "p" [ s ]));
        let c = Classifier.make "A" in
        Model.add m (Model.E_classifier c);
        Model.add_application m
          (Profile.apply ~stereotype:s.Profile.ster_id
             ~element:c.Classifier.cl_id ());
        check Alcotest.bool "PR-04" true (has_rule "PR-04" m));
    tc "stereotyped port is not PR-03" (fun () ->
        let m = Model.create "m" in
        let s = Profile.stereotype ~extends:[ Profile.M_port ] "pin" in
        Model.add m (Model.E_profile (Profile.make "p" [ s ]));
        let port = Component.port "io" in
        Model.add m (Model.E_component (Component.make ~ports:[ port ] "C"));
        Model.add_application m
          (Profile.apply ~stereotype:s.Profile.ster_id
             ~element:port.Component.port_id ());
        check Alcotest.bool "clean" true (Wfr.is_valid m));
    tc "DG-01 diagram shows unresolved element" (fun () ->
        let m = Model.create "m" in
        Model.add_diagram m
          (Diagram.make ~elements:[ Ident.of_string "ghost" ]
             Diagram.Class_diagram "d");
        check Alcotest.bool "DG-01" true (has_rule "DG-01" m));
    tc "LK-01 link with unresolved ends" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_link
             (Instance.link (Ident.of_string "ghost1")
                (Ident.of_string "ghost2")));
        check Alcotest.bool "LK-01" true (has_rule "LK-01" m));
    tc "links with resolved ends pass" (fun () ->
        let m = Model.create "m" in
        let i1 = Instance.make "a" in
        let i2 = Instance.make "b" in
        Model.add m (Model.E_instance i1);
        Model.add m (Model.E_instance i2);
        Model.add m
          (Model.E_link (Instance.link i1.Instance.inst_id i2.Instance.inst_id));
        check Alcotest.bool "valid" true (Wfr.is_valid m));
    tc "DE-01 deployment with unresolved artifact" (fun () ->
        let m = Model.create "m" in
        Model.add m
          (Model.E_deployment
             (Deployment.deploy ~artifact:(Ident.of_string "ghost")
                ~target:(Ident.of_string "ghost2") ()));
        check Alcotest.bool "DE-01" true (has_rule "DE-01" m));
    tc "to_string mentions rule and severity" (fun () ->
        let d =
          { Wfr.diag_severity = Wfr.Error; diag_rule = "XX-99";
            diag_element = Some (Ident.of_string "e1");
            diag_message = "boom" }
        in
        let s = Wfr.to_string d in
        check Alcotest.bool "has rule id" true
          (String.length s >= 5
          &&
          let contains hay needle =
            let nl = String.length needle in
            let hl = String.length hay in
            let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
            go 0
          in
          contains s "XX-99" && contains s "boom"));
    tc "PR-01 application names an unknown stereotype" (fun () ->
        let m = Model.create "m" in
        let c = Classifier.make ~id:(Ident.of_string "A") "A" in
        Model.add m (Model.E_classifier c);
        Model.add_application m
          (Profile.apply ~stereotype:(Ident.of_string "ghost")
             ~element:c.Classifier.cl_id ());
        check
          (Alcotest.list Alcotest.string)
          "one PR-01"
          [
            "error(PR-01) [A]: application references unknown stereotype \
             ghost";
          ]
          (List.map Wfr.to_string (Wfr.check m)));
    tc "PR-03 stereotype applied to an unresolved element" (fun () ->
        let m = Model.create "m" in
        let s = Profile.stereotype "st" in
        Model.add m (Model.E_profile (Profile.make "p" [ s ]));
        Model.add_application m
          (Profile.apply ~stereotype:s.Profile.ster_id
             ~element:(Ident.of_string "ghost") ());
        check
          (Alcotest.list Alcotest.string)
          "one PR-03, no element"
          [ "error(PR-03): stereotype st applied to unresolved element ghost" ]
          (List.map Wfr.to_string (Wfr.check m)));
    tc "first profile wins for a duplicated stereotype name or id" (fun () ->
        let m = Model.create "m" in
        let level v =
          [ Profile.tag ~default:(Vspec.of_int v) "level" Dtype.Integer ]
        in
        let first = Profile.stereotype ~tags:(level 1) "hot" in
        let second = Profile.stereotype ~tags:(level 2) "hot" in
        (* same id as [first], another name and metaclass *)
        let twin =
          Profile.stereotype ~id:first.Profile.ster_id
            ~extends:[ Profile.M_component ] "twin"
        in
        Model.add m (Model.E_profile (Profile.make "p1" [ first ]));
        Model.add m (Model.E_profile (Profile.make "p2" [ second; twin ]));
        let a = Classifier.make "A" and b = Classifier.make "B" in
        Model.add m (Model.E_classifier a);
        Model.add m (Model.E_classifier b);
        let apply (s : Profile.stereotype) (c : Classifier.t) =
          Model.add_application m
            (Profile.apply ~stereotype:s.Profile.ster_id
               ~element:c.Classifier.cl_id ())
        in
        apply second a;
        apply first b;
        check Alcotest.bool "second profile's hot is not «hot»" false
          (Model.has_stereotype m a.Classifier.cl_id "hot");
        check Alcotest.bool "first profile's hot is «hot»" true
          (Model.has_stereotype m b.Classifier.cl_id "hot");
        (match Model.stereotype_lookup m b.Classifier.cl_id "hot" with
         | Some (s, app) ->
           check (Alcotest.option Alcotest.int) "first profile's default"
             (Some 1) (Profile.int_tag_value s app "level")
         | None -> Alcotest.fail "B carries no «hot»");
        (* the id resolves to [first] (extends any), so no PR-04 *)
        check Alcotest.bool "no PR diagnostics" true (Wfr.is_valid m));
    tc "earliest application's tag value wins" (fun () ->
        let m = Model.create "m" in
        let soc = Profiles.Soc_profile.install m in
        let c = Component.make "Bus" in
        Model.add m (Model.E_component c);
        let apply w =
          Profiles.Soc_profile.apply m ~profile:soc ~stereotype:"bus"
            ~values:[ ("dataWidth", Vspec.of_int w) ]
            c.Component.cmp_id
        in
        apply 0;
        apply 64;
        check (Alcotest.option Alcotest.int) "earliest" (Some 0)
          (Profiles.Soc_profile.tag_int m ~element:c.Component.cmp_id
             ~stereotype:"bus" "dataWidth");
        check (Alcotest.list Alcotest.string) "SOC-05 from the earliest"
          [ "SOC-05" ]
          (List.map (fun d -> d.Wfr.diag_rule) (Profiles.Soc_profile.check m)));
  ]

(* workload-generated machines/models are always well-formed *)
let generator_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated flat machines are well-formed"
         ~count:25
         QCheck.(int_range 1 1000)
         (fun seed ->
           let sm = Workload.Gen_statechart.flat ~seed ~states:6 ~events:3 in
           let m = Model.create "m" in
           Model.add m (Model.E_state_machine sm);
           Wfr.is_valid m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated hierarchical machines are well-formed"
         ~count:25
         QCheck.(int_range 1 1000)
         (fun seed ->
           let sm =
             Workload.Gen_statechart.hierarchical ~seed ~depth:3 ~breadth:2
               ~events:3
           in
           let m = Model.create "m" in
           Model.add m (Model.E_state_machine sm);
           Wfr.is_valid m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated activities are well-formed" ~count:25
         QCheck.(int_range 1 1000)
         (fun seed ->
           let act =
             Workload.Gen_activity.series_parallel ~seed ~size:12 ~max_width:3
           in
           let m = Model.create "m" in
           Model.add m (Model.E_activity act);
           Wfr.is_valid m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated structural models are well-formed"
         ~count:15
         QCheck.(int_range 1 1000)
         (fun seed ->
           let m = Workload.Gen_model.structural ~seed ~classes:20 in
           Wfr.errors (Wfr.check m) = []));
  ]

let () =
  Alcotest.run "wfr"
    [
      ("structural", structural_tests);
      ("state-machines", statemachine_tests);
      ("activities", activity_wfr_tests);
      ("misc", misc_tests);
      ("generators", generator_properties);
    ]
