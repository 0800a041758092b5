(* Tests for the SoC and RT profiles and their specific WFRs. *)

open Uml

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let soc_model () =
  let m = Model.create "m" in
  let profile = Profiles.Soc_profile.install m in
  (m, profile)

let soc_tests =
  [
    tc "profile declares the documented stereotypes" (fun () ->
        let p = Profiles.Soc_profile.profile () in
        List.iter
          (fun name ->
            check Alcotest.bool name true
              (Profile.find_stereotype p name <> None))
          Profiles.Soc_profile.stereotype_names);
    tc "hwModule without clock port is flagged" (fun () ->
        let m, profile = soc_model () in
        let comp = Component.make "Naked" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"hwModule"
          comp.Component.cmp_id;
        let diags = Profiles.Soc_profile.check m in
        check Alcotest.bool "SOC-01" true
          (List.exists (fun d -> d.Wfr.diag_rule = "SOC-01") diags));
    tc "hwModule with one clock passes" (fun () ->
        let m, profile = soc_model () in
        let clk = Component.port "clk" in
        let comp = Component.make ~ports:[ clk ] "Good" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"hwModule"
          comp.Component.cmp_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"clock"
          clk.Component.port_id;
        check Alcotest.int "clean" 0
          (List.length (Profiles.Soc_profile.check m)));
    tc "two reset ports are flagged" (fun () ->
        let m, profile = soc_model () in
        let clk = Component.port "clk" in
        let r1 = Component.port "rst_a" in
        let r2 = Component.port "rst_b" in
        let comp = Component.make ~ports:[ clk; r1; r2 ] "DoubleReset" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"hwModule"
          comp.Component.cmp_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"clock"
          clk.Component.port_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"reset"
          r1.Component.port_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"reset"
          r2.Component.port_id;
        let diags = Profiles.Soc_profile.check m in
        check Alcotest.bool "SOC-02" true
          (List.exists (fun d -> d.Wfr.diag_rule = "SOC-02") diags));
    tc "non-positive hwPort width is flagged" (fun () ->
        let m, profile = soc_model () in
        let port = Component.port "d" in
        let comp = Component.make ~ports:[ port ] "C" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"hwPort"
          ~values:[ ("width", Vspec.of_int 0) ]
          port.Component.port_id;
        let diags = Profiles.Soc_profile.check m in
        check Alcotest.bool "SOC-03" true
          (List.exists (fun d -> d.Wfr.diag_rule = "SOC-03") diags));
    tc "register address collisions are flagged" (fun () ->
        let m, profile = soc_model () in
        let r1 = Classifier.property "ctrl" Dtype.Integer in
        let r2 = Classifier.property "status" Dtype.Integer in
        let cl = Classifier.make ~attributes:[ r1; r2 ] "Block" in
        Model.add m (Model.E_classifier cl);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"register"
          ~values:[ ("address", Vspec.of_int 4) ]
          r1.Classifier.prop_id;
        Profiles.Soc_profile.apply m ~profile ~stereotype:"register"
          ~values:[ ("address", Vspec.of_int 4) ]
          r2.Classifier.prop_id;
        let diags = Profiles.Soc_profile.check m in
        check Alcotest.bool "SOC-04" true
          (List.exists (fun d -> d.Wfr.diag_rule = "SOC-04") diags));
    tc "tag defaults are visible through tag_int" (fun () ->
        let m, profile = soc_model () in
        let comp = Component.make "C" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"bus"
          comp.Component.cmp_id;
        check (Alcotest.option Alcotest.int) "default 32" (Some 32)
          (Profiles.Soc_profile.tag_int m ~element:comp.Component.cmp_id
             ~stereotype:"bus" "dataWidth"));
    tc "hw_modules and sw_tasks filter by stereotype" (fun () ->
        let m, profile = soc_model () in
        let comp = Component.make "C" in
        Model.add m (Model.E_component comp);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"ip"
          comp.Component.cmp_id;
        let cl = Classifier.make "Task" in
        Model.add m (Model.E_classifier cl);
        Profiles.Soc_profile.apply m ~profile ~stereotype:"swTask"
          cl.Classifier.cl_id;
        check Alcotest.int "hw" 1
          (List.length (Profiles.Soc_profile.hw_modules m));
        check Alcotest.int "sw" 1
          (List.length (Profiles.Soc_profile.sw_tasks m)));
    tc "apply rejects unknown stereotype names" (fun () ->
        let m, profile = soc_model () in
        let comp = Component.make "C" in
        Model.add m (Model.E_component comp);
        match
          Profiles.Soc_profile.apply m ~profile ~stereotype:"ghost"
            comp.Component.cmp_id
        with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

let rt_tests =
  [
    tc "capsule must be active" (fun () ->
        let m = Model.create "m" in
        let profile = Profiles.Rt_profile.install m in
        let passive = Classifier.make "P" in
        Model.add m (Model.E_classifier passive);
        Profiles.Rt_profile.apply m ~profile ~stereotype:"capsule"
          passive.Classifier.cl_id;
        let diags = Profiles.Rt_profile.check m in
        check Alcotest.bool "RT-01" true
          (List.exists (fun d -> d.Wfr.diag_rule = "RT-01") diags));
    tc "active capsule passes" (fun () ->
        let m = Model.create "m" in
        let profile = Profiles.Rt_profile.install m in
        let active = Classifier.make ~is_active:true "A" in
        Model.add m (Model.E_classifier active);
        Profiles.Rt_profile.apply m ~profile ~stereotype:"capsule"
          active.Classifier.cl_id;
        check Alcotest.int "clean" 0 (List.length (Profiles.Rt_profile.check m)));
    tc "periodic deadline beyond period is flagged" (fun () ->
        let m = Model.create "m" in
        let profile = Profiles.Rt_profile.install m in
        let op = Classifier.operation "tick" in
        let cl = Classifier.make ~operations:[ op ] "C" in
        Model.add m (Model.E_classifier cl);
        Profiles.Rt_profile.apply m ~profile ~stereotype:"periodic"
          ~values:[ ("period", Vspec.of_int 10); ("deadline", Vspec.of_int 20) ]
          op.Classifier.op_id;
        let diags = Profiles.Rt_profile.check m in
        check Alcotest.bool "RT-03" true
          (List.exists (fun d -> d.Wfr.diag_rule = "RT-03") diags));
    tc "non-positive period is flagged" (fun () ->
        let m = Model.create "m" in
        let profile = Profiles.Rt_profile.install m in
        let op = Classifier.operation "tick" in
        let cl = Classifier.make ~operations:[ op ] "C" in
        Model.add m (Model.E_classifier cl);
        Profiles.Rt_profile.apply m ~profile ~stereotype:"periodic"
          ~values:[ ("period", Vspec.of_int 0) ]
          op.Classifier.op_id;
        let diags = Profiles.Rt_profile.check m in
        check Alcotest.bool "RT-02" true
          (List.exists (fun d -> d.Wfr.diag_rule = "RT-02") diags));
    tc "both profiles coexist in one model" (fun () ->
        let m = Model.create "m" in
        let _soc = Profiles.Soc_profile.install m in
        let _rt = Profiles.Rt_profile.install m in
        check Alcotest.int "two profiles" 2
          (List.length (Model.profiles m));
        check Alcotest.bool "valid" true (Wfr.is_valid m));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: the indexed stereotype resolution against the linear
   scans it replaced.  [Oracle] re-states each public definition as it
   read before [Model.stereotype_lookup]: every lookup rebuilds the
   profile list and walks every application. *)

module Oracle = struct
  let stereotype_named m n =
    List.find_map
      (fun p -> Option.map (fun s -> (p, s)) (Profile.find_stereotype p n))
      (Model.profiles m)

  let application m elt (ster : Profile.stereotype) =
    List.find_opt
      (fun a ->
        Ident.equal a.Profile.app_element elt
        && Ident.equal a.Profile.app_stereotype ster.Profile.ster_id)
      (Model.applications m)

  let has_stereotype m elt n =
    match stereotype_named m n with
    | None -> false
    | Some (_, ster) -> application m elt ster <> None

  let tag_int m ~element ~stereotype tagname =
    match stereotype_named m stereotype with
    | None -> None
    | Some (_, ster) -> (
      match application m element ster with
      | None -> None
      | Some app -> (
        match Profile.tag_value ster app tagname with
        | Some (Vspec.Int_literal i) -> Some i
        | Some _ | None -> None))

  let hw_modules m =
    List.filter
      (fun c ->
        List.exists
          (has_stereotype m c.Component.cmp_id)
          [ "hwModule"; "ip"; "bus"; "memory" ])
      (Model.components m)

  let sw_tasks m =
    List.filter
      (fun c -> has_stereotype m c.Classifier.cl_id "swTask")
      (Model.classifiers m)

  let diag rule element message =
    { Wfr.diag_severity = Wfr.Error; diag_rule = rule;
      diag_element = element; diag_message = message }

  let soc_check m =
    let has = has_stereotype m in
    let count id_of name ports =
      List.length (List.filter (fun p -> has (id_of p) name) ports)
    in
    let hw_module acc (c : Component.t) =
      if not (has c.Component.cmp_id "hwModule") then acc
      else
        let port_id p = p.Component.port_id in
        let clocks = count port_id "clock" c.Component.cmp_ports in
        let resets = count port_id "reset" c.Component.cmp_ports in
        let acc =
          if clocks = 1 then acc
          else
            diag "SOC-01" (Some c.Component.cmp_id)
              (Printf.sprintf
                 "«hwModule» %s must have exactly one «clock» port (has %d)"
                 c.Component.cmp_name clocks)
            :: acc
        in
        if resets <= 1 then acc
        else
          diag "SOC-02" (Some c.Component.cmp_id)
            (Printf.sprintf "«hwModule» %s has %d «reset» ports"
               c.Component.cmp_name resets)
          :: acc
    in
    let hw_ports acc (c : Component.t) =
      List.fold_left
        (fun acc (p : Component.port) ->
          if not (has p.Component.port_id "hwPort") then acc
          else
            match
              tag_int m ~element:p.Component.port_id ~stereotype:"hwPort"
                "width"
            with
            | Some w when w <= 0 ->
              diag "SOC-03" (Some p.Component.port_id)
                (Printf.sprintf "«hwPort» %s has non-positive width %d"
                   p.Component.port_name w)
              :: acc
            | Some _ | None -> acc)
        acc c.Component.cmp_ports
    in
    let registers acc (cl : Classifier.t) =
      let addressed =
        List.filter_map
          (fun (p : Classifier.property) ->
            if has p.Classifier.prop_id "register" then
              Option.map
                (fun a -> (p.Classifier.prop_name, a))
                (tag_int m ~element:p.Classifier.prop_id
                   ~stereotype:"register" "address")
            else None)
          cl.Classifier.cl_attributes
      in
      let sorted = List.sort (fun (_, a) (_, b) -> compare a b) addressed in
      let rec collide acc = function
        | (n1, a1) :: ((n2, a2) :: _ as rest) ->
          let acc =
            if a1 = a2 then
              diag "SOC-04" (Some cl.Classifier.cl_id)
                (Printf.sprintf "registers %s and %s of %s share address 0x%x"
                   n1 n2 cl.Classifier.cl_name a1)
              :: acc
            else acc
          in
          collide acc rest
        | [ _ ] | [] -> acc
      in
      collide acc sorted
    in
    let bus acc (c : Component.t) =
      if not (has c.Component.cmp_id "bus") then acc
      else
        match
          tag_int m ~element:c.Component.cmp_id ~stereotype:"bus" "dataWidth"
        with
        | Some w when w <= 0 ->
          diag "SOC-05" (Some c.Component.cmp_id)
            (Printf.sprintf "«bus» %s has non-positive dataWidth"
               c.Component.cmp_name)
          :: acc
        | Some _ | None -> acc
    in
    let acc = List.fold_left hw_module [] (Model.components m) in
    let acc = List.fold_left hw_ports acc (Model.components m) in
    let acc = List.fold_left registers acc (Model.classifiers m) in
    let acc = List.fold_left bus acc (Model.components m) in
    List.rev acc

  let rt_check m =
    let capsule acc (cl : Classifier.t) =
      if has_stereotype m cl.Classifier.cl_id "capsule"
         && not cl.Classifier.cl_is_active
      then
        diag "RT-01" (Some cl.Classifier.cl_id)
          (Printf.sprintf "«capsule» %s must be an active class"
             cl.Classifier.cl_name)
        :: acc
      else acc
    in
    let periodic acc (cl : Classifier.t) =
      List.fold_left
        (fun acc (op : Classifier.operation) ->
          let id = op.Classifier.op_id in
          if not (has_stereotype m id "periodic") then acc
          else
            let value = tag_int m ~element:id ~stereotype:"periodic" in
            let period = value "period" and deadline = value "deadline" in
            let acc =
              match period with
              | Some p when p <= 0 ->
                diag "RT-02" (Some id)
                  (Printf.sprintf "«periodic» %s has non-positive period"
                     op.Classifier.op_name)
                :: acc
              | Some _ | None -> acc
            in
            match period, deadline with
            | Some p, Some d when d > p ->
              diag "RT-03" (Some id)
                (Printf.sprintf "«periodic» %s deadline %d exceeds period %d"
                   op.Classifier.op_name d p)
              :: acc
            | _, _ -> acc)
        acc cl.Classifier.cl_operations
    in
    let acc = List.fold_left capsule [] (Model.classifiers m) in
    let acc = List.fold_left periodic acc (Model.classifiers m) in
    List.rev acc

  let metaclass_of_element = function
    | Model.E_classifier c -> (
      match c.Classifier.cl_kind with
      | Classifier.Interface -> Profile.M_interface
      | _ -> Profile.M_class)
    | Model.E_component _ -> Profile.M_component
    | Model.E_package _ -> Profile.M_package
    | Model.E_state_machine _ -> Profile.M_state_machine
    | Model.E_activity _ -> Profile.M_activity
    | Model.E_deployment_node _ -> Profile.M_node
    | Model.E_artifact _ -> Profile.M_artifact
    | _ -> Profile.M_any

  (* The PR-01..04 diagnostics of [Wfr.check], in its order: one scan
     of every profile's stereotypes per application. *)
  let application_diags m =
    let features = Model.feature_index m in
    let one acc (app : Profile.application) =
      let elt = app.Profile.app_element in
      let stereotypes =
        List.concat_map (fun p -> p.Profile.prof_stereotypes)
          (Model.profiles m)
      in
      match
        List.find_opt
          (fun s -> Ident.equal s.Profile.ster_id app.Profile.app_stereotype)
          stereotypes
      with
      | None ->
        diag "PR-01" (Some elt)
          (Printf.sprintf "application references unknown stereotype %s"
             app.Profile.app_stereotype)
        :: acc
      | Some ster -> (
        let acc =
          List.fold_left
            (fun acc (tag_name, _) ->
              if List.exists (fun t -> t.Profile.tag_name = tag_name)
                   ster.Profile.ster_tags
              then acc
              else
                diag "PR-02" (Some elt)
                  (Printf.sprintf "value for undeclared tag %s on stereotype %s"
                     tag_name ster.Profile.ster_name)
                :: acc)
            acc app.Profile.app_values
        in
        let target =
          match Model.find m elt with
          | Some e -> Some (metaclass_of_element e)
          | None -> Hashtbl.find_opt features elt
        in
        match target with
        | None ->
          diag "PR-03" None
            (Printf.sprintf "stereotype %s applied to unresolved element %s"
               ster.Profile.ster_name elt)
          :: acc
        | Some mc ->
          if List.exists
               (fun ext -> ext = Profile.M_any || ext = mc)
               ster.Profile.ster_extends
          then acc
          else
            diag "PR-04" (Some elt)
              (Printf.sprintf "stereotype %s does not extend metaclass %s"
                 ster.Profile.ster_name (Profile.metaclass_name mc))
            :: acc)
    in
    List.rev (List.fold_left one [] (Model.applications m))
end

let stereotype_pool =
  Profiles.Soc_profile.stereotype_names @ Profiles.Rt_profile.stereotype_names
  @ [ "ghost" ]

let tag_pool =
  [ "width"; "dataWidth"; "address"; "period"; "deadline"; "priority"; "ghost" ]

(* A random model with 0-3 profiles drawn from SoC, RT and two ad-hoc
   profiles that redefine SoC/RT stereotype names (with their own tag
   defaults) and sometimes reuse their identifiers; profiles sit at
   random positions in element order.  Applications pick their element
   from every element, port, attribute and operation plus a missing id,
   their stereotype from every stereotype (applied or not) plus a
   missing id, and often repeat an earlier (element, stereotype) pair
   with other values.  Returns the model and every element id probed. *)
let random_model seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let pick l = List.nth l (int (List.length l)) in
  let shuffle l =
    List.map snd (List.sort compare (List.map (fun x -> (int 1000, x)) l))
  in
  let name fmt = Printf.sprintf fmt in
  let comps =
    List.init (int 4) (fun i ->
        Component.make
          ~ports:
            (List.init (int 4) (fun j -> Component.port (name "p%d_%d" i j)))
          (name "Comp%d" i))
  in
  let classes =
    List.init (int 5) (fun i ->
        Classifier.make ~is_active:(Random.State.bool rs)
          ~attributes:
            (List.init (int 4) (fun j ->
                 Classifier.property (name "a%d_%d" i j) Dtype.Integer))
          ~operations:
            (List.init (int 3) (fun j ->
                 Classifier.operation (name "o%d_%d" i j)))
          (name "C%d" i))
  in
  let itf = Classifier.make ~kind:Classifier.Interface "I" in
  let soc = Profiles.Soc_profile.profile () in
  let rt = Profiles.Rt_profile.profile () in
  let known_ids =
    List.map (fun s -> s.Profile.ster_id)
      (soc.Profile.prof_stereotypes @ rt.Profile.prof_stereotypes)
  in
  let ad_hoc label =
    Profile.make label
      (List.init (1 + int 4) (fun _ ->
           let id = if int 3 = 0 then Some (pick known_ids) else None in
           Profile.stereotype ?id
             ~extends:[ pick [ Profile.M_any; Profile.M_port; Profile.M_class;
                               Profile.M_component; Profile.M_operation ] ]
             ~tags:
               [ Profile.tag ~default:(Vspec.of_int (int 5 - 2))
                   (pick tag_pool) Dtype.Integer ]
             (pick stereotype_pool)))
  in
  let candidates = [ soc; rt; ad_hoc "X"; ad_hoc "Y" ] in
  let chosen = List.filteri (fun i _ -> i < int 4) (shuffle candidates) in
  let elements =
    List.map (fun c -> Model.E_component c) comps
    @ List.map (fun c -> Model.E_classifier c) (itf :: classes)
    @ List.map (fun p -> Model.E_profile p) chosen
  in
  let m = Model.create "diff" in
  List.iter (Model.add m) (shuffle elements);
  let element_ids =
    Ident.of_string "ghost_element"
    :: List.map Model.element_id elements
    @ List.concat_map
        (fun c -> List.map (fun p -> p.Component.port_id) c.Component.cmp_ports)
        comps
    @ List.concat_map
        (fun c ->
          List.map (fun p -> p.Classifier.prop_id) c.Classifier.cl_attributes
          @ List.map (fun o -> o.Classifier.op_id) c.Classifier.cl_operations)
        classes
  in
  let ster_ids =
    Ident.of_string "ghost_stereotype"
    :: List.concat_map
         (fun p ->
           List.map (fun s -> s.Profile.ster_id) p.Profile.prof_stereotypes)
         candidates
  in
  let value () =
    if int 5 = 0 then Vspec.String_literal "x" else Vspec.of_int (int 16 - 3)
  in
  let values () = List.init (int 3) (fun _ -> (pick tag_pool, value ())) in
  let apps = ref [] in
  for _ = 1 to int 30 do
    let element, stereotype =
      match !apps with
      | (a : Profile.application) :: _ when int 3 = 0 ->
        (a.Profile.app_element, a.Profile.app_stereotype)
      | _ -> (pick element_ids, pick ster_ids)
    in
    let app = Profile.apply ~values:(values ()) ~stereotype ~element () in
    Model.add_application m app;
    apps := app :: !apps
  done;
  (m, element_ids)

let differential_tests =
  let agrees seed =
    let m, ids = random_model seed in
    let lookups_agree =
      List.for_all
        (fun id ->
          List.for_all
            (fun n ->
              Model.has_stereotype m id n = Oracle.has_stereotype m id n
              && List.for_all
                   (fun tag ->
                     let tag_int = Profiles.Soc_profile.tag_int m in
                     tag_int ~element:id ~stereotype:n tag
                     = Oracle.tag_int m ~element:id ~stereotype:n tag)
                   tag_pool)
            stereotype_pool)
        ids
    in
    let pr_only =
      List.filter (fun d -> String.starts_with ~prefix:"PR-" d.Wfr.diag_rule)
    in
    lookups_agree
    && Profiles.Soc_profile.hw_modules m = Oracle.hw_modules m
    && Profiles.Soc_profile.sw_tasks m = Oracle.sw_tasks m
    && Profiles.Soc_profile.check m = Oracle.soc_check m
    && Profiles.Rt_profile.check m = Oracle.rt_check m
    && pr_only (Wfr.check m) = Oracle.application_diags m
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"indexed stereotype resolution agrees with linear scans"
         ~count:300 QCheck.(int_range 0 1_000_000) agrees);
  ]

let () =
  (* Suite names stay at most three characters wide: Alcotest truncates
     test names to the width left beside the longest suite name. *)
  Alcotest.run "profiles"
    [ ("soc", soc_tests @ differential_tests); ("rt", rt_tests) ]
