open Uml

let stereotype_names =
  [
    "hwModule";
    "ip";
    "bus";
    "hwPort";
    "clock";
    "reset";
    "register";
    "memory";
    "swTask";
    "hwAccelerator";
  ]

let profile () =
  let tag = Profile.tag in
  let stereotypes =
    [
      Profile.stereotype ~extends:[ Profile.M_component ]
        ~tags:
          [
            tag ~default:(Vspec.Int_literal 0) "area" Dtype.Integer;
            tag ~default:(Vspec.String_literal "clk") "clockDomain"
              Dtype.String_type;
          ]
        "hwModule";
      Profile.stereotype ~extends:[ Profile.M_component ]
        ~tags:
          [
            tag "vendor" Dtype.String_type;
            tag ~default:(Vspec.String_literal "1.0") "version"
              Dtype.String_type;
          ]
        "ip";
      Profile.stereotype ~extends:[ Profile.M_component ]
        ~tags:
          [
            tag ~default:(Vspec.Int_literal 32) "dataWidth" Dtype.Integer;
            tag ~default:(Vspec.Int_literal 16) "addrWidth" Dtype.Integer;
          ]
        "bus";
      Profile.stereotype ~extends:[ Profile.M_port ]
        ~tags:
          [
            tag ~default:(Vspec.Int_literal 1) "width" Dtype.Integer;
            tag ~default:(Vspec.String_literal "in") "direction"
              Dtype.String_type;
          ]
        "hwPort";
      Profile.stereotype ~extends:[ Profile.M_port ] "clock";
      Profile.stereotype ~extends:[ Profile.M_port ] "reset";
      Profile.stereotype ~extends:[ Profile.M_property ]
        ~tags:
          [
            tag "address" Dtype.Integer;
            tag ~default:(Vspec.String_literal "rw") "access"
              Dtype.String_type;
          ]
        "register";
      Profile.stereotype ~extends:[ Profile.M_component ]
        ~tags:
          [
            tag ~default:(Vspec.Int_literal 256) "depth" Dtype.Integer;
            tag ~default:(Vspec.Int_literal 8) "width" Dtype.Integer;
          ]
        "memory";
      Profile.stereotype ~extends:[ Profile.M_class ]
        ~tags:[ tag ~default:(Vspec.Int_literal 0) "priority" Dtype.Integer ]
        "swTask";
      Profile.stereotype ~extends:[ Profile.M_class ] "hwAccelerator";
    ]
  in
  Profile.make "SoC" stereotypes

let install m =
  let p = profile () in
  Model.add m (Model.E_profile p);
  p

let apply m ~profile:p ~stereotype ?(values = []) element =
  match Profile.find_stereotype p stereotype with
  | None -> invalid_arg (Printf.sprintf "Soc_profile.apply: no stereotype %s" stereotype)
  | Some s ->
    Model.add_application m
      (Profile.apply ~values ~stereotype:s.Profile.ster_id ~element ())

let hw_stereotypes = [ "hwModule"; "ip"; "bus"; "memory" ]

let hw_modules m =
  let lookup = Model.stereotype_lookup m in
  List.filter
    (fun c ->
      List.exists
        (fun name -> Option.is_some (lookup c.Component.cmp_id name))
        hw_stereotypes)
    (Model.components m)

let sw_tasks m =
  let lookup = Model.stereotype_lookup m in
  List.filter
    (fun c -> Option.is_some (lookup c.Classifier.cl_id "swTask"))
    (Model.classifiers m)

(* The integer value of [tagname] on [element]'s [stereotype]
   application, through a lookup built once per pass. *)
let int_tag lookup element stereotype tagname =
  Option.bind (lookup element stereotype) (fun (ster, app) ->
      Profile.int_tag_value ster app tagname)

let tag_int m ~element ~stereotype tagname =
  int_tag (Model.stereotype_lookup m) element stereotype tagname

(* --- profile-specific WFRs ------------------------------------------ *)

let diag rule element message =
  {
    Wfr.diag_severity = Wfr.Error;
    diag_rule = rule;
    diag_element = Some element;
    diag_message = message;
  }

let check m =
  let lookup = Model.stereotype_lookup m in
  let has id name = Option.is_some (lookup id name) in
  let check_hw_module acc (c : Component.t) =
    if not (has c.Component.cmp_id "hwModule") then acc
    else begin
      let clocks =
        List.filter
          (fun p -> has p.Component.port_id "clock")
          c.Component.cmp_ports
      in
      let resets =
        List.filter
          (fun p -> has p.Component.port_id "reset")
          c.Component.cmp_ports
      in
      let acc =
        if List.length clocks = 1 then acc
        else
          diag "SOC-01" c.Component.cmp_id
            (Printf.sprintf "«hwModule» %s must have exactly one «clock» port (has %d)"
               c.Component.cmp_name (List.length clocks))
          :: acc
      in
      if List.length resets <= 1 then acc
      else
        diag "SOC-02" c.Component.cmp_id
          (Printf.sprintf "«hwModule» %s has %d «reset» ports"
             c.Component.cmp_name (List.length resets))
        :: acc
    end
  in
  let check_hw_ports acc (c : Component.t) =
    List.fold_left
      (fun acc (p : Component.port) ->
        match int_tag lookup p.Component.port_id "hwPort" "width" with
        | Some w when w <= 0 ->
          diag "SOC-03" p.Component.port_id
            (Printf.sprintf "«hwPort» %s has non-positive width %d"
               p.Component.port_name w)
          :: acc
        | Some _ | None -> acc)
      acc c.Component.cmp_ports
  in
  let check_registers acc (cl : Classifier.t) =
    let addressed =
      List.filter_map
        (fun (p : Classifier.property) ->
          Option.map
            (fun a -> (p.Classifier.prop_name, a))
            (int_tag lookup p.Classifier.prop_id "register" "address"))
        cl.Classifier.cl_attributes
    in
    let sorted = List.sort (fun (_, a) (_, b) -> compare a b) addressed in
    let rec collide acc = function
      | (n1, a1) :: ((n2, a2) :: _ as rest) ->
        let acc =
          if a1 = a2 then
            diag "SOC-04" cl.Classifier.cl_id
              (Printf.sprintf
                 "registers %s and %s of %s share address 0x%x" n1 n2
                 cl.Classifier.cl_name a1)
            :: acc
          else acc
        in
        collide acc rest
      | [ _ ] | [] -> acc
    in
    collide acc sorted
  in
  let check_bus acc (c : Component.t) =
    match int_tag lookup c.Component.cmp_id "bus" "dataWidth" with
    | Some w when w <= 0 ->
      diag "SOC-05" c.Component.cmp_id
        (Printf.sprintf "«bus» %s has non-positive dataWidth"
           c.Component.cmp_name)
      :: acc
    | Some _ | None -> acc
  in
  let acc = List.fold_left check_hw_module [] (Model.components m) in
  let acc = List.fold_left check_hw_ports acc (Model.components m) in
  let acc = List.fold_left check_registers acc (Model.classifiers m) in
  let acc = List.fold_left check_bus acc (Model.components m) in
  List.rev acc
