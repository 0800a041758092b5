type metaclass =
  | M_class
  | M_interface
  | M_component
  | M_port
  | M_property
  | M_operation
  | M_package
  | M_state_machine
  | M_state
  | M_transition
  | M_activity
  | M_action
  | M_node
  | M_artifact
  | M_connector
  | M_any
[@@deriving eq, ord, show]

type tag_definition = {
  tag_name : string;
  tag_type : Dtype.t;
  tag_default : Vspec.t option;
}
[@@deriving eq, ord, show]

type stereotype = {
  ster_id : Ident.t;
  ster_name : string;
  ster_extends : metaclass list;
  ster_tags : tag_definition list;
}
[@@deriving eq, ord, show]

type t = {
  prof_id : Ident.t;
  prof_name : string;
  prof_stereotypes : stereotype list;
}
[@@deriving eq, ord, show]

type application = {
  app_element : Ident.t;
  app_stereotype : Ident.t;
  app_values : (string * Vspec.t) list;
}
[@@deriving eq, ord, show]

let tag ?default name ty =
  { tag_name = name; tag_type = ty; tag_default = default }

let stereotype ?id ?(extends = [ M_any ]) ?(tags = []) name =
  let ster_id =
    match id with
    | Some i -> i
    | None -> Ident.fresh ~prefix:"ste" ()
  in
  { ster_id; ster_name = name; ster_extends = extends; ster_tags = tags }

let make ?id name stereotypes =
  let prof_id =
    match id with
    | Some i -> i
    | None -> Ident.fresh ~prefix:"prf" ()
  in
  { prof_id; prof_name = name; prof_stereotypes = stereotypes }

let apply ?(values = []) ~stereotype ~element () =
  { app_element = element; app_stereotype = stereotype; app_values = values }

let find_stereotype p name =
  List.find_opt (fun s -> s.ster_name = name) p.prof_stereotypes

let tag_value ster app name =
  match List.assoc_opt name app.app_values with
  | Some v -> Some v
  | None -> (
    match List.find_opt (fun t -> t.tag_name = name) ster.ster_tags with
    | Some t -> t.tag_default
    | None -> None)

let int_tag_value ster app name =
  match tag_value ster app name with
  | Some (Vspec.Int_literal i) -> Some i
  | Some _ | None -> None

let metaclass_name = function
  | M_class -> "Class"
  | M_interface -> "Interface"
  | M_component -> "Component"
  | M_port -> "Port"
  | M_property -> "Property"
  | M_operation -> "Operation"
  | M_package -> "Package"
  | M_state_machine -> "StateMachine"
  | M_state -> "State"
  | M_transition -> "Transition"
  | M_activity -> "Activity"
  | M_action -> "Action"
  | M_node -> "Node"
  | M_artifact -> "Artifact"
  | M_connector -> "Connector"
  | M_any -> "Element"
