(** Profiles: stereotypes with tagged values.

    "It must be tailored to be effectively applied to a certain domain
    ... using a UML profile that defines a relevant domain-specific UML
    subset with semantic extensions" — this module is the profile
    mechanism itself; the SoC and RT tailorings live in the [profiles]
    library. *)

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
  | M_any  (** extension of every metaclass *)
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
  ster_extends : metaclass list;  (** extended metaclasses *)
  ster_tags : tag_definition list;
}
[@@deriving eq, ord, show]

type t = {
  prof_id : Ident.t;
  prof_name : string;
  prof_stereotypes : stereotype list;
}
[@@deriving eq, ord, show]

(** A stereotype application attaches a stereotype (by id) to a model
    element (by id), with values for the stereotype's tags. *)
type application = {
  app_element : Ident.t;
  app_stereotype : Ident.t;
  app_values : (string * Vspec.t) list;
}
[@@deriving eq, ord, show]

val tag : ?default:Vspec.t -> string -> Dtype.t -> tag_definition

val stereotype : ?id:Ident.t -> ?extends:metaclass list ->
  ?tags:tag_definition list -> string -> stereotype

val make : ?id:Ident.t -> string -> stereotype list -> t

val apply : ?values:(string * Vspec.t) list -> stereotype:Ident.t ->
  element:Ident.t -> unit -> application

val find_stereotype : t -> string -> stereotype option

val tag_value : stereotype -> application -> string -> Vspec.t option
(** Value of a tag on an application, falling back to the tag's declared
    default. *)

val int_tag_value : stereotype -> application -> string -> int option
(** {!tag_value} when it is an integer literal, [None] otherwise. *)

val metaclass_name : metaclass -> string
