(** The model container.

    A model owns every element, keyed by identifier, plus stereotype
    applications and diagrams.  The container is imperative (hash-indexed
    for O(1) lookup in large models) but preserves insertion order so
    that serialization and code generation are deterministic. *)

type element =
  | E_classifier of Classifier.t
  | E_association of Classifier.association
  | E_package of Pkg.t
  | E_state_machine of Smachine.t
  | E_activity of Activityg.t
  | E_interaction of Interaction.t
  | E_use_case of Usecase.t
  | E_component of Component.t
  | E_instance of Instance.t
  | E_link of Instance.link
  | E_deployment_node of Deployment.node
  | E_artifact of Deployment.artifact
  | E_deployment of Deployment.deployment
  | E_communication_path of Deployment.communication_path
  | E_profile of Profile.t
[@@deriving eq, show]

type t

val create : ?capacity:int -> string -> t
(** [create name] makes an empty model.  [capacity] pre-sizes the
    element index when the caller knows how many elements are coming
    (bulk loaders), avoiding rehash chains during construction. *)

val name : t -> string
val set_name : t -> string -> unit

val element_id : element -> Ident.t
val element_name : element -> string
val element_kind : element -> string
(** Metaclass-style name of the variant, e.g. ["Class"],
    ["StateMachine"]. *)

val add : t -> element -> unit
(** @raise Invalid_argument on a duplicate identifier.  A model that
    raised here is half-updated and must be discarded (every in-repo
    caller builds a fresh model and drops it on failure). *)

val replace : t -> element -> unit
(** Replace the element with the same identifier; adds if absent.
    Insertion order of a replaced element is preserved. *)

val remove : t -> Ident.t -> unit
val find : t -> Ident.t -> element option
val mem : t -> Ident.t -> bool
val elements : t -> element list
(** All elements in insertion order. *)

val size : t -> int
val iter : (element -> unit) -> t -> unit
val fold : ('a -> element -> 'a) -> 'a -> t -> 'a

val classifiers : t -> Classifier.t list
val components : t -> Component.t list
val state_machines : t -> Smachine.t list
val activities : t -> Activityg.t list
val packages : t -> Pkg.t list
val interactions : t -> Interaction.t list
val use_cases : t -> Usecase.t list
val profiles : t -> Profile.t list
val instances : t -> Instance.t list
val associations : t -> Classifier.association list

val find_classifier : t -> Ident.t -> Classifier.t option
val find_component : t -> Ident.t -> Component.t option
val find_state_machine : t -> Ident.t -> Smachine.t option
val find_activity : t -> Ident.t -> Activityg.t option

val classifier_named : t -> string -> Classifier.t option
val component_named : t -> string -> Component.t option

val add_application : t -> Profile.application -> unit
val applications : t -> Profile.application list
val applications_of : t -> Ident.t -> Profile.application list
(** Stereotype applications attached to the given element. *)

val stereotypes_by :
  (Profile.stereotype -> 'k) -> t -> ('k, Profile.stereotype) Hashtbl.t
(** [stereotypes_by key m] indexes every stereotype of every profile in
    [m] by [key].  Where keys collide, the first profile in element
    order wins, and within it the first stereotype. *)

val stereotype_lookup :
  t -> Ident.t -> string -> (Profile.stereotype * Profile.application) option
(** [stereotype_lookup m] resolves stereotypes by name on elements of
    [m]: [stereotype_lookup m elt name] is the stereotype called [name]
    together with its application on [elt], or [None] when no profile
    defines [name] or the element does not carry it.

    Resolution rules: a name resolves as in {!stereotypes_by} (the
    first profile, in element order, that defines it, and within that
    profile its first stereotype of that name); of several applications
    of that stereotype (by identifier) on one element, the earliest in
    {!applications} order wins.

    The partial application [stereotype_lookup m] indexes the profiles
    and applications once (O(model)); the returned closure answers each
    lookup in O(1).  It is a snapshot: elements and applications added
    to [m] afterwards are not seen.  Build it once per pass. *)

val has_stereotype : t -> Ident.t -> string -> bool
(** [has_stereotype m elt name]: is a stereotype called [name] (from any
    applied profile) applied to element [elt]?  Same resolution as
    {!stereotype_lookup}.  Each call indexes the whole model, so a loop
    over elements should build [stereotype_lookup m] once instead. *)

val add_diagram : t -> Diagram.t -> unit
val diagrams : t -> Diagram.t list

val equal : t -> t -> bool
(** Deep structural equality: same name, same elements in the same
    order, same applications and diagrams. *)

val copy : t -> t

val generalization_parents : t -> Ident.t -> Ident.t list
(** Direct generalization targets of a classifier (empty for other
    elements). *)

val all_ancestors : t -> Ident.t -> Ident.Set.t
(** Transitive generalization closure; stops on cycles. *)

val feature_index : t -> (Ident.t, Profile.metaclass) Hashtbl.t
(** Metaclasses of every *nested* feature (attributes, operations,
    ports, parts, connectors, states, transitions, activity nodes) keyed
    by identifier.  Built by one model scan per call; top-level elements
    are not included. *)

val pp : Format.formatter -> t -> unit
