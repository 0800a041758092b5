(** The SoC profile: the "domain specific subset of the UML and its
    semantics" the paper calls for (§2, §4).

    Stereotypes give hardware meaning to UML elements:

    - [«hwModule»] on components: a synthesizable hardware block
      (tags: [area] gate estimate, [clockDomain]);
    - [«ip»] on components: an integrable IP core
      (tags: [vendor], [version]);
    - [«bus»] on components (tags: [dataWidth], [addrWidth]);
    - [«hwPort»] on ports (tags: [width], [direction] in|out);
    - [«clock»] / [«reset»] on ports;
    - [«register»] on properties (tags: [address], [access] ro|rw|wo);
    - [«memory»] on components (tags: [depth], [width]);
    - [«swTask»] on classes: behavior realized in software
      (tags: [priority]);
    - [«hwAccelerator»] on classes: behavior realized in hardware. *)

val profile : unit -> Uml.Profile.t
(** A fresh instance of the profile (fresh identifiers). *)

val install : Uml.Model.t -> Uml.Profile.t
(** Create the profile and add it to the model; returns it. *)

val stereotype_names : string list
(** All stereotype names defined by this profile. *)

val apply :
  Uml.Model.t -> profile:Uml.Profile.t -> stereotype:string ->
  ?values:(string * Uml.Vspec.t) list -> Uml.Ident.t -> unit
(** Apply a stereotype of this profile by name.
    @raise Invalid_argument for unknown stereotype names. *)

val hw_modules : Uml.Model.t -> Uml.Component.t list
(** Components stereotyped [«hwModule»] (or [«ip»], [«bus»],
    [«memory»] — all hardware-realizable). *)

val sw_tasks : Uml.Model.t -> Uml.Classifier.t list

val tag_int :
  Uml.Model.t -> element:Uml.Ident.t -> stereotype:string -> string ->
  int option
(** Integer tag value of an application on the element, with the tag's
    declared default as fallback.  Resolved as {!Uml.Model.stereotype_lookup}
    resolves, which indexes the whole model on each call. *)

val check : Uml.Model.t -> Uml.Wfr.diagnostic list
(** Profile-specific well-formedness: a [«hwModule»] component must have
    exactly one [«clock»] port and at most one [«reset»] port;
    [«hwPort»] widths must be positive; [«register»] addresses must not
    collide within one component; [«bus»] needs positive [dataWidth]. *)
