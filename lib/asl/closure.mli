(** ASL compiled to OCaml closures over slot-resolved frames.

    Compilation resolves every local name of a body to an index into
    one array (the frame), so a variable read is an array load, not a
    hash of its name, and every node's dispatch is decided once, not
    on every evaluation.  The closures take the frame — which carries
    the per-run interpreter state (fuel, store, counters, outbox, print
    lines) — as their argument and capture nothing mutable: one
    compiled body serves every interpreter, request and domain, which
    is why {!Compiled} keeps it in its memo entry.

    The observable semantics are the tree walker's, bit for bit: one
    unit of fuel per node at node entry (before its children) and one
    per loop iteration; the same [asl.*] counts; call arguments before
    the receiver, send arguments before the target, both left to right;
    the same error messages.  {!Interp} is the public face; this module
    holds the types it re-exports. *)

exception Runtime_error of string

type signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

type t
(** Per-run interpreter state: store, resolver, fuel, outbox, print
    lines and the [asl.*] counters. *)

and method_impl =
  | Builtin of (t -> self:Value.t -> Value.t list -> Value.t)
  | Body of body

and body
(** A compiled operation body with its parameter slots. *)

type program
(** A compiled statement sequence. *)

type guard
(** A compiled expression. *)

val create :
  ?fuel:int ->
  ?resolve:(string -> string -> method_impl option) ->
  ?attr_defaults:(string -> (string * Value.t) list) ->
  ?metrics:Telemetry.Metrics.t ->
  Store.t ->
  t

val store : t -> Store.t
val metrics : t -> Telemetry.Metrics.t
val program : Ast.program -> program
val guard : Ast.expr -> guard

val body : string list -> Ast.program -> method_impl
(** [body params prog] compiles an operation body whose arguments bind
    positionally to [params]. *)

val run :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> program ->
  Value.t option
(** Refill the fuel and execute; [Some v] when a [return v] ran.  Params
    bind by name, a later duplicate wins.
    @raise Runtime_error on a dynamic error or fuel exhaustion. *)

val eval :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> guard ->
  Value.t
(** Refill the fuel and evaluate. *)

val as_bool : Value.t -> bool
(** @raise Runtime_error on a non-boolean value. *)

val drain_signals : t -> signal_out list
val output : t -> string list
val clear_output : t -> unit
