(** ASL interpreter.

    Executes programs against an object {!Store}, an environment of
    local variables, and a method registry.  Signals raised by [send]
    are collected in an outbox for the behavioral engines (statechart,
    activity) to dispatch; [print] output is collected as lines.

    Evaluation is closure-compiled ({!Closure}): a program is turned
    once into OCaml closures over a frame whose locals live in slots
    resolved at compile time, then run.  The [*_compiled] and
    [*_source] entry points reuse the compiled form kept in the
    {!Compiled} memo entry; {!run} and {!eval} on a raw AST compile it
    first.

    Execution is fuel-limited so that model-supplied programs cannot
    hang the host: each evaluated statement or expression node costs one
    unit, taken at node entry, and each loop iteration one more — the
    same unit the tree walker this replaced counted, so fuel runs out at
    the same node with the same side effects before it. *)

exception Runtime_error of string

type signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

(** How an operation body is provided. *)
type method_impl =
  | Builtin of (t -> self:Value.t -> Value.t list -> Value.t)
  | Body of body  (** built with {!body} *)

and t
and body

val body : string list -> Ast.program -> method_impl
(** [body params prog] compiles an operation body once; a call binds its
    arguments positionally to [params] (a duplicated name keeps the last
    argument). *)

val create :
  ?fuel:int ->
  ?resolve:(string -> string -> method_impl option) ->
  ?attr_defaults:(string -> (string * Value.t) list) ->
  ?metrics:Telemetry.Metrics.t ->
  Store.t ->
  t
(** [create store] builds an interpreter.  [fuel] (default 1_000_000)
    bounds the total number of evaluation steps per [run]/[eval] call.
    [resolve class op] supplies operation bodies.  [attr_defaults class]
    supplies initial attribute values for [new].  [metrics] (default
    {!Telemetry.Metrics.null}) receives the [asl.statements],
    [asl.store_reads] and [asl.store_writes] counters. *)

val store : t -> Store.t

val metrics : t -> Telemetry.Metrics.t
(** The registry supplied at creation time. *)

val run :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> Ast.program ->
  Value.t option
(** Compile, then execute; [Some v] when a [return v] was executed.
    Params bind by name; a later duplicate wins.
    @raise Runtime_error on a dynamic error or fuel exhaustion. *)

val run_source :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> string ->
  Value.t option
(** Parse and compile (memoized via {!Compiled.program}), then execute
    as {!run}.
    @raise Runtime_error also on parse errors. *)

val run_compiled :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t ->
  Compiled.program -> Value.t option
(** Execute a memoized program as {!run}, compiling it on its first run
    ({!Compiled.program_code}).
    @raise Runtime_error when the compiled value captured a parse
    error. *)

val eval :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> Ast.expr ->
  Value.t
(** Compile, then evaluate an expression, as {!run}. *)

val eval_guard :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t -> string -> bool
(** Parse (memoized via {!Compiled.guard}) and evaluate a boolean guard.
    @raise Runtime_error if the result is not a boolean. *)

val eval_guard_compiled :
  ?self_:Value.t -> ?params:(string * Value.t) list -> t ->
  Compiled.guard -> bool
(** Evaluate a memoized guard, compiling it on its first evaluation
    ({!Compiled.guard_code}).
    @raise Runtime_error if the result is not a boolean or the compiled
    value captured a parse error. *)

val drain_signals : t -> signal_out list
(** Signals emitted since the last drain, oldest first. *)

val output : t -> string list
(** [print] lines so far, oldest first. *)

val clear_output : t -> unit
