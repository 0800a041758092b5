(** Parse-once, compile-once ASL behaviors.

    The metamodel stores guards and effects as opaque source strings
    (mirroring UML's [OpaqueBehavior]); historically every evaluation
    reparsed its string.  This module parses a source string to its
    AST exactly once and memoizes the result in a table keyed by the
    source text, so the statechart and activity engines can dispatch
    events without ever touching the parser again.

    The memo entry also holds the behavior's closure-compiled form
    ({!Closure}).  It is compiled on the first run, not at parse time, so
    paths that only parse (lint, info, dataflow) never pay for it.  The
    compiled closures capture nothing mutable, so every interpreter,
    request and domain shares them; the form is published through an
    [Atomic] cell, so domains that race on a first run each compile the
    same closures and no one ever waits or fails.

    Parse errors are captured inside the compiled value rather than
    raised here: a behavior that never runs must not fail at
    compile/warm-up time, exactly as the parse-per-eval scheme only
    surfaced errors on evaluation.  {!Interp.eval_guard_compiled} and
    {!Interp.run_compiled} raise [Interp.Runtime_error] when handed a
    captured error.

    Both memo tables are bounded LRU caches (default cap 4096 entries
    each, see {!set_memo_cap}): a long-running process — notably the
    [socuml serve] daemon — can stream arbitrarily many distinct
    behaviors through the parser without unbounded growth.  Eviction
    never changes a result (compiled values are pure functions of the
    source text); it only costs a re-parse and a recompile on the next
    miss. *)

type guard
(** A compiled boolean guard expression (or its captured parse error). *)

type program
(** A compiled statement sequence (or its captured parse error). *)

val guard : string -> guard
(** Memoized [Parser.parse_expression]: physically the same compiled
    value for the same source string while the entry stays resident. *)

val program : string -> program
(** Memoized [Parser.parse_program]. *)

val guard_result : guard -> (Ast.expr, string) result
(** The parse outcome; [Error] carries the rendered parse error. *)

val program_result : program -> (Ast.program, string) result

val guard_code : guard -> (Closure.guard, string) result
(** The closure-compiled guard, compiled on the first call and stored in
    the memo entry; [Error] carries the rendered parse error. *)

val program_code : program -> (Closure.program, string) result
(** The closure-compiled program, as {!guard_code}. *)

(** Lifetime statistics of the memo tables (monotonic counters are
    process-global, never reset by eviction or {!clear_memo}). *)
type stats = {
  st_guards : int;  (** guard entries currently resident *)
  st_programs : int;  (** program entries currently resident *)
  st_cap : int;  (** per-table entry cap *)
  st_hits : int;
  st_misses : int;
  st_evictions : int;
}

val memo_stats : unit -> stats
(** Current residency, cap and lifetime hit/miss/eviction counts — for
    tests, benches and the [socuml serve] stats endpoint. *)

val memo_cap : unit -> int
(** The per-table entry cap currently in force. *)

val set_memo_cap : int -> unit
(** Change the per-table entry cap (evicting immediately when a table
    is over the new cap).
    @raise Invalid_argument when the cap is below 1. *)

val clear_memo : unit -> unit
(** Drop both memo tables (benchmark cold-start measurements).  The
    lifetime counters are preserved. *)
