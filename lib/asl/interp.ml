exception Runtime_error = Closure.Runtime_error

type signal_out = Closure.signal_out = {
  sig_name : string;
  sig_args : Value.t list;
  sig_target : Value.t option;
}

type method_impl = Closure.method_impl =
  | Builtin of (t -> self:Value.t -> Value.t list -> Value.t)
  | Body of body

and t = Closure.t
and body = Closure.body

let create = Closure.create
let body = Closure.body
let store = Closure.store
let metrics = Closure.metrics

let run ?self_ ?params t prog =
  Closure.run ?self_ ?params t (Closure.program prog)

let run_compiled ?self_ ?params t prog =
  match Compiled.program_code prog with
  | Ok code -> Closure.run ?self_ ?params t code
  | Error m -> raise (Runtime_error m)

let run_source ?self_ ?params t src =
  run_compiled ?self_ ?params t (Compiled.program src)

let eval ?self_ ?params t e = Closure.eval ?self_ ?params t (Closure.guard e)

let eval_guard_compiled ?self_ ?params t g =
  match Compiled.guard_code g with
  | Ok code -> Closure.as_bool (Closure.eval ?self_ ?params t code)
  | Error m -> raise (Runtime_error m)

let eval_guard ?self_ ?params t src =
  eval_guard_compiled ?self_ ?params t (Compiled.guard src)

let drain_signals = Closure.drain_signals
let output = Closure.output
let clear_output = Closure.clear_output
