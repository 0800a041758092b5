type t = {
  cache : Cache.t;
  registry : Telemetry.Metrics.t;
  deadline_ms : int option;
  max_queue : int;
  stop_requested : bool Atomic.t;
  m_shed : Telemetry.Metrics.counter;
  m_timeout : Telemetry.Metrics.counter;
  m_degraded : Telemetry.Metrics.counter;
  mutable requests : int;
  mutable protocol_errors : int;
  mutable completed : int;
  mutable timeouts : int;
  mutable resource_exhausted : int;
  mutable degradations : int;
  mutable sheds : int;
  mutable drained : int;
}

let protocol_version = 1

let create ?max_entries ?max_bytes ?persist_dir ?deadline_ms
    ?(max_queue = 64) () =
  (match deadline_ms with
   | Some ms when ms <= 0 ->
     invalid_arg "Serve.Daemon.create: deadline_ms <= 0"
   | Some _ | None -> ());
  if max_queue < 1 then invalid_arg "Serve.Daemon.create: max_queue < 1";
  let registry = Telemetry.Metrics.create () in
  {
    cache = Cache.create ?max_entries ?max_bytes ?persist_dir ();
    registry;
    deadline_ms;
    max_queue;
    stop_requested = Atomic.make false;
    m_shed = Telemetry.Metrics.counter registry "serve.shed";
    m_timeout = Telemetry.Metrics.counter registry "serve.timeout";
    m_degraded = Telemetry.Metrics.counter registry "serve.degraded";
    requests = 0;
    protocol_errors = 0;
    completed = 0;
    timeouts = 0;
    resource_exhausted = 0;
    degradations = 0;
    sheds = 0;
    drained = 0;
  }

let request_stop t = Atomic.set t.stop_requested true
let stop_requested t = Atomic.get t.stop_requested
let max_line_bytes = 1024 * 1024

(* --- graceful degradation --------------------------------------------- *)

(* A single request hitting the memory wall must not take the daemon
   (and every cached artifact) with it: shed the retained graphs, give
   the collector a chance to return the pages, and retry the request
   once against the now-cold cache.  A second crash is answered as a
   typed [resource_exhausted] error — the daemon itself keeps serving.
   [Exec.Budget.Expired] deliberately passes through untouched: a
   timeout is not memory pressure. *)
let crash_name e =
  match e with
  | Out_of_memory -> "out-of-memory"
  | _ -> "stack overflow"

let with_degradation t f =
  match f () with
  | v -> Ok v
  | exception (Out_of_memory | Stack_overflow) -> (
    t.degradations <- t.degradations + 1;
    Telemetry.Metrics.incr t.m_degraded;
    Cache.clear t.cache;
    Asl.Compiled.clear_memo ();
    Gc.compact ();
    match f () with
    | v -> Ok v
    | exception ((Out_of_memory | Stack_overflow) as e2) ->
      Error
        (Printf.sprintf
           "request failed with %s twice; caches evicted, giving up"
           (crash_name e2)))

(* --- request decoding ------------------------------------------------- *)

let ( let* ) = Result.bind

(* A typo'd field would otherwise be silently ignored and the request
   would run with a default the user never asked for — reject it. *)
let check_fields ~op ~allowed members =
  let rec loop ms =
    match ms with
    | [] -> Ok ()
    | (key, _) :: rest ->
      if List.mem key allowed then loop rest
      else Error (Printf.sprintf "unknown field %S for op %S" key op)
  in
  loop members

let req_str obj key =
  match Json.member key obj with
  | None -> Error (Printf.sprintf "missing %S field" key)
  | Some v -> (
    match Json.to_str v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S must be a string" key))

let opt_str obj key =
  match Json.member key obj with
  | None -> Ok None
  | Some v -> (
    match Json.to_str v with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "field %S must be a string" key))

let str_field obj key ~default =
  let* v = opt_str obj key in
  Ok (Option.value v ~default)

let int_field obj key ~default =
  match Json.member key obj with
  | None -> Ok default
  | Some v -> (
    match Json.to_int v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "field %S must be an integer" key))

let opt_int obj key =
  match Json.member key obj with
  | None -> Ok None
  | Some v -> (
    match Json.to_int v with
    | Some n -> Ok (Some n)
    | None -> Error (Printf.sprintf "field %S must be an integer" key))

let bool_field obj key ~default =
  match Json.member key obj with
  | None -> Ok default
  | Some v -> (
    match Json.to_bool v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "field %S must be a boolean" key))

let list_field obj key =
  match Json.member key obj with
  | None -> Ok []
  | Some v -> (
    match Json.str_list v with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "field %S must be a list of strings" key))

let format_field obj =
  let* s = str_field obj "format" ~default:"text" in
  match s with
  | "text" -> Ok `Text
  | "json" -> Ok `Json
  | other ->
    Error
      (Printf.sprintf "field \"format\" must be \"text\" or \"json\" (got %S)"
         other)

let lang_field obj =
  let* lang = req_str obj "lang" in
  match lang with
  | "vhdl" | "verilog" | "systemc" | "c" -> Ok lang
  | other ->
    Error
      (Printf.sprintf
         "field \"lang\" must be one of vhdl, verilog, systemc, c (got %S)"
         other)

(* [lint] takes either ["models"] (a list) or ["model"]; every other
   model op takes ["model"]. *)
let models_field obj =
  let* single = opt_str obj "model" in
  let* many =
    match Json.member "models" obj with
    | None -> Ok None
    | Some v -> (
      match Json.str_list v with
      | Some l -> Ok (Some l)
      | None -> Error "field \"models\" must be a list of strings")
  in
  match (single, many) with
  | Some _, Some _ -> Error "give either \"model\" or \"models\", not both"
  | Some m, None -> Ok [ m ]
  | None, Some [] -> Error "field \"models\" must not be empty"
  | None, Some l -> Ok l
  | None, None -> Error "missing \"model\" field"

let id_of obj =
  match Json.member "id" obj with
  | None -> Ok None
  | Some (Json.Int _ as v) -> Ok (Some v)
  | Some (Json.Str _ as v) -> Ok (Some v)
  | Some (Json.Null | Json.Bool _ | Json.Float _ | Json.List _ | Json.Obj _)
    ->
    Error "field \"id\" must be a string or integer"

(* How a long-running op may be cancelled.  [fuel] (a deterministic
   checkpoint count, for tests and golden gates) beats the request's
   [deadline_ms], which beats the server-wide default; a fresh budget
   is built per attempt so the degradation retry starts with full
   allowance. *)
type budget_spec =
  | B_default
  | B_fuel of int
  | B_deadline_ms of int

let budget_spec_of obj =
  let* fuel = opt_int obj "fuel" in
  let* deadline = opt_int obj "deadline_ms" in
  match (fuel, deadline) with
  | Some _, Some _ -> Error "give either \"fuel\" or \"deadline_ms\", not both"
  | Some n, None ->
    if n < 0 then Error "field \"fuel\" must be non-negative"
    else Ok (B_fuel n)
  | None, Some ms ->
    if ms <= 0 then Error "field \"deadline_ms\" must be positive"
    else Ok (B_deadline_ms ms)
  | None, None -> Ok B_default

let budget_of_spec t spec =
  match spec with
  | B_fuel n -> Exec.Budget.fuel n
  | B_deadline_ms ms -> Exec.Budget.deadline ~now:Unix.gettimeofday ~ms
  | B_default -> (
    match t.deadline_ms with
    | Some ms -> Exec.Budget.deadline ~now:Unix.gettimeofday ~ms
    | None -> Exec.Budget.unlimited)

(* --- op execution ----------------------------------------------------- *)

(* Typed failure classes with their own response [code] field — the
   protocol's error-code table (DESIGN.md §5). *)
type code =
  | C_timeout
  | C_resource_exhausted

let code_name c =
  match c with
  | C_timeout -> "timeout"
  | C_resource_exhausted -> "resource_exhausted"

type outcome = {
  oc_op : string;
  oc_exit : int;
  oc_code : code option;
  oc_cache : (string * string * Cache.state) list;
  oc_output : string;
  oc_error : string;
}

type action =
  | Ran of outcome
  | Stats
  | Health
  | Quit

(* Run one op body with buffer sinks.  Model paths are pre-resolved
   through the cache sequentially, in request order, before the body
   runs — so the reported cache states (and the hit/miss counters) are
   deterministic even when the body fans the models out over a pool.
   The body then loads from the per-request snapshot, never the live
   cache.

   The whole attempt (resolution included) runs under the degradation
   wrapper, and [Exec.Budget.Expired] from an engine checkpoint is
   answered as a typed timeout with whatever output the op produced
   before the budget ran out — deterministic under fuel budgets. *)
let run_op t ~op ~paths ~metrics ~budget_spec body =
  let out = Buffer.create 1024 and err = Buffer.create 256 in
  let sink =
    { Ops.s_out = Buffer.add_string out; Ops.s_err = Buffer.add_string err }
  in
  let cache_info = ref [] in
  let attempt () =
    Buffer.clear out;
    Buffer.clear err;
    cache_info := [];
    let budget = budget_of_spec t budget_spec in
    let resolved = List.map (fun p -> (p, Cache.load t.cache p)) paths in
    cache_info :=
      List.filter_map
        (fun (path, r) ->
          match r with
          | Ok (_art, key, state) -> Some (path, key, state)
          | Error _msg -> None)
        resolved;
    let loader path =
      match List.assoc_opt path resolved with
      | Some (Ok (art, _key, _state)) -> Ok art
      | Some (Error msg) -> Error msg
      | None -> (
        match Cache.load t.cache path with
        | Ok (art, _key, _state) -> Ok art
        | Error msg -> Error msg)
    in
    let run reg = Ops.guarded sink (fun () -> body ~budget sink loader reg) in
    if metrics then begin
      (* per-request isolation — the response reports this request's
         counters only; the fork merges back so daemon-level totals
         still accumulate *)
      let child = Telemetry.Metrics.fork t.registry in
      let code = run (Some child) in
      Telemetry.Metrics.merge_into ~into:t.registry child;
      code
    end
    else run None
  in
  let finish ?code exit_code =
    {
      oc_op = op;
      oc_exit = exit_code;
      oc_code = code;
      oc_cache = !cache_info;
      oc_output = Buffer.contents out;
      oc_error = Buffer.contents err;
    }
  in
  match with_degradation t attempt with
  | Ok exit_code -> finish exit_code
  | Error msg ->
    Ops.errl sink msg;
    finish ~code:C_resource_exhausted 1
  | exception Exec.Budget.Expired msg ->
    Ops.errl sink msg;
    finish ~code:C_timeout 1

let dispatch t obj members ~op =
  let common = [ "op"; "id" ] in
  let deadline_fields = [ "fuel"; "deadline_ms" ] in
  match op with
  | "validate" ->
    let* () =
      check_fields ~op ~allowed:(common @ [ "model"; "format" ]) members
    in
    let* model = req_str obj "model" in
    let* format = format_field obj in
    Ok
      (Ran
         (run_op t ~op ~paths:[ model ] ~metrics:false ~budget_spec:B_default
            (fun ~budget:_ sink loader _reg ->
              Ops.with_artifacts sink loader model (Ops.validate sink ~format))))
  | "lint" ->
    let* () =
      check_fields ~op
        ~allowed:
          (common
          @ [ "model"; "models"; "format"; "only"; "disable"; "no_hdl";
              "jobs" ])
        members
    in
    let* models = models_field obj in
    let* format = format_field obj in
    let* only = list_field obj "only" in
    let* disable = list_field obj "disable" in
    let* no_hdl = bool_field obj "no_hdl" ~default:false in
    let* jobs = int_field obj "jobs" ~default:1 in
    (* mirror the CLI's ordering: unknown selectors are rejected before
       any model is loaded, so don't pre-resolve (and fill the cache)
       when the op will refuse to run *)
    let paths =
      match Ops.selection_of ~only ~disable with
      | Ok _selection -> models
      | Error _msg -> []
    in
    Ok
      (Ran
         (run_op t ~op ~paths ~metrics:false ~budget_spec:B_default
            (fun ~budget:_ sink loader _reg ->
              Ops.lint sink ~format ~only ~disable ~no_hdl ~jobs loader
                models)))
  | "info" ->
    let* () = check_fields ~op ~allowed:(common @ [ "model" ]) members in
    let* model = req_str obj "model" in
    Ok
      (Ran
         (run_op t ~op ~paths:[ model ] ~metrics:false ~budget_spec:B_default
            (fun ~budget:_ sink loader _reg ->
              Ops.with_artifacts sink loader model (Ops.info sink))))
  | "gen" ->
    let* () =
      check_fields ~op ~allowed:(common @ [ "model"; "lang" ]) members
    in
    let* model = req_str obj "model" in
    let* lang = lang_field obj in
    Ok
      (Ran
         (run_op t ~op ~paths:[ model ] ~metrics:false ~budget_spec:B_default
            (fun ~budget:_ sink loader _reg ->
              Ops.with_artifacts sink loader model (Ops.gen sink ~lang))))
  | "simulate" ->
    let* () =
      check_fields ~op
        ~allowed:
          (common
          @ [ "model"; "machine"; "events"; "metrics"; "rtl" ]
          @ deadline_fields)
        members
    in
    let* model = req_str obj "model" in
    let* machine = opt_str obj "machine" in
    let* events = str_field obj "events" ~default:"" in
    let* metrics = bool_field obj "metrics" ~default:false in
    let* rtl = bool_field obj "rtl" ~default:false in
    let* budget_spec = budget_spec_of obj in
    Ok
      (Ran
         (run_op t ~op ~paths:[ model ] ~metrics ~budget_spec
            (fun ~budget sink loader reg ->
              Ops.with_artifacts sink loader model
                (Ops.simulate ~budget sink ~machine ~events ~metrics:reg ~rtl))))
  | "trace" ->
    let* () =
      check_fields ~op
        ~allowed:(common @ [ "model"; "machine"; "events" ] @ deadline_fields)
        members
    in
    let* model = req_str obj "model" in
    let* machine = opt_str obj "machine" in
    let* events = str_field obj "events" ~default:"" in
    let* budget_spec = budget_spec_of obj in
    Ok
      (Ran
         (run_op t ~op ~paths:[ model ] ~metrics:false ~budget_spec
            (fun ~budget sink loader _reg ->
              Ops.with_artifacts sink loader model
                (Ops.trace ~budget sink ~machine ~events))))
  | "partition" ->
    let* () =
      check_fields ~op ~allowed:(common @ [ "model"; "budget" ]) members
    in
    let* model = req_str obj "model" in
    let* budget = int_field obj "budget" ~default:500 in
    Ok
      (Ran
         (run_op t ~op ~paths:[ model ] ~metrics:false ~budget_spec:B_default
            (fun ~budget:_ sink loader _reg ->
              Ops.with_artifacts sink loader model
                (Ops.partition sink ~budget))))
  | "analyze" ->
    let* () =
      check_fields ~op
        ~allowed:
          (common
          @ [ "model"; "metrics"; "only"; "disable"; "jobs" ]
          @ deadline_fields)
        members
    in
    let* model = req_str obj "model" in
    let* metrics = bool_field obj "metrics" ~default:false in
    let* only = list_field obj "only" in
    let* disable = list_field obj "disable" in
    let* jobs = int_field obj "jobs" ~default:1 in
    let* budget_spec = budget_spec_of obj in
    let paths =
      match Ops.selection_of ~only ~disable with
      | Ok _selection -> [ model ]
      | Error _msg -> []
    in
    Ok
      (Ran
         (run_op t ~op ~paths ~metrics ~budget_spec
            (fun ~budget sink loader reg ->
              Ops.analyze ~budget sink ~metrics:reg ~only ~disable ~jobs
                loader model)))
  | "inject" ->
    let* () =
      check_fields ~op
        ~allowed:
          (common
          @ [ "model"; "machine"; "seed"; "faults"; "format"; "metrics";
              "jobs" ]
          @ deadline_fields)
        members
    in
    let* model = req_str obj "model" in
    let* machine = opt_str obj "machine" in
    let* seed = int_field obj "seed" ~default:1 in
    let* faults = int_field obj "faults" ~default:12 in
    let* format = format_field obj in
    let* metrics = bool_field obj "metrics" ~default:false in
    let* jobs = int_field obj "jobs" ~default:1 in
    let* budget_spec = budget_spec_of obj in
    Ok
      (Ran
         (run_op t ~op ~paths:[ model ] ~metrics ~budget_spec
            (fun ~budget sink loader reg ->
              Ops.with_artifacts sink loader model
                (Ops.inject ~budget sink ~machine ~seed ~faults ~format
                   ~metrics:reg ~jobs))))
  | "pack" ->
    let* () =
      check_fields ~op ~allowed:(common @ [ "model"; "out" ]) members
    in
    let* model = req_str obj "model" in
    let* out = opt_str obj "out" in
    Ok
      (Ran
         (run_op t ~op ~paths:[ model ] ~metrics:false ~budget_spec:B_default
            (fun ~budget:_ sink loader _reg ->
              Ops.with_artifacts sink loader model
                (Ops.pack sink ~out ~path:model))))
  | "stats" ->
    let* () = check_fields ~op ~allowed:common members in
    Ok Stats
  | "health" ->
    let* () = check_fields ~op ~allowed:common members in
    Ok Health
  | "quit" ->
    let* () = check_fields ~op ~allowed:common members in
    Ok Quit
  | other -> Error (Printf.sprintf "unknown op %S" other)

(* --- response assembly ------------------------------------------------ *)

let respond ~id fields =
  let prefix =
    match id with
    | Some v -> [ ("id", v) ]
    | None -> []
  in
  Json.to_string (Json.Obj (prefix @ fields))

let protocol_error t ~id msg =
  t.protocol_errors <- t.protocol_errors + 1;
  respond ~id [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

(* Fast-path refusals for lines the daemon never parses: shed under
   overload, drained at shutdown.  Counted as requests (one response
   per line, always) under their own ledger columns. *)
let shed_response t ~depth =
  t.requests <- t.requests + 1;
  t.sheds <- t.sheds + 1;
  Telemetry.Metrics.incr t.m_shed;
  respond ~id:None
    [
      ("ok", Json.Bool false);
      ("code", Json.Str "overloaded");
      ( "error",
        Json.Str
          (Printf.sprintf "server overloaded: %d requests pending" depth) );
    ]

let drain_response t =
  t.requests <- t.requests + 1;
  t.drained <- t.drained + 1;
  respond ~id:None
    [
      ("ok", Json.Bool false);
      ("code", Json.Str "shutting_down");
      ("error", Json.Str "daemon is shutting down");
    ]

let outcome_response ~id oc =
  let code_field =
    match oc.oc_code with
    | Some c -> [ ("code", Json.Str (code_name c)) ]
    | None -> []
  in
  respond ~id
    ([
       ("op", Json.Str oc.oc_op);
       ("ok", Json.Bool (oc.oc_exit = 0));
       ("exit", Json.Int oc.oc_exit);
     ]
    @ code_field
    @ [
        ( "cache",
          Json.List
            (List.map
               (fun (path, key, state) ->
                 Json.Obj
                   [
                     ("path", Json.Str path);
                     ("key", Json.Str key);
                     ("state", Json.Str (Cache.state_name state));
                   ])
               oc.oc_cache) );
        ("output", Json.Str oc.oc_output);
        ("error", Json.Str oc.oc_error);
      ])

let stats_response t ~id =
  let c = Cache.stats t.cache in
  let a = Asl.Compiled.memo_stats () in
  respond ~id
    [
      ("op", Json.Str "stats");
      ("ok", Json.Bool true);
      ("exit", Json.Int 0);
      ("requests", Json.Int t.requests);
      ("protocol_errors", Json.Int t.protocol_errors);
      ( "serve",
        Json.Obj
          [
            ("completed", Json.Int t.completed);
            ("timeouts", Json.Int t.timeouts);
            ("resource_exhausted", Json.Int t.resource_exhausted);
            ("degradations", Json.Int t.degradations);
            ("sheds", Json.Int t.sheds);
            ("drained", Json.Int t.drained);
          ] );
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Int c.Cache.cs_entries);
            ("bytes", Json.Int c.Cache.cs_bytes);
            ("max_entries", Json.Int c.Cache.cs_max_entries);
            ("max_bytes", Json.Int c.Cache.cs_max_bytes);
            ("hits", Json.Int c.Cache.cs_hits);
            ("misses", Json.Int c.Cache.cs_misses);
            ("snap_refills", Json.Int c.Cache.cs_snap_refills);
            ("evictions", Json.Int c.Cache.cs_evictions);
            ("persisted", Json.Int c.Cache.cs_persisted);
            ("quarantined", Json.Int c.Cache.cs_quarantined);
          ] );
      ( "asl_memo",
        Json.Obj
          [
            ("guards", Json.Int a.Asl.Compiled.st_guards);
            ("programs", Json.Int a.Asl.Compiled.st_programs);
            ("cap", Json.Int a.Asl.Compiled.st_cap);
            ("hits", Json.Int a.Asl.Compiled.st_hits);
            ("misses", Json.Int a.Asl.Compiled.st_misses);
            ("evictions", Json.Int a.Asl.Compiled.st_evictions);
          ] );
    ]

(* The supervisor probe: protocol version, logical uptime (requests
   served so far — the daemon's only monotonic clock) and occupancy of
   both caches, cheap enough to answer under load. *)
let health_response t ~id =
  let c = Cache.stats t.cache in
  let a = Asl.Compiled.memo_stats () in
  respond ~id
    [
      ("op", Json.Str "health");
      ("ok", Json.Bool true);
      ("exit", Json.Int 0);
      ("protocol", Json.Int protocol_version);
      ("uptime_requests", Json.Int t.requests);
      ( "deadline_ms",
        Json.Int (Option.value t.deadline_ms ~default:0) );
      ("max_queue", Json.Int t.max_queue);
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Int c.Cache.cs_entries);
            ("bytes", Json.Int c.Cache.cs_bytes);
            ("max_entries", Json.Int c.Cache.cs_max_entries);
            ("max_bytes", Json.Int c.Cache.cs_max_bytes);
          ] );
      ( "asl_memo",
        Json.Obj
          [
            ("guards", Json.Int a.Asl.Compiled.st_guards);
            ("programs", Json.Int a.Asl.Compiled.st_programs);
            ("cap", Json.Int a.Asl.Compiled.st_cap);
          ] );
    ]

(* --- request processing ----------------------------------------------- *)

(* Ledger rule: every counter update happens before the response line
   is rendered, so a [stats] response reports a ledger that includes
   itself and always reconciles:
   requests = protocol_errors + completed + timeouts
            + resource_exhausted + sheds + drained. *)
let classify t oc =
  match oc.oc_code with
  | None -> t.completed <- t.completed + 1
  | Some C_timeout ->
    t.timeouts <- t.timeouts + 1;
    Telemetry.Metrics.incr t.m_timeout
  | Some C_resource_exhausted ->
    t.resource_exhausted <- t.resource_exhausted + 1

let handle_line t line =
  if String.length line > max_line_bytes then begin
    t.requests <- t.requests + 1;
    ( Some
        (protocol_error t ~id:None
           (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)),
      true )
  end
  else
    let trimmed = String.trim line in
    if trimmed = "" then (None, true)
    else begin
      t.requests <- t.requests + 1;
      match Json.parse trimmed with
      | Error e ->
        (Some (protocol_error t ~id:None ("invalid request: " ^ e)), true)
      | Ok (Json.Obj members as obj) -> (
        match id_of obj with
        | Error msg -> (Some (protocol_error t ~id:None msg), true)
        | Ok id -> (
          match req_str obj "op" with
          | Error msg -> (Some (protocol_error t ~id msg), true)
          | Ok op -> (
            match dispatch t obj members ~op with
            | Error msg -> (Some (protocol_error t ~id msg), true)
            | Ok (Ran oc) ->
              classify t oc;
              (Some (outcome_response ~id oc), true)
            | Ok Stats ->
              t.completed <- t.completed + 1;
              (Some (stats_response t ~id), true)
            | Ok Health ->
              t.completed <- t.completed + 1;
              (Some (health_response t ~id), true)
            | Ok Quit ->
              t.completed <- t.completed + 1;
              ( Some
                  (respond ~id
                     [
                       ("op", Json.Str "quit");
                       ("ok", Json.Bool true);
                       ("exit", Json.Int 0);
                     ]),
                false )
            (* a bug below the protocol layer must not kill the daemon:
               answer an error line and keep serving *)
            | exception e ->
              ( Some
                  (protocol_error t ~id
                     ("internal error: " ^ Printexc.to_string e)),
                true ))))
      | Ok
          (( Json.Null | Json.Bool _ | Json.Int _ | Json.Float _
           | Json.Str _ | Json.List _ ) as _v) ->
        ( Some (protocol_error t ~id:None "request must be a JSON object"),
          true )
    end

(* --- transport: chunked line reader with a byte high-water mark ------- *)

(* A consumed input line.  Oversized lines are dropped as they stream
   in — the reader never buffers more than [max_line_bytes] (+ one
   chunk) per line — and surface as [L_oversized] so the protocol
   still answers exactly one error line for them. *)
type in_line =
  | L_line of string
  | L_oversized

type reader = {
  r_fd : Unix.file_descr;
  r_chunk : Bytes.t;
  r_acc : Buffer.t;  (* current partial line *)
  mutable r_discarding : bool;  (* past the byte high-water mark *)
  mutable r_eof : bool;
  r_lines : in_line Queue.t;  (* completed, not yet consumed *)
}

let reader_create fd =
  {
    r_fd = fd;
    r_chunk = Bytes.create 65536;
    r_acc = Buffer.create 256;
    r_discarding = false;
    r_eof = false;
    r_lines = Queue.create ();
  }

let reader_feed r bytes n =
  let finish_line () =
    if r.r_discarding then begin
      r.r_discarding <- false;
      Queue.push L_oversized r.r_lines
    end
    else begin
      Queue.push (L_line (Buffer.contents r.r_acc)) r.r_lines;
      Buffer.clear r.r_acc
    end
  in
  let i = ref 0 in
  while !i < n do
    match Bytes.index_from_opt bytes !i '\n' with
    | Some j when j < n ->
      if not r.r_discarding then begin
        Buffer.add_subbytes r.r_acc bytes !i (j - !i);
        if Buffer.length r.r_acc > max_line_bytes then begin
          r.r_discarding <- true;
          Buffer.clear r.r_acc
        end
      end;
      finish_line ();
      i := j + 1
    | Some _ | None ->
      if not r.r_discarding then begin
        Buffer.add_subbytes r.r_acc bytes !i (n - !i);
        if Buffer.length r.r_acc > max_line_bytes then begin
          r.r_discarding <- true;
          Buffer.clear r.r_acc
        end
      end;
      i := n
  done

(* One read(2).  [blocking = false] polls with select first and reads
   only if data is ready (regular files are always ready, so file-fed
   stdin drains deterministically).  EINTR — a signal landed — returns
   without data so the caller can re-check the stop flag. *)
let reader_fill r ~blocking =
  if r.r_eof then ()
  else
    let ready =
      if blocking then true
      else
        match Unix.select [ r.r_fd ] [] [] 0.0 with
        | [], _, _ -> false
        | _ :: _, _, _ -> true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if ready then
      match Unix.read r.r_fd r.r_chunk 0 (Bytes.length r.r_chunk) with
      | 0 ->
        r.r_eof <- true;
        (* a final unterminated line still counts as a line *)
        if Buffer.length r.r_acc > 0 || r.r_discarding then begin
          if r.r_discarding then begin
            r.r_discarding <- false;
            Queue.push L_oversized r.r_lines
          end
          else begin
            Queue.push (L_line (Buffer.contents r.r_acc)) r.r_lines;
            Buffer.clear r.r_acc
          end
        end
      | n -> reader_feed r r.r_chunk n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* --- the loop --------------------------------------------------------- *)

let oversized_line = String.make (max_line_bytes + 1) 'x'

(* The serve loop over a raw fd pair.  One request is processed at a
   time; between requests every already-available input line is pulled
   into a bounded pending queue, and lines past [max_queue] are
   answered immediately with [overloaded] instead of buffering without
   bound.  A stop request (SIGTERM/SIGINT or [quit]) drains the
   pending queue with [shutting_down] answers so the one-response-per
   -line invariant survives shutdown.  Returns [true] when a [quit]
   request ended the session (as opposed to EOF or a stop signal). *)
let serve_fd t in_fd emit =
  let r = reader_create in_fd in
  let pending = Queue.create () in
  let quit_seen = ref false in
  (* move completed lines into [pending], shedding past the cap; blank
     lines are dropped here so they never consume a slot and never get
     an answer, overloaded or not *)
  let absorb () =
    while not (Queue.is_empty r.r_lines) do
      match Queue.pop r.r_lines with
      | L_line line when String.trim line = "" -> ()
      | (L_line _ | L_oversized) as item ->
        if Queue.length pending >= t.max_queue then
          emit (shed_response t ~depth:(Queue.length pending))
        else Queue.push item pending
    done
  in
  let drain_pending () =
    while not (Queue.is_empty pending) do
      match Queue.pop pending with
      | L_oversized | L_line _ -> emit (drain_response t)
    done
  in
  let stopping = ref false in
  while not !stopping do
    if stop_requested t then begin
      drain_pending ();
      stopping := true
    end
    else if Queue.is_empty pending then begin
      if r.r_eof then stopping := true
      else begin
        reader_fill r ~blocking:true;
        absorb ()
      end
    end
    else begin
      let continue =
        match Queue.pop pending with
        | L_oversized -> (
          (* re-enter the protocol path so oversized lines are counted
             and answered exactly like a buffered oversized line *)
          match handle_line t oversized_line with
          | Some resp, cont ->
            emit resp;
            cont
          | None, cont -> cont)
        | L_line line -> (
          match handle_line t line with
          | Some resp, cont ->
            emit resp;
            cont
          | None, cont -> cont)
      in
      if not continue then begin
        (* quit: answer everything already consumed, then stop *)
        quit_seen := true;
        drain_pending ();
        stopping := true
      end
      else begin
        (* opportunistic drain of whatever arrived while we worked *)
        reader_fill r ~blocking:false;
        absorb ()
      end
    end
  done;
  !quit_seen

let serve_channel t ic oc =
  let emit resp =
    output_string oc resp;
    output_char oc '\n';
    flush oc
  in
  let (_quit : bool) = serve_fd t (Unix.descr_of_in_channel ic) emit in
  ()

(* Probe-then-unlink: a leftover socket file from a crashed daemon must
   not block restart, but a live daemon's socket (or an unrelated
   file) must never be stolen.  Connecting distinguishes the two — a
   live listener accepts, a stale path refuses. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    (match (Unix.stat path).Unix.st_kind with
     | Unix.S_SOCK -> ()
     | Unix.S_REG | Unix.S_DIR | Unix.S_CHR | Unix.S_BLK | Unix.S_LNK
     | Unix.S_FIFO ->
       failwith
         (Printf.sprintf "refusing to replace %s: not a socket" path));
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "socket %s is in use by a running daemon" path);
    try Sys.remove path with Sys_error _ -> ()
  end

let serve_socket t path =
  claim_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let stop = ref false in
      while not !stop do
        if stop_requested t then stop := true
        else
          match Unix.accept sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            (* signal landed while listening: loop re-checks the flag *)
            ()
          | conn, _addr ->
            let oc = Unix.out_channel_of_descr conn in
            let emit resp =
              output_string oc resp;
              output_char oc '\n';
              flush oc
            in
            (* a dropped connection only ends this client, not the
               daemon *)
            let quit =
              try serve_fd t conn emit with
              | Sys_error _ -> false
              | Unix.Unix_error _ -> false
            in
            (try flush oc with Sys_error _ -> ());
            (try Unix.close conn with Unix.Unix_error _ -> ());
            (* [quit] (or a stop signal observed inside the session)
               stops the daemon, not just the connection *)
            if quit || stop_requested t then stop := true
      done)
