(* The benchmark's OCaml side.  [run.py] drives it:

     pbtool gen WORKLOAD SEED        write the workload's models (cwd)
     pbtool plan WORKLOAD SEED       print the request stream, one JSON
                                     object per line
     pbtool serve-args WORKLOAD      print the [socuml serve] flags, one
                                     per line
     pbtool refs WORKLOAD SEED       print the reference response of every
                                     distinct request
     pbtool refserve WORKLOAD SEED   serve-churn: read "STEP VERSION"
                                     lines, rewrite the step's model file
                                     to that version, answer its reference
     pbtool trace WORKLOAD SEED SECONDS
                                     traced in-process replay; prints the
                                     per-layer metrics as one JSON object
     pbtool counters WORKLOAD SEED   the exact counters of one traced pass

   References come from the uncached path: a fresh
   [Serve.Ops.load_artifacts] per request, exactly what the one-shot CLI
   runs.  Every file name is relative, so outputs never depend on where
   the checkout lives. *)

module J = Serve.Json
module Ops = Serve.Ops

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type req =
  | Lint of string
  | Info of string
  | Sim_rtl of string * string  (** model, events *)
  | Sim_asl of string * string  (** statechart/ASL path on [asl_machine] *)
  | Trace of string * string
  | Analyze of string * int  (** model, jobs *)
  | Inject of string * int  (** model, jobs *)
  | Validate of string
  | Rules  (** one-shot only: the rule table, no model *)

let asl_machine = "Ctl"
let inject_seed = 5
let inject_faults = 24

(* serve-verify's ASL simulation: long enough to cost about three
   jobs-1 analyses *)
let asl_events = 4000

let fields_of_req = function
  | Lint p -> [ ("op", J.Str "lint"); ("model", J.Str p) ]
  | Info p -> [ ("op", J.Str "info"); ("model", J.Str p) ]
  | Sim_rtl (p, ev) ->
    [ ("op", J.Str "simulate"); ("model", J.Str p); ("rtl", J.Bool true);
      ("events", J.Str ev) ]
  | Sim_asl (p, ev) ->
    [ ("op", J.Str "simulate"); ("model", J.Str p);
      ("machine", J.Str asl_machine); ("events", J.Str ev) ]
  | Trace (p, ev) ->
    [ ("op", J.Str "trace"); ("model", J.Str p);
      ("machine", J.Str asl_machine); ("events", J.Str ev) ]
  | Analyze (p, jobs) ->
    [ ("op", J.Str "analyze"); ("model", J.Str p); ("jobs", J.Int jobs) ]
  | Inject (p, jobs) ->
    [ ("op", J.Str "inject"); ("model", J.Str p); ("seed", J.Int inject_seed);
      ("faults", J.Int inject_faults); ("jobs", J.Int jobs) ]
  | Validate p -> [ ("op", J.Str "validate"); ("model", J.Str p) ]
  | Rules -> [ ("op", J.Str "rules") ]

let line_of_req r = J.to_string (J.Obj (fields_of_req r))

let argv_of_req = function
  | Lint p -> [ "lint"; p ]
  | Info p -> [ "info"; p ]
  | Sim_rtl (p, ev) -> [ "simulate"; p; "--rtl"; "--events"; ev ]
  | Sim_asl (p, ev) ->
    [ "simulate"; p; "--machine"; asl_machine; "--events"; ev ]
  | Trace (p, ev) -> [ "trace"; p; "--machine"; asl_machine; "--events"; ev ]
  | Analyze (p, jobs) -> [ "analyze"; p; "--jobs"; string_of_int jobs ]
  | Inject (p, jobs) ->
    [ "inject"; p; "--seed"; string_of_int inject_seed; "--faults";
      string_of_int inject_faults; "--jobs"; string_of_int jobs ]
  | Validate p -> [ "validate"; p ]
  | Rules -> [ "rules" ]

let model_of_req = function
  | Lint p | Info p | Sim_rtl (p, _) | Sim_asl (p, _) | Trace (p, _)
  | Analyze (p, _) | Inject (p, _) | Validate p ->
    Some p
  | Rules -> None

let run_op sink load = function
  | Lint p ->
    Ops.lint sink ~format:`Text ~only:[] ~disable:[] ~no_hdl:false ~jobs:1
      load [ p ]
  | Info p -> Ops.with_artifacts sink load p (Ops.info sink)
  | Sim_rtl (p, events) ->
    Ops.with_artifacts sink load p
      (Ops.simulate sink ~machine:None ~events ~metrics:None ~rtl:true)
  | Sim_asl (p, events) ->
    Ops.with_artifacts sink load p
      (Ops.simulate sink ~machine:(Some asl_machine) ~events ~metrics:None
         ~rtl:false)
  | Trace (p, events) ->
    Ops.with_artifacts sink load p
      (Ops.trace sink ~machine:(Some asl_machine) ~events)
  | Analyze (p, jobs) ->
    Ops.analyze sink ~metrics:None ~only:[] ~disable:[] ~jobs load p
  | Inject (p, jobs) ->
    Ops.with_artifacts sink load p
      (Ops.inject sink ~machine:None ~seed:inject_seed ~faults:inject_faults
         ~format:`Text ~metrics:None ~jobs)
  | Validate p -> Ops.with_artifacts sink load p (Ops.validate sink ~format:`Text)
  | Rules ->
    sink.Ops.s_out (Lint.Report.rules_to_text ());
    0

let capture f =
  let out = Buffer.create 1024 and err = Buffer.create 64 in
  let sink =
    { Ops.s_out = Buffer.add_string out; s_err = Buffer.add_string err }
  in
  let code = Ops.guarded sink (fun () -> f sink) in
  (code, Buffer.contents out, Buffer.contents err)

(* The uncached path: what [socuml <op>] computes. *)
let reference r = capture (fun sink -> run_op sink Ops.load_artifacts r)

let json_of_reference (code, out, err) =
  [ ("exit", J.Int code); ("output", J.Str out); ("error", J.Str err) ]

(* ------------------------------------------------------------------ *)
(* Models                                                              *)

let with_machines m machines =
  List.iter (fun sm -> Uml.Model.add m (Uml.Model.E_state_machine sm)) machines;
  m

(* The E19 shape: 1000 classes plus a 48-state machine. *)
let big_model seed =
  with_machines
    (Workload.Gen_model.structural ~seed ~classes:1000)
    [ Workload.Gen_statechart.flat ~seed ~states:48 ~events:8 ]

let small_model seed i =
  with_machines
    (Workload.Gen_model.structural ~seed:((seed * 31) + i) ~classes:40)
    [ Workload.Gen_statechart.flat ~seed:(seed + i) ~states:8 ~events:4 ]

(* A ring of states whose transitions run ASL loops, so the statechart
   path spends its time in [Asl.Interp].  Every loop runs the same number
   of times: the seed picks where each transition leads, not what it
   costs, so a run's ASL time does not depend on the seed. *)
let asl_ring ~seed =
  let open Uml.Smachine in
  let rng = Workload.Prng.create seed in
  let n = 6 in
  let states = Array.init n (fun i -> simple_state (Printf.sprintf "A%d" i)) in
  let init = pseudostate Initial in
  let start = transition ~source:init.ps_id ~target:states.(0).st_id () in
  let steps =
    List.concat
      (List.init n (fun i ->
           List.map
             (fun ev ->
               let target = states.(Workload.Prng.int rng n) in
               let bound = 60 in
               transition
                 ~triggers:[ Signal_trigger ev ]
                 ~guard:(Printf.sprintf "%d > 0" bound)
                 ~effect:
                   (Printf.sprintf
                      "i := 0; acc := 0; while i < %d do acc := acc + i * i; \
                       if acc > 100000 then acc := acc - 100000; end; i := i \
                       + 1; end;"
                      bound)
                 ~source:states.(i).st_id ~target:target.st_id ())
             (Workload.Gen_statechart.event_names 4)))
  in
  make asl_machine
    [ region (Pseudo init :: Array.to_list (Array.map (fun s -> State s) states))
        (start :: steps) ]

(* A small SoC slice with every behavior kind: an RTL-friendly machine
   (first, so it is the default), the ASL ring, and an activity.  The
   activity's shape does not depend on the seed — reachability cost grows
   steeply with its width, and a seed must not swing [analyze] by 10x. *)
let soc_model seed =
  let m =
    with_machines
      (Workload.Gen_model.structural ~seed:((seed * 31) + 7) ~classes:30)
      [ Workload.Gen_statechart.flat ~seed ~states:12 ~events:4;
        asl_ring ~seed ]
  in
  Uml.Model.add m
    (Uml.Model.E_activity
       (Workload.Gen_activity.series_parallel ~seed:2 ~size:11 ~max_width:3));
  m

let churn_model seed i =
  with_machines
    (Workload.Gen_model.structural ~seed:((seed * 31) + 100 + i) ~classes:200)
    [ Workload.Gen_statechart.flat ~seed:(seed + i) ~states:12 ~events:4 ]

let events ~seed ~length n =
  String.concat "," (Workload.Gen_statechart.event_sequence ~seed ~length n)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* Rewrite in place (same inode), as an editor saving over the file. *)
let overwrite_file path data =
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_binary ] 0o644 path in
  output_string oc data;
  close_out oc

let replace_once ~sub ~by s =
  let ls = String.length sub in
  let rec find i acc =
    if i + ls > String.length s then List.rev acc
    else if String.sub s i ls = sub then find (i + ls) (i :: acc)
    else find (i + 1) acc
  in
  match find 0 [] with
  | [ i ] ->
    String.sub s 0 i ^ by ^ String.sub s (i + ls) (String.length s - i - ls)
  | hits ->
    failwith
      (Printf.sprintf "expected one %S in a churn model, found %d" sub
         (List.length hits))

(* Version [n] of a churn file renames the machine's initial state.  The
   name's width changes every second version, so odd versions have the
   byte length of the version before them (same-size rewrites) and the
   RTL simulation's first output line names the version. *)
let version_name n = Printf.sprintf "V%0*d" (6 + (n / 2 mod 2)) n
let churn_initial = {|name="S0"|}
let churn_tag n = Printf.sprintf {|name="%s"|} (version_name n)

let churn_version base n = replace_once ~sub:(churn_tag 0) ~by:(churn_tag n) base

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type step = {
  req : req;
  churn : bool;  (** rewrite the model to a fresh version first *)
}

type workload = {
  files : (string * (unit -> string)) list;  (** path, bytes *)
  steps : step list;  (** one cycle of the closed-loop stream *)
}

let plain reqs = List.map (fun req -> { req; churn = false }) reqs

(* Models are built on first use: [plan] and [refserve] need none. *)
let xmi m () = Xmi.Write.to_string (Lazy.force m)
let sumb m () = Snap.Write.to_string (Lazy.force m)

let churn_base seed i () =
  replace_once ~sub:churn_initial ~by:(churn_tag 0)
    (Xmi.Write.to_string (churn_model seed i))

let churn_files = 4
let churn_static = 8

let workload name seed =
  let ev8 = events ~seed ~length:32 8 in
  let ev4 = events ~seed:(seed + 1) ~length:32 4 in
  match name with
  | "serve-warm" ->
    let big = lazy (big_model seed) in
    let soc = lazy (soc_model seed) in
    let s0 = lazy (small_model seed 0) in
    let bx = "big.xmi" and bs = "big.sumb" in
    (* 12 of 20 requests key the 1000-class XMI file; there lint and RTL
       simulate cost about the same and info more, so the median falls
       inside the lint/simulate group and p90 inside the info group, not
       on a gap between groups *)
    {
      files =
        [ (bx, xmi big); (bs, sumb big); ("small0.xmi", xmi s0);
          ("small0.sumb", sumb s0); ("soc.xmi", xmi soc) ];
      steps =
        plain
          [ Lint bx; Info bs; Info bx; Sim_rtl (bx, ev8); Trace ("soc.xmi", ev4);
            Lint bx; Sim_rtl ("small0.xmi", ev4); Info bx; Sim_rtl (bx, ev8);
            Lint bs; Lint bx; Info bx; Lint "small0.sumb"; Sim_rtl (bx, ev8);
            Sim_rtl (bs, ev8); Lint bx; Trace ("soc.xmi", ev4); Info bx;
            Info "small0.xmi"; Sim_rtl (bx, ev8) ];
    }
  | "serve-churn" ->
    let churn i = Printf.sprintf "churn%d.xmi" i in
    let static i = Printf.sprintf "static%d.xmi" i in
    (* per churn file, the versions cycle through these ops, so every odd
       (same-size) version is read by the RTL simulation, whose output
       names the version *)
    let churn_ops = [| (fun p -> Sim_rtl (p, ev4)); (fun p -> Lint p);
                       (fun p -> Sim_rtl (p, ev4)); (fun p -> Info p) |] in
    let static_ops = [| (fun p -> Lint p); (fun p -> Sim_rtl (p, ev4));
                        (fun p -> Info p) |] in
    (* 16 rewrites and 10 reads of evicted models, spread evenly: the
       median and p90 both fall inside the rewrite group *)
    let n_churn = churn_files * 4 and n_static = 10 in
    let n = n_churn + n_static in
    let c = ref 0 and g = ref 0 in
    let steps =
      List.init n (fun k ->
          if ((k + 1) * n_static / n) > (k * n_static / n) then begin
            let j = !g in
            incr g;
            { req = static_ops.(j mod 3) (static (j mod churn_static));
              churn = false }
          end
          else begin
            let j = !c in
            incr c;
            { req = churn_ops.(j / churn_files) (churn (j mod churn_files));
              churn = true }
          end)
    in
    {
      files =
        List.init churn_files (fun i -> (churn i, churn_base seed i))
        @ List.init churn_static (fun i ->
              (static i, xmi (lazy (churn_model (seed + 1000) i))))
        (* never requested; gives the traced sweep an activity and an ASL
           machine *)
        @ [ ("soc.xmi", xmi (lazy (soc_model seed))) ];
      steps;
    }
  | "serve-verify" ->
    let big = lazy (big_model seed) in
    let soc = lazy (soc_model seed) in
    let long = events ~seed:(seed + 2) ~length:asl_events 4 in
    let s = "soc.xmi" in
    (* The median and p90 fall inside groups of jobs-1 requests: a jobs-2
       request's latency swings with how often the host lets both of its
       domains run, so the jobs-2 requests are few and no percentile sits
       among them.  By cost: inject at jobs 1 (5 of 20) and 2 (1), always
       cheapest < analyze at jobs 1 (8) and 2 (1) < the long ASL
       simulation (4) < validate (1).  The median is the jobs-1 analyses'
       midpoint, moved at most an eighth either way by where the two
       jobs-2 requests land; p90 is the ASL group's 75 % point. *)
    {
      files = [ ("big.xmi", xmi big); (s, xmi soc) ];
      steps =
        plain
          [ Inject (s, 1); Analyze (s, 1); Sim_asl (s, long); Inject (s, 1);
            Analyze (s, 1); Inject (s, 2); Analyze (s, 1); Sim_asl (s, long);
            Inject (s, 1); Analyze (s, 2); Analyze (s, 1); Sim_asl (s, long);
            Inject (s, 1); Analyze (s, 1); Validate "big.xmi"; Analyze (s, 1);
            Inject (s, 1); Sim_asl (s, long); Analyze (s, 1); Analyze (s, 1) ];
    }
  | "oneshot-cli" ->
    let big = lazy (big_model seed) in
    let s0 = lazy (small_model seed 0) and s1 = lazy (small_model seed 1) in
    let bx = "big.xmi" and bs = "big.sumb" in
    let x0 = "small0.xmi" and b0 = "small0.sumb" in
    (* 10 of 16 commands load a 40-class model or none, 3 the 1000-class
       snapshot and 3 its XMI: the median falls inside the small-XMI
       group, p90 inside the large-XMI group *)
    {
      files =
        [ (bx, xmi big); (bs, sumb big); (x0, xmi s0); (b0, sumb s0);
          ("small1.xmi", xmi s1); ("small1.sumb", sumb s1);
          ("soc.xmi", xmi (lazy (soc_model seed))) ];
      steps =
        plain
          [ Info bx; Lint x0; Rules; Info bs; Sim_rtl (b0, ev4);
            Info "small1.xmi"; Lint bx; Lint b0; Sim_rtl (x0, ev4);
            Sim_rtl (bs, ev8); Rules; Info b0; Sim_rtl (bx, ev8); Info x0;
            Lint bs; Lint "small1.sumb" ];
    }
  | other -> failwith ("unknown workload " ^ other)

let distinct_reqs w =
  List.sort_uniq compare
    (List.filter_map (fun s -> if s.churn then None else Some s.req) w.steps)

let gen w = List.iter (fun (path, bytes) -> write_file path (bytes ())) w.files

(* ------------------------------------------------------------------ *)
(* Churn versions                                                      *)

(* One writer for the churn files: remembers each file's base bytes and
   rewrites it in place to a requested version. *)
let churn_writer w =
  let bases = Hashtbl.create 8 in
  List.iter (fun (path, bytes) -> Hashtbl.replace bases path (lazy (bytes ())))
    w.files;
  fun path n ->
    let base =
      match Hashtbl.find_opt bases path with
      | Some bytes -> Lazy.force bytes
      | None -> failwith ("not a churn file: " ^ path)
    in
    overwrite_file path (churn_version base n)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = {
  sp_id : int;
  sp_name : string;
  sp_t0 : int;
  sp_t1 : int;
  sp_parent : int;  (** -1 for a root *)
  sp_request : int;  (** -1 outside the request stream *)
  sp_estimate : bool;
      (** a public call timed beside the request, not inside it *)
  sp_alloc : float;
}

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_span = ref 0
let tracing = ref true

let span ?(estimate = false) ?(request = -1) name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent =
      match !open_spans with
      | p :: _ -> p
      | [] -> -1
    in
    open_spans := id :: !open_spans;
    let a0 = alloc_words () in
    let t0 = now_ns () in
    let result = f () in
    let t1 = now_ns () in
    let a1 = alloc_words () in
    open_spans := List.tl !open_spans;
    spans :=
      { sp_id = id; sp_name = name; sp_t0 = t0; sp_t1 = t1; sp_parent = parent;
        sp_request = request; sp_estimate = estimate; sp_alloc = a1 -. a0 }
      :: !spans;
    result
  end

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.to_string
           (J.Obj
              [ ("id", J.Int s.sp_id); ("name", J.Str s.sp_name);
                ("start_ns", J.Int s.sp_t0); ("end_ns", J.Int s.sp_t1);
                ("parent", J.Int s.sp_parent); ("request", J.Int s.sp_request);
                ("estimate", J.Bool s.sp_estimate);
                ("alloc_words", J.Float s.sp_alloc) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* Self time: duration minus the time its direct children cover. *)
let self_times all =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child s.sp_parent
          ((s.sp_t1 - s.sp_t0)
          + Option.value ~default:0 (Hashtbl.find_opt child s.sp_parent)))
    all;
  fun s ->
    s.sp_t1 - s.sp_t0 - Option.value ~default:0 (Hashtbl.find_opt child s.sp_id)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)

let parse_exn line =
  match J.parse line with
  | Ok v -> v
  | Error msg -> failwith ("bad JSON: " ^ msg)

let response_matches resp (code, out, err) =
  J.member "exit" resp = Some (J.Int code)
  && J.member "output" resp = Some (J.Str out)
  && J.member "error" resp = Some (J.Str err)

let is_oneshot name = name = "oneshot-cli"

(* The daemon settings: serve-churn's cache is below its working set (4
   churn + 8 static models) and persists snapshots.  [serve_args] gives
   run.py the same settings as [socuml serve] flags. *)
let cache_entries name = if name = "serve-churn" then 4 else 64
let cache_dir name = if name = "serve-churn" then Some ".cache" else None

let serve_args name =
  [ "--cache-entries"; string_of_int (cache_entries name) ]
  @ Option.fold ~none:[] ~some:(fun d -> [ "--cache-dir"; d ]) (cache_dir name)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let new_daemon name =
  Option.iter rm_rf (cache_dir name);
  Serve.Daemon.create ~max_entries:(cache_entries name)
    ?persist_dir:(cache_dir name) ()

type pass = {
  p_requests : int;
  p_failed : int;
  p_total_ns : int;  (** summed request time *)
  p_cache : Serve.Cache.stats option;
}

(* One replay of the workload's stream.  The request span covers what a
   daemon does per line (decode, execute, encode); read, key and cache
   lookup are timed beside it, on the benchmark's own cache, which sees
   the same lookups as the daemon's.  One-shot requests run on a fresh
   daemon each, like a fresh process. *)
let replay name w ~first_version ~check =
  let rewrite = churn_writer w in
  let daemon = ref (new_daemon name) in
  let mirror_dir = Option.map (fun d -> d ^ "-mirror") (cache_dir name) in
  Option.iter rm_rf mirror_dir;
  let mirror =
    ref
      (Serve.Cache.create ~max_entries:(cache_entries name)
         ?persist_dir:mirror_dir ())
  in
  (* serve workloads start primed, as run.py primes the daemon *)
  if not (is_oneshot name) then
    List.iter
      (fun r ->
        ignore (Serve.Daemon.handle_line !daemon (line_of_req r));
        Option.iter (fun path -> ignore (Serve.Cache.load !mirror path))
          (model_of_req r))
      (distinct_reqs w);
  let versions = Hashtbl.create 8 in
  let failed = ref 0 and total = ref 0 in
  List.iteri
    (fun i step ->
      (match step.churn, model_of_req step.req with
       | true, Some path ->
         let n =
           1 + Option.value ~default:(first_version - 1)
                 (Hashtbl.find_opt versions path)
         in
         Hashtbl.replace versions path n;
         rewrite path n
       | true, None | false, _ -> ());
      if is_oneshot name then begin
        daemon := new_daemon name;
        mirror := Serve.Cache.create ()
      end;
      let line = line_of_req step.req in
      let t0 = now_ns () in
      let resp =
        span ~request:i "request" (fun () ->
            match step.req with
            | Rules ->
              span ~request:i "op.render" (fun () ->
                  let code, out, err = capture (fun sink -> run_op sink Ops.load_artifacts Rules) in
                  J.Obj (json_of_reference (code, out, err)))
            | Lint _ | Info _ | Sim_rtl _ | Sim_asl _ | Trace _ | Analyze _
            | Inject _ | Validate _ ->
              let _ : J.t = span ~request:i "json.decode" (fun () -> parse_exn line) in
              let out =
                span ~request:i "daemon.handle_line" (fun () ->
                    match Serve.Daemon.handle_line !daemon line with
                    | Some out, _continue -> out
                    | None, _continue -> failwith "no response")
              in
              let v = parse_exn out in
              let _ : string = span ~request:i "json.encode" (fun () -> J.to_string v) in
              v)
      in
      total := !total + (now_ns () - t0);
      (match model_of_req step.req with
       | Some path when !tracing ->
         let bytes =
           span ~estimate:true ~request:i "load.read" (fun () ->
               Result.get_ok (Serve.Load.read_bytes path))
         in
         let fmt = if Filename.check_suffix path ".sumb" then "snap" else "xmi" in
         ignore
           (span ~estimate:true ~request:i ("cache.key_" ^ fmt) (fun () ->
                Digest.to_hex (Digest.string bytes)));
         (* recorded as a span only when it hits: misses are decode and
            derive, which the sweep times separately *)
         let t0 = now_ns () and a0 = alloc_words () in
         let state =
           match Serve.Cache.load !mirror path with
           | Ok (_art, _key, state) -> state
           | Error msg -> failwith msg
         in
         if state = Serve.Cache.Hit then begin
           spans :=
             { sp_id = !next_span; sp_name = "cache.load_hit"; sp_t0 = t0;
               sp_t1 = now_ns (); sp_parent = -1; sp_request = i;
               sp_estimate = true; sp_alloc = alloc_words () -. a0 }
             :: !spans;
           incr next_span
         end
       | Some _ | None -> ());
      if check && not (response_matches resp (reference step.req)) then begin
        incr failed;
        prerr_endline ("perfbench: response differs from reference: " ^ line)
      end)
    w.steps;
  {
    p_requests = List.length w.steps;
    p_failed = !failed;
    p_total_ns = !total;
    p_cache = (if is_oneshot name then None else Some (Serve.Cache.stats !mirror));
  }

(* Layers a request stream reaches only inside other calls are timed
   here, directly through their public functions, on the workload's own
   models.  Work counts come from the engines' telemetry counters. *)
let counters = Hashtbl.create 16

let count name n =
  Hashtbl.replace counters name
    (n + Option.value ~default:0 (Hashtbl.find_opt counters name))

let est name f = span ~estimate:true name f

(* Everything here runs on one domain and returns the activities' Petri
   nets for [sweep_jobs2]: once a worker domain has run, OCaml adopts its
   allocation statistics into another domain at a moment of its choosing,
   so allocation counts are exact only before the first pool starts. *)
let sweep w =
  let paths = List.map fst w.files in
  let models =
    List.map
      (fun path ->
        let bytes = Result.get_ok (Serve.Load.read_bytes path) in
        let m =
          if Filename.check_suffix path ".sumb" then
            est "decode.snap" (fun () -> Snap.Read.model_of_string bytes)
          else
            est "decode.xmi" (fun () ->
                Result.get_ok (Serve.Load.model_of_bytes ~path bytes))
        in
        (path, m))
      paths
  in
  (* decode each XMI model's snapshot too, so both decoders are timed on
     every workload *)
  List.iter
    (fun (path, m) ->
      if Filename.check_suffix path ".xmi" then begin
        let snap = Snap.Write.to_string m in
        ignore (est "decode.snap" (fun () -> Snap.Read.model_of_string snap))
      end)
    models;
  let distinct =
    List.filter (fun (path, _m) -> Filename.check_suffix path ".xmi") models
  in
  let nets = ref [] in
  List.iter
    (fun (_path, m) ->
      let art = Serve.Artifacts.of_model m in
      ignore (est "derive.hdl" (fun () -> art.Serve.Artifacts.design ()));
      List.iter
        (fun sm ->
          if sm.Uml.Smachine.sm_name <> asl_machine then
            match est "derive.netlist" (fun () -> art.Serve.Artifacts.rtl sm) with
            | Ok nl ->
              let reg = Telemetry.Metrics.create () in
              est "run.dsim" (fun () ->
                  let sim = Dsim.Fast.of_netlist ~metrics:reg nl in
                  Dsim.Fast.set_input sim "rst" 1;
                  Dsim.Fast.clock_edge sim "clk";
                  Dsim.Fast.set_input sim "rst" 0;
                  List.iter
                    (fun ev ->
                      let port = Codegen.Fsm_compile.event_input ev in
                      Dsim.Fast.set_input sim port 1;
                      Dsim.Fast.clock_edge sim "clk";
                      Dsim.Fast.set_input sim port 0)
                    (Workload.Gen_statechart.event_sequence ~seed:3 ~length:32
                       4));
              count "run.dsim_evals"
                (Telemetry.Metrics.counter_value
                   (Telemetry.Metrics.counter reg "dsim.events"))
            | Error _reason -> ()
          else begin
            let reg = Telemetry.Metrics.create () in
            est "run.statechart" (fun () ->
                let interp =
                  Asl.Interp.create ~metrics:reg (Asl.Store.create ())
                in
                let engine = Statechart.Engine.create ~interp ~metrics:reg sm in
                Statechart.Engine.start engine;
                List.iter
                  (fun ev ->
                    Statechart.Engine.dispatch engine (Statechart.Event.make ev))
                  (Workload.Gen_statechart.event_sequence ~seed:3 ~length:200 4));
            count "run.statechart_steps"
              (Telemetry.Metrics.counter_value
                 (Telemetry.Metrics.counter reg "statechart.rtc_microsteps"))
          end)
        (Uml.Model.state_machines m);
      List.iter
        (fun act ->
          let net, m0, compiled =
            est "derive.petri" (fun () -> art.Serve.Artifacts.petri act)
          in
          let reg = Telemetry.Metrics.create () in
          let s1 =
            est "run.petri" (fun () ->
                Petri.Analysis.explore ~limit:5000 ~metrics:reg ~compiled net m0)
          in
          count "run.petri_markings"
            s1.Petri.Analysis.sum_reach.Petri.Analysis.state_count;
          nets := (net, m0, compiled) :: !nets)
        (Uml.Model.activities m);
      ignore (est "derive.lint" (fun () -> Lint.Check.check_model m));
      ignore (est "run.dataflow" (fun () -> Lint.Df_pass.check_model m));
      ignore (est "wfr.check" (fun () -> Uml.Wfr.check m));
      (* the rest of [validate] *)
      ignore
        (est "profile.check" (fun () ->
             Profiles.Soc_profile.check m @ Profiles.Rt_profile.check m));
      if Uml.Model.state_machines m <> [] then begin
        let reg = Telemetry.Metrics.create () in
        ignore
          (est "run.fault" (fun () ->
               capture (fun sink ->
                   Ops.inject sink ~machine:None ~seed:inject_seed
                     ~faults:inject_faults ~format:`Text ~metrics:(Some reg)
                     ~jobs:1 art)));
        count "run.fault_runs"
          (Telemetry.Metrics.counter_value
             (Telemetry.Metrics.counter reg "fault.injected"))
      end;
      (* op bodies on warm memos: what is left is rendering *)
      let load _path = Ok art in
      List.iter
        (fun (op, f) ->
          ignore (capture f);
          ignore (est op (fun () -> capture f)))
        [ ("op.render", fun sink -> Ops.info sink art);
          ("op.render", fun sink ->
              Ops.lint sink ~format:`Text ~only:[] ~disable:[] ~no_hdl:false
                ~jobs:1 load [ "model" ]) ])
    distinct;
  List.rev !nets

let sweep_jobs2 nets =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (net, m0, compiled) ->
          ignore
            (est "run.petri_jobs2" (fun () ->
                 Petri.Analysis.explore ~limit:5000 ~pool ~compiled net m0)))
        nets)

(* Streams that never key a snapshot or never hit the cache (churn,
   one-shot) still get those layers timed on their own files. *)
let sweep_cache ~stream w =
  let missing name = not (List.exists (fun s -> s.sp_name = name) stream) in
  if missing "cache.key_snap" then
    List.iter
      (fun (path, bytes) ->
        if Filename.check_suffix path ".xmi" then begin
          let m = Result.get_ok (Serve.Load.model_of_bytes ~path (bytes ())) in
          let snap = Snap.Write.to_string m in
          ignore
            (est "cache.key_snap" (fun () -> Digest.to_hex (Digest.string snap)))
        end)
      w.files;
  if missing "cache.load_hit" then begin
    let cache = Serve.Cache.create () in
    List.iter
      (fun (path, _bytes) ->
        ignore (Serve.Cache.load cache path);
        ignore (est "cache.load_hit" (fun () -> Serve.Cache.load cache path)))
      w.files
  end

(* ------------------------------------------------------------------ *)
(* Per-layer report                                                    *)

let timed_layers =
  [ ("json.decode", "json.decode"); ("json.encode", "json.encode");
    ("load.read", "load.read"); ("cache.key_xmi", "cache.key_xmi");
    ("cache.key_snap", "cache.key_snap"); ("cache.load_hit", "cache.load_hit");
    ("decode.xmi", "decode.xmi"); ("decode.snap", "decode.snap");
    ("derive.hdl", "derive.hdl"); ("derive.netlist", "derive.netlist");
    ("derive.petri", "derive.petri"); ("derive.lint", "derive.lint");
    ("wfr.check", "wfr.check"); ("profile.check", "profile.check");
    ("run.petri", "run.petri");
    ("run.fault", "run.fault"); ("run.statechart", "run.statechart");
    ("run.dsim", "run.dsim"); ("run.dataflow", "run.dataflow");
    ("op.self", "op.render") ]

(* Allocation counters come from the first pass only: later passes run
   with warm process-global memos. *)
let alloc_metrics first =
  let words prefix =
    List.fold_left
      (fun acc s ->
        if String.length s.sp_name >= String.length prefix
           && String.sub s.sp_name 0 (String.length prefix) = prefix
        then acc +. s.sp_alloc
        else acc)
      0. first
    |> Float.round
  in
  [ ("decode.xmi_alloc_words", words "decode.xmi");
    ("decode.snap_alloc_words", words "decode.snap");
    ("derive.alloc_words", words "derive.") ]

let metric name value unit = (name, J.Obj [ ("value", J.Float value); ("unit", J.Str unit) ])

let exact_counters first work =
  List.map (fun (n, v) -> (n, float_of_int v))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) work []))
  @ alloc_metrics first
  @ List.map
      (fun (metric_name, span_name) ->
        ( metric_name ^ ".calls",
          float_of_int
            (List.length (List.filter (fun s -> s.sp_name = span_name) first)) ))
      timed_layers

let spans_since mark = List.filteri (fun i _s -> i < List.length !spans - mark) !spans

type run = {
  r_passes : (pass * pass) list;  (** traced, untraced; latest first *)
  r_first : span list;  (** the first pass's spans *)
  r_work : (string, int) Hashtbl.t;  (** the first pass's work counts *)
}

(* Traced passes until [seconds] are up, at least one.  A pass is the
   single-domain sweep, the stream replayed traced and (for the overhead
   figure) untraced, the cache fallbacks and the jobs-2 explorations. *)
let run_passes ?(untraced = true) name w seconds =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let first = ref [] and work = ref (Hashtbl.create 1) in
  let passes = ref [] and version = ref 1 in
  while !passes = [] || now_ns () < deadline do
    let pass_no = List.length !passes in
    let mark = List.length !spans in
    tracing := true;
    let nets = sweep w in
    let mark_stream = List.length !spans in
    let run_traced () =
      tracing := true;
      replay name w ~first_version:!version ~check:(pass_no = 0)
    in
    let run_untraced () =
      tracing := false;
      if untraced then replay name w ~first_version:(!version + 4) ~check:false
      else { p_requests = 0; p_failed = 0; p_total_ns = 0; p_cache = None }
    in
    (* alternate which replay goes first, so neither always runs on the
       other's warm caches *)
    let traced, untraced =
      if pass_no mod 2 = 0 then
        let t = run_traced () in
        (t, run_untraced ())
      else
        let u = run_untraced () in
        (run_traced (), u)
    in
    version := !version + 8;
    tracing := true;
    sweep_cache ~stream:(spans_since mark_stream) w;
    if pass_no = 0 then begin
      first := spans_since mark;
      work := Hashtbl.copy counters
    end;
    sweep_jobs2 nets;
    passes := (traced, untraced) :: !passes
  done;
  { r_passes = !passes; r_first = !first; r_work = !work }

let trace name seed seconds =
  let w = workload name seed in
  let r = run_passes name w seconds in
  write_spans "spans.jsonl";
  (* the in-process side of run.py's transport probe: the cheapest
     request, so the difference is the pipe and the daemon's line loop *)
  let daemon = new_daemon name in
  let health =
    List.init 200 (fun _ ->
        let t0 = now_ns () in
        ignore (Serve.Daemon.handle_line daemon {|{"op":"health"}|});
        float_of_int (now_ns () - t0) /. 1e3)
  in
  let all = !spans in
  let self = self_times all in
  let us_of ?(self_time = true) name =
    median
      (List.filter_map
         (fun s ->
           if s.sp_name <> name then None
           else
             let ns = if self_time then self s else s.sp_t1 - s.sp_t0 in
             Some (float_of_int ns /. 1e3))
         all)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let totals f = List.map (fun p -> float_of_int (f p).p_total_ns) r.r_passes in
  let c = (fst (List.hd r.r_passes)).p_cache in
  let cache f = float_of_int (Option.fold ~none:0 ~some:f c) in
  let count_unit n = if Filename.check_suffix n "_words" then "words" else "count" in
  let metrics =
    List.map (fun (m, span_name) -> metric (m ^ "_us") (us_of span_name) "us")
      timed_layers
    @ List.map (fun (n, v) -> metric n v (count_unit n))
        (exact_counters r.r_first r.r_work)
    @ [ metric "run.petri_jobs2_ratio"
          (ratio (us_of "run.petri_jobs2") (us_of "run.petri")) "ratio";
        metric "cache.hit_ratio"
          (ratio
             (cache (fun c -> c.Serve.Cache.cs_hits))
             (cache (fun c -> c.Serve.Cache.cs_hits + c.Serve.Cache.cs_misses)))
          "ratio";
        metric "cache.evictions" (cache (fun c -> c.Serve.Cache.cs_evictions))
          "count";
        metric "cache.snap_refills"
          (cache (fun c -> c.Serve.Cache.cs_snap_refills)) "count";
        metric "trace.overhead_pct"
          (100. *. (ratio (median (totals fst)) (median (totals snd)) -. 1.))
          "%";
        metric "daemon.handle_line_us"
          (us_of ~self_time:false "daemon.handle_line") "us";
        metric "daemon.health_us" (median health) "us" ]
  in
  let requests = List.fold_left (fun n (t, _u) -> n + t.p_requests) 0 r.r_passes in
  let failed = List.fold_left (fun n (t, _u) -> n + t.p_failed) 0 r.r_passes in
  print_endline
    (J.to_string
       (J.Obj
          [ ("attempted", J.Int requests); ("failed", J.Int failed);
            ("metrics", J.Obj metrics) ]))

(* The exact counters of one traced pass, computed in a fresh scratch
   directory: the same seed must give identical values in every process. *)
let print_counters name seed =
  let dir = Filename.temp_dir "perfbench" "" in
  Sys.chdir dir;
  let w = workload name seed in
  gen w;
  let r = run_passes ~untraced:false name w 0. in
  List.iter
    (fun (n, v) -> Printf.printf "%s %.0f\n" n v)
    (exact_counters r.r_first r.r_work);
  Sys.chdir Filename.parent_dir_name;
  rm_rf dir

(* ------------------------------------------------------------------ *)

let print_json_line fields = print_endline (J.to_string (J.Obj fields))

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; name; seed ] -> gen (workload name (int_of_string seed))
  | [ _; "plan"; name; seed ] ->
    List.iter
      (fun s ->
        print_json_line
          [ ("line", J.Str (line_of_req s.req));
            ("argv", J.List (List.map (fun a -> J.Str a) (argv_of_req s.req)));
            ("model", match model_of_req s.req with Some p -> J.Str p | None -> J.Null);
            ("churn", J.Bool s.churn) ])
      (workload name (int_of_string seed)).steps
  | [ _; "serve-args"; name ] -> List.iter print_endline (serve_args name)
  | [ _; "refs"; name; seed ] ->
    List.iter
      (fun r ->
        print_json_line
          (("line", J.Str (line_of_req r)) :: json_of_reference (reference r)))
      (distinct_reqs (workload name (int_of_string seed)))
  | [ _; "refserve"; name; seed ] ->
    let w = workload name (int_of_string seed) in
    let steps = Array.of_list w.steps in
    let rewrite = churn_writer w in
    (try
       while true do
         match String.split_on_char ' ' (input_line stdin) with
         | [ i; n ] ->
           let step = steps.(int_of_string i) in
           (match model_of_req step.req with
            | Some path -> rewrite path (int_of_string n)
            | None -> ());
           print_json_line (json_of_reference (reference step.req));
           flush stdout
         | _malformed -> failwith "refserve: expected STEP VERSION"
       done
     with End_of_file -> ())
  | [ _; "trace"; name; seed; seconds ] ->
    trace name (int_of_string seed) (float_of_string seconds)
  | [ _; "counters"; name; seed ] -> print_counters name (int_of_string seed)
  | _usage ->
    prerr_endline
      "usage: pbtool (gen|plan|serve-args|refs|refserve|trace|counters) \
       WORKLOAD [SEED [SECONDS]]";
    exit 2
