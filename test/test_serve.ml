(* The serve daemon: JSON wire format, the content-hash artifact cache,
   protocol hardening (every hostile line answers exactly one error
   line and the daemon keeps serving), serve-vs-CLI byte-identity, and
   per-request telemetry isolation. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let exe =
  (* tests execute from the build context's test directory *)
  let candidates =
    [ "../bin/socuml.exe"; "_build/default/bin/socuml.exe"; "bin/socuml.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "socuml.exe not found next to the test binary"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  path

let tmp = Filename.get_temp_dir_name ()

(* Run one CLI invocation, capturing stdout and stderr separately. *)
let run_cli args =
  let out = Filename.temp_file "socuml_serve" ".out" in
  let err = Filename.temp_file "socuml_serve" ".err" in
  let cmd =
    Printf.sprintf "%s %s >%s 2>%s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* The demo SoC on disk (built once), plus its packed snapshot. *)
let demo_model =
  lazy
    (let out = Filename.concat tmp "socuml_serve_demo" in
     let code, _, stderr = run_cli [ "demo"; "--out"; out ] in
     if code <> 0 then Alcotest.failf "demo: exit %d (stderr: %s)" code stderr;
     Filename.concat out "demo_soc.xmi")

let demo_snapshot =
  lazy
    (let model = Lazy.force demo_model in
     let snap = Filename.concat (Filename.dirname model) "demo_soc.sumb" in
     let code, _, stderr = run_cli [ "pack"; model; "-o"; snap ] in
     if code <> 0 then Alcotest.failf "pack: exit %d (stderr: %s)" code stderr;
     snap)

(* A stereotyped model on disk that fires every profile rule once:
   PR-01..04 from [Uml.Wfr], SOC-01..05 and RT-01..03. *)
let stereotyped_model =
  lazy
    (let open Uml in
     let m = Model.create "stereotyped" in
     let soc = Profiles.Soc_profile.install m in
     let rt = Profiles.Rt_profile.install m in
     let soc_apply = Profiles.Soc_profile.apply m ~profile:soc in
     let rt_apply = Profiles.Rt_profile.apply m ~profile:rt in
     let int = Vspec.of_int in
     let rst_a = Component.port "rst_a" and rst_b = Component.port "rst_b" in
     let data = Component.port "d" in
     let core = Component.make ~ports:[ rst_a; rst_b; data ] "Core" in
     let bus = Component.make "Bus" in
     let ctrl = Classifier.property "ctrl" Dtype.Integer in
     let status = Classifier.property "status" Dtype.Integer in
     let regs = Classifier.make ~attributes:[ ctrl; status ] "Regs" in
     let tick = Classifier.operation "tick" in
     let tock = Classifier.operation "tock" in
     let task = Classifier.make ~operations:[ tick; tock ] "Task" in
     List.iter (Model.add m)
       [ Model.E_component core; Model.E_component bus;
         Model.E_classifier regs; Model.E_classifier task ];
     (* PR-01 *)
     Model.add_application m
       (Profile.apply ~stereotype:(Ident.of_string "ghost_stereotype")
          ~element:task.Classifier.cl_id ());
     (* PR-02 and SOC-03 *)
     soc_apply ~stereotype:"hwPort"
       ~values:[ ("width", int 0); ("ghost", int 1) ]
       data.Component.port_id;
     (* PR-03 *)
     soc_apply ~stereotype:"clock" (Ident.of_string "ghost_element");
     (* PR-04: «hwModule» extends Component only *)
     soc_apply ~stereotype:"hwModule" regs.Classifier.cl_id;
     (* SOC-01 (no clock) and SOC-02 (two resets) *)
     soc_apply ~stereotype:"hwModule" core.Component.cmp_id;
     soc_apply ~stereotype:"reset" rst_a.Component.port_id;
     soc_apply ~stereotype:"reset" rst_b.Component.port_id;
     (* SOC-04 *)
     soc_apply ~stereotype:"register" ~values:[ ("address", int 4) ]
       ctrl.Classifier.prop_id;
     soc_apply ~stereotype:"register" ~values:[ ("address", int 4) ]
       status.Classifier.prop_id;
     (* SOC-05 *)
     soc_apply ~stereotype:"bus" ~values:[ ("dataWidth", int 0) ]
       bus.Component.cmp_id;
     (* RT-01 (passive capsule), RT-02, RT-03 *)
     rt_apply ~stereotype:"capsule" task.Classifier.cl_id;
     rt_apply ~stereotype:"periodic" ~values:[ ("period", int 0) ]
       tick.Classifier.op_id;
     rt_apply ~stereotype:"periodic"
       ~values:[ ("period", int 10); ("deadline", int 20) ]
       tock.Classifier.op_id;
     let path = Filename.concat tmp "socuml_serve_stereotyped.xmi" in
     Xmi.Write.write_file m path;
     path)

(* A tiny distinct model on disk, for cache-shape tests. *)
let tiny_model name path =
  let m = Uml.Model.create name in
  Xmi.Write.write_file m path;
  path

(* An empty persist directory, wiped of any previous run's snapshots. *)
let fresh_dir path =
  if Sys.file_exists path then
    Array.iter
      (fun f -> Sys.remove (Filename.concat path f))
      (Sys.readdir path);
  path

(* ------------------------------------------------------------------ *)
(* JSON wire format                                                   *)

let json_tests =
  let parse_ok s =
    match Serve.Json.parse s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  let parse_err s =
    match Serve.Json.parse s with
    | Ok _v -> Alcotest.failf "parse %S: expected an error" s
    | Error e -> e
  in
  [
    tc "roundtrip of a nested value" (fun () ->
        let v =
          Serve.Json.Obj
            [
              ("a", Serve.Json.Int 1);
              ("b", Serve.Json.List
                 [ Serve.Json.Str "x"; Serve.Json.Null;
                   Serve.Json.Bool true ]);
              ("c", Serve.Json.Obj [ ("d", Serve.Json.Float 2.5) ]);
            ]
        in
        let s = Serve.Json.to_string v in
        check Alcotest.bool "roundtrips" true (parse_ok s = v));
    tc "printer output is always one line" (fun () ->
        let s =
          Serve.Json.to_string
            (Serve.Json.Obj
               [ ("msg", Serve.Json.Str "two\nlines\twith\x01controls") ])
        in
        check Alcotest.bool "no raw newline" false (String.contains s '\n');
        check Alcotest.bool "reparses" true
          (parse_ok s
          = Serve.Json.Obj
              [ ("msg", Serve.Json.Str "two\nlines\twith\x01controls") ]));
    tc "nan and infinity print as null" (fun () ->
        check Alcotest.string "nan" "null"
          (Serve.Json.to_string (Serve.Json.Float Float.nan));
        check Alcotest.string "inf" "null"
          (Serve.Json.to_string (Serve.Json.Float Float.infinity)));
    tc "duplicate keys are rejected" (fun () ->
        ignore (parse_err {|{"a":1,"a":2}|}));
    tc "trailing bytes are rejected" (fun () ->
        ignore (parse_err {|{"a":1} trailing|}));
    tc "unterminated string is rejected" (fun () ->
        ignore (parse_err {|{"a":"unclosed}|}));
    tc "raw control characters in strings are rejected" (fun () ->
        ignore (parse_err "{\"a\":\"x\ny\"}"));
    tc "error messages name the byte offset" (fun () ->
        let e = parse_err "[1,2,@]" in
        check Alcotest.bool "offset named" true
          (String.length e > 0
          && List.exists
               (fun i ->
                 i + 6 <= String.length e && String.sub e i 6 = "byte 5")
               (List.init (String.length e) Fun.id)));
    tc "pathological nesting depth is rejected, not a stack overflow"
      (fun () ->
        let deep = String.make 4096 '[' in
        ignore (parse_err deep));
    tc "accessors decode the request shapes" (fun () ->
        let v = parse_ok {|{"n":3,"f":4.0,"s":"x","b":true,"l":["a","b"]}|} in
        check Alcotest.(option int) "int" (Some 3)
          (Option.bind (Serve.Json.member "n" v) Serve.Json.to_int);
        check Alcotest.(option int) "integral float as int" (Some 4)
          (Option.bind (Serve.Json.member "f" v) Serve.Json.to_int);
        check Alcotest.(option string) "str" (Some "x")
          (Option.bind (Serve.Json.member "s" v) Serve.Json.to_str);
        check Alcotest.(option bool) "bool" (Some true)
          (Option.bind (Serve.Json.member "b" v) Serve.Json.to_bool);
        check Alcotest.(option (list string)) "list" (Some [ "a"; "b" ])
          (Option.bind (Serve.Json.member "l" v) Serve.Json.str_list);
        check Alcotest.(option (list string)) "single str as list"
          (Some [ "solo" ])
          (Serve.Json.str_list (Serve.Json.Str "solo")));
  ]

(* ------------------------------------------------------------------ *)
(* Content-hash artifact cache                                        *)

let load_state cache path =
  match Serve.Cache.load cache path with
  | Ok (_art, _key, state) -> Serve.Cache.state_name state
  | Error msg -> Alcotest.failf "load %s: %s" path msg

(* The digest memo.  A test clock running [ahead] of the wall clock
   stands in for the file having been quiet for the racy window, so
   records are trusted without sleeping. *)
let ahead = 10.0
let future_clock () = Unix.gettimeofday () +. ahead
let key_reuses c = (Serve.Cache.stats c).Serve.Cache.cs_key_reuses
let digest_of path = Digest.to_hex (Digest.string (read_file path))

let load_key cache path =
  match Serve.Cache.load cache path with
  | Ok (_art, key, _state) -> key
  | Error msg -> Alcotest.failf "load %s: %s" path msg

(* Two same-size model texts (names of equal length). *)
let model_text name = Xmi.Write.to_string (Uml.Model.create name)

(* A whole-second mtime in the past, so a restore is exact. *)
let old_mtime = 1_600_000_000.

let set_mtime path t = Unix.utimes path t t

let cache_tests =
  [
    tc "second load of the same bytes is a hit" (fun () ->
        let p = tiny_model "m1" (Filename.concat tmp "serve_cache_a.xmi") in
        let c = Serve.Cache.create () in
        check Alcotest.string "cold" "miss" (load_state c p);
        check Alcotest.string "warm" "hit" (load_state c p);
        let s = Serve.Cache.stats c in
        check Alcotest.int "one entry" 1 s.Serve.Cache.cs_entries;
        check Alcotest.int "one hit" 1 s.Serve.Cache.cs_hits;
        check Alcotest.int "one miss" 1 s.Serve.Cache.cs_misses);
    tc "keys are content hashes, not paths" (fun () ->
        let a = tiny_model "same" (Filename.concat tmp "serve_cache_b.xmi") in
        let b = write_file (Filename.concat tmp "serve_cache_c.xmi")
            (read_file a) in
        let c = Serve.Cache.create () in
        check Alcotest.string "first path" "miss" (load_state c a);
        check Alcotest.string "same bytes, other path" "hit" (load_state c b);
        check Alcotest.int "one entry"
          1 (Serve.Cache.stats c).Serve.Cache.cs_entries);
    tc "editing the file changes the key" (fun () ->
        let p = tiny_model "v1" (Filename.concat tmp "serve_cache_d.xmi") in
        let c = Serve.Cache.create () in
        check Alcotest.string "cold" "miss" (load_state c p);
        ignore (tiny_model "v2" p);
        check Alcotest.string "edited file misses" "miss" (load_state c p));
    tc "entry count bound evicts least-recently-used" (fun () ->
        let p i =
          tiny_model
            (Printf.sprintf "lru%d" i)
            (Filename.concat tmp (Printf.sprintf "serve_cache_lru%d.xmi" i))
        in
        let a = p 0 and b = p 1 and cc = p 2 in
        let c = Serve.Cache.create ~max_entries:2 () in
        check Alcotest.string "a cold" "miss" (load_state c a);
        check Alcotest.string "b cold" "miss" (load_state c b);
        (* touch a so b is now least recently used *)
        check Alcotest.string "a warm" "hit" (load_state c a);
        check Alcotest.string "c cold" "miss" (load_state c cc);
        let s = Serve.Cache.stats c in
        check Alcotest.int "bounded" 2 s.Serve.Cache.cs_entries;
        check Alcotest.int "one eviction" 1 s.Serve.Cache.cs_evictions;
        check Alcotest.string "a survived" "hit" (load_state c a);
        check Alcotest.string "b was evicted" "miss" (load_state c b));
    tc "byte budget evicts, but never the newest entry" (fun () ->
        let a = tiny_model "big1" (Filename.concat tmp "serve_cache_e.xmi") in
        let b = tiny_model "big2" (Filename.concat tmp "serve_cache_f.xmi") in
        (* budget below one model: each insert evicts the other, the
           just-inserted entry always stays *)
        let c = Serve.Cache.create ~max_bytes:1 () in
        check Alcotest.string "a cold" "miss" (load_state c a);
        check Alcotest.int "oversized single entry kept" 1
          (Serve.Cache.stats c).Serve.Cache.cs_entries;
        check Alcotest.string "a resident" "hit" (load_state c a);
        check Alcotest.string "b cold" "miss" (load_state c b);
        let s = Serve.Cache.stats c in
        check Alcotest.int "still one entry" 1 s.Serve.Cache.cs_entries;
        check Alcotest.bool "eviction happened" true
          (s.Serve.Cache.cs_evictions >= 1));
    tc "persist dir refills a fresh cache from snapshots" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_cache_persist") in
        let p = tiny_model "persist_me"
            (Filename.concat tmp "serve_cache_g.xmi") in
        let c1 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "cold parse" "miss" (load_state c1 p);
        check Alcotest.int "snapshot written" 1
          (Serve.Cache.stats c1).Serve.Cache.cs_persisted;
        (* a new cache (fresh process, same dir) refills from the
           snapshot instead of re-parsing the XMI *)
        let c2 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "warm restart" "snap" (load_state c2 p);
        check Alcotest.int "refill counted" 1
          (Serve.Cache.stats c2).Serve.Cache.cs_snap_refills;
        check Alcotest.string "then resident" "hit" (load_state c2 p));
    tc "corrupt persisted snapshots fall back to the source" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_cache_persist_bad") in
        let p = tiny_model "corrupt_snap"
            (Filename.concat tmp "serve_cache_h.xmi") in
        let c1 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "cold" "miss" (load_state c1 p);
        (* corrupt every persisted snapshot in the dir *)
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".sumb" then
              ignore
                (write_file (Filename.concat dir f) "\xd3SUMBgarbage"))
          (Sys.readdir dir);
        let c2 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "falls back to parsing" "miss"
          (load_state c2 p);
        check Alcotest.int "no refill" 0
          (Serve.Cache.stats c2).Serve.Cache.cs_snap_refills);
    tc "snapshot sources are not re-persisted" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_cache_persist_sumb") in
        let snap = Lazy.force demo_snapshot in
        let c = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "snapshot loads" "miss" (load_state c snap);
        check Alcotest.int "nothing persisted" 0
          (Serve.Cache.stats c).Serve.Cache.cs_persisted);
    tc "load errors carry the standard diagnostics" (fun () ->
        let c = Serve.Cache.create () in
        let missing = Filename.concat tmp "serve_cache_missing.xmi" in
        (match Serve.Cache.load c missing with
         | Ok _ -> Alcotest.fail "expected an error"
         | Error msg ->
           check Alcotest.string "missing file" (missing ^ ": no such file")
             msg);
        match Serve.Cache.load c tmp with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error msg ->
          check Alcotest.string "directory"
            (tmp ^ ": is a directory, not a model file") msg);
    tc "bounds below 1 are rejected" (fun () ->
        (match Serve.Cache.create ~max_entries:0 () with
         | _c -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ());
        match Serve.Cache.create ~max_bytes:0 () with
        | _c -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    tc "memo: an unchanged file reuses its key" (fun () ->
        let p = tiny_model "memo_a" (Filename.concat tmp "serve_memo_a.xmi") in
        let c = Serve.Cache.create ~now:future_clock () in
        let k1 = load_key c p in
        check Alcotest.int "cold load reads" 0 (key_reuses c);
        check Alcotest.string "warm" "hit" (load_state c p);
        check Alcotest.string "warm again" "hit" (load_state c p);
        check Alcotest.int "both warm hits skip read and digest" 2
          (key_reuses c);
        check Alcotest.string "same key" k1 (load_key c p);
        check Alcotest.string "key is the content digest" (digest_of p) k1);
    tc "memo: inside the racy window every lookup re-hashes" (fun () ->
        let p = tiny_model "memo_b" (Filename.concat tmp "serve_memo_b.xmi") in
        let clock = ref (Unix.gettimeofday ()) in
        let c = Serve.Cache.create ~now:(fun () -> !clock) () in
        let k1 = load_key c p in
        check Alcotest.string "unchanged file still hits" "hit"
          (load_state c p);
        check Alcotest.int "but was read and hashed" 0 (key_reuses c);
        (* a same-size rewrite with the mtime restored, inside the window *)
        let st = Unix.stat p in
        let edited = model_text "memo_B" in
        check Alcotest.int "same size" st.Unix.st_size (String.length edited);
        ignore (write_file p edited);
        set_mtime p st.Unix.st_mtime;
        let k2 = load_key c p in
        check Alcotest.bool "new key" true (k1 <> k2);
        check Alcotest.string "key of the new bytes" (digest_of p) k2;
        (* re-recorded on every re-hash: trusted once quiet for the window *)
        clock := Unix.gettimeofday () +. ahead;
        check Alcotest.string "re-hash under the later clock" "hit"
          (load_state c p);
        check Alcotest.int "not yet reused" 0 (key_reuses c);
        check Alcotest.string "now trusted" "hit" (load_state c p);
        check Alcotest.int "reused" 1 (key_reuses c));
    tc "memo: an mtime-restored rewrite of a trusted file changes the key"
      (fun () ->
        let p = Filename.concat tmp "serve_memo_c.xmi" in
        ignore (write_file p (model_text "memo_c"));
        set_mtime p old_mtime;
        let c = Serve.Cache.create ~now:future_clock () in
        let k1 = load_key c p in
        ignore (load_key c p);
        check Alcotest.int "record trusted" 1 (key_reuses c);
        let before = Unix.stat p in
        ignore (write_file p (model_text "memo_C"));
        set_mtime p old_mtime;
        let after = Unix.stat p in
        (* only ctime tells the two versions apart *)
        check Alcotest.bool "same inode, size and mtime" true
          (before.Unix.st_ino = after.Unix.st_ino
          && before.Unix.st_size = after.Unix.st_size
          && before.Unix.st_mtime = after.Unix.st_mtime);
        let k2 = load_key c p in
        check Alcotest.bool "new key" true (k1 <> k2);
        check Alcotest.string "key of the new bytes" (digest_of p) k2;
        check Alcotest.int "no reuse" 1 (key_reuses c));
    tc "memo: replacing a trusted file by rename changes the key" (fun () ->
        let p = Filename.concat tmp "serve_memo_d.xmi" in
        ignore (write_file p (model_text "memo_d"));
        set_mtime p old_mtime;
        let c = Serve.Cache.create ~now:future_clock () in
        let k1 = load_key c p in
        ignore (load_key c p);
        check Alcotest.int "record trusted" 1 (key_reuses c);
        let before = Unix.stat p in
        let side = write_file (p ^ ".new") (model_text "memo_D") in
        set_mtime side old_mtime;
        Sys.rename side p;
        check Alcotest.bool "new inode" true
          (before.Unix.st_ino <> (Unix.stat p).Unix.st_ino);
        let k2 = load_key c p in
        check Alcotest.bool "new key" true (k1 <> k2);
        check Alcotest.string "key of the new bytes" (digest_of p) k2;
        check Alcotest.int "no reuse" 1 (key_reuses c));
    tc "memo: an unreadable trusted file answers the read error" (fun () ->
        let p = tiny_model "memo_e" (Filename.concat tmp "serve_memo_e.xmi") in
        let c = Serve.Cache.create ~now:future_clock () in
        ignore (load_key c p);
        ignore (load_key c p);
        check Alcotest.int "record trusted" 1 (key_reuses c);
        Unix.chmod p 0o000;
        let expected = Serve.Load.read_bytes p in
        let got = Serve.Cache.load c p in
        Unix.chmod p 0o644;
        (* root reads through mode 000; everyone else gets the CLI's
           read error *)
        match expected, got with
        | Error want, Error msg -> check Alcotest.string "read error" want msg
        | Ok bytes, Ok (_art, key, _state) ->
          check Alcotest.string "key of the bytes"
            (Digest.to_hex (Digest.string bytes)) key
        | Error want, Ok _ -> Alcotest.failf "expected %S, got a hit" want
        | Ok _, Error msg -> Alcotest.failf "unexpected error %S" msg);
    tc "memo: a record whose key was evicted decodes again" (fun () ->
        let a = tiny_model "memo_f1" (Filename.concat tmp "serve_memo_f1.xmi") in
        let b = tiny_model "memo_f2" (Filename.concat tmp "serve_memo_f2.xmi") in
        let c = Serve.Cache.create ~max_entries:1 ~now:future_clock () in
        check Alcotest.string "a cold" "miss" (load_state c a);
        check Alcotest.string "b evicts a" "miss" (load_state c b);
        check Alcotest.string "a decoded again" "miss" (load_state c a);
        check Alcotest.int "no reuse" 0 (key_reuses c));
    tc "memo: clear drops the memo with the entries" (fun () ->
        let p = tiny_model "memo_g" (Filename.concat tmp "serve_memo_g.xmi") in
        let c = Serve.Cache.create ~now:future_clock () in
        ignore (load_key c p);
        ignore (load_key c p);
        check Alcotest.int "trusted" 1 (key_reuses c);
        Serve.Cache.clear c;
        check Alcotest.string "cold after clear" "miss" (load_state c p);
        check Alcotest.int "read, not reused" 1 (key_reuses c);
        check Alcotest.string "warm again" "hit" (load_state c p);
        check Alcotest.int "reused again" 2 (key_reuses c));
  ]

(* Random edit histories against the simple oracle: whatever the memo
   remembers, every key a load returns is the digest of the bytes on
   disk at that moment.  Two paths share a one-entry cache, so evicted
   keys are exercised too; [Jump] moves the clock past the racy window,
   after which re-recorded files are trusted. *)
type memo_op =
  | Rewrite of int * char  (** in place, same size *)
  | Resize of int * char  (** in place, other size *)
  | Restore of int  (** mtime back to [old_mtime] *)
  | Touch of int  (** mtime to now *)
  | Rename_over of int * char  (** new inode, same size, mtime restored *)
  | Load of int
  | Jump

let show_memo_op op =
  match op with
  | Rewrite (i, ch) -> Printf.sprintf "rewrite %d %c" i ch
  | Resize (i, ch) -> Printf.sprintf "resize %d %c" i ch
  | Restore i -> Printf.sprintf "restore %d" i
  | Touch i -> Printf.sprintf "touch %d" i
  | Rename_over (i, ch) -> Printf.sprintf "rename-over %d %c" i ch
  | Load i -> Printf.sprintf "load %d" i
  | Jump -> "jump"

let gen_memo_op =
  let open QCheck.Gen in
  let file = int_bound 1 and ch = char_range 'a' 'z' in
  frequency
    [
      (3, map2 (fun i c -> Rewrite (i, c)) file ch);
      (1, map2 (fun i c -> Resize (i, c)) file ch);
      (2, map (fun i -> Restore i) file);
      (1, map (fun i -> Touch i) file);
      (1, map2 (fun i c -> Rename_over (i, c)) file ch);
      (5, map (fun i -> Load i) file);
      (1, return Jump);
    ]

let qcheck_memo_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"memo: every key is the digest of the bytes on disk"
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map show_memo_op ops))
          QCheck.Gen.(list_size (int_range 1 40) gen_memo_op))
       (fun ops ->
         let paths =
           Array.init 2 (fun i ->
               Filename.concat tmp (Printf.sprintf "serve_memo_q%d.xmi" i))
         in
         (* the name's length sets the file's size *)
         let names = Array.make 2 "qaaa" in
         let text i = model_text (Printf.sprintf "%s%d" names.(i) i) in
         Array.iteri
           (fun i p ->
             ignore (write_file p (text i));
             set_mtime p old_mtime)
           paths;
         let offset = ref 0. in
         let c =
           Serve.Cache.create ~max_entries:1
             ~now:(fun () -> Unix.gettimeofday () +. !offset)
             ()
         in
         let rename name ch = String.make (String.length name) ch in
         List.for_all
           (fun op ->
             match op with
             | Rewrite (i, ch) ->
               names.(i) <- rename names.(i) ch;
               ignore (write_file paths.(i) (text i));
               true
             | Resize (i, ch) ->
               names.(i) <-
                 String.make (if String.length names.(i) = 4 then 5 else 4) ch;
               ignore (write_file paths.(i) (text i));
               true
             | Restore i ->
               set_mtime paths.(i) old_mtime;
               true
             | Touch i ->
               Unix.utimes paths.(i) 0. 0.;
               true
             | Rename_over (i, ch) ->
               names.(i) <- rename names.(i) ch;
               let side = write_file (paths.(i) ^ ".new") (text i) in
               set_mtime side old_mtime;
               Sys.rename side paths.(i);
               true
             | Load i -> (
               match Serve.Cache.load c paths.(i) with
               | Ok (_art, key, _state) -> key = digest_of paths.(i)
               | Error _msg -> false)
             | Jump ->
               offset := !offset +. ahead;
               true)
           ops))

(* ------------------------------------------------------------------ *)
(* Daemon protocol                                                    *)

(* Send one line; expect one parsed response object back. *)
let send d line =
  let response, continue = Serve.Daemon.handle_line d line in
  match response with
  | None -> Alcotest.failf "no response to %S" line
  | Some r ->
    check Alcotest.bool "response is one line" false (String.contains r '\n');
    (match Serve.Json.parse r with
     | Error e -> Alcotest.failf "unparseable response %S: %s" r e
     | Ok v -> (v, continue))

let rmember key v = Serve.Json.member key v

let rstr key v =
  match Option.bind (rmember key v) Serve.Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string %S" key

let rint key v =
  match Option.bind (rmember key v) Serve.Json.to_int with
  | Some n -> n
  | None -> Alcotest.failf "response lacks int %S" key

let rbool key v =
  match Option.bind (rmember key v) Serve.Json.to_bool with
  | Some b -> b
  | None -> Alcotest.failf "response lacks bool %S" key

(* The protocol-error shape: ok:false, a non-empty error, and the
   daemon keeps serving (checked by following up with a healthy
   request). *)
let assert_protocol_error d line =
  let v, continue = send d line in
  check Alcotest.bool "ok:false" false (rbool "ok" v);
  check Alcotest.bool "error is non-empty" true (rstr "error" v <> "");
  check Alcotest.bool "daemon keeps serving" true continue;
  let model = Lazy.force demo_model in
  let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
  check Alcotest.bool "healthy request still served" true (rbool "ok" v)

let daemon_tests =
  [
    tc "blank lines are skipped without a response" (fun () ->
        let d = Serve.Daemon.create () in
        check Alcotest.bool "none" true
          (fst (Serve.Daemon.handle_line d "   ") = None));
    tc "hostile lines answer one error line each, daemon keeps serving"
      (fun () ->
        let d = Serve.Daemon.create () in
        List.iter (assert_protocol_error d)
          [
            "garbage";
            {|{"op":"lint","models":}|};
            "42";
            {|["not","an","object"]|};
            {|{"model":"x.xmi"}|};
            {|{"op":17}|};
            {|{"op":"frobnicate"}|};
            {|{"op":"info"}|};
            {|{"op":"info","model":17}|};
            {|{"op":"info","model":"x.xmi","bogus":1}|};
            {|{"op":"info","model":"x.xmi","id":[3]}|};
            {|{"op":"lint","models":[]}|};
            {|{"op":"lint","model":"a.xmi","models":["b.xmi"]}|};
            {|{"op":"gen","model":"x.xmi","lang":"cobol"}|};
            {|{"op":"validate","model":"x.xmi","format":"yaml"}|};
            {|{"op":"simulate","model":"x.xmi","rtl":"yes"}|};
            {|{"op":"stats","model":"x.xmi"}|};
          ]);
    tc "oversized request lines are refused before parsing" (fun () ->
        let d = Serve.Daemon.create () in
        let big =
          Printf.sprintf {|{"op":"info","model":"%s"}|}
            (String.make (Serve.Daemon.max_line_bytes + 1) 'a')
        in
        assert_protocol_error d big);
    tc "a missing model is an op failure, not a dead daemon" (fun () ->
        let d = Serve.Daemon.create () in
        let missing = Filename.concat tmp "serve_daemon_missing.xmi" in
        let v, continue =
          send d (Printf.sprintf {|{"op":"info","model":%S}|} missing)
        in
        check Alcotest.bool "ok:false" false (rbool "ok" v);
        check Alcotest.int "exit 1" 1 (rint "exit" v);
        check Alcotest.string "diagnostic on the error stream"
          (missing ^ ": no such file\n") (rstr "error" v);
        check Alcotest.bool "keeps serving" true continue);
    tc "a corrupt snapshot is an op failure with one diagnostic line"
      (fun () ->
        let d = Serve.Daemon.create () in
        let bad =
          write_file
            (Filename.concat tmp "serve_daemon_bad.sumb")
            "\xd3SUMBgarbage"
        in
        let v, _ =
          send d (Printf.sprintf {|{"op":"validate","model":%S}|} bad)
        in
        check Alcotest.int "exit 1" 1 (rint "exit" v);
        let err = rstr "error" v in
        check Alcotest.bool "one line" true
          (String.length err > 0
          && String.index err '\n' = String.length err - 1);
        let model = Lazy.force demo_model in
        let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
        check Alcotest.bool "keeps serving" true (rbool "ok" v));
    tc "ids are echoed verbatim" (fun () ->
        let d = Serve.Daemon.create () in
        let model = Lazy.force demo_model in
        let v, _ =
          send d (Printf.sprintf {|{"id":42,"op":"info","model":%S}|} model)
        in
        check Alcotest.int "int id" 42 (rint "id" v);
        let v, _ =
          send d
            (Printf.sprintf {|{"id":"req-7","op":"info","model":%S}|} model)
        in
        check Alcotest.string "string id" "req-7" (rstr "id" v));
    tc "cache states progress miss -> hit across requests" (fun () ->
        let d = Serve.Daemon.create () in
        let model = Lazy.force demo_model in
        let state v =
          match rmember "cache" v with
          | Some (Serve.Json.List [ entry ]) -> rstr "state" entry
          | Some _ | None -> Alcotest.fail "expected one cache entry"
        in
        let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
        check Alcotest.string "cold" "miss" (state v);
        let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
        check Alcotest.string "warm" "hit" (state v);
        let v, _ =
          send d (Printf.sprintf {|{"op":"validate","model":%S}|} model)
        in
        check Alcotest.string "shared across ops" "hit" (state v));
    tc "a persist dir makes the next daemon start warm" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_daemon_persist") in
        let model = Lazy.force demo_model in
        let state v =
          match rmember "cache" v with
          | Some (Serve.Json.List [ entry ]) -> rstr "state" entry
          | Some _ | None -> Alcotest.fail "expected one cache entry"
        in
        let d1 = Serve.Daemon.create ~persist_dir:dir () in
        let v, _ =
          send d1 (Printf.sprintf {|{"op":"info","model":%S}|} model)
        in
        check Alcotest.string "cold" "miss" (state v);
        let d2 = Serve.Daemon.create ~persist_dir:dir () in
        let v, _ =
          send d2 (Printf.sprintf {|{"op":"info","model":%S}|} model)
        in
        check Alcotest.string "snapshot refill" "snap" (state v));
    tc "stats reports request, cache and memo counters" (fun () ->
        let d = Serve.Daemon.create () in
        let model = Lazy.force demo_model in
        ignore (send d (Printf.sprintf {|{"op":"info","model":%S}|} model));
        ignore (send d "garbage");
        let v, _ = send d {|{"op":"stats"}|} in
        check Alcotest.bool "ok" true (rbool "ok" v);
        check Alcotest.int "requests counted" 3 (rint "requests" v);
        check Alcotest.int "protocol errors counted" 1
          (rint "protocol_errors" v);
        (match rmember "cache" v with
         | Some cache ->
           check Alcotest.int "one miss" 1 (rint "misses" cache);
           check Alcotest.int "one entry" 1 (rint "entries" cache)
         | None -> Alcotest.fail "no cache stats");
        match rmember "asl_memo" v with
        | Some memo -> ignore (rint "cap" memo)
        | None -> Alcotest.fail "no asl_memo stats");
    tc "quit acknowledges and stops the loop" (fun () ->
        let d = Serve.Daemon.create () in
        let v, continue = send d {|{"op":"quit","id":9}|} in
        check Alcotest.bool "ok" true (rbool "ok" v);
        check Alcotest.int "id echoed" 9 (rint "id" v);
        check Alcotest.bool "loop stops" false continue);
  ]

(* ------------------------------------------------------------------ *)
(* Serve-vs-CLI byte-identity                                         *)

(* Run the same op one-shot and through a daemon; stdout, stderr and
   exit code must agree byte-for-byte. *)
let assert_differential d ~args ~request =
  let code, stdout, stderr = run_cli args in
  let v, _ = send d request in
  check Alcotest.int
    (Printf.sprintf "exit (%s)" (String.concat " " args))
    code (rint "exit" v);
  check Alcotest.string
    (Printf.sprintf "stdout (%s)" (String.concat " " args))
    stdout (rstr "output" v);
  check Alcotest.string
    (Printf.sprintf "stderr (%s)" (String.concat " " args))
    stderr (rstr "error" v)

let differential_tests =
  let req fmt = Printf.sprintf fmt in
  [
    tc "model ops are byte-identical, cold and warm, at every job count"
      (fun () ->
        let model = Lazy.force demo_model in
        let snap = Lazy.force demo_snapshot in
        let d = Serve.Daemon.create () in
        let cases =
          [
            ([ "validate"; model ],
             req {|{"op":"validate","model":%S}|} model);
            ([ "validate"; "--format"; "json"; model ],
             req {|{"op":"validate","model":%S,"format":"json"}|} model);
            ([ "lint"; model ], req {|{"op":"lint","model":%S}|} model);
            ([ "lint"; "--jobs"; "4"; "--format"; "json"; model; snap ],
             req {|{"op":"lint","models":[%S,%S],"jobs":4,"format":"json"}|}
               model snap);
            ([ "lint"; "--only"; "SC"; "--no-hdl"; model ],
             req {|{"op":"lint","model":%S,"only":["SC"],"no_hdl":true}|}
               model);
            ([ "info"; model ], req {|{"op":"info","model":%S}|} model);
            ([ "gen"; model; "vhdl" ],
             req {|{"op":"gen","model":%S,"lang":"vhdl"}|} model);
            ([ "simulate"; "--events"; "toggle,toggle"; model ],
             req {|{"op":"simulate","model":%S,"events":"toggle,toggle"}|}
               model);
            ([ "simulate"; "--rtl"; "--events"; "toggle"; snap ],
             req {|{"op":"simulate","model":%S,"rtl":true,"events":"toggle"}|}
               snap);
            ([ "simulate"; "--metrics"; "--events"; "toggle"; model ],
             req
               {|{"op":"simulate","model":%S,"metrics":true,"events":"toggle"}|}
               model);
            ([ "trace"; "--events"; "toggle"; model ],
             req {|{"op":"trace","model":%S,"events":"toggle"}|} model);
            ([ "partition"; model ],
             req {|{"op":"partition","model":%S}|} model);
            ([ "partition"; "--budget"; "2"; model ],
             req {|{"op":"partition","model":%S,"budget":2}|} model);
            ([ "analyze"; "--metrics"; "--jobs"; "2"; model ],
             req {|{"op":"analyze","model":%S,"metrics":true,"jobs":2}|}
               model);
            ([ "inject"; "--seed"; "3"; "--faults"; "5"; model ],
             req {|{"op":"inject","model":%S,"seed":3,"faults":5}|} model);
            ([ "inject"; "--format"; "json"; "--jobs"; "4"; model ],
             req {|{"op":"inject","model":%S,"format":"json","jobs":4}|}
               model);
          ]
        in
        (* twice: first pass misses the daemon cache, second is all
           warm hits — both must match the one-shot CLI *)
        List.iter
          (fun (args, request) -> assert_differential d ~args ~request)
          cases;
        List.iter
          (fun (args, request) -> assert_differential d ~args ~request)
          cases);
    tc "failure diagnostics are byte-identical" (fun () ->
        let model = Lazy.force demo_model in
        let missing = Filename.concat tmp "serve_diff_missing.xmi" in
        let garbage =
          write_file (Filename.concat tmp "serve_diff_garbage.xmi") "not xml"
        in
        let d = Serve.Daemon.create () in
        List.iter
          (fun (args, request) -> assert_differential d ~args ~request)
          [
            ([ "info"; missing ], req {|{"op":"info","model":%S}|} missing);
            ([ "lint"; garbage; model ],
             req {|{"op":"lint","models":[%S,%S]}|} garbage model);
            ([ "lint"; "--only"; "NOPE"; model ],
             req {|{"op":"lint","model":%S,"only":["NOPE"]}|} model);
            ([ "analyze"; "--disable"; "BOGUS,SC"; model ],
             req {|{"op":"analyze","model":%S,"disable":["BOGUS","SC"]}|}
               model);
            ([ "lint"; "--jobs"; "0"; model ],
             req {|{"op":"lint","model":%S,"jobs":0}|} model);
            ([ "simulate"; "--machine"; "NoSuch"; model ],
             req {|{"op":"simulate","model":%S,"machine":"NoSuch"}|} model);
            ([ "inject"; "--faults=-1"; model ],
             req {|{"op":"inject","model":%S,"faults":-1}|} model);
          ]);
    tc "validate on a model firing every profile rule is byte-identical"
      (fun () ->
        let model = Lazy.force stereotyped_model in
        let d = Serve.Daemon.create () in
        let cases =
          [
            ([ "validate"; model ],
             req {|{"op":"validate","model":%S}|} model);
            ([ "validate"; "--format"; "json"; model ],
             req {|{"op":"validate","model":%S,"format":"json"}|} model);
          ]
        in
        (* cold, then warm *)
        List.iter
          (fun (args, request) -> assert_differential d ~args ~request)
          (cases @ cases);
        (* the order across Uml.Wfr, the SoC and the RT checks *)
        let _, stdout, _ = run_cli [ "validate"; model ] in
        let rules =
          List.filter_map
            (fun line ->
              if String.starts_with ~prefix:"error(" line then
                Some (String.sub line 6 (String.index line ')' - 6))
              else None)
            (String.split_on_char '\n' stdout)
        in
        check
          (Alcotest.list Alcotest.string)
          "rule order"
          [ "PR-01"; "PR-02"; "PR-03"; "PR-04"; "SOC-01"; "SOC-02"; "SOC-03";
            "SOC-04"; "SOC-05"; "RT-01"; "RT-02"; "RT-03" ]
          rules);
    tc "pack through the daemon writes identical snapshots" (fun () ->
        let model = Lazy.force demo_model in
        let out_cli = Filename.concat tmp "serve_diff_cli.sumb" in
        let out_d = Filename.concat tmp "serve_diff_daemon.sumb" in
        let code, _, stderr = run_cli [ "pack"; model; "-o"; out_cli ] in
        if code <> 0 then
          Alcotest.failf "pack: exit %d (stderr: %s)" code stderr;
        let d = Serve.Daemon.create () in
        let v, _ =
          send d (req {|{"op":"pack","model":%S,"out":%S}|} model out_d)
        in
        check Alcotest.bool "ok" true (rbool "ok" v);
        check Alcotest.string "identical snapshot bytes" (read_file out_cli)
          (read_file out_d));
  ]

(* ------------------------------------------------------------------ *)
(* Per-request telemetry isolation                                    *)

let metrics_tests =
  [
    tc "identical metrics requests report identical counters" (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        let request =
          Printf.sprintf
            {|{"op":"simulate","model":%S,"metrics":true,"events":"toggle,toggle"}|}
            model
        in
        let v1, _ = send d request in
        (* an interleaved metrics-carrying request must not leak into
           the next one's report *)
        ignore
          (send d
             (Printf.sprintf {|{"op":"analyze","model":%S,"metrics":true}|}
                model));
        let v2, _ = send d request in
        check Alcotest.string "identical output" (rstr "output" v1)
          (rstr "output" v2);
        check Alcotest.bool "metrics present in output" true
          (String.length (rstr "output" v1) > 0));
    tc "metrics reports match the one-shot CLI at any cache state"
      (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        let args = [ "analyze"; "--metrics"; model ] in
        let request =
          Printf.sprintf {|{"op":"analyze","model":%S,"metrics":true}|} model
        in
        assert_differential d ~args ~request;
        assert_differential d ~args ~request);
  ]

(* ------------------------------------------------------------------ *)
(* Resilience: deadlines, degradation, health, quarantine, shutdown   *)

let serve_counter v key =
  match rmember "serve" v with
  | Some s -> rint key s
  | None -> Alcotest.fail "stats response lacks the serve ledger"

(* The ledger invariant the chaos suite holds the daemon to. *)
let assert_ledger_reconciles v =
  check Alcotest.int "ledger reconciles" (rint "requests" v)
    (rint "protocol_errors" v
    + serve_counter v "completed"
    + serve_counter v "timeouts"
    + serve_counter v "resource_exhausted"
    + serve_counter v "sheds"
    + serve_counter v "drained")

let resilience_tests =
  [
    tc "health answers protocol version and occupancy" (fun () ->
        let d = Serve.Daemon.create ~deadline_ms:5000 ~max_queue:7 () in
        let model = Lazy.force demo_model in
        ignore (send d (Printf.sprintf {|{"op":"info","model":%S}|} model));
        let v, continue = send d {|{"op":"health","id":3}|} in
        check Alcotest.bool "ok" true (rbool "ok" v);
        check Alcotest.bool "keeps serving" true continue;
        check Alcotest.int "protocol version"
          Serve.Daemon.protocol_version (rint "protocol" v);
        check Alcotest.int "uptime counts this request" 2
          (rint "uptime_requests" v);
        check Alcotest.int "configured deadline" 5000 (rint "deadline_ms" v);
        check Alcotest.int "configured queue bound" 7 (rint "max_queue" v);
        (match rmember "cache" v with
         | Some cache ->
           check Alcotest.int "one resident entry" 1 (rint "entries" cache);
           check Alcotest.bool "bytes charged" true (rint "bytes" cache > 0)
         | None -> Alcotest.fail "no cache occupancy");
        match rmember "asl_memo" v with
        | Some memo -> ignore (rint "cap" memo)
        | None -> Alcotest.fail "no asl_memo occupancy");
    tc "fuel expiry answers a typed timeout, warm retry is byte-identical"
      (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        let v, continue =
          send d
            (Printf.sprintf
               {|{"op":"simulate","model":%S,"rtl":true,"fuel":2}|} model)
        in
        check Alcotest.bool "ok:false" false (rbool "ok" v);
        check Alcotest.string "typed code" "timeout" (rstr "code" v);
        check Alcotest.string "deterministic diagnostic"
          "budget expired: fuel limit 2 exhausted\n" (rstr "error" v);
        check Alcotest.bool "daemon keeps serving" true continue;
        (* the expired request must not have poisoned the cache: the
           warm retry matches the one-shot CLI byte-for-byte *)
        assert_differential d
          ~args:[ "simulate"; "--rtl"; model ]
          ~request:
            (Printf.sprintf {|{"op":"simulate","model":%S,"rtl":true}|} model);
        let v, _ = send d {|{"op":"stats"}|} in
        check Alcotest.int "timeout counted" 1 (serve_counter v "timeouts");
        assert_ledger_reconciles v);
    tc "fuel cancels analyze and inject too" (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        List.iter
          (fun req ->
            let v, _ = send d req in
            check Alcotest.string "typed code" "timeout" (rstr "code" v))
          [
            Printf.sprintf {|{"op":"analyze","model":%S,"fuel":1}|} model;
            Printf.sprintf
              {|{"op":"inject","model":%S,"faults":3,"fuel":1}|} model;
          ];
        let v, _ = send d {|{"op":"stats"}|} in
        check Alcotest.int "both counted" 2 (serve_counter v "timeouts"));
    tc "wall-clock deadline requests stay well-formed" (fun () ->
        let model = Lazy.force demo_model in
        let d = Serve.Daemon.create () in
        (* can't pin whether 1 ms suffices on this machine — pin the
           protocol: either a clean success or a typed timeout *)
        let v, continue =
          send d
            (Printf.sprintf
               {|{"op":"analyze","model":%S,"deadline_ms":1}|} model)
        in
        check Alcotest.bool "keeps serving" true continue;
        (if rbool "ok" v then ()
         else check Alcotest.string "typed code" "timeout" (rstr "code" v));
        let v, _ = send d {|{"op":"stats"}|} in
        assert_ledger_reconciles v);
    tc "budget fields are validated" (fun () ->
        let d = Serve.Daemon.create () in
        List.iter (assert_protocol_error d)
          [
            {|{"op":"simulate","model":"x.xmi","fuel":3,"deadline_ms":5}|};
            {|{"op":"analyze","model":"x.xmi","fuel":-1}|};
            {|{"op":"inject","model":"x.xmi","deadline_ms":0}|};
            (* only the long-running ops take budgets *)
            {|{"op":"validate","model":"x.xmi","fuel":3}|};
            {|{"op":"lint","model":"x.xmi","deadline_ms":5}|};
          ]);
    tc "degradation evicts caches, retries once, answers typed error"
      (fun () ->
        let d = Serve.Daemon.create () in
        let model = Lazy.force demo_model in
        ignore (send d (Printf.sprintf {|{"op":"info","model":%S}|} model));
        (* first crash: caches evicted, thunk retried and succeeds *)
        let crashes = ref 1 in
        (match
           Serve.Daemon.with_degradation d (fun () ->
               if !crashes > 0 then begin
                 decr crashes;
                 raise Out_of_memory
               end
               else 42)
         with
         | Ok n -> check Alcotest.int "retry succeeded" 42 n
         | Error e -> Alcotest.failf "expected recovery, got: %s" e);
        (* the crash evicted the resident artifact cache *)
        let v, _ = send d (Printf.sprintf {|{"op":"info","model":%S}|} model) in
        (match rmember "cache" v with
         | Some (Serve.Json.List [ entry ]) ->
           check Alcotest.string "cache was evicted" "miss"
             (rstr "state" entry)
         | Some _ | None -> Alcotest.fail "expected one cache entry");
        (* a double crash is a typed error, not a dead daemon *)
        (match Serve.Daemon.with_degradation d (fun () -> raise Out_of_memory)
         with
         | Ok _ -> Alcotest.fail "expected Error"
         | Error msg ->
           check Alcotest.bool "diagnostic names the crash" true
             (String.length msg > 0));
        (* budget expiry passes through untouched *)
        (match
           Serve.Daemon.with_degradation d (fun () ->
               raise (Exec.Budget.Expired "x"))
         with
         | Ok _ | Error _ -> Alcotest.fail "Expired must pass through"
         | exception Exec.Budget.Expired _ -> ());
        let v, _ = send d {|{"op":"stats"}|} in
        check Alcotest.int "degradations counted" 2
          (serve_counter v "degradations"));
    tc "corrupt persisted snapshots are quarantined and counted" (fun () ->
        let dir = fresh_dir (Filename.concat tmp "serve_quarantine") in
        let p =
          tiny_model "quarantine_me"
            (Filename.concat tmp "serve_quarantine_src.xmi")
        in
        let c1 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "cold" "miss" (load_state c1 p);
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".sumb" then
              ignore (write_file (Filename.concat dir f) "\xd3SUMBgarbage"))
          (Sys.readdir dir);
        let c2 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "falls back to parsing" "miss"
          (load_state c2 p);
        check Alcotest.int "quarantine counted" 1
          (Serve.Cache.stats c2).Serve.Cache.cs_quarantined;
        check Alcotest.bool "rotten file renamed aside" true
          (Array.exists
             (fun f -> Filename.check_suffix f ".corrupt")
             (Sys.readdir dir));
        (* the reparse self-heals: a fresh, valid snapshot replaces the
           quarantined one, and the next cold start refills from it
           without touching quarantine again *)
        let c3 = Serve.Cache.create ~persist_dir:dir () in
        check Alcotest.string "healed snapshot refills" "snap"
          (load_state c3 p);
        check Alcotest.int "inspected at most once" 0
          (Serve.Cache.stats c3).Serve.Cache.cs_quarantined);
    tc "request_stop is observable and sticky" (fun () ->
        let d = Serve.Daemon.create () in
        check Alcotest.bool "initially live" false
          (Serve.Daemon.stop_requested d);
        Serve.Daemon.request_stop d;
        check Alcotest.bool "stopping" true (Serve.Daemon.stop_requested d);
        Serve.Daemon.request_stop d;
        check Alcotest.bool "idempotent" true
          (Serve.Daemon.stop_requested d));
  ]

(* ------------------------------------------------------------------ *)
(* Protocol boundary properties                                       *)

let qcheck_depth_cap =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50
       ~name:"json: nesting accepted through depth 129, rejected past it"
       QCheck.(int_range 1 40)
       (fun extra ->
         let nest n =
           String.concat "" (List.init n (fun _ -> "["))
           ^ String.concat "" (List.init n (fun _ -> "]"))
         in
         let accepted n =
           match Serve.Json.parse (nest n) with
           | Ok _ -> true
           | Error _ -> false
         in
         accepted 129 && (not (accepted 130)) && not (accepted (129 + extra))))

let qcheck_line_cap =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:"daemon: line cap accepts exactly-at-limit, refuses one past"
       QCheck.(int_range 0 64)
       (fun slack ->
         let d = Serve.Daemon.create () in
         (* pad a healthy request with trailing blanks (trimmed by the
            protocol) to hit an exact byte length *)
         let padded target =
           let body = {|{"op":"stats"}|} in
           body ^ String.make (target - String.length body) ' '
         in
         let at_limit, _ =
           send d (padded (Serve.Daemon.max_line_bytes - slack))
         in
         let over, _ =
           send d
             (padded (Serve.Daemon.max_line_bytes + 1 + slack))
         in
         rbool "ok" at_limit
         && (not (rbool "ok" over))
         && rstr "error" over
            = Printf.sprintf "request line exceeds %d bytes"
                Serve.Daemon.max_line_bytes))

let () =
  Alcotest.run "serve"
    [
      ("json", json_tests);
      ("cache", cache_tests @ [ qcheck_memo_oracle ]);
      ("daemon", daemon_tests);
      ("differential", differential_tests);
      ("metrics", metrics_tests);
      ("resilience", resilience_tests @ [ qcheck_depth_cap; qcheck_line_cap ]);
    ]
