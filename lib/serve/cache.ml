type state =
  | Hit
  | Snap
  | Miss

let state_name s =
  match s with
  | Hit -> "hit"
  | Snap -> "snap"
  | Miss -> "miss"

type entry = {
  e_artifacts : Artifacts.t;
  e_charge : int;
  mutable e_stamp : int;
}

(* What a digest memo record is keyed on: enough of the file's metadata
   that any write, truncation, [utime], [chmod] or rename-over changes it
   (ctime is the field nothing but the kernel can set). *)
type signature = {
  sg_dev : int;
  sg_ino : int;
  sg_size : int;
  sg_mtime : float;
  sg_ctime : float;
}

type memo = {
  m_sig : signature;
  m_trusted : bool;  (** stat'ed after the file had been quiet for the window *)
  m_key : string;
}

type stats = {
  cs_entries : int;
  cs_bytes : int;
  cs_max_entries : int;
  cs_max_bytes : int;
  cs_hits : int;
  cs_misses : int;
  cs_snap_refills : int;
  cs_evictions : int;
  cs_persisted : int;
  cs_quarantined : int;
  cs_key_reuses : int;
}

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  max_entries : int;
  max_bytes : int;
  persist_dir : string option;
  memo : (string, memo) Hashtbl.t;
  now : unit -> float;
  mutable bytes : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable snap_refills : int;
  mutable evictions : int;
  mutable persisted : int;
  mutable quarantined : int;
  mutable key_reuses : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Git's racy-timestamp rule: a file changed less than this long before
   it was stat'ed may change again within the same timestamp tick, so its
   record is not trusted.  Two seconds covers the coarsest common
   filesystem granularity (FAT's 2 s mtime). *)
let racy_window = 2.0

(* Paths remembered at once; the memo is reset, not evicted, past this. *)
let memo_cap = 4096

let create ?(max_entries = 64) ?(max_bytes = 256 * 1024 * 1024) ?persist_dir
    ?(now = Unix.gettimeofday) () =
  if max_entries < 1 then invalid_arg "Serve.Cache.create: max_entries < 1";
  if max_bytes < 1 then invalid_arg "Serve.Cache.create: max_bytes < 1";
  (match persist_dir with
   | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
   | Some _ | None -> ());
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    max_entries;
    max_bytes;
    persist_dir;
    memo = Hashtbl.create 64;
    now;
    bytes = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    snap_refills = 0;
    evictions = 0;
    persisted = 0;
    quarantined = 0;
    key_reuses = 0;
  }

let next_stamp t =
  t.tick <- t.tick + 1;
  t.tick

(* Evict least-recently-used entries until both bounds hold, but never
   the entry inserted by the current lookup — one oversized model must
   still be servable from cache. *)
let enforce_bounds t ~keep =
  let over () =
    Hashtbl.length t.table > t.max_entries || t.bytes > t.max_bytes
  in
  let rec loop () =
    if over () && Hashtbl.length t.table > 1 then begin
      let victim = ref None in
      Hashtbl.iter
        (fun key e ->
          if key <> keep then
            match !victim with
            | Some (_, stamp) when stamp <= e.e_stamp -> ()
            | Some _ | None -> victim := Some (key, e.e_stamp))
        t.table;
      match !victim with
      | Some (key, _stamp) ->
        (match Hashtbl.find_opt t.table key with
         | Some e -> t.bytes <- t.bytes - e.e_charge
         | None -> ());
        Hashtbl.remove t.table key;
        t.evictions <- t.evictions + 1;
        loop ()
      | None -> () (* only the protected entry remains *)
    end
  in
  loop ()

let snap_path dir key = Filename.concat dir (key ^ ".sumb")

(* A persisted snapshot is an optimization, never a correctness input:
   any failure to read or decode it falls back to the source bytes.
   The rotten file itself is quarantined — renamed to [<key>.corrupt]
   and counted — so it is never re-read on every subsequent miss and
   disk rot shows up in [stats] instead of hiding as a silent slow
   path.  Runs under the cache lock (callers hold it). *)
let quarantine t path =
  match Sys.rename path (path ^ ".corrupt") with
  | () -> t.quarantined <- t.quarantined + 1
  | exception Sys_error _ -> ()

let try_refill t key =
  match t.persist_dir with
  | None -> None
  | Some dir -> (
    let path = snap_path dir key in
    if not (Sys.file_exists path) then None
    else
      match Load.read_file_bytes path with
      | exception _ ->
        quarantine t path;
        None
      | data -> (
        match Snap.Read.model_of_string data with
        | m -> Some m
        | exception _ ->
          quarantine t path;
          None))

(* Write-through persistence, atomic against concurrent readers: write
   to a dotfile sibling and rename into place.  Failures (full disk,
   read-only dir) are swallowed — the cache must never turn a healthy
   request into an error. *)
let persist t key model =
  match t.persist_dir with
  | None -> ()
  | Some dir ->
    let path = snap_path dir key in
    if not (Sys.file_exists path) then begin
      match
        let tmp = Filename.concat dir ("." ^ key ^ ".tmp") in
        let oc = open_out_bin tmp in
        (match output_string oc (Snap.Write.to_string model) with
         | () -> close_out oc
         | exception e ->
           close_out_noerr oc;
           raise e);
        Sys.rename tmp path
      with
      | () -> t.persisted <- t.persisted + 1
      | exception _ -> ()
    end

let signature_of st =
  {
    sg_dev = st.Unix.st_dev;
    sg_ino = st.Unix.st_ino;
    sg_size = st.Unix.st_size;
    sg_mtime = st.Unix.st_mtime;
    sg_ctime = st.Unix.st_ctime;
  }

(* The memo short-cuts only a hit: a trusted record whose signature still
   matches and whose key is still resident.  Anything else re-reads and
   re-hashes, so decoding only ever runs on bytes that were hashed. *)
let reuse t path sg =
  match Hashtbl.find_opt t.memo path with
  | Some r when r.m_trusted && r.m_sig = sg -> (
    match Hashtbl.find_opt t.table r.m_key with
    | Some e ->
      e.e_stamp <- next_stamp t;
      t.hits <- t.hits + 1;
      t.key_reuses <- t.key_reuses + 1;
      Some (e.e_artifacts, r.m_key, Hit)
    | None -> None)
  | Some _ | None -> None

let remember t path sg ~trusted key =
  if Hashtbl.length t.memo >= memo_cap && not (Hashtbl.mem t.memo path) then
    Hashtbl.reset t.memo;
  Hashtbl.replace t.memo path { m_sig = sg; m_trusted = trusted; m_key = key }

(* [stat] is the stat taken before the bytes were read: the recorded
   signature is never newer than the bytes it keys. *)
let load_bytes t path ~stat =
  match Load.read_bytes path with
  | Error msg -> Error msg
  | Ok data ->
    let key = Digest.to_hex (Digest.string data) in
    locked t (fun () ->
        Option.iter
          (fun (sg, trusted) -> remember t path sg ~trusted key)
          stat;
        match Hashtbl.find_opt t.table key with
        | Some e ->
          e.e_stamp <- next_stamp t;
          t.hits <- t.hits + 1;
          Ok (e.e_artifacts, key, Hit)
        | None ->
          t.misses <- t.misses + 1;
          let refilled = try_refill t key in
          let state, model_result =
            match refilled with
            | Some m ->
              t.snap_refills <- t.snap_refills + 1;
              (Snap, Ok m)
            | None -> (Miss, Load.model_of_bytes ~path data)
          in
          (match model_result with
           | Error msg -> Error msg
           | Ok model ->
             let art = Artifacts.of_model model in
             let e =
               {
                 e_artifacts = art;
                 e_charge = String.length data;
                 e_stamp = next_stamp t;
               }
             in
             Hashtbl.add t.table key e;
             t.bytes <- t.bytes + e.e_charge;
             enforce_bounds t ~keep:key;
             (* parsed from XMI: persist the packed form so the next
                process (or the next post-eviction miss) refills via
                the fast loader *)
             if state = Miss && not (Snap.Read.is_snapshot data) then
               persist t key model;
             Ok (art, key, state)))

(* [now] is sampled before the stat, so a record is trusted only when
   the file was already quiet for the whole window when it was stat'ed.
   Stat failures and non-regular files take the plain path, whose
   diagnostics are the CLI's. *)
let load t path =
  let now = t.now () in
  match Unix.stat path with
  | exception Unix.Unix_error _ -> load_bytes t path ~stat:None
  | st when st.Unix.st_kind <> Unix.S_REG -> load_bytes t path ~stat:None
  | st -> (
    let sg = signature_of st in
    match locked t (fun () -> reuse t path sg) with
    | Some hit -> Ok hit
    | None ->
      let trusted = now -. Float.max sg.sg_mtime sg.sg_ctime > racy_window in
      load_bytes t path ~stat:(Some (sg, trusted)))

let stats t =
  locked t (fun () ->
      {
        cs_entries = Hashtbl.length t.table;
        cs_bytes = t.bytes;
        cs_max_entries = t.max_entries;
        cs_max_bytes = t.max_bytes;
        cs_hits = t.hits;
        cs_misses = t.misses;
        cs_snap_refills = t.snap_refills;
        cs_evictions = t.evictions;
        cs_persisted = t.persisted;
        cs_quarantined = t.quarantined;
        cs_key_reuses = t.key_reuses;
      })

(* Degradation valve: drop every entry and the digest memo (the persisted
   snapshots stay — they refill misses cheaply once pressure clears).
   Dropped entries count as evictions so the stats ledger stays
   monotonic. *)
let clear t =
  locked t (fun () ->
      let n = Hashtbl.length t.table in
      Hashtbl.reset t.table;
      Hashtbl.reset t.memo;
      t.bytes <- 0;
      t.evictions <- t.evictions + n)
