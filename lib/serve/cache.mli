(** Content-hash-keyed LRU cache of loaded models and their derived
    artifacts — the heart of [socuml serve].

    A lookup returns the resident {!Artifacts.t} on a hit — the parse
    and every memoized lowering are skipped.  Keys are content digests,
    not paths: the same model bytes at two paths share one entry, and
    editing a file changes its key (stale entries age out by LRU, they
    are never served).

    A per-path digest memo spares warm hits the read and the digest: it
    remembers, for each path, the file's stat signature (device, inode,
    size, mtime, ctime) and the key of the bytes read after that stat.
    A later lookup whose stat matches a trusted record, and whose key is
    still resident, is a hit for the price of one [stat].  A record is
    trusted only when the file had been quiet for a fixed racy window
    (2 s) when it was stat'ed — git's racy-timestamp rule — so a second
    write landing in the same timestamp tick is still hashed; ctime is in
    the signature because [utime] can restore mtime but not ctime.  The
    memo never decides a miss: an untrusted or stale record, or a key no
    longer resident, re-reads and re-hashes the file exactly as without
    it.  It assumes the file's timestamps come from the same clock as
    the daemon's (clock skew on a network filesystem breaks that) and
    that every write moves them (writes through a shared [mmap] may
    not).

    Capacity is bounded twice: a maximum entry count and a byte budget,
    where an entry is charged its source-file size (the observable,
    reproducible proxy for the retained graph).  Inserting past either
    bound evicts least-recently-used entries; the newest entry is never
    evicted, so a single oversized model still caches.

    With a persist directory, every entry parsed from XMI is also
    written as [<key>.sumb]; a later process (or a later miss after
    eviction) finds the snapshot by key and refills via the fast binary
    loader instead of re-parsing XMI — the daemon restarts warm.
    Corrupt or unreadable persisted snapshots never poison a lookup:
    the source file stays authoritative, and the rotten file is
    quarantined — renamed to [<key>.sumb.corrupt] and counted in
    {!stats} — so it is inspected at most once, not re-read on every
    miss.

    All operations are domain-safe behind one lock. *)

type t

(** How a lookup was satisfied. *)
type state =
  | Hit  (** resident in memory *)
  | Snap  (** miss, refilled from a persisted [<key>.sumb] snapshot *)
  | Miss  (** miss, parsed from the source bytes *)

val state_name : state -> string
(** ["hit"], ["snap"], ["miss"] — the protocol's wire spelling. *)

type stats = {
  cs_entries : int;
  cs_bytes : int;  (** sum of resident entry charges *)
  cs_max_entries : int;
  cs_max_bytes : int;
  cs_hits : int;
  cs_misses : int;  (** includes snapshot refills *)
  cs_snap_refills : int;
  cs_evictions : int;
  cs_persisted : int;  (** snapshots written to the persist dir *)
  cs_quarantined : int;
      (** corrupt persisted snapshots renamed to [.corrupt] *)
  cs_key_reuses : int;
      (** hits answered from the digest memo, without reading or hashing
          the file (counted in [cs_hits] too) *)
}

val racy_window : float
(** Seconds a file must have been quiet, when it was stat'ed, before
    its memo record is trusted (2.0). *)

val create : ?max_entries:int -> ?max_bytes:int -> ?persist_dir:string ->
  ?now:(unit -> float) -> unit -> t
(** [max_entries] defaults to 64, [max_bytes] to 256 MiB.  When
    [persist_dir] is given it is created if missing.  [now] is the clock
    the racy-window rule reads (default [Unix.gettimeofday]); tests
    inject one to reach trusted records without sleeping.
    @raise Invalid_argument when a bound is below 1. *)

val load : t -> string -> (Artifacts.t * string * state, string) result
(** [load t path] returns the artifacts, the content key (hex digest of
    the file bytes) and how the lookup was satisfied.  [Error] carries
    the standard one-line {!Load} diagnostic.

    The clock is sampled before the [stat], and the [stat] taken before
    the bytes are read, so a memo record is never newer than the bytes
    it keys.  A trusted record with a matching signature and a resident
    key answers [Hit] without reading the file; every other lookup
    reads and hashes it and records the signature again, so a record
    inside the racy window is re-hashed on each lookup until the file
    has been quiet for the window.  The memo only removes the hash from
    hits: keys, states and diagnostics are those of a plain read-and-hash
    lookup.  Stat failures and non-regular files skip the memo. *)

val stats : t -> stats

val clear : t -> unit
(** Drop every resident entry (counted as evictions) and the digest
    memo, keeping lifetime counters and any persisted snapshots — the graceful-degradation
    valve: after a resource crash the daemon sheds its retained graphs
    and refills on demand, warm from the persist dir when present. *)
