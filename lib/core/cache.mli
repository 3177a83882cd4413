(** String-keyed LRU cache with entry-count and byte-weight limits.

    The serve daemon's cross-request memoization substrate: compiled
    {!Exec} artifacts (weighed by {!Exec.compiled_words}) and result
    memos both live in one of these, keyed by fingerprint strings.
    O(1) find/put.  Not thread-safe: callers serialize access (the
    server holds its cache mutex around every call). *)

type 'a t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> 'a t
(** [max_entries] (default 64) caps the entry count; [max_bytes]
    (default unlimited) caps the summed entry weights.  Least recently
    used entries are evicted to satisfy both — except that the single
    most recent entry is never evicted for weight (an oversized entry
    must still be usable once).
    @raise Invalid_argument if [max_entries < 1]. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit refreshes the entry's recency.  Counts hit/miss. *)

val put : 'a t -> string -> 'a -> weight:int -> unit
(** Insert or replace, as most recent; evicts LRU entries as needed. *)

val set_max_bytes : 'a t -> int -> unit
(** Move the weight cap; lowering it evicts least recently used entries
    at once, under the same rule as {!put}. *)

val mem : 'a t -> string -> bool
(** Presence test without touching recency or hit/miss counters. *)

val length : 'a t -> int

type stats = {
  entries : int;
  resident_bytes : int;  (** summed weights of resident entries *)
  hits : int;
  misses : int;
  evictions : int;
}

val stats : 'a t -> stats
