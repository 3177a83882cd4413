(* String-keyed LRU with both an entry cap and a weight (bytes) cap.
   Classic hashtable + doubly-linked recency list; every operation is
   O(1).  Not thread-safe — the server serializes access under its own
   mutex (the critical sections are pointer swaps, far too short to be
   worth finer locking). *)

type 'a entry = {
  key : string;
  value : 'a;
  weight : int;
  mutable newer : 'a entry option;
  mutable older : 'a entry option;
}

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  max_entries : int;
  mutable max_bytes : int;
  mutable head : 'a entry option;  (* most recently used *)
  mutable tail : 'a entry option;  (* least recently used *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(max_entries = 64) ?(max_bytes = max_int) () =
  if max_entries < 1 then invalid_arg "Cache.create: max_entries must be positive";
  {
    tbl = Hashtbl.create 64;
    max_entries;
    max_bytes;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink t e =
  (match e.newer with Some n -> n.older <- e.older | None -> t.head <- e.older);
  (match e.older with Some o -> o.newer <- e.newer | None -> t.tail <- e.newer);
  e.newer <- None;
  e.older <- None

let push_front t e =
  e.older <- t.head;
  e.newer <- None;
  (match t.head with Some h -> h.newer <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let drop t e =
  unlink t e;
  Hashtbl.remove t.tbl e.key;
  t.bytes <- t.bytes - e.weight

let evict_to_fit t =
  while
    Hashtbl.length t.tbl > t.max_entries
    || (t.bytes > t.max_bytes && Hashtbl.length t.tbl > 1)
  do
    match t.tail with
    | Some lru ->
        drop t lru;
        t.evictions <- t.evictions + 1
    | None -> assert false (* non-empty table implies a tail *)
  done

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      t.hits <- t.hits + 1;
      unlink t e;
      push_front t e;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      None

let put t key value ~weight =
  (match Hashtbl.find_opt t.tbl key with Some old -> drop t old | None -> ());
  let e = { key; value; weight; newer = None; older = None } in
  Hashtbl.replace t.tbl key e;
  t.bytes <- t.bytes + weight;
  push_front t e;
  evict_to_fit t

let set_max_bytes t max_bytes =
  t.max_bytes <- max_bytes;
  evict_to_fit t

let mem t key = Hashtbl.mem t.tbl key
let length t = Hashtbl.length t.tbl

type stats = {
  entries : int;
  resident_bytes : int;
  hits : int;
  misses : int;
  evictions : int;
}

let stats t =
  {
    entries = Hashtbl.length t.tbl;
    resident_bytes = t.bytes;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }
