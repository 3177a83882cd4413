(* Mapping-as-a-service: the serve daemon's core.

   Requests arrive as {!Wire} messages; `map` requests become jobs whose
   searches run as chains of {!Slice} quanta on a worker pool, re-enqueued
   at the back of a FIFO between quanta — a long search therefore cannot
   starve anything; every queued job gets a slice per round.

   Cross-request memoization, all behind one mutex:

   - resolution cache: LRU of (machine, graph, pair fp) keyed by the
     workload's literal fields; repeat requests skip preset/graph
     construction and fingerprinting, so a memo hit is pure lookups.
   - compile cache: LRU of {!Exec.compiled} keyed (machine fp, graph fp),
     weighed by {!Exec.compiled_words}.  Workers share the immutable
     compiled problem and build a private scratch per slice.
   - result memo: LRU keyed (machine fp, graph fp, {!Slice.fingerprint});
     an exact repeat is answered at submit time, bit-equal to the run
     that populated the entry, without touching the simulator.
   - incumbents: best known mapping per (machine fp, graph fp); a
     near-repeat (same workload, different search config) warm-starts
     from it instead of the default/HEFT start.
   - profiles pool: measured-run databases per (machine fp, graph fp,
     eval fingerprint), merged after every slice, seeding fresh starts.
     Resumed slices always restore their database from the checkpoint
     envelope, never the pool — per-job decision identity survives
     daemon restarts.

   Durability: each accepted job persists a meta file (its request, with
   the workload inlined as codec text) and, after every paused slice, a
   checkpoint envelope — both via write-to-temp-then-rename.  SIGTERM
   stops workers at their next slice boundary; a restarted daemon
   rescans the state directory and resumes each orphan from its
   envelope, decision-identically (the envelope is the complete search
   state).  Jobs that never ran a slice restart from scratch, which is
   the same thing: they had made no decisions (their warm-start choice,
   made at accept time, is pinned in the meta file). *)

type job = {
  jb_id : string;
  jb_cfg : Slice.cfg;
  jb_machine : Machine.t;
  jb_graph : Graph.t;
  jb_pair : string;      (* machine fp / graph fp *)
  jb_memo_key : string;  (* pair / full search-config fingerprint *)
  jb_pool_key : string;  (* pair / eval fingerprint *)
  jb_warm : Mapping.t option;  (* incumbent seed, first slice only *)
  mutable jb_state : Wire.job_state;
  mutable jb_ckpt : string option;
  mutable jb_trials : int;
  mutable jb_best : float;  (* best perf so far; nan until first slice *)
  mutable jb_result : Wire.result_payload option;
}

type memo = { mm_mapping : string; mm_perf : float; mm_trials : int }

type t = {
  mu : Mutex.t;
  work : Condition.t;
  queue : string Queue.t;
  jobs : (string, job) Hashtbl.t;
  compile_cache : Exec.compiled Cache.t;
  result_memo : memo Cache.t;
  resolve_cache : (Machine.t * Graph.t * string) Cache.t;
  incumbents : (string, string * float) Hashtbl.t;
  pool : (string, string) Hashtbl.t;
  slice_trials : int;
  state_dir : string option;
  mutable stopping : bool;
  mutable requests : int;
  mutable warm_starts : int;
  mutable slices : int;
  mutable completed : int;
}

(* ---- fingerprints and persistence paths ------------------------------- *)

let pair_key machine graph =
  Machine_codec.fingerprint machine ^ "/" ^ Graph_codec.fingerprint graph

let id_ok id =
  String.length id > 0 && String.length id <= 128
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       id

let meta_path dir id = Filename.concat dir (id ^ ".meta")
let ckpt_path dir id = Filename.concat dir (id ^ ".ckpt")

let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let read_file_opt path =
  if Sys.file_exists path then (
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s)
  else None

(* ---- workload resolution ---------------------------------------------- *)

let machine_of_preset ~cluster ~nodes = Presets.of_spec cluster ~nodes

let resolve (w : Wire.workload) =
  let ( let* ) = Result.bind in
  let* () =
    (* preset and app constructors raise Invalid_argument on a bad node
       count; reject it here so a hostile request gets an error response *)
    if w.Wire.w_nodes >= 1 then Ok ()
    else Error (Printf.sprintf "nodes must be >= 1 (got %d)" w.Wire.w_nodes)
  in
  let* machine =
    match w.Wire.w_machine with
    | Some text -> Machine_codec.of_string text
    | None -> machine_of_preset ~cluster:w.Wire.w_cluster ~nodes:w.Wire.w_nodes
  in
  let* graph =
    match w.Wire.w_graph with
    | Some text -> Graph_codec.of_string text
    | None -> (
        match w.Wire.w_app with
        | None -> Error "workload needs an app name or inline graph text"
        | Some name -> (
            match App.find name with
            | None -> Error (Printf.sprintf "unknown application %S" name)
            | Some app ->
                let input =
                  match w.Wire.w_input with
                  | Some i -> i
                  | None -> (
                      match app.App.inputs ~nodes:w.Wire.w_nodes with
                      | i :: _ -> i
                      | [] -> "")
                in
                Ok (app.App.graph ~nodes:w.Wire.w_nodes ~input)))
  in
  Ok (machine, graph)

(* ---- construction ----------------------------------------------------- *)

let create ?(slice_trials = 40) ?(compile_entries = 32)
    ?(compile_bytes = 256 * 1024 * 1024) ?(memo_entries = 512) ?state_dir () =
  if slice_trials < 1 then invalid_arg "Server.create: slice_trials must be positive";
  (match state_dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  {
    mu = Mutex.create ();
    work = Condition.create ();
    queue = Queue.create ();
    jobs = Hashtbl.create 64;
    compile_cache = Cache.create ~max_entries:compile_entries ~max_bytes:compile_bytes ();
    result_memo = Cache.create ~max_entries:memo_entries ();
    resolve_cache = Cache.create ~max_entries:64 ();
    incumbents = Hashtbl.create 64;
    pool = Hashtbl.create 64;
    slice_trials;
    state_dir;
    stopping = false;
    requests = 0;
    warm_starts = 0;
    slices = 0;
    completed = 0;
  }

(* ---- shared caches ---------------------------------------------------- *)

(* Resolution is deterministic, so (machine, graph, pair fp) triples are
   cached under the workload's literal field tuple: repeat requests — the
   memo-hit hot path — skip preset construction, graph building and MD5
   fingerprinting entirely.  Presence-tagged fields keep None distinct
   from Some "". *)
let workload_key (w : Wire.workload) =
  let opt tag = function None -> "-" | Some s -> tag ^ s in
  String.concat "\x00"
    [
      opt "a:" w.Wire.w_app;
      opt "i:" w.Wire.w_input;
      string_of_int w.Wire.w_nodes;
      String.lowercase_ascii w.Wire.w_cluster;
      opt "g:" w.Wire.w_graph;
      opt "m:" w.Wire.w_machine;
    ]

let resolve_cached t w =
  let key = workload_key w in
  Mutex.lock t.mu;
  let hit = Cache.find t.resolve_cache key in
  Mutex.unlock t.mu;
  match hit with
  | Some triple -> Ok triple
  | None -> (
      match resolve w with
      | Error _ as e -> e
      | Ok (machine, graph) ->
          let triple = (machine, graph, pair_key machine graph) in
          Mutex.lock t.mu;
          Cache.put t.resolve_cache key triple ~weight:1;
          Mutex.unlock t.mu;
          Ok triple)

(* Compile outside the lock: a duplicate concurrent compile of the same
   pair wastes one compile, never corrupts (put replaces). *)
let compiled_for t j =
  Mutex.lock t.mu;
  let hit = Cache.find t.compile_cache j.jb_pair in
  Mutex.unlock t.mu;
  match hit with
  | Some c -> c
  | None ->
      let c = Exec.compile j.jb_machine j.jb_graph in
      Mutex.lock t.mu;
      Cache.put t.compile_cache j.jb_pair c
        ~weight:(Exec.compiled_words c * (Sys.word_size / 8));
      Mutex.unlock t.mu;
      c

(* Line-union merge of profiles-db text: the pool keeps its line for a
   key both sides measured (same eval identity implies the same runs,
   so the choice is cosmetic). *)
let pool_merge t key fresh =
  let merged =
    match Hashtbl.find_opt t.pool key with
    | None -> fresh
    | Some existing ->
        let keys_of s =
          String.split_on_char '\n' s
          |> List.filter_map (fun line ->
                 match String.index_opt line ' ' with
                 | Some i -> Some (String.sub line 0 i, line)
                 | None -> if String.trim line = "" then None else Some (line, line))
        in
        let have = Hashtbl.create 64 in
        List.iter (fun (k, _) -> Hashtbl.replace have k ()) (keys_of existing);
        let extra =
          keys_of fresh
          |> List.filter (fun (k, _) -> not (Hashtbl.mem have k))
          |> List.map snd
        in
        if extra = [] then existing
        else existing ^ String.concat "\n" extra ^ "\n"
  in
  Hashtbl.replace t.pool key merged

let cache_counters t =
  let c = Cache.stats t.compile_cache and r = Cache.stats t.result_memo in
  ( c.Cache.hits,
    c.Cache.misses,
    c.Cache.evictions + r.Cache.evictions,
    c.Cache.resident_bytes + r.Cache.resident_bytes )

(* ---- running one slice ------------------------------------------------ *)

let payload_done j (f : Slice.finished) =
  {
    Wire.r_id = j.jb_id;
    r_state = Wire.Done;
    r_mapping = Some (Mapping.canonical_key f.Slice.best);
    r_perf = Some f.Slice.perf;
    r_perf_hex = Some (Printf.sprintf "%h" f.Slice.perf);
    r_trials = f.Slice.trials;
    r_cached = false;
    r_warm_started = j.jb_warm <> None;
    r_error = None;
  }

let payload_failed j msg =
  {
    Wire.r_id = j.jb_id;
    r_state = Wire.Failed;
    r_mapping = None;
    r_perf = None;
    r_perf_hex = None;
    r_trials = j.jb_trials;
    r_cached = false;
    r_warm_started = j.jb_warm <> None;
    r_error = Some msg;
  }

let clean_state_files t j =
  match t.state_dir with
  | None -> ()
  | Some d ->
      remove_quiet (meta_path d j.jb_id);
      remove_quiet (ckpt_path d j.jb_id)

let run_slice_inner t j scratch =
  match j.jb_ckpt with
  | Some ckpt ->
      Slice.resume ~scratch ~slice_trials:t.slice_trials j.jb_cfg j.jb_machine
        j.jb_graph ~ckpt
  | None ->
      let db =
        Mutex.lock t.mu;
        let text = Hashtbl.find_opt t.pool j.jb_pool_key in
        Mutex.unlock t.mu;
        match text with
        | None -> None
        | Some s -> (
            match Profiles_db.load j.jb_graph s with Ok db -> Some db | Error _ -> None)
      in
      Slice.start ~scratch ?db ?warm_start:j.jb_warm ~slice_trials:t.slice_trials
        j.jb_cfg j.jb_machine j.jb_graph

(* Runs with the lock NOT held; publishes its outcome under the lock. *)
let run_slice t j =
  let outcome =
    (* a bad config (e.g. ccd:1) raises deep in compilation or strategy
       construction: fail the job, never the worker domain *)
    try
      let compiled = compiled_for t j in
      run_slice_inner t j (Exec.scratch compiled)
    with exn -> Error (Printexc.to_string exn)
  in
  match outcome with
  | Error e ->
      Mutex.lock t.mu;
      j.jb_state <- Wire.Failed;
      j.jb_result <- Some (payload_failed j e);
      Mutex.unlock t.mu;
      clean_state_files t j
  | Ok (status, ev) -> (
      (* surface the shared-cache state through the slice's stats *)
      let ch, cm, ce, cb = (Mutex.lock t.mu; let v = cache_counters t in Mutex.unlock t.mu; v) in
      Evaluator.note_cache_state ev ~hits:ch ~misses:cm ~evictions:ce ~resident_bytes:cb;
      let db_text = Profiles_db.save (Evaluator.db ev) in
      match status with
      | Slice.Finished f ->
          let payload = payload_done j f in
          let key = Mapping.canonical_key f.Slice.best in
          Mutex.lock t.mu;
          pool_merge t j.jb_pool_key db_text;
          t.slices <- t.slices + 1;
          t.completed <- t.completed + 1;
          j.jb_state <- Wire.Done;
          j.jb_trials <- f.Slice.trials;
          j.jb_best <- f.Slice.perf;
          j.jb_result <- Some payload;
          Cache.put t.result_memo j.jb_memo_key
            { mm_mapping = key; mm_perf = f.Slice.perf; mm_trials = f.Slice.trials }
            ~weight:(String.length key + 64);
          (match Hashtbl.find_opt t.incumbents j.jb_pair with
          | Some (_, p) when p <= f.Slice.perf -> ()
          | _ -> Hashtbl.replace t.incumbents j.jb_pair (key, f.Slice.perf));
          Mutex.unlock t.mu;
          clean_state_files t j
      | Slice.Paused p ->
          (* persist before publishing: once the job is visible as
             re-queued, its envelope is already on disk *)
          (match t.state_dir with
          | Some d -> write_atomic (ckpt_path d j.jb_id) p.Slice.ckpt
          | None -> ());
          Mutex.lock t.mu;
          pool_merge t j.jb_pool_key db_text;
          t.slices <- t.slices + 1;
          j.jb_ckpt <- Some p.Slice.ckpt;
          j.jb_trials <- p.Slice.p_trials;
          j.jb_best <- p.Slice.p_best_perf;
          j.jb_state <- Wire.Queued;
          Queue.push j.jb_id t.queue;
          Condition.signal t.work;
          Mutex.unlock t.mu)

(* ---- in-process driving ----------------------------------------------- *)

let step t =
  Mutex.lock t.mu;
  match Queue.take_opt t.queue with
  | None ->
      Mutex.unlock t.mu;
      false
  | Some id ->
      let j = Hashtbl.find t.jobs id in
      j.jb_state <- Wire.Running;
      Mutex.unlock t.mu;
      run_slice t j;
      true

let drain t = while step t do () done

(* ---- workers ---------------------------------------------------------- *)

let rec worker t =
  Mutex.lock t.mu;
  while (not t.stopping) && Queue.is_empty t.queue do
    Condition.wait t.work t.mu
  done;
  if t.stopping then Mutex.unlock t.mu
  else begin
    let id = Queue.pop t.queue in
    let j = Hashtbl.find t.jobs id in
    j.jb_state <- Wire.Running;
    Mutex.unlock t.mu;
    run_slice t j;
    worker t
  end

let start_workers t n = List.init (max 0 n) (fun _ -> Domain.spawn (fun () -> worker t))

let stop t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mu

let stopping t =
  Mutex.lock t.mu;
  let v = t.stopping in
  Mutex.unlock t.mu;
  v

(* ---- request handling ------------------------------------------------- *)

let err ?id message = Wire.R_error { e_id = id; message }

let pending_payload j =
  {
    Wire.r_id = j.jb_id;
    r_state = j.jb_state;
    r_mapping = None;
    r_perf = (if Float.is_nan j.jb_best then None else Some j.jb_best);
    r_perf_hex =
      (if Float.is_nan j.jb_best then None else Some (Printf.sprintf "%h" j.jb_best));
    r_trials = j.jb_trials;
    r_cached = false;
    r_warm_started = j.jb_warm <> None;
    r_error = None;
  }

(* Meta file: the map request with the workload inlined as codec text
   (recovery must not depend on the app registry), plus the warm-start
   key pinned so a restart replays the same accept-time decision. *)
let meta_json j =
  let req =
    Wire.Map
      {
        m_id = j.jb_id;
        workload =
          {
            Wire.default_workload with
            Wire.w_graph = Some (Graph_codec.to_string j.jb_graph);
            w_machine = Some (Machine_codec.to_string j.jb_machine);
          };
        cfg = j.jb_cfg;
        wait = false;
        warm = false;
      }
  in
  match (Wire.request_to_json req, j.jb_warm) with
  | Wire.Obj fields, Some m ->
      Wire.Obj (fields @ [ ("warm_key", Wire.Str (Mapping.canonical_key m)) ])
  | json, _ -> json

let persist_meta t j =
  match t.state_dir with
  | None -> ()
  | Some d -> write_atomic (meta_path d j.jb_id) (Wire.to_string (meta_json j))

(* Build and enqueue a job; caller holds no lock.  Returns the
   immediate response. *)
let submit t ~id ~cfg ~warm ~pair machine graph =
  let memo_key = pair ^ "/" ^ Slice.fingerprint cfg in
  let pool_key = pair ^ "/" ^ Slice.eval_fingerprint cfg in
  Mutex.lock t.mu;
  if Hashtbl.mem t.jobs id then begin
    Mutex.unlock t.mu;
    err ~id "duplicate job id"
  end
  else begin
    match Cache.find t.result_memo memo_key with
    | Some m ->
        (* exact repeat: answered from the memo, no search, no simulate *)
        let payload =
          {
            Wire.r_id = id;
            r_state = Wire.Done;
            r_mapping = Some m.mm_mapping;
            r_perf = Some m.mm_perf;
            r_perf_hex = Some (Printf.sprintf "%h" m.mm_perf);
            r_trials = m.mm_trials;
            r_cached = true;
            r_warm_started = false;
            r_error = None;
          }
        in
        let j =
          {
            jb_id = id;
            jb_cfg = cfg;
            jb_machine = machine;
            jb_graph = graph;
            jb_pair = pair;
            jb_memo_key = memo_key;
            jb_pool_key = pool_key;
            jb_warm = None;
            jb_state = Wire.Done;
            jb_ckpt = None;
            jb_trials = m.mm_trials;
            jb_best = m.mm_perf;
            jb_result = Some payload;
          }
        in
        Hashtbl.replace t.jobs id j;
        Mutex.unlock t.mu;
        Wire.R_result payload
    | None ->
        let jb_warm =
          if not warm then None
          else
            match Hashtbl.find_opt t.incumbents pair with
            | Some (key, _) -> Mapping.of_canonical_key graph key
            | None -> None
        in
        if jb_warm <> None then t.warm_starts <- t.warm_starts + 1;
        let j =
          {
            jb_id = id;
            jb_cfg = cfg;
            jb_machine = machine;
            jb_graph = graph;
            jb_pair = pair;
            jb_memo_key = memo_key;
            jb_pool_key = pool_key;
            jb_warm;
            jb_state = Wire.Queued;
            jb_ckpt = None;
            jb_trials = 0;
            jb_best = Float.nan;
            jb_result = None;
          }
        in
        Hashtbl.replace t.jobs id j;
        Queue.push id t.queue;
        Condition.signal t.work;
        Mutex.unlock t.mu;
        persist_meta t j;
        Wire.R_accepted { a_id = id }
  end

let status t =
  Mutex.lock t.mu;
  let jobs =
    Hashtbl.fold (fun id j acc -> (id, j.jb_state) :: acc) t.jobs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let c = Cache.stats t.compile_cache and r = Cache.stats t.result_memo in
  let counters =
    [
      ("compile_hits", c.Cache.hits);
      ("compile_misses", c.Cache.misses);
      ("compile_entries", c.Cache.entries);
      ("result_hits", r.Cache.hits);
      ("result_misses", r.Cache.misses);
      ("result_entries", r.Cache.entries);
      ("warm_starts", t.warm_starts);
      ("evictions", c.Cache.evictions + r.Cache.evictions);
      ("resident_bytes", c.Cache.resident_bytes + r.Cache.resident_bytes);
      ("slices", t.slices);
      ("completed", t.completed);
      ("queued", Queue.length t.queue);
      ("pool_entries", Hashtbl.length t.pool);
    ]
  in
  let requests = t.requests in
  Mutex.unlock t.mu;
  Wire.R_status { requests; jobs; counters }

let poll t id =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.jobs id with
    | None -> err ~id "unknown job id"
    | Some j -> (
        match j.jb_result with
        | Some p -> Wire.R_result p
        | None -> Wire.R_result (pending_payload j))
  in
  Mutex.unlock t.mu;
  r

let analyze t ~id workload =
  match resolve_cached t workload with
  | Error e -> err ~id e
  | Ok (machine, graph, _) ->
      let a = Analysis.analyze ~rotations:5 machine graph in
      let text = Format.asprintf "%a" Analysis.report a in
      let rec rstrip = function
        | [] -> []
        | l :: rest -> (
            match rstrip rest with
            | [] when String.trim l = "" -> []
            | r -> l :: r)
      in
      let report = rstrip (String.split_on_char '\n' text) in
      Wire.R_analysis { ra_id = id; report }

let handle t req =
  Mutex.lock t.mu;
  t.requests <- t.requests + 1;
  Mutex.unlock t.mu;
  (* last line of defense: no request may kill the daemon.  Workload
     resolution, analysis and submission run outside t.mu (locked
     regions below are straight-line), so catching here cannot leak a
     held mutex. *)
  let id =
    match req with
    | Wire.Poll { p_id } -> Some p_id
    | Wire.Analyze { an_id; _ } -> Some an_id
    | Wire.Map { m_id; _ } -> Some m_id
    | Wire.Ping | Wire.Status | Wire.Shutdown -> None
  in
  try
    match req with
    | Wire.Ping -> Wire.Pong
    | Wire.Status -> status t
    | Wire.Shutdown ->
        stop t;
        Wire.R_accepted { a_id = "shutdown" }
    | Wire.Poll { p_id } -> poll t p_id
    | Wire.Analyze { an_id; workload } ->
        if id_ok an_id then analyze t ~id:an_id workload
        else err "id must be 1..128 filename-safe characters"
    | Wire.Map { m_id; workload; cfg; wait = _; warm } -> (
        if not (id_ok m_id) then err "id must be 1..128 filename-safe characters"
        else
          match resolve_cached t workload with
          | Error e -> err ~id:m_id e
          | Ok (machine, graph, pair) -> submit t ~id:m_id ~cfg ~warm ~pair machine graph)
  with exn -> err ?id (Printexc.to_string exn)

let handle_line t line =
  match Wire.request_of_string line with
  | Ok req -> handle t req
  | Error e -> err e

(* ---- recovery --------------------------------------------------------- *)

let recover t =
  match t.state_dir with
  | None -> 0
  | Some dir ->
      let metas =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".meta")
        |> List.sort compare
      in
      List.fold_left
        (fun n f ->
          let id = Filename.chop_suffix f ".meta" in
          match read_file_opt (Filename.concat dir f) with
          | None -> n
          | Some text -> (
              match Wire.of_string text with
              | Error _ -> n
              | Ok json -> (
                  match Wire.request_of_json json with
                  | Ok (Wire.Map { m_id; workload; cfg; _ }) when m_id = id -> (
                      match resolve_cached t workload with
                      | Error _ -> n
                      | Ok (machine, graph, pair) ->
                          let warm_key =
                            match json with
                            | Wire.Obj fields -> (
                                match List.assoc_opt "warm_key" fields with
                                | Some (Wire.Str k) -> Mapping.of_canonical_key graph k
                                | _ -> None)
                            | _ -> None
                          in
                          let j =
                            {
                              jb_id = id;
                              jb_cfg = cfg;
                              jb_machine = machine;
                              jb_graph = graph;
                              jb_pair = pair;
                              jb_memo_key = pair ^ "/" ^ Slice.fingerprint cfg;
                              jb_pool_key = pair ^ "/" ^ Slice.eval_fingerprint cfg;
                              jb_warm = warm_key;
                              jb_state = Wire.Queued;
                              jb_ckpt = read_file_opt (ckpt_path dir id);
                              jb_trials = 0;
                              jb_best = Float.nan;
                              jb_result = None;
                            }
                          in
                          Mutex.lock t.mu;
                          let fresh = not (Hashtbl.mem t.jobs id) in
                          if fresh then begin
                            Hashtbl.replace t.jobs id j;
                            Queue.push id t.queue;
                            Condition.signal t.work
                          end;
                          Mutex.unlock t.mu;
                          if fresh then n + 1 else n)
                  | _ -> n)))
        0 metas

(* ---- socket serving --------------------------------------------------- *)

type endpoint = Unix_path of string | Tcp of int

let listen_socket = function
  | Unix_path path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 16;
      fd

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes received, not yet terminated by '\n' *)
  mutable waiting : string list;  (* job ids of wait:true maps, FIFO *)
}

(* Write the whole response line.  The client fd is non-blocking, so a
   single write may be partial or fail with EAGAIN: loop, waiting (with
   a deadline) for writability between attempts — truncating a response
   mid-line would corrupt the framing for everything after it.  EPIPE /
   ECONNRESET (SIGPIPE is ignored, so a vanished reader surfaces as an
   error, not a signal) and a client that stops draining both report
   [false]: the caller must drop the connection, never reuse it. *)
let send_response fd resp =
  let line = Wire.response_to_string resp ^ "\n" in
  let len = String.length line in
  let rec go off budget =
    if off >= len then true
    else if budget <= 0 then false
    else
      match Unix.write_substring fd line off (len - off) with
      | n -> go (off + n) budget
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (try ignore (Unix.select [] [ fd ] [] 1.0)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off (budget - 1)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off budget
      | exception Unix.Unix_error _ -> false
  in
  go 0 5

(* Serve until shutdown: accepts connections, one JSON request per
   line, one JSON response per line.  Search work happens on the
   worker domains; this loop only parses, submits and replies — plus a
   periodic scan that flushes wait:true responses as jobs finish.
   SIGTERM/SIGINT set an atomic flag (checked each select tick) so
   shutdown happens at a quiet point, never inside a handler. *)
let serve ?(workers = 1) t endpoint =
  let stop_flag = Atomic.make false in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true))
  in
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let listener = listen_socket endpoint in
  let pool = start_workers t workers in
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
  let close_client c =
    Hashtbl.remove clients c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  (* a failed send means the client is gone or wedged: drop it rather
     than risk a half-written line followed by more responses *)
  let send c resp = if not (send_response c.fd resp) then close_client c in
  let handle_request c line =
    match Wire.request_of_string line with
    | Error e -> send c (err e)
    | Ok (Wire.Map { wait = true; _ } as req) -> (
        match handle t req with
        | Wire.R_accepted { a_id } -> c.waiting <- c.waiting @ [ a_id ]
        | resp -> send c resp)
    | Ok req -> send c (handle t req)
  in
  let feed c data =
    Buffer.add_string c.buf data;
    let rec split () =
      let s = Buffer.contents c.buf in
      match String.index_opt s '\n' with
      | None ->
          if String.length s > Wire.default_max_bytes then begin
            ignore (send_response c.fd (err "request line too long"));
            close_client c
          end
      | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear c.buf;
          Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
          if String.trim line <> "" then handle_request c line;
          if Hashtbl.mem clients c.fd then split ()
    in
    split ()
  in
  let flush_waiters () =
    (* snapshot: send can close a client, which mutates the table *)
    let cs = Hashtbl.fold (fun _ c acc -> c :: acc) clients [] in
    List.iter
      (fun c ->
        let rec deliver = function
          | [] -> []
          | pending when not (Hashtbl.mem clients c.fd) -> pending
          | id :: rest -> (
              match handle t (Wire.Poll { p_id = id }) with
              | Wire.R_result p
                when p.Wire.r_state = Wire.Done || p.Wire.r_state = Wire.Failed ->
                  send c (Wire.R_result p);
                  deliver rest
              | _ -> id :: deliver rest)
        in
        c.waiting <- deliver c.waiting)
      cs
  in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    if Atomic.get stop_flag then ()
    else begin
      let fds = listener :: (Hashtbl.fold (fun fd _ acc -> fd :: acc) clients []) in
      let readable =
        match Unix.select fds [] [] 0.05 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          if fd = listener then (
            match Unix.accept listener with
            | cfd, _ ->
                Unix.set_nonblock cfd;
                Hashtbl.replace clients cfd
                  { fd = cfd; buf = Buffer.create 256; waiting = [] }
            | exception Unix.Unix_error _ -> ())
          else
            match Hashtbl.find_opt clients fd with
            | None -> ()
            | Some c -> (
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | 0 -> close_client c
                | n -> feed c (Bytes.sub_string chunk 0 n)
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
                | exception Unix.Unix_error _ -> close_client c))
        readable;
      flush_waiters ();
      if stopping t then () else loop ()
    end
  in
  loop ();
  (* graceful: workers finish their current slice (whose envelope is
     persisted before the job becomes visible again), then exit *)
  stop t;
  List.iter Domain.join pool;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (match endpoint with
  | Unix_path p -> (try Sys.remove p with Sys_error _ -> ())
  | Tcp _ -> ());
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int
