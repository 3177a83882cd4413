(* The serve daemon's core, driven in-process (no domains, no sockets:
   Server.step runs slices deterministically on this thread), proving
   the service guarantees:

   - an exact repeat is answered from the result memo at submit time —
     no slice runs, no simulation — bit-equal to the cold answer;
   - a long search cannot starve a short one (FIFO re-queue between
     slices);
   - a server restarted from its state directory resumes an in-flight
     search decision-identically to an uninterrupted run;
   - near-repeats warm-start from the cached incumbent;
   - a job's later slices continue its live session, and a byte budget
     small enough to drop parked sessions to their envelopes changes no
     answer;
   - the cache counters surface through the status response. *)

let cfg ?(algo = Driver.Ccd { rotations = 2 }) ?(seed = 0) ~max_trials () =
  {
    Slice.default_cfg with
    Slice.algo;
    runs = 3;
    seed;
    max_trials = Some max_trials;
  }

let stencil ~nodes = { Wire.default_workload with Wire.w_app = Some "stencil"; w_nodes = nodes }

let map_req ?(warm = true) ~id ~cfg workload =
  Wire.Map { m_id = id; workload; cfg; wait = false; warm }

let counters_of = function
  | Wire.R_status { counters; _ } -> counters
  | _ -> Alcotest.fail "expected a status response"

let counter cs name =
  match List.assoc_opt name cs with
  | Some v -> v
  | None -> Alcotest.failf "status counter %s missing" name

let result_of srv id =
  match Server.handle srv (Wire.Poll { p_id = id }) with
  | Wire.R_result p -> p
  | Wire.R_error { message; _ } -> Alcotest.failf "poll %s: %s" id message
  | _ -> Alcotest.fail "expected a result response"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "automap_serve_test_%d_%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
    else Unix.mkdir d 0o755;
    d

(* ---- warm repeat: memo hit, bit-equal, no search ---------------------- *)

let check_warm_repeat () =
  let srv = Server.create ~slice_trials:20 () in
  let c = cfg ~max_trials:50 () in
  (match Server.handle srv (map_req ~id:"cold" ~cfg:c (stencil ~nodes:1)) with
  | Wire.R_accepted _ -> ()
  | _ -> Alcotest.fail "cold map must be accepted");
  Server.drain srv;
  let cold = result_of srv "cold" in
  Alcotest.(check bool) "cold done" true (cold.Wire.r_state = Wire.Done);
  Alcotest.(check bool) "cold not cached" false cold.Wire.r_cached;
  let slices_before = counter (counters_of (Server.handle srv Wire.Status)) "slices" in
  (* the repeat is answered synchronously at submit — R_result, not
     R_accepted — and runs zero slices, hence zero simulations *)
  let warm =
    match Server.handle srv (map_req ~id:"warm" ~cfg:c (stencil ~nodes:1)) with
    | Wire.R_result p -> p
    | _ -> Alcotest.fail "exact repeat must be answered immediately"
  in
  let slices_after = counter (counters_of (Server.handle srv Wire.Status)) "slices" in
  Alcotest.(check int) "no slice ran for the repeat" slices_before slices_after;
  Alcotest.(check bool) "repeat marked cached" true warm.Wire.r_cached;
  Alcotest.(check (option string)) "same mapping" cold.Wire.r_mapping warm.Wire.r_mapping;
  Alcotest.(check (option string))
    "bit-equal perf" cold.Wire.r_perf_hex warm.Wire.r_perf_hex;
  Alcotest.(check int) "same trial count" cold.Wire.r_trials warm.Wire.r_trials

(* ---- fairness: a long search does not starve a short one -------------- *)

let check_interleaving () =
  let srv = Server.create ~slice_trials:20 () in
  let long =
    map_req ~warm:false ~id:"long"
      ~cfg:(cfg ~algo:(Driver.Random_walk { max_evals = 100000 }) ~max_trials:100000 ())
      (stencil ~nodes:1)
  in
  let short = map_req ~warm:false ~id:"short" ~cfg:(cfg ~max_trials:10 ()) (stencil ~nodes:1) in
  ignore (Server.handle srv long);
  ignore (Server.handle srv short);
  (* slice 1: the long job runs one quantum and re-queues BEHIND the
     short job; slice 2 must therefore be the short job, to completion *)
  Alcotest.(check bool) "slice 1 ran" true (Server.step srv);
  Alcotest.(check bool) "slice 2 ran" true (Server.step srv);
  let s = result_of srv "short" in
  let l = result_of srv "long" in
  Alcotest.(check bool) "short finished" true (s.Wire.r_state = Wire.Done);
  Alcotest.(check bool) "long still in flight" true (l.Wire.r_state <> Wire.Done);
  Alcotest.(check bool) "long made progress" true (l.Wire.r_trials > 0)

(* ---- restart: resume is decision-identical ---------------------------- *)

let check_restart_identity () =
  let c = cfg ~algo:(Driver.Random_walk { max_evals = 150 }) ~max_trials:150 () in
  let req id = map_req ~warm:false ~id ~cfg:c (stencil ~nodes:2) in
  (* interrupted: run two slices, then abandon the server mid-search —
     its state directory is all that survives (as after SIGKILL) *)
  let dir = fresh_dir () in
  let a = Server.create ~slice_trials:25 ~state_dir:dir () in
  ignore (Server.handle a (req "job"));
  ignore (Server.step a);
  ignore (Server.step a);
  Alcotest.(check bool) "still unfinished when abandoned" true
    ((result_of a "job").Wire.r_state <> Wire.Done);
  (* restart from disk *)
  let b = Server.create ~slice_trials:25 ~state_dir:dir () in
  Alcotest.(check int) "one job recovered" 1 (Server.recover b);
  Server.drain b;
  let resumed = result_of b "job" in
  (* reference: the same request, uninterrupted *)
  let r = Server.create ~slice_trials:25 () in
  ignore (Server.handle r (req "job"));
  Server.drain r;
  let straight = result_of r "job" in
  Alcotest.(check bool) "resumed finished" true (resumed.Wire.r_state = Wire.Done);
  Alcotest.(check (option string))
    "same mapping as uninterrupted" straight.Wire.r_mapping resumed.Wire.r_mapping;
  Alcotest.(check (option string))
    "bit-equal perf" straight.Wire.r_perf_hex resumed.Wire.r_perf_hex;
  Alcotest.(check int) "same trials" straight.Wire.r_trials resumed.Wire.r_trials;
  Alcotest.(check bool) "state files cleaned after completion" true
    (Sys.readdir dir = [||])

(* ---- warm start for near-repeats -------------------------------------- *)

let check_warm_start () =
  let srv = Server.create ~slice_trials:20 () in
  ignore (Server.handle srv (map_req ~id:"first" ~cfg:(cfg ~max_trials:50 ()) (stencil ~nodes:1)));
  Server.drain srv;
  (* different seed => different memo key, same workload => incumbent *)
  let near = map_req ~id:"near" ~cfg:(cfg ~seed:7 ~max_trials:50 ()) (stencil ~nodes:1) in
  (match Server.handle srv near with
  | Wire.R_accepted _ -> ()
  | Wire.R_result _ -> Alcotest.fail "near-repeat must not hit the result memo"
  | _ -> Alcotest.fail "unexpected response");
  Server.drain srv;
  let p = result_of srv "near" in
  Alcotest.(check bool) "near-repeat done" true (p.Wire.r_state = Wire.Done);
  Alcotest.(check bool) "warm-started from the incumbent" true p.Wire.r_warm_started;
  let cs = counters_of (Server.handle srv Wire.Status) in
  Alcotest.(check bool) "warm_starts counted" true (counter cs "warm_starts" >= 1);
  (* a cold-pinned request must not warm-start *)
  (match
     Server.handle srv
       (map_req ~warm:false ~id:"pinned" ~cfg:(cfg ~seed:9 ~max_trials:50 ()) (stencil ~nodes:1))
   with
  | Wire.R_accepted _ -> ()
  | _ -> Alcotest.fail "unexpected response");
  Server.drain srv;
  Alcotest.(check bool) "warm=false stays cold" false
    (result_of srv "pinned").Wire.r_warm_started

(* ---- counters and analyze --------------------------------------------- *)

let check_counters () =
  let srv = Server.create ~slice_trials:20 () in
  let c = cfg ~algo:(Driver.Random_walk { max_evals = 1000 }) ~max_trials:50 () in
  ignore (Server.handle srv (map_req ~id:"a" ~cfg:c (stencil ~nodes:1)));
  ignore (Server.step srv);
  let cs = counters_of (Server.handle srv Wire.Status) in
  Alcotest.(check int) "the paused job's session is parked" 1 (counter cs "live_sessions");
  Alcotest.(check bool) "parked session has weight" true (counter cs "live_bytes" > 0);
  Server.drain srv;
  let cs = counters_of (Server.handle srv Wire.Status) in
  Alcotest.(check int) "the job ran three slices" 3 (counter cs "slices");
  Alcotest.(check int) "a 3-slice job compiles once" 1 (counter cs "compile_misses");
  Alcotest.(check int) "continued slices skip the compile cache" 0
    (counter cs "compile_hits");
  Alcotest.(check int) "no session parked once done" 0 (counter cs "live_sessions");
  Alcotest.(check int) "no bytes parked once done" 0 (counter cs "live_bytes");
  ignore (Server.handle srv (map_req ~id:"b" ~cfg:c (stencil ~nodes:1)));
  (* a new search on the same workload reuses the compiled problem *)
  ignore
    (Server.handle srv
       (map_req ~id:"c" ~cfg:{ c with Slice.seed = 5 } (stencil ~nodes:1)));
  Server.drain srv;
  let cs = counters_of (Server.handle srv Wire.Status) in
  Alcotest.(check int) "compile cache hit across requests" 1 (counter cs "compile_hits");
  Alcotest.(check int) "one compile for one workload" 1 (counter cs "compile_misses");
  Alcotest.(check int) "repeat hit the result memo" 1 (counter cs "result_hits");
  Alcotest.(check bool) "compiled problem has weight" true
    (counter cs "resident_bytes" > 0);
  Alcotest.(check bool) "profiles pooled" true (counter cs "pool_entries" >= 1);
  Alcotest.(check int) "no evictions in a small run" 0 (counter cs "evictions");
  Alcotest.(check int) "no session dropped in a small run" 0 (counter cs "live_evictions")

(* ---- live sessions under a byte budget -------------------------------- *)

(* Three interleaved jobs, once under the default budget and once under
   a budget no larger than the widest session the first run parked
   alone, so the compile cache's bytes alone push some sessions out:
   paused sessions that do not fit are printed to their envelopes and
   dropped, and their jobs resume from the envelope.  Every answer must
   be bit-equal to the unconstrained run's, and the parked bytes must
   never exceed the budget. *)
let check_live_budget () =
  let requests =
    [
      map_req ~id:"s1" ~cfg:(cfg ~max_trials:60 ()) (stencil ~nodes:1);
      map_req ~id:"s2" ~cfg:(cfg ~seed:3 ~max_trials:60 ()) (stencil ~nodes:2);
      map_req ~id:"c1"
        ~cfg:(cfg ~algo:(Driver.Random_walk { max_evals = 1000 }) ~max_trials:60 ())
        { (stencil ~nodes:1) with Wire.w_app = Some "circuit" };
    ]
  in
  let run ?compile_bytes () =
    let srv = Server.create ~slice_trials:10 ?compile_bytes () in
    List.iter
      (fun r ->
        match Server.handle srv r with
        | Wire.R_accepted _ -> ()
        | _ -> Alcotest.fail "map must be accepted")
      requests;
    let widest = ref 0 and parked = ref 0 in
    while Server.step srv do
      let cs = counters_of (Server.handle srv Wire.Status) in
      (match compile_bytes with
      | Some budget ->
          Alcotest.(check bool) "parked bytes within the budget" true
            (counter cs "live_bytes" <= budget)
      | None -> ());
      if counter cs "live_sessions" = 1 then
        widest := max !widest (counter cs "live_bytes");
      parked := max !parked (counter cs "live_sessions")
    done;
    let cs = counters_of (Server.handle srv Wire.Status) in
    let answers =
      List.map
        (fun id ->
          let p = result_of srv id in
          Alcotest.(check bool) (id ^ " done") true (p.Wire.r_state = Wire.Done);
          (id, p.Wire.r_mapping, p.Wire.r_perf_hex, p.Wire.r_trials))
        [ "s1"; "s2"; "c1" ]
    in
    (answers, !widest, !parked, counter cs "live_evictions")
  in
  let reference, widest, parked, dropped = run () in
  Alcotest.(check int) "default budget drops nothing" 0 dropped;
  Alcotest.(check bool) "three jobs park side by side" true (parked >= 2);
  let tight, _, tight_parked, tight_dropped = run ~compile_bytes:widest () in
  Alcotest.(check bool) "the tight budget drops sessions" true (tight_dropped > 0);
  Alcotest.(check bool) "the tight budget still parks" true (tight_parked >= 1);
  List.iter2
    (fun (id, m, p, n) (_, m', p', n') ->
      Alcotest.(check (option string)) (id ^ ": same mapping") m m';
      Alcotest.(check (option string)) (id ^ ": bit-equal perf") p p';
      Alcotest.(check int) (id ^ ": same trials") n n')
    reference tight

let check_analyze_and_errors () =
  let srv = Server.create () in
  (match
     Server.handle srv (Wire.Analyze { an_id = "an1"; workload = stencil ~nodes:1 })
   with
  | Wire.R_analysis { ra_id = "an1"; report } ->
      Alcotest.(check bool) "report has lines" true (List.length report > 0)
  | _ -> Alcotest.fail "expected an analysis response");
  (match Server.handle srv (Wire.Poll { p_id = "ghost" }) with
  | Wire.R_error _ -> ()
  | _ -> Alcotest.fail "unknown job must be an error");
  (match
     Server.handle srv
       (Wire.Analyze
          { an_id = "an2"; workload = { (stencil ~nodes:1) with Wire.w_app = Some "nosuch" } })
   with
  | Wire.R_error { message; _ } ->
      Alcotest.(check bool) "names the app" true (Str_helpers.contains message "nosuch")
  | _ -> Alcotest.fail "unknown app must be an error");
  (match Server.handle_line srv "{nonsense" with
  | Wire.R_error _ -> ()
  | _ -> Alcotest.fail "unparseable line must be an error");
  (* hostile field values must become error responses, never exceptions
     out of handle (nodes:0 used to raise through Machine.make) *)
  (match
     Server.handle_line srv {|{"type":"map","id":"bad-nodes","app":"stencil","nodes":0}|}
   with
  | Wire.R_error { message; _ } ->
      Alcotest.(check bool) "names nodes" true (Str_helpers.contains message "nodes")
  | _ -> Alcotest.fail "nodes:0 must be a typed error");
  match
    Server.handle_line srv {|{"type":"analyze","id":"neg","app":"stencil","nodes":-3}|}
  with
  | Wire.R_error _ -> ()
  | _ -> Alcotest.fail "negative nodes must be a typed error"

(* ---- the LRU cache underneath ----------------------------------------- *)

let check_cache_lru () =
  let c = Cache.create ~max_entries:2 () in
  Cache.put c "a" 1 ~weight:10;
  Cache.put c "b" 2 ~weight:10;
  ignore (Cache.find c "a");    (* refresh a: b is now LRU *)
  Cache.put c "c" 3 ~weight:10; (* evicts b *)
  Alcotest.(check bool) "a survives (recently used)" true (Cache.mem c "a");
  Alcotest.(check bool) "b evicted (LRU)" false (Cache.mem c "b");
  Alcotest.(check bool) "c resident" true (Cache.mem c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "resident weight tracked" 20 s.Cache.resident_bytes

let check_cache_weight_cap () =
  let c = Cache.create ~max_entries:100 ~max_bytes:25 () in
  Cache.put c "a" 1 ~weight:10;
  Cache.put c "b" 2 ~weight:10;
  Cache.put c "c" 3 ~weight:10; (* 30 > 25: evict a *)
  Alcotest.(check bool) "oldest evicted for weight" false (Cache.mem c "a");
  Alcotest.(check int) "two resident" 2 (Cache.length c);
  (* a single oversized entry is kept: it must be usable once *)
  Cache.put c "huge" 4 ~weight:1000;
  Alcotest.(check bool) "oversized entry resident" true (Cache.mem c "huge");
  Alcotest.(check int) "alone in the cache" 1 (Cache.length c)

let suite =
  [
    Alcotest.test_case "warm repeat: memo hit, bit-equal, zero slices" `Quick
      check_warm_repeat;
    Alcotest.test_case "a long search does not starve a short one" `Quick
      check_interleaving;
    Alcotest.test_case "restart resumes decision-identically" `Quick
      check_restart_identity;
    Alcotest.test_case "near-repeats warm-start from the incumbent" `Quick
      check_warm_start;
    Alcotest.test_case "status surfaces the cache counters" `Quick check_counters;
    Alcotest.test_case "analyze inline; errors are typed" `Quick
      check_analyze_and_errors;
    Alcotest.test_case "cache: LRU order and stats" `Quick check_cache_lru;
    Alcotest.test_case "cache: weight cap and oversized entries" `Quick
      check_cache_weight_cap;
    Alcotest.test_case "live sessions: a tight budget changes no answer" `Quick
      check_live_budget;
  ]
