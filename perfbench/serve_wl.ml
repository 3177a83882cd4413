(* serve-mix: the mapping service, in process.

   One client drives [Server.create ()] single-threaded: requests go in
   as [Wire] strings through [Server.handle_line], responses come back
   as strings the client parses, and [Server.step] runs one 40-trial
   slice at a time — no domains, no sockets.  The loop is closed: the
   client keeps [outstanding] map jobs in flight and submits its next
   request only when fewer are pending.

   The stream is a seeded mix with a fixed composition per pass:
   - one cold map request per distinct (app, nodes, input) workload —
     more workloads than the compile LRU holds, so it evicts;
   - near-repeats: fixed workloads, each under a new search seed once its
     cold request completed, which warm-start from the incumbent and hit
     the compile cache unless it was evicted;
   - exact repeats of completed requests, answered from the result
     memo at submit time and checked bit-equal to the answer that
     filled it;
   - [analyze] and [status] requests.
   The seed drives the order, the requests the exact repeats pick, and
   every search seed. *)

open Common

(* No record of real serve traffic exists, so the mix is chosen for
   coverage and steadiness, not measured (README.md, "serve-mix
   constants"):
   - 5 apps x 3 node counts x 3 inputs = 45 workloads, more than the
     compile LRU's 32 entries, so a pass evicts;
   - a 120-trial cap: three 40-trial slices, so every search is
     suspended and resumed through a checkpoint twice, and a pass takes
     about 3.4 s, against about 5.1 s at 200 trials;
   - 2 jobs outstanding: the fewest at which the server's queue
     interleaves the slices of two jobs;
   - 40 exact repeats per completed job: about 2,300 memo hits a pass,
     enough for a steady p90;
   - 6 analyze and 6 status requests: each request type in every pass. *)
let nodes_set = [ 1; 2; 4 ]
let inputs_per_app = 3
let max_trials = 120
let outstanding = 2
let analyzes = 6
let statuses = 6
let repeats_per_completion = 40
let speed_every = 20

type wl = { app : string; nodes : int; input : string }

let universe =
  List.concat_map
    (fun app ->
      List.concat_map
        (fun nodes ->
          List.filteri (fun i _ -> i < inputs_per_app) (app.App.inputs ~nodes)
          |> List.map (fun input -> { app = app.App.app_name; nodes; input }))
        nodes_set)
    App.all

(* The analyzer accepts Maestro on the shepard preset although every
   trial OOMs or is invalid; its requests are counted failures. *)
let known_failure w = w.app = "Maestro"

(* Near-repeat targets: the first input of every app that has a finite
   incumbent to warm-start from, at every node count. *)
let near_universe =
  List.filter
    (fun w ->
      (not (known_failure w))
      && List.hd ((Option.get (App.find w.app)).App.inputs ~nodes:w.nodes) = w.input)
    universe

let workload w =
  { Wire.default_workload with Wire.w_app = Some w.app; w_input = Some w.input;
    w_nodes = w.nodes }

let cfg seed = { Slice.default_cfg with Slice.max_trials = Some max_trials; seed }

type kind = Cold | Near | Repeat | Analyze | Status

let kind_name = function
  | Cold -> "cold"
  | Near -> "near"
  | Repeat -> "repeat"
  | Analyze -> "analyze"
  | Status -> "status"

(* A completed map request: what a repeat resends and must get back. *)
type done_req = { d_wl : wl; d_seed : int; d_answer : answer }

type pending = {
  p_id : string;
  p_kind : kind;
  p_wl : wl;
  p_seed : int;
  p_submit : float;
  p_kernel : float;  (* [Common.kernel_time] at submit *)
}

let map_request id w seed =
  Wire.Map { m_id = id; workload = workload w; cfg = cfg seed; wait = false; warm = true }

(* Client-side tallies of one pass. *)
type tally = {
  mutable cold_ms : float list;
  mutable near_ms : float list;
  mutable warm_us : float list;
  mutable searched_s : float;     (* submit -> done, summed over map jobs *)
  mutable cold_perfs : float list;
  mutable setup_s : float;        (* Server.create + cold admissions *)
  mutable submit_s : float;       (* handle_line, every request *)
  mutable round_trips : int;
  mutable print_s : float;
  mutable parse_s : float;
  mutable slice_s : float list;
  mutable trials : int;
  mutable map_submits : int;
  mutable memo_hits : int;
  mutable attempted : int;
  mutable failed : int;
  mutable answers : (string * answer * int * bool) list;  (* newest first *)
}

let pass ?expect ~seed ~traced () =
  let rng = Random.State.make [| 0x5e7e; seed |] in
  let t =
    {
      cold_ms = []; near_ms = []; warm_us = []; searched_s = 0.0; cold_perfs = [];
      setup_s = 0.0; submit_s = 0.0; round_trips = 0; print_s = 0.0; parse_s = 0.0;
      slice_s = []; trials = 0; map_submits = 0; memo_hits = 0;
      attempted = 0; failed = 0; answers = [];
    }
  in
  let timed f =
    let t0 = now () in
    let x = f () in
    (x, now () -. t0)
  in
  (* The closed loop always has a job in flight, so the host-speed
     samples taken inside it (every [speed_every] slices) are subtracted
     from the pass wall and from the latencies of the jobs they delayed. *)
  sample_speed 4;
  let pass_t0 = now () and kernel0 = !kernel_time in
  let srv, dt = timed (fun () -> Server.create ()) in
  t.setup_s <- dt;
  (* The class sequence: cold requests for every workload in a seeded
     order, with near-repeats, analyzes and statuses shuffled in. *)
  let shuffle l =
    List.map (fun x -> (Random.State.bits rng, x)) l
    |> List.sort compare |> List.map snd
  in
  let colds = ref (shuffle universe) in
  let classes =
    ref
      (shuffle
         (List.init (List.length universe) (fun _ -> Cold)
         @ List.init (List.length near_universe) (fun _ -> Near)
         @ List.init analyzes (fun _ -> Analyze)
         @ List.init statuses (fun _ -> Status)))
  in
  let completed : done_req array ref = ref [||] in
  let add_completed d = completed := Array.append !completed [| d |] in
  let pick () = !completed.(Random.State.int rng (Array.length !completed)) in
  let next_id = ref 0 in
  let fresh_id k =
    incr next_id;
    Printf.sprintf "%s-%d" (kind_name k) !next_id
  in
  let pending = ref [] in
  (* One round trip: print the request, hand the line to the server,
     print its response and parse it back, as a socket client would.
     Returns the response, the [handle_line] time and the round-trip
     time.  The traced pass also times the server's request parse, on a
     copy of the line, outside the round trip. *)
  let round_trip req =
    let t0 = now () in
    let line, dp = timed (fun () -> Wire.request_to_string req) in
    let resp, ds = timed (fun () -> Server.handle_line srv line) in
    let text, dp2 = timed (fun () -> Wire.response_to_string resp) in
    let parsed, dq = timed (fun () -> Wire.response_of_string text) in
    let rt = now () -. t0 in
    if traced then begin
      let _, dq2 = timed (fun () -> Wire.request_of_string line) in
      t.parse_s <- t.parse_s +. dq2
    end;
    t.print_s <- t.print_s +. dp +. dp2;
    t.parse_s <- t.parse_s +. dq;
    t.submit_s <- t.submit_s +. ds;
    t.round_trips <- t.round_trips + 1;
    (match parsed with
    | Ok r when Wire.response_to_string r = text -> ()
    | Ok _ -> fail "wire: response does not round-trip"
    | Error e -> fail "wire: response does not parse: %s" e);
    (resp, ds, rt)
  in
  let answer_of (p : Wire.result_payload) =
    {
      key = Option.value ~default:"" p.Wire.r_mapping;
      perf = (match p.Wire.r_perf with Some f -> f | None -> nan);
    }
  in
  let submit_map kind w seed =
    let id = fresh_id kind in
    t.attempted <- t.attempted + 1;
    t.map_submits <- t.map_submits + 1;
    let t0 = now () in
    let resp, ds, _ = round_trip (map_request id w seed) in
    if kind = Cold then t.setup_s <- t.setup_s +. ds;
    match resp with
    | Wire.R_accepted _ ->
        pending :=
          !pending
          @ [ { p_id = id; p_kind = kind; p_wl = w; p_seed = seed; p_submit = t0;
                p_kernel = !kernel_time } ]
    | Wire.R_result _ -> fail "%s %s/%d/%s: answered from the memo on first submit"
                           (kind_name kind) w.app w.nodes w.input
    | _ ->
        t.failed <- t.failed + 1;
        fail "%s %s/%d/%s: request rejected" (kind_name kind) w.app w.nodes w.input
  in
  (* An exact repeat of a completed request: a memo hit, bit-equal to
     the answer that filled the memo. *)
  let repeat () =
    let d = pick () in
    t.attempted <- t.attempted + 1;
    t.map_submits <- t.map_submits + 1;
    let resp, _, dt = round_trip (map_request (fresh_id Repeat) d.d_wl d.d_seed) in
    match resp with
    | Wire.R_result p when p.Wire.r_cached && p.Wire.r_state = Wire.Done ->
        t.memo_hits <- t.memo_hits + 1;
        t.warm_us <- (1e6 *. dt) :: t.warm_us;
        ignore
          (same_answer
             ~what:(Printf.sprintf "memo hit %s/%d/%s" d.d_wl.app d.d_wl.nodes d.d_wl.input)
             ~counted:false d.d_answer (answer_of p))
    | _ ->
        t.failed <- t.failed + 1;
        fail "repeat %s/%d/%s: not answered from the memo" d.d_wl.app d.d_wl.nodes
          d.d_wl.input
  in
  (* [analyze] and [status] are answered inline, never queued. *)
  let inline kind req =
    t.attempted <- t.attempted + 1;
    match round_trip req with
    | (Wire.R_analysis _ | Wire.R_status _), _, _ -> ()
    | _ ->
        t.failed <- t.failed + 1;
        fail "%s: unexpected response" (kind_name kind)
  in
  (* Near-repeat targets are fixed: the first input of every app with a
     finite incumbent, at every node count.  The seed orders them; each
     is issued once its cold request has completed. *)
  let near_targets = ref (shuffle near_universe) in
  let take_near () =
    let ready w = Array.exists (fun d -> d.d_wl = w) !completed in
    match List.partition ready !near_targets with
    | w :: others, waiting ->
        near_targets := others @ waiting;
        Some w
    | [], _ -> None
  in
  let rec submit_next () =
    match !classes with
    | [] -> false
    | Near :: rest -> (
        match take_near () with
        | Some w ->
            classes := rest;
            submit_map Near w (Random.State.bits rng);
            true
        | None -> (
            (* no target has completed yet: issue the next other class
               first, or wait for a completion *)
            match List.partition (fun k -> k = Near) rest with
            | nears, k :: others ->
                classes := k :: Near :: (nears @ others);
                submit_next ()
            | _, [] -> false))
    | k :: rest ->
        classes := rest;
        (match k with
        | Cold -> (
            match !colds with
            | w :: ws ->
                colds := ws;
                submit_map Cold w (Random.State.bits rng)
            | [] -> ())
        | Analyze ->
            let w = List.nth universe (Random.State.int rng (List.length universe)) in
            inline k (Wire.Analyze { an_id = fresh_id k; workload = workload w })
        | Status -> inline k Wire.Status
        | Near | Repeat -> assert false (* Near is matched above; Repeat is never queued *));
        true
  in
  let completed_job p (r : Wire.result_payload) =
    let lat = now () -. p.p_submit -. (!kernel_time -. p.p_kernel) in
    t.searched_s <- t.searched_s +. lat;
    let a = answer_of r in
    let ok = r.Wire.r_state = Wire.Done && Float.is_finite a.perf in
    let counted = (not ok) && known_failure p.p_wl in
    t.answers <- (p.p_id, a, r.Wire.r_trials, counted) :: t.answers;
    if not ok then begin
      t.failed <- t.failed + 1;
      if not counted then
        fail "%s %s/%d/%s: %s" (kind_name p.p_kind) p.p_wl.app p.p_wl.nodes p.p_wl.input
          (Option.value ~default:"non-finite perf" r.Wire.r_error)
    end
    else begin
      (match p.p_kind with
      | Cold ->
          t.cold_ms <- (1e3 *. lat) :: t.cold_ms;
          t.cold_perfs <- a.perf :: t.cold_perfs
      | _ -> t.near_ms <- (1e3 *. lat) :: t.near_ms);
      if p.p_kind = Near && not r.Wire.r_warm_started then
        fail "near %s/%d/%s: did not warm-start" p.p_wl.app p.p_wl.nodes p.p_wl.input;
      t.trials <- t.trials + r.Wire.r_trials;
      add_completed { d_wl = p.p_wl; d_seed = p.p_seed; d_answer = a };
      for _ = 1 to repeats_per_completion do
        repeat ()
      done
    end
  in
  let poll () =
    pending :=
      List.filter
        (fun p ->
          match Server.handle srv (Wire.Poll { p_id = p.p_id }) with
          | Wire.R_result r when r.Wire.r_state = Wire.Done || r.Wire.r_state = Wire.Failed
            ->
              completed_job p r;
              false
          | Wire.R_result _ -> true
          | _ ->
              fail "poll %s: no result" p.p_id;
              false)
        !pending
  in
  let continue = ref true in
  while !continue do
    while List.length !pending < outstanding && submit_next () do
      ()
    done;
    if !pending = [] then begin
      if !classes <> [] then fail "serve-mix: %d requests never became issuable"
                               (List.length !classes);
      continue := false
    end
    else begin
      if List.length t.slice_s mod speed_every = speed_every - 1 then sample_speed 1;
      let ran, ds = timed (fun () -> Server.step srv) in
      if ran then t.slice_s <- ds :: t.slice_s
      else begin
        fail "step: pending jobs but an empty queue";
        continue := false
      end;
      poll ()
    end
  done;
  let wall = now () -. pass_t0 -. (!kernel_time -. kernel0) in
  sample_speed 4;
  let counters =
    match Server.handle srv Wire.Status with
    | Wire.R_status { counters; _ } -> counters
    | _ -> []
  in
  let counter k = float_of_int (Option.value ~default:0 (List.assoc_opt k counters)) in
  if counter "evictions" = 0.0 then fail "serve-mix: the compile LRU never evicted";
  if counter "slices" <> float_of_int (List.length t.slice_s) then
    fail "serve-mix: status reports %g slices, the client ran %d" (counter "slices")
      (List.length t.slice_s);
  let step_total = List.fold_left ( +. ) 0.0 t.slice_s in
  let k = speed () in
  let e2e =
    [
      ("setup_s", k *. t.setup_s);
      ("tune_s", k *. wall);
      ("time_to_best_s", k *. t.searched_s);
      ("best_perf_geo", geomean t.cold_perfs);
      ("peak_heap_mb", peak_heap_mb ());
    ]
  in
  let msgs = float_of_int t.round_trips in
  let layer =
    [
      ("serve.cold_p50_ms", percentile 50.0 t.cold_ms);
      ("serve.cold_p90_ms", percentile 90.0 t.cold_ms);
      ("serve.near_p50_ms", percentile 50.0 t.near_ms);
      ("serve.warm_p50_us", percentile 50.0 t.warm_us);
      ("serve.warm_p90_us", percentile 90.0 t.warm_us);
      ("serve.warm_p99_us", percentile 99.0 t.warm_us);
      ("serve.req_per_s", ratio (float_of_int (t.attempted - t.failed)) wall);
      ("serve.failed_frac", ratio (float_of_int t.failed) (float_of_int t.attempted));
      ("serve.cands_per_s", ratio (float_of_int t.trials) step_total);
      ("wire.parse_us", ratio (1e6 *. t.parse_s) msgs);
      ("wire.print_us", ratio (1e6 *. t.print_s) msgs);
      ("serve.submit_us", ratio (1e6 *. t.submit_s) msgs);
      ("serve.result_hit_ratio",
       ratio (float_of_int t.memo_hits) (float_of_int t.map_submits));
      ("serve.compile_hit_ratio",
       ratio (counter "compile_hits") (counter "compile_hits" +. counter "compile_misses"));
      ("serve.warm_starts", counter "warm_starts");
      ("serve.evictions", counter "evictions");
      ("serve.resident_mb", counter "resident_bytes" /. 1e6);
      ("serve.slice_ms", 1e3 *. percentile 50.0 t.slice_s);
      ("serve.slices", counter "slices");
    ]
  in
  let answers = List.rev t.answers in
  Option.iter (fun line -> check_against line answers) expect;
  emit ~workload:"serve-mix" ~seed ~traced ~wall ~attempted:t.attempted ~failed:t.failed
    ~e2e ~layer ~unreached:[ "apps"; "machine"; "analysis"; "search"; "sim" ] ~answers
