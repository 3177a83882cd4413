(* The two offline-tuning workloads: a set of [Driver.run] searches, one
   per (app, input, machine) job.

   - paper-shepard: the paper's experiment — all five apps x the first
     two inputs of each app's 4-node sweep on [Presets.shepard ~nodes:4].
     Maestro is kept in although every trial OOMs or is invalid (the
     analyzer accepts it): those searches are counted failures.
   - mesh-1024: Circuit and Stencil at their first sweep input on
     [grid:32x32] — 1,024 nodes, routed links with contention.

   Every search is the CLI default: CCD(5), 7 runs per candidate, the
   final top-5 x 30 protocol, surrogate, symmetry and dominance on.

   The untraced pass calls [Driver.run] and observes it only through the
   engine's event bus.  The traced pass rebuilds [Driver.run]'s fresh
   path from public calls with a span around each layer, and must reach
   the same decisions. *)

open Common

type job = {
  app : App.t;
  input : string;
  machine : unit -> Machine.t;
  known_failure : bool;
      (** every trial is known to OOM or be invalid; a non-finite best is
          a counted failure, not a broken check *)
}

let job_name j = Printf.sprintf "%s/%s" j.app.App.app_name j.input

let shepard4 () = Presets.shepard ~nodes:4

let grid32 () =
  match Presets.of_spec "grid:32x32" ~nodes:1 with
  | Ok m -> m
  | Error e -> failwith ("grid:32x32: " ^ e)

let jobs = function
  | "paper-shepard" ->
      List.concat_map
        (fun app ->
          List.filteri (fun i _ -> i < 2) (app.App.inputs ~nodes:4)
          |> List.map (fun input ->
                 {
                   app;
                   input;
                   machine = shepard4;
                   known_failure = app.App.app_name = "Maestro";
                 }))
        App.all
  | "mesh-1024" ->
      List.map
        (fun app ->
          {
            app;
            input = List.hd (app.App.inputs ~nodes:1024);
            machine = grid32;
            known_failure = false;
          })
        [ App.circuit; App.stencil ]
  | w -> invalid_arg ("not a search workload: " ^ w)

let algo = Driver.Ccd { rotations = 5 }

(* Search [i] of a pass gets its own seed, derived from the pass seed. *)
let job_seed ~seed i = (seed * 31) + i

(* ---- one search, as a user runs it ------------------------------------ *)

type outcome = {
  answer : answer;
  suggested : int;
  fresh : int;
  setup : float;          (* graph + machine + check + entry -> first event *)
  run_wall : float;       (* the Driver.run call *)
  engine_wall : float;    (* first -> last engine event *)
  to_best : float;        (* Driver.run entry -> the final best's Improve *)
  feasible : bool;
  graph : Graph.t;
  machine_ : Machine.t;
}

(* Build the job's machine and graph and run the analyzer's feasibility
   check, as [automap_cli tune] does before searching. *)
let build job =
  let m = job.machine () in
  let g = job.app.App.graph ~nodes:m.Machine.nodes ~input:job.input in
  let feasible =
    match Automap_api.check_feasible m g with
    | _ -> true
    | exception Automap_api.Infeasible _ -> false
  in
  (m, g, feasible)

(* The outcome of a job the analyzer rejected: no search ran. *)
let rejected ~setup m g =
  {
    answer = { key = ""; perf = infinity };
    suggested = 0;
    fresh = 0;
    setup;
    run_wall = 0.0;
    engine_wall = 0.0;
    to_best = 0.0;
    feasible = false;
    graph = g;
    machine_ = m;
  }

let run_untraced ~seed job =
  let t0 = now () in
  let m, g, feasible = build job in
  let first = ref nan and last = ref nan and improve = ref nan in
  let on_event e =
    let t = now () in
    if Float.is_nan !first then first := t;
    last := t;
    match e with Engine.Improve _ -> improve := t | _ -> ()
  in
  let t1 = now () in
  let r = if feasible then Some (Driver.run ~seed ~on_event algo m g) else None in
  let t2 = now () in
  match r with
  | None -> rejected ~setup:(t2 -. t0) m g
  | Some r ->
      {
        answer = { key = Mapping.canonical_key r.Driver.best; perf = r.Driver.perf };
        suggested = r.Driver.suggested;
        fresh = r.Driver.suggested - r.Driver.invalid - r.Driver.cache_hits;
        setup = !first -. t0;
        run_wall = t2 -. t1;
        engine_wall = !last -. !first;
        to_best = !improve -. t1;
        feasible;
        graph = g;
        machine_ = m;
      }

(* A finite winner must re-simulate on the reference interpreter
   (noise-free) without error; a non-finite one must be a known,
   counted failure.  Returns whether the search counts as failed. *)
let check_winner job o =
  let name = job_name job in
  if not o.feasible then begin
    if not job.known_failure then fail "%s: analyzer reports infeasible" name;
    true
  end
  else if Float.is_finite o.answer.perf then begin
    (match Mapping.of_canonical_key o.graph o.answer.key with
    | None -> fail "%s: winner key does not parse" name
    | Some best -> (
        match Exec.run_reference ~noise_sigma:0.0 o.machine_ o.graph best with
        | Ok _ -> ()
        | Error e ->
            fail "%s: winner fails to re-simulate: %s" name
              (Placement.error_to_string e)));
    false
  end
  else begin
    if not job.known_failure then fail "%s: search found no finite mapping" name;
    true
  end

(* ---- one search, rebuilt with spans ----------------------------------- *)

(* Time and allocation attributed to each layer over one traced pass. *)
type spans = {
  mutable graph_s : float;
  mutable machine_s : float;
  mutable check_s : float;
  mutable ev_create_s : float;
  mutable start_eval_s : float;
  mutable step_s : float;
  mutable receive_s : float;
  mutable eval_s : float;
  mutable final_s : float;
  mutable final_sims : int;
  mutable minor_words : float;
  stats : (string, int) Hashtbl.t;  (* summed Evaluator.stats counters *)
  mutable timeline_mb : float;
  mutable compiled_mb : float;
  (* replay of the fresh-candidate stream, summed over candidates *)
  mutable replayed : int;
  mutable resolve_s : float;
  mutable floor_s : float;
  mutable bound_s : float;
  mutable loop_s : float;
  mutable replay_s : float;
}

let new_spans () =
  {
    graph_s = 0.0;
    machine_s = 0.0;
    check_s = 0.0;
    ev_create_s = 0.0;
    start_eval_s = 0.0;
    step_s = 0.0;
    receive_s = 0.0;
    eval_s = 0.0;
    final_s = 0.0;
    final_sims = 0;
    minor_words = 0.0;
    stats = Hashtbl.create 32;
    timeline_mb = 0.0;
    compiled_mb = 0.0;
    replayed = 0;
    resolve_s = 0.0;
    floor_s = 0.0;
    bound_s = 0.0;
    loop_s = 0.0;
    replay_s = 0.0;
  }

let span acc f =
  let t0 = now () in
  let x = f () in
  acc (now () -. t0);
  x

let add_stat sp name v =
  Hashtbl.replace sp.stats name
    (v + Option.value ~default:0 (Hashtbl.find_opt sp.stats name))

let stat sp name = Option.value ~default:0 (Hashtbl.find_opt sp.stats name)

(* The strategy [Driver.make_strategy] builds, with [step] and [receive]
   timed.  Engine time between the end of one step and the start of the
   next, minus [receive], is the proposal -> verdict path: evaluation,
   pruning, engine bookkeeping, surrogate training. *)
let wrap_strategy sp (s : Engine.strategy) =
  let step_end = ref nan in
  {
    s with
    Engine.step =
      (fun ctx ->
        let t0 = now () in
        if Float.is_finite !step_end then sp.eval_s <- sp.eval_s +. (t0 -. !step_end);
        let r = s.Engine.step ctx in
        let t1 = now () in
        sp.step_s <- sp.step_s +. (t1 -. t0);
        step_end := t1;
        r);
    receive =
      (fun m p ->
        let t0 = now () in
        let r = s.Engine.receive m p in
        let dt = now () -. t0 in
        sp.receive_s <- sp.receive_s +. dt;
        sp.eval_s <- sp.eval_s -. dt;
        r);
  }

(* Fresh candidates replayed per job: enough to average over, bounded so
   a mesh-1024 replay stays a few seconds. *)
let replay_cap = 48

(* Replay the fresh-candidate stream into fresh scratches, one layer at a
   time, with the evaluator's first noise seed.  Outside the traced
   search's wall. *)
let replay_stream sp ~seed m g stream =
  let comp = Exec.compile m g in
  sp.compiled_mb <-
    sp.compiled_mb +. float_of_int (Exec.compiled_words comp * (Sys.word_size / 8)) /. 1e6;
  let cands = List.filteri (fun i _ -> i < replay_cap) stream in
  let plan = Placement.plan m g in
  let noise = 0.03 and nseed = seed * 1_000_003 and iterations = g.Graph.iterations in
  let bounds = Exec.scratch comp in
  let plain = Exec.scratch comp in
  Exec.set_incremental plain false;
  let incr = Exec.scratch comp in
  let quiet sc c =
    Exec.simulate_quiet sc c ~noise_sigma:noise ~seed:nseed ~fallback:false ~iterations
      ~cutoff:infinity
  in
  List.iter
    (fun c ->
      sp.replayed <- sp.replayed + 1;
      ignore (span (fun d -> sp.resolve_s <- sp.resolve_s +. d)
                (fun () -> Placement.resolve_with plan c));
      ignore (span (fun d -> sp.floor_s <- sp.floor_s +. d)
                (fun () -> Exec.static_lower_bound bounds c));
      ignore (span (fun d -> sp.bound_s <- sp.bound_s +. d)
                (fun () -> Exec.run_lower_bound ~noise_sigma:noise ~seed:nseed bounds c));
      let a = span (fun d -> sp.loop_s <- sp.loop_s +. d) (fun () -> quiet plain c) in
      let b = span (fun d -> sp.replay_s <- sp.replay_s +. d) (fun () -> quiet incr c) in
      (* incremental replay must reproduce the plain event loop exactly *)
      if a <> b then fail "replay: status differs with incremental on (%d vs %d)" a b
      else if a = Exec.st_finished
              && perf_hex (Exec.quiet_makespan plain) <> perf_hex (Exec.quiet_makespan incr)
      then
        fail "replay: makespan differs with incremental on (%s vs %s)"
          (perf_hex (Exec.quiet_makespan plain)) (perf_hex (Exec.quiet_makespan incr)))
    cands

let stat_fields (s : Evaluator.stats) =
  [
    ("noop_skips", s.Evaluator.s_noop_skips);
    ("dead_coord_skips", s.Evaluator.s_dead_coord_skips);
    ("symmetry_skips", s.Evaluator.s_symmetry_skips);
    ("cache_hits", s.Evaluator.s_cache_hits);
    ("invalid", s.Evaluator.s_invalid);
    ("oom", s.Evaluator.s_oom);
    ("cut_evals", s.Evaluator.s_cut_evals);
    ("cut_runs", s.Evaluator.s_cut_runs);
    ("cut_sims", s.Evaluator.s_cut_sims);
    ("delta_binds", s.Evaluator.s_delta_binds);
    ("full_binds", s.Evaluator.s_full_binds);
    ("cone_replays", s.Evaluator.s_cone_replays);
    ("full_replays", s.Evaluator.s_full_replays);
    ("cone_instances", s.Evaluator.s_cone_instances);
  ]

(* [Driver.run]'s fresh path (no resume, no start override), call for
   call, with spans.  Returns the same record as [run_untraced] so the
   identity gate can compare them, plus the fresh-candidate stream. *)
let run_traced sp ~seed job =
  let t0 = now () in
  let m = span (fun d -> sp.machine_s <- sp.machine_s +. d) job.machine in
  let g =
    span (fun d -> sp.graph_s <- sp.graph_s +. d)
      (fun () -> job.app.App.graph ~nodes:m.Machine.nodes ~input:job.input)
  in
  let feasible =
    span (fun d -> sp.check_s <- sp.check_s +. d) (fun () ->
        match Automap_api.check_feasible m g with
        | _ -> true
        | exception Automap_api.Infeasible _ -> false)
  in
  if not feasible then (rejected ~setup:(now () -. t0) m g, [])
  else begin
    let t1 = now () in
    let ev =
      span (fun d -> sp.ev_create_s <- sp.ev_create_s +. d) (fun () ->
          Evaluator.create ~seed ~symmetry:true ~dominance:true m g)
    in
    let space = Evaluator.space ev in
    let seen =
      if Space.symmetry space then Some (Engine.seen_create (Space.canonicalize space))
      else None
    in
    let start = Mapping.default_start g m in
    let sg = Surrogate.create space in
    Evaluator.attach_surrogate ev sg;
    let strat =
      wrap_strategy sp
        (Driver.make_strategy ~seed ~batch:false ~min_batch:Descent.default_min_batch
           algo ev)
    in
    (* Decision reasons from the evaluator's counters: an Eval event that
       moved neither the cache-hit nor the invalid count ran at least one
       simulation. *)
    let stream = ref [] and fresh = ref 0 in
    let hits = ref 0 and invalid = ref 0 in
    let first = ref nan and last = ref nan and improve = ref nan in
    let on_event e =
      let t = now () in
      if Float.is_nan !first then first := t;
      last := t;
      match e with
      | Engine.Eval { mapping; _ } ->
          let h = Evaluator.cache_hits ev and iv = Evaluator.invalid_count ev in
          if h = !hits && iv = !invalid then begin
            incr fresh;
            stream := mapping :: !stream
          end;
          hits := h;
          invalid := iv
      | Engine.Improve _ -> improve := t
      | _ -> ()
    in
    let w0 = Gc.minor_words () in
    let te = now () in
    let o =
      Engine.run ~budget:(Budget.make ()) ~on_event ~surrogate:sg ?seen ~start ev strat
    in
    sp.minor_words <- sp.minor_words +. (Gc.minor_words () -. w0);
    sp.start_eval_s <- sp.start_eval_s +. (!first -. te);
    let st = Evaluator.stats ev in
    List.iter (fun (k, v) -> add_stat sp k v) (stat_fields st);
    sp.timeline_mb <- sp.timeline_mb +. float_of_int st.Evaluator.s_timeline_bytes /. 1e6;
    let best, runs =
      span (fun d -> sp.final_s <- sp.final_s +. d) (fun () ->
          Driver.final_protocol ev ~search_best:o.Engine.best ~search_perf:o.Engine.perf)
    in
    sp.final_sims <- sp.final_sims + List.length runs * min 5 (Profiles_db.size (Evaluator.db ev));
    let t2 = now () in
    ( {
        answer = { key = Mapping.canonical_key best; perf = Stats.mean runs };
        suggested = Evaluator.suggested ev;
        fresh = !fresh;
        setup = !first -. t0;
        run_wall = t2 -. t1;
        engine_wall = !last -. !first;
        to_best = !improve -. t1;
        feasible;
        graph = g;
        machine_ = m;
      },
      List.rev !stream )
  end

(* ---- a pass ------------------------------------------------------------ *)

let e2e outcomes =
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 outcomes in
  let k = speed () in
  let finite =
    List.filter_map
      (fun o -> if Float.is_finite o.answer.perf then Some o.answer.perf else None)
      outcomes
  in
  [
    ("setup_s", k *. sum (fun o -> o.setup));
    ("tune_s", k *. sum (fun o -> o.run_wall));
    ("time_to_best_s", k *. sum (fun o -> o.to_best));
    ("best_perf_geo", geomean finite);
    ("peak_heap_mb", peak_heap_mb ());
  ]

let pass ?expect ~workload ~seed ~traced () =
  let js = jobs workload in
  let sp = new_spans () in
  let wall = ref 0.0 in
  (* about ten host-speed samples a pass, in the gaps between jobs *)
  let per_gap = max 1 (10 / List.length js) in
  let results =
    List.mapi
      (fun i job ->
        let seed = job_seed ~seed i in
        sample_speed per_gap;
        if traced then begin
          let t0 = now () in
          let o, stream = run_traced sp ~seed job in
          wall := !wall +. (now () -. t0);
          if o.feasible then replay_stream sp ~seed o.machine_ o.graph stream;
          (job, o)
        end
        else begin
          let t0 = now () in
          let o = run_untraced ~seed job in
          wall := !wall +. (now () -. t0);
          (job, o)
        end)
      js
  in
  sample_speed per_gap;
  let failed = List.length (List.filter (fun (j, o) -> check_winner j o) results) in
  let outcomes = List.map snd results in
  let attempted = List.length results in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 outcomes in
  let suggested = sum (fun o -> float_of_int o.suggested) in
  let fresh = sum (fun o -> float_of_int o.fresh) in
  let engine = sum (fun o -> o.engine_wall) in
  let rate = [
    ("search.cands_per_s", ratio suggested engine);
    ("search.fresh_cands_per_s", ratio fresh engine);
    ("search.failed_frac", ratio (float_of_int failed) (float_of_int attempted));
  ]
  in
  let layer =
    if not traced then rate
    else
      let c k = float_of_int (stat sp k) in
      let per_fresh s = ratio (1e6 *. s) (float_of_int sp.replayed) in
      rate
      @ [
          ("apps.graph_s", sp.graph_s);
          ("machine.build_s", sp.machine_s);
          ("analysis.check_s", sp.check_s);
          ("search.evaluator_create_s", sp.ev_create_s);
          ("sim.compiled_mb", sp.compiled_mb);
          ("search.start_eval_s", sp.start_eval_s);
          ("search.step_s", sp.step_s);
          ("search.receive_s", sp.receive_s);
          ("search.eval_s", sp.eval_s);
          ("search.eval_us_per_fresh", ratio (1e6 *. sp.eval_s) fresh);
          ("search.suggested", suggested);
          ("search.fresh", fresh);
          ("search.noop_skips", c "noop_skips");
          ("search.dead_coord_skips", c "dead_coord_skips");
          ("search.symmetry_skips", c "symmetry_skips");
          ("search.cache_hits", c "cache_hits");
          ("search.invalid", c "invalid");
          ("search.oom", c "oom");
          ("search.cut_evals", c "cut_evals");
          ("search.cut_runs", c "cut_runs");
          ("search.cut_sims", c "cut_sims");
          ("search.fresh_ratio", ratio fresh suggested);
          ("search.cut_ratio", ratio (c "cut_evals") fresh);
          ("search.minor_words_per_cand", ratio sp.minor_words suggested);
          ("search.minor_words_per_fresh", ratio sp.minor_words fresh);
          ("sim.timeline_mb", sp.timeline_mb);
          ("sim.delta_binds", c "delta_binds");
          ("sim.full_binds", c "full_binds");
          ("sim.cone_replays", c "cone_replays");
          ("sim.full_replays", c "full_replays");
          ("sim.cone_instances", c "cone_instances");
          ("sim.cone_ratio",
           ratio (c "cone_replays") (c "cone_replays" +. c "full_replays"));
          ("sim.resolve_us", per_fresh sp.resolve_s);
          ("sim.static_floor_us", per_fresh sp.floor_s);
          ("sim.run_bound_us", per_fresh sp.bound_s);
          ("sim.loop_us", per_fresh sp.loop_s);
          ("sim.replay_us", per_fresh sp.replay_s);
          ("search.final_protocol_s", sp.final_s);
          ("sim.final_sim_us", ratio (1e6 *. sp.final_s) (float_of_int sp.final_sims));
        ]
  in
  let answers =
    List.map
      (fun (j, o) ->
        (job_name j, o.answer, o.suggested,
         j.known_failure && not (Float.is_finite o.answer.perf)))
      results
  in
  Option.iter (fun line -> check_against line answers) expect;
  emit ~workload ~seed ~traced ~wall:!wall ~attempted ~failed ~e2e:(e2e outcomes) ~layer
    ~unreached:[ "serve"; "wire" ] ~answers
