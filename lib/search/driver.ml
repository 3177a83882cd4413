type algo =
  | Cd
  | Ccd of { rotations : int }
  | Ensemble_tuner
  | Random_walk of { max_evals : int }
  | Annealing of { max_evals : int }
  | Portfolio
  | Heft

let algo_name = function
  | Cd -> "CD"
  | Ccd { rotations } -> Printf.sprintf "CCD(%d)" rotations
  | Ensemble_tuner -> "Ensemble(OT)"
  | Random_walk _ -> "Random"
  | Annealing _ -> "Annealing"
  | Portfolio -> "Portfolio"
  | Heft -> "HEFT"

(* CLI/wire spelling — one parser shared by automap_cli and the serve
   daemon, so a request names algorithms exactly like the command line *)
let algo_of_string ?(max_evals = 1000) s =
  match String.lowercase_ascii s with
  | "cd" -> Ok Cd
  | "ccd" -> Ok (Ccd { rotations = 5 })
  | "ensemble" -> Ok Ensemble_tuner
  | "random" -> Ok (Random_walk { max_evals })
  | "annealing" -> Ok (Annealing { max_evals })
  | "portfolio" -> Ok Portfolio
  | "heft" -> Ok Heft
  | other -> Error (Printf.sprintf "unknown algorithm %S" other)

type result = {
  algo : algo;
  db : Profiles_db.t;
  best : Mapping.t;
  perf : float;
  final_stats : Stats.summary;
  search_perf : float;
  trace : (float * float) list;
  virtual_search_time : float;
  eval_time_fraction : float;
  suggested : int;
  evaluated : int;
  cache_hits : int;
  invalid : int;
  oom : int;
  engine_steps : int;
  checkpoints_written : int;
  stats : Evaluator.stats;
}

(* HEFT is not a search: the list schedule *is* the mapping.  As a
   strategy it stops immediately, so the engine evaluates the (HEFT)
   start point and hands it straight to the final protocol. *)
let heft_strategy =
  {
    Engine.name = "heft";
    init = ignore;
    step = (fun _ -> Engine.Stop);
    receive = (fun _ _ -> false);
    encode = (fun () -> []);
  }

let make_strategy ~seed ?budget ~batch ?(min_batch = 1) ?surrogate algo ev =
  match algo with
  | Cd -> Cd.make ~batch ~min_batch ?surrogate ev
  | Ccd { rotations } -> Ccd.make ~batch ~min_batch ?surrogate ~rotations ev
  | Ensemble_tuner ->
      Ensemble.make ~config:{ Ensemble.default_config with seed = seed + 1 } ev
  | Random_walk { max_evals } -> Random_search.make ~seed:(seed + 1) ~max_evals ev
  | Annealing { max_evals } -> Annealing.make ~seed:(seed + 1) ~max_evals ev
  | Portfolio -> Portfolio.make ?budget ~seed:(seed + 1) ~batch ~min_batch ?surrogate ev
  | Heft -> heft_strategy

(* Checkpoints name the strategy; decoding dispatches on that name
   explicitly (no registration side effects, so no link-order traps). *)
let decode_strategy ?(batch = false) ?(min_batch = 1) ?surrogate ev ~algo lines =
  match algo with
  | "cd" -> Cd.decode ~batch ~min_batch ?surrogate ev lines
  | "ccd" -> Ccd.decode ~batch ~min_batch ?surrogate ev lines
  | "annealing" -> Annealing.decode ev lines
  | "random" -> Random_search.decode ev lines
  | "ensemble" -> Ensemble.decode ev lines
  | "portfolio" -> Portfolio.decode ~batch ~min_batch ?surrogate ev lines
  | "heft" -> Ok heft_strategy
  | other -> Error (Printf.sprintf "unknown strategy %S in checkpoint" other)

(* Final protocol (§5): re-run the [final_top] best mappings of the
   profiles database [final_runs] times each; report the one with the
   fastest average.  Shared by [run] and the serve daemon's slice
   driver, which applies it when a sliced search finishes. *)
let final_protocol ?(final_top = 5) ?(final_runs = 30) ev ~search_best ~search_perf
    =
  let candidates =
    match Profiles_db.top (Evaluator.db ev) final_top with
    | [] -> [ (search_best, [ search_perf ]) ]
    | tops ->
        List.map
          (fun e ->
            let m = e.Profiles_db.mapping in
            (m, Evaluator.measure_objective ev ~runs:final_runs m))
          tops
  in
  List.fold_left
    (fun ((_, bruns) as acc) ((_, runs) as cand) ->
      if Stats.mean runs < Stats.mean bruns then cand else acc)
    (List.hd candidates) (List.tl candidates)

exception Resume_error of string

type cfg = {
  algo : algo;
  runs : int;
  noise_sigma : float option;
  iterations : int option;
  seed : int;
  budget : float option;
  max_trials : int option;
  batch : bool;
  min_batch : int;
  surrogate : bool;
  surrogate_skim : int option;
  symmetry : bool;
  dominance : bool;
  heft_seed : bool;
  final_top : int;
  final_runs : int;
}

let default_cfg =
  {
    algo = Ccd { rotations = 5 };
    runs = 7;
    noise_sigma = None;
    iterations = None;
    seed = 0;
    budget = None;
    max_trials = None;
    batch = false;
    min_batch = Descent.default_min_batch;
    surrogate = true;
    surrogate_skim = None;
    symmetry = true;
    dominance = true;
    heft_seed = false;
    final_top = 5;
    final_runs = 30;
  }

type session = {
  ev : Evaluator.t;
  strategy : Engine.strategy;
  surrogate : Surrogate.t option;
  seen : Engine.seen option;
  start : Mapping.t;
  carry : Engine.carry option;
  max_virtual : float option;
}

(* The one place a search is built or restored; [run] and the serve
   daemon's slice driver both go through it, so a resumed search is
   set up exactly like the fresh one that wrote the checkpoint. *)
let session ?objective ?extended ?incremental ?domain_prune ?scratch ?db ?start
    ?snapshot cfg machine graph =
  let ( let* ) = Result.bind in
  (* skim only makes sense on ranked batches *)
  let batch = cfg.batch || cfg.surrogate_skim <> None in
  (* a checkpoint carries its own profiles database — it supersedes
     any warm-start [db] *)
  let* db =
    match snapshot with
    | None -> Ok db
    | Some s ->
        Profiles_db.load graph s.Engine.s_profiles
        |> Result.map Option.some
        |> Result.map_error (( ^ ) "profiles section: ")
  in
  let ev =
    Evaluator.create ~runs:cfg.runs ?noise_sigma:cfg.noise_sigma
      ?iterations:cfg.iterations ~seed:cfg.seed ?objective ?extended ?incremental
      ?domain_prune ~symmetry:cfg.symmetry ~dominance:cfg.dominance ?db ?scratch
      machine graph
  in
  let space = Evaluator.space ev in
  let new_surrogate () = Surrogate.create ?skim:cfg.surrogate_skim space in
  (* The seen-set memoizes evaluated orbits so symmetric duplicates are
     skipped; keyed by the space's canonicalizer, it exists exactly when
     the evaluator's space canonicalizes (symmetry is part of the
     fingerprint, so resume cannot silently flip it). *)
  let seen =
    if Space.symmetry space then Some (Engine.seen_create (Space.canonicalize space))
    else None
  in
  (* ranking needs batch proposals (checkpoints then fall strictly
     between ranked batches — see Descent); without batch the model
     still trains for telemetry and a later batched run *)
  let rank sg = if batch then sg else None in
  let* surrogate, strategy, start, carry, portfolio =
    match snapshot with
    | None ->
        let start =
          match start with
          | Some m -> m
          | None ->
              if cfg.heft_seed || cfg.algo = Heft then Heft.mapping machine graph
              else Mapping.default_start graph machine
        in
        let sg = if cfg.surrogate then Some (new_surrogate ()) else None in
        let strat =
          make_strategy ~seed:cfg.seed ?budget:cfg.budget ~batch
            ~min_batch:cfg.min_batch ?surrogate:(rank sg) cfg.algo ev
        in
        Ok (sg, strat, start, None, cfg.algo = Portfolio)
    | Some s ->
        let* () =
          if Evaluator.fingerprint ev = s.Engine.s_fingerprint then Ok ()
          else
            Error
              (Printf.sprintf
                 "fingerprint mismatch — checkpoint was written with a different \
                  machine, graph or evaluator configuration (%s vs %s)"
                 s.Engine.s_fingerprint (Evaluator.fingerprint ev))
        in
        let* () = Evaluator.restore_state ev s.Engine.s_evaluator in
        (* the snapshot decides whether a surrogate resumes: restoring
           one into a surrogate-free run (or dropping it from a
           surrogate run) would silently change the decision sequence.
           The model's own header rejects a skim/config mismatch. *)
        let* sg =
          if s.Engine.s_surrogate = [] then Ok None
          else
            let m = new_surrogate () in
            let* () = Surrogate.restore m s.Engine.s_surrogate in
            Ok (Some m)
        in
        let* () =
          match seen with
          | Some sn ->
              Engine.seen_restore sn s.Engine.s_symmetry
              |> Result.map_error (( ^ ) "symmetry section: ")
          | None when s.Engine.s_symmetry = [] -> Ok ()
          | None -> Error "checkpoint has a symmetry section but symmetry is off"
        in
        let* strat =
          decode_strategy ~batch ~min_batch:cfg.min_batch ?surrogate:(rank sg) ev
            ~algo:s.Engine.s_algo s.Engine.s_strategy
        in
        let* best_m =
          Mapping.of_canonical_key graph s.Engine.s_best_key
          |> Option.to_result ~none:"best-mapping key does not parse for this graph"
        in
        let carry =
          {
            Engine.c_trials = s.Engine.s_trials;
            c_steps = s.Engine.s_steps;
            c_wall = s.Engine.s_wall;
            c_best = (best_m, s.Engine.s_best_perf);
          }
        in
        Ok (sg, strat, best_m, Some carry, s.Engine.s_algo = "portfolio")
  in
  (* the portfolio shares [budget] across members through its own
     absolute deadlines; every other algorithm gets it as the engine's
     virtual-time cap *)
  let max_virtual = if portfolio then None else cfg.budget in
  Option.iter (Evaluator.attach_surrogate ev) surrogate;
  Ok { ev; strategy; surrogate; seen; start; carry; max_virtual }

let run_session ?on_event ?checkpoint ?max_trials ?max_wall s =
  let budget = Budget.make ?max_trials ?max_virtual:s.max_virtual ?max_wall () in
  Engine.run ~budget ?on_event ?checkpoint ?carry:s.carry ?surrogate:s.surrogate
    ?seen:s.seen ~start:s.start s.ev s.strategy

let run ?(runs = default_cfg.runs) ?(final_top = default_cfg.final_top)
    ?(final_runs = default_cfg.final_runs) ?noise_sigma ?iterations
    ?(seed = default_cfg.seed) ?budget ?max_trials ?max_wall ?start
    ?(heft_seed = default_cfg.heft_seed) ?objective ?extended ?incremental
    ?domain_prune ?(batch = default_cfg.batch) ?(min_batch = default_cfg.min_batch)
    ?(surrogate = default_cfg.surrogate) ?surrogate_skim
    ?(symmetry = default_cfg.symmetry) ?(dominance = default_cfg.dominance) ?db
    ?on_event ?checkpoint ?(checkpoint_every = 25) ?resume_from algo machine graph
    =
  let cfg =
    {
      algo;
      runs;
      noise_sigma;
      iterations;
      seed;
      budget;
      max_trials;
      batch;
      min_batch;
      surrogate;
      surrogate_skim;
      symmetry;
      dominance;
      heft_seed;
      final_top;
      final_runs;
    }
  in
  let open_session ?snapshot () =
    session ?objective ?extended ?incremental ?domain_prune ?db ?start ?snapshot cfg
      machine graph
  in
  let s =
    match resume_from with
    | None -> open_session ()
    | Some path ->
        Result.bind (Engine.load_snapshot path) (fun snapshot ->
            open_session ~snapshot ())
        |> Result.map_error (fun e -> path ^ ": " ^ e)
  in
  let s = match s with Ok s -> s | Error e -> raise (Resume_error e) in
  let checkpoint =
    Option.map (fun path -> { Engine.every = checkpoint_every; path }) checkpoint
  in
  let o = run_session ?on_event ?checkpoint ?max_trials ?max_wall s in
  let ev = s.ev in
  let search_best, search_perf = (o.Engine.best, o.Engine.perf) in
  let best, best_runs =
    final_protocol ~final_top ~final_runs ev ~search_best ~search_perf
  in
  let vt = Evaluator.virtual_time ev in
  {
    algo;
    db = Evaluator.db ev;
    best;
    perf = Stats.mean best_runs;
    final_stats = Stats.summarize best_runs;
    search_perf;
    trace = Evaluator.trace ev;
    virtual_search_time = vt;
    eval_time_fraction = (if vt > 0.0 then Evaluator.eval_time ev /. vt else 1.0);
    suggested = Evaluator.suggested ev;
    evaluated = Evaluator.evaluated ev;
    cache_hits = Evaluator.cache_hits ev;
    invalid = Evaluator.invalid_count ev;
    oom = Evaluator.oom_count ev;
    engine_steps = o.Engine.steps;
    checkpoints_written = o.Engine.checkpoints_written;
    stats = Evaluator.stats ev;
  }

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "%s: perf=%.6gs/iter (search best %.6g), suggested=%d evaluated=%d cache=%d invalid=%d oom=%d, search time=%.1fs (useful %.0f%%)"
    (algo_name r.algo) r.perf r.search_perf r.suggested r.evaluated r.cache_hits
    r.invalid r.oom r.virtual_search_time
    (100.0 *. r.eval_time_fraction)
