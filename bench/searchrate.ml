(* End-to-end search-throughput benchmark for bound-and-prune
   candidate evaluation and incremental delta re-simulation.

   For Stencil and Circuit it runs the same CCD search four times on
   fresh evaluators — pruning off, pruning on (the PR 2 baseline),
   pruning on with incremental cone replay, and incremental with
   whole-neighbour-set batch evaluation — and checks the four
   searches are *decision-identical* (same best mapping, same best
   perf bit-for-bit, same suggestion count) before reporting the
   wall-clock speedups and candidates-per-second gains each layer
   buys.  The pruning counters (cut runs/sims, delta vs. full
   placement binds) and the replay counters (cone vs. full replays,
   instances re-executed in cones, retained timeline bytes) are
   reported alongside so regressions in any one layer of the
   optimisation are visible in the numbers, not just the total.

   The machine is a 4-node shepard cluster: distributed machines are
   the paper's setting, and the communication floors that make the
   pruning bounds tight only exist with more than one node.

   Results go to stdout and to BENCH_searchrate.json.

   Usage: dune exec bench/searchrate.exe [-- --smoke] [-- --out FILE]
     --smoke   tiny inputs + 2 rotations (CI rot check)               *)

let out_file = ref "BENCH_searchrate.json"
let smoke = ref false

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: f :: rest ->
        out_file := f;
        parse rest
    | unknown :: _ ->
        Printf.eprintf "searchrate: unknown argument %S\n" unknown;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let now = Unix.gettimeofday

(* Stamp the report with the producing commit so JSON files compared
   across PRs identify their code version.  Benchmarks may run from a
   build tree outside any repository: fall back to "unknown". *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

type leg = {
  wall : float;
  cands_per_sec : float;
  best : Mapping.t;
  perf : float;
  steps : int;  (* Engine strategy steps *)
  st : Evaluator.stats;
}

(* One full search on a fresh evaluator (pruning and timeline state
   must not leak between repeats); only the engine run is timed —
   Evaluator.create (the one-time compile, identical for all legs)
   stays outside. *)
let search_once ?(batch = false) ?(surrogate = false) ~prune ~incremental ~rotations
    machine g =
  let ev = Evaluator.create ~prune ~incremental ~seed:3 machine g in
  let sg = if surrogate then Some (Surrogate.create (Evaluator.space ev)) else None in
  Option.iter (Evaluator.attach_surrogate ev) sg;
  let t0 = now () in
  let o =
    Engine.run ?surrogate:sg ~start:(Mapping.default_start g machine) ev
      (Ccd.make ~batch ?surrogate:sg ~rotations ev)
  in
  (now () -. t0, o.Engine.best, o.Engine.perf, o.Engine.steps, Evaluator.stats ev)

type app_row = {
  row_app : string;
  row_input : string;
  off : leg;
  on_ : leg;
  inc : leg;
  bat : leg;
  sur : leg;                   (* surrogate-ranked batches *)
  speedup : float;             (* prune on vs. off, both full-replay *)
  incremental_speedup : float; (* incremental vs. the PR 2 baseline  *)
  batched_speedup : float;     (* batched vs. incremental            *)
}

let bench_app (app : App.t) machine ~input ~rotations ~min_time =
  let g = app.App.graph ~nodes:machine.Machine.nodes ~input in
  (* A single CCD run is milliseconds: repeat whole searches until
     [min_time] of measured wall accumulated, interleaving the four
     legs so any slow drift in machine load skews all equally and the
     reported ratios stay honest.  Each leg reports its fastest repeat
     (steady state): scheduler preemption and first-touch page faults
     only ever add time, so the minimum is the run least polluted by
     the machine, and every leg gets the same treatment. *)
  let t_off = ref infinity and t_on = ref infinity in
  let t_inc = ref infinity and t_bat = ref infinity and t_sur = ref infinity in
  let spent = ref 0.0 in
  let last_off = ref None and last_on = ref None and last_inc = ref None in
  let last_bat = ref None and last_sur = ref None in
  let step () =
    let d, b, p, k, s = search_once ~prune:false ~incremental:false ~rotations machine g in
    t_off := Float.min !t_off d;
    spent := !spent +. d;
    last_off := Some (b, p, k, s);
    let d, b, p, k, s = search_once ~prune:true ~incremental:false ~rotations machine g in
    t_on := Float.min !t_on d;
    spent := !spent +. d;
    last_on := Some (b, p, k, s);
    let d, b, p, k, s = search_once ~prune:true ~incremental:true ~rotations machine g in
    t_inc := Float.min !t_inc d;
    spent := !spent +. d;
    last_inc := Some (b, p, k, s);
    let d, b, p, k, s =
      search_once ~batch:true ~prune:true ~incremental:true ~rotations machine g
    in
    t_bat := Float.min !t_bat d;
    spent := !spent +. d;
    last_bat := Some (b, p, k, s);
    let d, b, p, k, s =
      search_once ~batch:true ~surrogate:true ~prune:true ~incremental:true
        ~rotations machine g
    in
    t_sur := Float.min !t_sur d;
    spent := !spent +. d;
    last_sur := Some (b, p, k, s)
  in
  step ();
  while !spent < min_time do
    step ()
  done;
  let leg_of wall last =
    let b, p, k, s = Option.get last in
    {
      wall;
      cands_per_sec = float_of_int s.Evaluator.s_suggested /. wall;
      best = b;
      perf = p;
      steps = k;
      st = s;
    }
  in
  let off = leg_of !t_off !last_off
  and on_ = leg_of !t_on !last_on
  and inc = leg_of !t_inc !last_inc
  and bat = leg_of !t_bat !last_bat
  and sur = leg_of !t_sur !last_sur in
  (* neither pruning, incremental replay, nor batching may be visible
     to the search's decisions.  Batching folds each neighbour set into
     one engine step, so engine-step counts are only compared between
     the sequential legs. *)
  let check ?(steps = true) name a b =
    if not (Mapping.equal a.best b.best) then
      failwith (app.App.app_name ^ ": " ^ name ^ " search found a different best mapping");
    if a.perf <> b.perf then
      failwith (app.App.app_name ^ ": " ^ name ^ " search found a different best perf");
    if a.st.Evaluator.s_suggested <> b.st.Evaluator.s_suggested then
      failwith
        (app.App.app_name ^ ": " ^ name ^ " search made a different number of suggestions");
    if steps && a.steps <> b.steps then
      failwith
        (app.App.app_name ^ ": " ^ name ^ " search took a different number of engine steps")
  in
  check "pruned" off on_;
  check "incremental" on_ inc;
  check ~steps:false "batched" inc bat;
  let speedup = off.wall /. on_.wall in
  let incremental_speedup = inc.cands_per_sec /. on_.cands_per_sec in
  let batched_speedup = bat.cands_per_sec /. inc.cands_per_sec in
  Printf.printf
    "%-8s %-10s off %6.2fms (%7.1f cand/s) | on %6.2fms (%7.1f cand/s, %5.2fx) | inc \
     %6.2fms (%7.1f cand/s, %5.2fx) | batch %6.2fms (%7.1f cand/s, %5.2fx)\n\
    \         cut %d/%d evals, %d runs, %d sims | binds %d delta / %d full | %d noop \
     skips | %d dead-coord skips\n\
    \         replays %d cone / %d full | %d cone instances | %.1f KiB timelines\n\
    \         batches %d, %d short-circuited | bind hits %d shared / %d private\n%!"
    app.App.app_name input (1e3 *. off.wall) off.cands_per_sec (1e3 *. on_.wall)
    on_.cands_per_sec speedup (1e3 *. inc.wall) inc.cands_per_sec incremental_speedup
    (1e3 *. bat.wall) bat.cands_per_sec batched_speedup
    inc.st.Evaluator.s_cut_evals inc.st.Evaluator.s_suggested
    inc.st.Evaluator.s_cut_runs inc.st.Evaluator.s_cut_sims
    inc.st.Evaluator.s_delta_binds inc.st.Evaluator.s_full_binds
    inc.st.Evaluator.s_noop_skips inc.st.Evaluator.s_dead_coord_skips
    inc.st.Evaluator.s_cone_replays
    inc.st.Evaluator.s_full_replays inc.st.Evaluator.s_cone_instances
    (float_of_int inc.st.Evaluator.s_timeline_bytes /. 1024.0)
    bat.st.Evaluator.s_batch_calls bat.st.Evaluator.s_batch_short_circuits
    bat.st.Evaluator.s_bind_hits_shared bat.st.Evaluator.s_bind_hits_private;
  Printf.printf
    "         surrogate %6.2fms (%7.1f cand/s) | %d trained, %d reranks, %d skims \
     | spearman %s | best %.4g vs exact %.4g\n%!"
    (1e3 *. sur.wall) sur.cands_per_sec sur.st.Evaluator.s_surrogate_trained
    sur.st.Evaluator.s_surrogate_reranks sur.st.Evaluator.s_surrogate_skips
    (if Float.is_finite sur.st.Evaluator.s_spearman then
       Printf.sprintf "%.3f" sur.st.Evaluator.s_spearman
     else "n/a")
    sur.perf bat.perf;
  { row_app = app.App.app_name; row_input = input; off; on_; inc; bat; sur; speedup;
    incremental_speedup; batched_speedup }

let json_leg l =
  Printf.sprintf
    {|{"wall": %.5f, "cands_per_sec": %.2f, "perf": %.6e, "engine_steps": %d, "suggested": %d, "evaluated": %d, "cache_hits": %d, "cut_evals": %d, "cut_runs": %d, "cut_sims": %d, "noop_skips": %d, "dead_coord_skips": %d, "delta_binds": %d, "full_binds": %d, "cone_replays": %d, "cone_instances": %d, "full_replays": %d, "timeline_bytes": %d, "batch_calls": %d, "batch_short_circuits": %d, "bind_hits_shared": %d, "bind_hits_private": %d, "compile_cache_hits": %d, "compile_cache_misses": %d, "result_cache_hits": %d, "warm_starts": %d}|}
    l.wall l.cands_per_sec l.perf l.steps l.st.Evaluator.s_suggested l.st.Evaluator.s_evaluated
    l.st.Evaluator.s_cache_hits l.st.Evaluator.s_cut_evals l.st.Evaluator.s_cut_runs
    l.st.Evaluator.s_cut_sims l.st.Evaluator.s_noop_skips
    l.st.Evaluator.s_dead_coord_skips l.st.Evaluator.s_delta_binds
    l.st.Evaluator.s_full_binds l.st.Evaluator.s_cone_replays
    l.st.Evaluator.s_cone_instances l.st.Evaluator.s_full_replays
    l.st.Evaluator.s_timeline_bytes l.st.Evaluator.s_batch_calls
    l.st.Evaluator.s_batch_short_circuits l.st.Evaluator.s_bind_hits_shared
    l.st.Evaluator.s_bind_hits_private l.st.Evaluator.s_compile_cache_hits
    l.st.Evaluator.s_compile_cache_misses l.st.Evaluator.s_result_cache_hits
    l.st.Evaluator.s_warm_starts

(* the surrogate leg reranks batches, so it is reported — counters,
   rank quality, final best — but excluded from the identity check *)
let json_surrogate l =
  Printf.sprintf
    {|{"wall": %.5f, "cands_per_sec": %.2f, "perf": %.6e, "engine_steps": %d, "suggested": %d, "surrogate_trained": %d, "surrogate_reranks": %d, "surrogate_skips": %d, "spearman_rank_corr": %s}|}
    l.wall l.cands_per_sec l.perf l.steps l.st.Evaluator.s_suggested
    l.st.Evaluator.s_surrogate_trained l.st.Evaluator.s_surrogate_reranks
    l.st.Evaluator.s_surrogate_skips
    (if Float.is_finite l.st.Evaluator.s_spearman then
       Printf.sprintf "%.4f" l.st.Evaluator.s_spearman
     else "null")

(* Symmetry leg: the same CCD search at an equal trial budget with and
   without the PR 9 reduction stack (orbit canonicalization + engine
   seen-set + dominance-pruned domains).  The reduction changes the
   trajectory — skipped duplicates free budget for distinct candidates
   — so instead of an identity check it is held to the never-worse
   gate: the reduced run's final best must be equal-or-better, else the
   bench hard-fails.  Noise-free evaluation keeps the comparison about
   search decisions rather than measurement luck. *)
type sym_row = {
  sy_app : string;
  sy_input : string;
  sy_trials : int;
  sy_base : leg;
  sy_red : leg;
  sy_skips : int;          (* symmetric duplicates answered from the seen-set *)
  sy_log2_space : float;   (* log2 |space| after domain+dominance pruning *)
  sy_log2_reduction : float; (* further bits the orbit quotient saves *)
}

let symmetry_check (app : App.t) machine ~input ~rotations ~max_trials =
  let g = app.App.graph ~nodes:machine.Machine.nodes ~input in
  let run ~symmetry ~dominance =
    let ev =
      Evaluator.create ~noise_sigma:0.0 ~seed:3 ~symmetry ~dominance machine g
    in
    let seen =
      if symmetry then
        Some (Engine.seen_create (Space.canonicalize (Evaluator.space ev)))
      else None
    in
    let t0 = now () in
    let o =
      Engine.run
        ~budget:(Budget.make ~max_trials ())
        ?seen
        ~start:(Mapping.default_start g machine)
        ev (Ccd.make ~rotations ev)
    in
    let wall = now () -. t0 in
    let s = Evaluator.stats ev in
    {
      wall;
      cands_per_sec = float_of_int s.Evaluator.s_suggested /. wall;
      best = o.Engine.best;
      perf = o.Engine.perf;
      steps = o.Engine.steps;
      st = s;
    }
  in
  let base = run ~symmetry:false ~dominance:false in
  let red = run ~symmetry:true ~dominance:true in
  if red.perf > base.perf then
    failwith
      (Printf.sprintf
         "%s: symmetry-reduced search final best %.6g is worse than unreduced %.6g"
         app.App.app_name red.perf base.perf);
  let an = Analysis.analyze machine g in
  let row =
    {
      sy_app = app.App.app_name;
      sy_input = input;
      sy_trials = max_trials;
      sy_base = base;
      sy_red = red;
      sy_skips = red.st.Evaluator.s_symmetry_skips;
      sy_log2_space = Analysis.log2_space an;
      sy_log2_reduction = Analysis.log2_symmetry_reduction an;
    }
  in
  Printf.printf
    "%-8s %-10s symmetry @%d trials: base %.6g (%d distinct evals) | reduced %.6g \
     (%d distinct evals, %d skips) | space %.1f bits, quotient -%.2f bits | \
     never-worse ok\n%!"
    app.App.app_name input max_trials base.perf base.st.Evaluator.s_evaluated
    red.perf red.st.Evaluator.s_evaluated row.sy_skips row.sy_log2_space
    row.sy_log2_reduction;
  row

let json_sym r =
  Printf.sprintf
    {|{"app": %S, "input": %S, "trials": %d, "base_perf": %.6e, "reduced_perf": %.6e, "base_evaluated": %d, "reduced_evaluated": %d, "base_wall": %.5f, "reduced_wall": %.5f, "symmetry_skips": %d, "log2_space": %.4f, "log2_symmetry_reduction": %.4f, "never_worse": true}|}
    r.sy_app r.sy_input r.sy_trials r.sy_base.perf r.sy_red.perf
    r.sy_base.st.Evaluator.s_evaluated r.sy_red.st.Evaluator.s_evaluated
    r.sy_base.wall r.sy_red.wall r.sy_skips r.sy_log2_space r.sy_log2_reduction

(* Checkpoint/resume self-check: a CCD search checkpointed mid-flight
   and resumed must land on the same best as one uninterrupted run.
   Returns (checkpoints written by the truncated run, resumed trials). *)
let resume_check machine g ~rotations =
  let start = Mapping.default_start g machine in
  let fresh () = Evaluator.create ~seed:3 machine g in
  let ev1 = fresh () in
  let full = Engine.run ~start ev1 (Ccd.make ~rotations ev1) in
  let t1 = max 2 (full.Engine.trials / 2) in
  let path = Filename.temp_file "searchrate_resume" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ev2 = fresh () in
      let truncated =
        Engine.run
          ~budget:(Budget.make ~max_trials:t1 ())
          ~checkpoint:{ Engine.every = t1; path } ~start ev2 (Ccd.make ~rotations ev2)
      in
      if truncated.Engine.checkpoints_written = 0 then
        failwith "searchrate: resume check wrote no checkpoint";
      let snap =
        match Engine.load_snapshot path with Ok s -> s | Error e -> failwith e
      in
      let db =
        match Profiles_db.load g snap.Engine.s_profiles with
        | Ok db -> db
        | Error e -> failwith e
      in
      let ev3 = Evaluator.create ~seed:3 ~db machine g in
      (match Evaluator.restore_state ev3 snap.Engine.s_evaluator with
      | Ok () -> ()
      | Error e -> failwith e);
      let strat =
        match Driver.decode_strategy ev3 ~algo:snap.Engine.s_algo snap.Engine.s_strategy with
        | Ok s -> s
        | Error e -> failwith e
      in
      let best_m =
        match Mapping.of_canonical_key g snap.Engine.s_best_key with
        | Some m -> m
        | None -> failwith "searchrate: bad best key in checkpoint"
      in
      let resumed =
        Engine.run
          ~carry:
            {
              Engine.c_trials = snap.Engine.s_trials;
              c_steps = snap.Engine.s_steps;
              c_wall = snap.Engine.s_wall;
              c_best = (best_m, snap.Engine.s_best_perf);
            }
          ~start ev3 strat
      in
      if not (Mapping.equal resumed.Engine.best full.Engine.best) then
        failwith "searchrate: resumed search found a different best mapping";
      if resumed.Engine.perf <> full.Engine.perf then
        failwith "searchrate: resumed search found a different best perf";
      if resumed.Engine.trials <> full.Engine.trials then
        failwith "searchrate: resumed search took a different number of trials";
      (truncated.Engine.checkpoints_written, resumed.Engine.trials))

let () =
  let nodes = 4 in
  let machine = Presets.shepard ~nodes in
  let rotations = if !smoke then 2 else 5 in
  let apps =
    [ (App.stencil, if !smoke then "500x500" else "2000x2000");
      (App.circuit, if !smoke then "n100w400" else "n200w800") ]
  in
  Printf.printf
    "searchrate: %s mode, shepard x%d, CCD(%d), prune off vs on vs +incremental vs \
     +batched\n%!"
    (if !smoke then "smoke" else "bench")
    nodes rotations;
  let min_time = if !smoke then 0.0 else 4.0 in
  let rows =
    List.map (fun (app, input) -> bench_app app machine ~input ~rotations ~min_time) apps
  in
  let geomean f =
    exp
      (List.fold_left (fun acc r -> acc +. log (f r)) 0.0 rows
      /. float_of_int (List.length rows))
  in
  let geo_prune = geomean (fun r -> r.speedup) in
  let geo_inc = geomean (fun r -> r.incremental_speedup) in
  let geo_bat = geomean (fun r -> r.batched_speedup) in
  Printf.printf
    "geomean search speedup: prune %.2fx, incremental %.2fx over prune-on, batched \
     %.2fx over incremental\n%!"
    geo_prune geo_inc geo_bat;
  (* symmetry leg over all five bundled apps — the reduction's
     never-worse guarantee is about search structure, so every graph
     shape is exercised, not just the two throughput apps *)
  let sym_apps =
    [ (App.stencil, if !smoke then "500x500" else "2000x2000");
      (App.circuit, if !smoke then "n100w400" else "n200w800");
      (App.pennant, "320x90");
      (App.htr, "8x8y9z");
      (App.maestro, "lf4r16") ]
  in
  let sym_trials = if !smoke then 120 else 400 in
  let sym_rows =
    List.map
      (fun (app, input) ->
        symmetry_check app machine ~input ~rotations ~max_trials:sym_trials)
      sym_apps
  in
  let sym_apps_with_skips =
    List.length (List.filter (fun r -> r.sy_skips > 0) sym_rows)
  in
  Printf.printf "symmetry: %d/%d apps skipped at least one duplicate\n%!"
    sym_apps_with_skips (List.length sym_rows);
  let resume_g =
    App.stencil.App.graph ~nodes ~input:(if !smoke then "500x500" else "2000x2000")
  in
  let checkpoints_written, resumed_trials = resume_check machine resume_g ~rotations in
  Printf.printf
    "resume self-check: %d checkpoint(s), resumed to %d trials, decision-identical\n%!"
    checkpoints_written resumed_trials;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"bench\": \"searchrate\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %S,\n" (git_commit ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"nodes\": %d,\n  \"rotations\": %d,\n  \"apps\": [\n"
       !smoke nodes rotations);
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"app\": %S, \"input\": %S,\n     \"prune_off\": %s,\n     \
            \"prune_on\": %s,\n     \"incremental\": %s,\n     \"batched\": %s,\n     \
            \"surrogate\": %s,\n     \
            \"speedup\": %.3f, \"incremental_speedup\": %.3f, \
            \"batched_speedup\": %.3f, \"decision_identical\": true}%s\n"
           row.row_app row.row_input (json_leg row.off) (json_leg row.on_)
           (json_leg row.inc) (json_leg row.bat) (json_surrogate row.sur) row.speedup
           row.incremental_speedup row.batched_speedup
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf
       "  ],\n  \"geomean_speedup\": %.3f,\n  \"geomean_incremental_speedup\": %.3f,\n  \
        \"geomean_batched_speedup\": %.3f,\n  \"symmetry\": [\n%s\n  ],\n  \
        \"symmetry_apps_with_skips\": %d,\n  \
        \"resume\": {\"checkpoints_written\": %d, \"resumed_trials\": %d, \
        \"decision_identical\": true}\n}\n"
       geo_prune geo_inc geo_bat
       (String.concat ",\n" (List.map (fun r -> "    " ^ json_sym r) sym_rows))
       sym_apps_with_skips checkpoints_written resumed_trials);
  let oc = open_out !out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" !out_file
