(* A cutoff-aborted evaluation: enough to (a) answer a later
   re-suggestion without re-proving the bound when the incumbent has
   only improved, and (b) finish the protocol with the original per-run
   seeds — reproducing the unpruned measurements bit-for-bit — when the
   incumbent has worsened past the proven lower bound. *)
type partial = {
  pbase : int;                (* seed base: run k (1-based) uses pbase + k *)
  mutable pdone : float list; (* objectives of completed runs, newest first *)
  mutable psum : float;       (* chronological sum of pdone *)
  mutable pnext : int;        (* 1-based index of the first incomplete run *)
  mutable plb : float;        (* proven lower bound on the final mean *)
}

type t = {
  machine : Machine.t;
  graph : Graph.t;
  scratch : Exec.scratch;  (* compiled problem + reusable simulation state *)
  space : Space.t;
  runs : int;
  noise_sigma : float;
  fallback : bool;
  iterations : int option;
  eff_iters : int;         (* [iterations] resolved against the graph *)
  penalty : float;
  eval_overhead : float;
  objective : Machine.t -> Exec.result -> float;
  prune : bool;
  symmetry : bool;   (* effective flags, as applied to [space] *)
  dominance : bool;
  db : Profiles_db.t;
  partials : (string, partial) Hashtbl.t;
  (* Common random numbers: run k of *every* evaluation uses seed
     [crn_base + k], so all candidates face identical noise streams.
     Comparisons between candidates become paired (lower variance than
     independent draws), and — decisively for throughput — the noise
     streams and committed timelines Exec caches per seed are reusable
     across the whole search, which is what enables incremental cone
     replay and once-per-seed noise draws. *)
  crn_base : int;
  mutable seed_counter : int;  (* post-evaluation window, for [measure] *)
  mutable suggested : int;
  mutable evaluated : int;
  mutable cache_hits : int;
  mutable invalid : int;
  mutable oom : int;
  mutable cut_evals : int;
  mutable cut_runs : int;
  mutable cut_sims : int;
  mutable noop_skips : int;
  mutable dead_coord_skips : int;
  mutable symmetry_skips : int;
  mutable batch_calls : int;
  mutable batch_short_circuits : int;
  (* Serve-daemon cache telemetry.  The evaluator doesn't own the
     caches (the server does); it is the one stats carrier every
     report already reads, so the server notes hits/misses here.
     [compile_cache_*] also count locally: create-with-[?scratch] is
     by definition a compile reuse.  Never serialized ([save_state]) —
     cache history is observability, not decision state. *)
  mutable compile_cache_hits : int;
  mutable compile_cache_misses : int;
  mutable result_cache_hits : int;
  mutable warm_starts : int;
  mutable cache_evictions : int;
  mutable cache_resident_bytes : int;
  mutable virtual_time : float;
  mutable eval_time : float;
  mutable best : (Mapping.t * float) option;
  mutable trace : (float * float) list;  (* newest first *)
  (* Deferred-commit cell.  Every [evaluate] path applies at most ONE
     clock charge and at most one best-note; with [defer] set (batch
     mode) the charge is parked here instead of applied, so
     [evaluate_batch] can evaluate in locality order and replay the
     charges in original candidate order — the clocks, the best, and
     the trace then match a sequential caller bit for bit. *)
  mutable defer : bool;
  mutable d_kind : int;   (* 0 none | 1 wall | 2 wall+overhead | 3 overhead *)
  mutable d_wall : float;
  mutable d_noted : bool;
  mutable d_perf : float;
  mutable surrogate : Surrogate.t option;
      (* telemetry attach only — the model is trained by the engine and
         consulted by the strategies; [stats] reads its counters here *)
}

type stats = {
  s_suggested : int;
  s_evaluated : int;
  s_cache_hits : int;
  s_invalid : int;
  s_oom : int;
  s_cut_evals : int;
  s_cut_runs : int;
  s_cut_sims : int;
  s_noop_skips : int;
  s_dead_coord_skips : int;
  s_symmetry_skips : int;
  s_batch_calls : int;
  s_batch_short_circuits : int;
  s_compile_cache_hits : int;
  s_compile_cache_misses : int;
  s_result_cache_hits : int;
  s_warm_starts : int;
  s_cache_evictions : int;
  s_cache_resident_bytes : int;
  s_delta_binds : int;
  s_full_binds : int;
  s_bind_hits_shared : int;
  s_bind_hits_private : int;
  s_cone_replays : int;
  s_cone_instances : int;
  s_full_replays : int;
  s_timeline_bytes : int;
  s_surrogate_trained : int;
  s_surrogate_reranks : int;
  s_surrogate_skips : int;
  s_spearman : float;
}

let default_objective _machine (r : Exec.result) = r.Exec.per_iteration

let create ?(runs = 7) ?(noise_sigma = 0.03) ?(fallback = false) ?iterations
    ?(penalty = infinity) ?(seed = 0) ?(eval_overhead = 0.0002)
    ?(objective = default_objective) ?(extended = false) ?(prune = true)
    ?(incremental = true) ?(domain_prune = true) ?(symmetry = false)
    ?(dominance = false) ?db ?scratch machine graph =
  if runs <= 0 then invalid_arg "Evaluator.create: runs must be positive";
  (* dominance certificates build on the capacity domains and, like
     them, are proved against strict placement only *)
  let dominance = dominance && domain_prune && not fallback in
  let shared_compile = scratch <> None in
  let scratch =
    match scratch with
    | Some sc -> sc  (* shared compiled problem, e.g. portfolio members *)
    | None -> Exec.scratch (Exec.compile machine graph)
  in
  Exec.set_incremental scratch incremental;
  {
    machine;
    graph;
    scratch;
    (* Domain certificates are proved against *strict* placement;
       fallback mode can demote an over-capacity instance into another
       kind and succeed, so domains only restrict the space when
       fallback is off. *)
    space =
      Space.make ~extended ~domains:(domain_prune && not fallback) ~dominance
        ~symmetry graph machine;
    runs;
    noise_sigma;
    fallback;
    iterations;
    eff_iters = (match iterations with Some i -> i | None -> graph.Graph.iterations);
    penalty;
    eval_overhead;
    objective;
    prune;
    symmetry;
    dominance;
    db = (match db with Some db -> db | None -> Profiles_db.create ());
    partials = Hashtbl.create 64;
    crn_base = seed * 1_000_003;
    (* [measure]'s ad-hoc runs draw from a window disjoint from the
       evaluation seeds so they never perturb or reuse the CRN streams *)
    seed_counter = (seed * 1_000_003) + runs;
    suggested = 0;
    evaluated = 0;
    cache_hits = 0;
    invalid = 0;
    oom = 0;
    cut_evals = 0;
    cut_runs = 0;
    cut_sims = 0;
    noop_skips = 0;
    dead_coord_skips = 0;
    symmetry_skips = 0;
    batch_calls = 0;
    batch_short_circuits = 0;
    compile_cache_hits = (if shared_compile then 1 else 0);
    compile_cache_misses = (if shared_compile then 0 else 1);
    result_cache_hits = 0;
    warm_starts = 0;
    cache_evictions = 0;
    cache_resident_bytes = 0;
    virtual_time = 0.0;
    eval_time = 0.0;
    best = None;
    trace = [];
    defer = false;
    d_kind = 0;
    d_wall = 0.0;
    d_noted = false;
    d_perf = 0.0;
    surrogate = None;
  }

let machine t = t.machine
let graph t = t.graph
let space t = t.space
let db t = t.db

let next_seed t =
  t.seed_counter <- t.seed_counter + 1;
  t.seed_counter

let run_once t ?iterations mapping =
  let iterations = match iterations with Some _ as i -> i | None -> t.iterations in
  Exec.simulate ~noise_sigma:t.noise_sigma ~seed:(next_seed t) ~fallback:t.fallback
    ?iterations t.scratch mapping

let note_best t mapping perf =
  match t.best with
  | Some (_, p) when p <= perf -> ()
  | _ ->
      t.best <- Some (mapping, perf);
      t.trace <- (t.virtual_time, perf) :: t.trace

(* Conservative slack on the pruning comparisons: the incremental
   chronological sum and the final [Stats.mean] fold accumulate the
   same runs in different orders, so they can differ by a few ulps.
   Pruning must only ever under-prune (a candidate the unpruned
   protocol would keep must never be cut), so every "provably >= bound"
   test requires clearing bound * (1 + 1e-9) — about seven orders of
   magnitude more slack than the worst-case rounding skew, and seven
   fewer than any perf difference the search could act on. *)
let prune_slack = 1.0 +. 1e-9

(* The hot-path simulation call: status code + plane accessors instead
   of allocated result records.  In the search's steady state a quiet
   run allocates nothing (see Exec's quiet interface). *)
let quiet_run t ~cutoff ~seed mapping =
  Exec.simulate_quiet t.scratch mapping ~noise_sigma:t.noise_sigma ~seed
    ~fallback:t.fallback ~iterations:t.eff_iters ~cutoff

(* Objective of the run that just finished on the scratch planes.  The
   default objective reads one plane slot; a custom objective gets the
   materialized record it expects (allocating — custom objectives are
   the cold case). *)
let obj_of_run t =
  if t.objective == default_objective then Exec.quiet_per_iteration t.scratch
  else t.objective t.machine (Exec.quiet_result t.scratch)

let quiet_error_exn t =
  match Exec.quiet_error t.scratch with Some e -> e | None -> assert false

let effective_iterations t = float_of_int t.eff_iters

(* ---- the single per-evaluation clock charge, routed through the
   deferral cell in batch mode.  Associativity is preserved exactly:
   sequential and replayed commits perform the same adds in the same
   order on the same running clock. ---- *)

let charge_wall t w =
  if t.defer then begin
    t.d_kind <- 1;
    t.d_wall <- w
  end
  else begin
    t.virtual_time <- t.virtual_time +. w;
    t.eval_time <- t.eval_time +. w
  end

let charge_complete t w =
  if t.defer then begin
    t.d_kind <- 2;
    t.d_wall <- w
  end
  else begin
    t.virtual_time <- t.virtual_time +. w +. t.eval_overhead;
    t.eval_time <- t.eval_time +. w
  end

let charge_overhead_only t =
  if t.defer then t.d_kind <- 3
  else t.virtual_time <- t.virtual_time +. t.eval_overhead

let note_result t mapping perf =
  if t.defer then begin
    t.d_noted <- true;
    t.d_perf <- perf
  end
  else note_best t mapping perf

let complete_protocol t ~key mapping times wall =
  t.evaluated <- t.evaluated + 1;
  charge_complete t wall;
  let entry = Profiles_db.record_key t.db ~key mapping times in
  note_result t mapping entry.Profiles_db.perf;
  entry.Profiles_db.perf

(* [evaluate] with the canonical key already computed: the key serves
   the db probe, the partials table and batch rollback, so it is
   derived exactly once per suggestion. *)
let eval_keyed ?bound t key mapping =
  t.suggested <- t.suggested + 1;
  match Profiles_db.find_key t.db key with
  | Some entry ->
      t.cache_hits <- t.cache_hits + 1;
      entry.Profiles_db.perf
  | None -> (
      (* Pruning is exact only for the default objective: the clock is
         a lower bound on the makespan, hence on per-iteration time,
         but not on an arbitrary objective (e.g. energy). *)
      let bound_v =
        match bound with
        | Some b when t.prune && Float.is_finite b && t.objective == default_objective
          ->
            b
        | _ -> infinity
      in
      let runs_f = float_of_int t.runs in
      let iters = effective_iterations t in
      (* Run k may stop once it alone pushes the final mean to the
         bound even if every remaining run took zero time:
         (sum_done + clock/iters) / runs >= bound. *)
      let cutoff_for sum_done =
        if bound_v = infinity then infinity
        else ((bound_v *. prune_slack *. runs_f) -. sum_done) *. iters
      in
      (* Any value >= bound is decision-equivalent for the caller: the
         candidate provably cannot be accepted at this bound. *)
      let pruned_value () = Float.max t.penalty bound_v in
      match Hashtbl.find_opt t.partials key with
      | Some p ->
          if p.plb >= bound_v *. prune_slack then begin
            (* still provably no better than the incumbent *)
            t.cut_evals <- t.cut_evals + 1;
            pruned_value ()
          end
          else begin
            (* The incumbent worsened below this candidate's proven
               lower bound: finish the protocol with the originally
               assigned seeds, reproducing what the unpruned evaluation
               would have measured. *)
            t.cut_runs <- t.cut_runs - (t.runs - p.pnext);
            let new_wall = ref 0.0 in
            let rec go () =
              if p.pnext > t.runs then begin
                Hashtbl.remove t.partials key;
                t.evaluated <- t.evaluated + 1;
                charge_complete t !new_wall;
                let entry = Profiles_db.record_key t.db ~key mapping p.pdone in
                note_result t mapping entry.Profiles_db.perf;
                entry.Profiles_db.perf
              end
              else begin
                let st =
                  quiet_run t ~cutoff:(cutoff_for p.psum) ~seed:(p.pbase + p.pnext)
                    mapping
                in
                if st = Exec.st_finished then begin
                  let obj = obj_of_run t in
                  p.pdone <- obj :: p.pdone;
                  p.psum <- p.psum +. obj;
                  p.pnext <- p.pnext + 1;
                  new_wall := !new_wall +. Exec.quiet_makespan t.scratch;
                  go ()
                end
                else if st = Exec.st_cut then begin
                  let tcut = Exec.quiet_cut_time t.scratch in
                  t.cut_sims <- t.cut_sims + 1;
                  t.cut_evals <- t.cut_evals + 1;
                  t.cut_runs <- t.cut_runs + (t.runs - p.pnext);
                  p.plb <- (p.psum +. (tcut /. iters)) /. runs_f;
                  charge_wall t (!new_wall +. tcut);
                  pruned_value ()
                end
                else
                  failwith
                    ("Evaluator.evaluate: " ^ Placement.error_to_string (quiet_error_exn t))
              end
            in
            go ()
          end
      | None -> (
          match Mapping.validate t.graph t.machine mapping with
          | Error _ ->
              t.invalid <- t.invalid + 1;
              t.penalty
          | Ok () when bound_v < infinity -> (
              let base = t.crn_base in
              (* Certified per-run lower bounds: before any event loop,
                 each run's objective is bounded below by its busiest
                 processor's total work under that run's own noise
                 draws (Exec.run_lower_bound).  With lb_j certified for
                 every run, the protocol can stop before run k whenever
                 sum_done + Σ_{j>=k} lb_j already clears the bound, and
                 run k's cutoff tightens from "remaining runs take zero
                 time" to "remaining runs take at least their lower
                 bounds" — both tests only ever under-prune, so
                 decisions still match the unpruned protocol exactly.
                 The first lower-bound call resolves the placement, so
                 OOM detection is preserved even when the whole
                 evaluation prunes without simulating. *)
              match
                Exec.static_lower_bound ~fallback:t.fallback ?iterations:t.iterations
                  t.scratch mapping
              with
              | Error (Placement.Out_of_memory _) ->
                  t.oom <- t.oom + 1;
                  charge_overhead_only t;
                  t.penalty
              | Error (Placement.Invalid_mapping _) ->
                  t.invalid <- t.invalid + 1;
                  t.penalty
              | Ok s_makespan ->
                  (* the noise-independent floor holds for every run *)
                  let s = s_makespan /. iters in
                  let threshold = bound_v *. prune_slack *. runs_f in
                  let results = ref [] in (* objectives, newest first *)
                  let sum = ref 0.0 in
                  let wall = ref 0.0 in
                  let prune_with ~k ~plb =
                    (* provably no better than the incumbent before
                       even starting run k: no simulation aborted, so
                       this counts cut runs but no cut sim *)
                    t.cut_evals <- t.cut_evals + 1;
                    t.cut_runs <- t.cut_runs + (t.runs - k + 1);
                    Hashtbl.replace t.partials key
                      { pbase = base; pdone = !results; psum = !sum; pnext = k; plb };
                    charge_wall t !wall;
                    pruned_value ()
                  in
                  if s *. runs_f >= threshold then
                    (* certified by the noise-free floor alone: no
                       noise draws, no event loop *)
                    prune_with ~k:1 ~plb:s
                  else begin
                  (* Per-run bounds from each run's own noise draws,
                     computed in seed order with an early stop: once
                     the bounded prefix plus the static floor for the
                     rest clears the threshold, the remaining draws are
                     unnecessary — the evaluation is already cut. *)
                  let lb = Array.make (t.runs + 1) 0.0 in
                  let lbsum = ref 0.0 in
                  let m = ref 0 in
                  let early =
                    try
                      for j = 1 to t.runs do
                        (match
                           Exec.run_lower_bound ~noise_sigma:t.noise_sigma
                             ~seed:(base + j) ~fallback:t.fallback
                             ?iterations:t.iterations t.scratch mapping
                         with
                        | Ok l -> lb.(j) <- l /. iters
                        | Error _ ->
                            (* placement is deterministic: the static
                               floor resolved, so these cannot fail *)
                            assert false);
                        lbsum := !lbsum +. lb.(j);
                        m := j;
                        if !lbsum +. (float_of_int (t.runs - j) *. s) >= threshold then
                          raise Exit
                      done;
                      false
                    with Exit -> true
                  in
                  if early then
                    prune_with ~k:1
                      ~plb:((!lbsum +. (float_of_int (t.runs - !m) *. s)) /. runs_f)
                  else begin
                  (* suffix.(k) = sum of lb_j for j > k *)
                  let suffix = Array.make (t.runs + 1) 0.0 in
                  for j = t.runs - 1 downto 0 do
                    suffix.(j) <- suffix.(j + 1) +. lb.(j + 1)
                  done;
                  let prune_at k = prune_with ~k ~plb:((!sum +. suffix.(k - 1)) /. runs_f) in
                  let rec go k =
                    if k > t.runs then complete_protocol t ~key mapping !results !wall
                    else if !sum +. suffix.(k - 1) >= threshold then prune_at k
                    else begin
                      let cutoff = (threshold -. !sum -. suffix.(k)) *. iters in
                      let st = quiet_run t ~cutoff ~seed:(base + k) mapping in
                      if st = Exec.st_finished then begin
                        let obj = obj_of_run t in
                        results := obj :: !results;
                        sum := !sum +. obj;
                        wall := !wall +. Exec.quiet_makespan t.scratch;
                        go (k + 1)
                      end
                      else if st = Exec.st_cut then begin
                        let tcut = Exec.quiet_cut_time t.scratch in
                        t.cut_sims <- t.cut_sims + 1;
                        t.cut_evals <- t.cut_evals + 1;
                        t.cut_runs <- t.cut_runs + (t.runs - k);
                        Hashtbl.replace t.partials key
                          {
                            pbase = base;
                            pdone = !results;
                            psum = !sum;
                            pnext = k;
                            plb = (!sum +. (tcut /. iters) +. suffix.(k)) /. runs_f;
                          };
                        charge_wall t (!wall +. tcut);
                        pruned_value ()
                      end
                      else
                        failwith
                          ("Evaluator.evaluate: "
                          ^ Placement.error_to_string (quiet_error_exn t))
                    end
                  in
                  go 1
                  end
                  end)
          | Ok () -> (
              let base = t.crn_base in
              (* First run decides whether the mapping can be placed at
                 all; an OOM aborts the evaluation after one cheap
                 failed launch.  The cutoff only gates the event loop,
                 so OOM/invalid detection is unaffected by pruning. *)
              let st0 = quiet_run t ~cutoff:(cutoff_for 0.0) ~seed:(base + 1) mapping in
              if st0 = Exec.st_error then (
                match quiet_error_exn t with
                | Placement.Out_of_memory _ ->
                    t.oom <- t.oom + 1;
                    charge_overhead_only t;
                    t.penalty
                | Placement.Invalid_mapping _ ->
                    t.invalid <- t.invalid + 1;
                    t.penalty)
              else begin
                (* objectives and walls, both newest first: the final
                   clock charge folds the walls newest-first exactly as
                   the record-based protocol did *)
                let objs = ref [] in
                let walls = ref [] in
                let sum = ref 0.0 in
                let cut = ref false in
                let tcut = ref 0.0 in
                let accept () =
                  let obj = obj_of_run t in
                  objs := obj :: !objs;
                  walls := Exec.quiet_makespan t.scratch :: !walls;
                  sum := !sum +. obj
                in
                if st0 = Exec.st_finished then accept ()
                else begin
                  cut := true;
                  tcut := Exec.quiet_cut_time t.scratch
                end;
                let k = ref 1 in
                while (not !cut) && !k < t.runs do
                  incr k;
                  let st = quiet_run t ~cutoff:(cutoff_for !sum) ~seed:(base + !k) mapping in
                  if st = Exec.st_finished then accept ()
                  else if st = Exec.st_cut then begin
                    cut := true;
                    tcut := Exec.quiet_cut_time t.scratch
                  end
                  else
                    (* placement is deterministic: later runs cannot
                       fail if the first succeeded *)
                    failwith
                      ("Evaluator.evaluate: "
                      ^ Placement.error_to_string (quiet_error_exn t))
                done;
                if not !cut then begin
                  let wall = List.fold_left ( +. ) 0.0 !walls in
                  complete_protocol t ~key mapping !objs wall
                end
                else begin
                  t.cut_sims <- t.cut_sims + 1;
                  t.cut_evals <- t.cut_evals + 1;
                  t.cut_runs <- t.cut_runs + (t.runs - !k);
                  Hashtbl.replace t.partials key
                    {
                      pbase = base;
                      pdone = !objs;
                      psum = !sum;
                      pnext = !k;
                      plb = (!sum +. (!tcut /. iters)) /. runs_f;
                    };
                  (* the per-evaluation relaunch overhead is charged
                     when a protocol *completes* — an aborted
                     candidate costs exactly its simulated wall *)
                  let wall = List.fold_left ( +. ) !tcut !walls in
                  charge_wall t wall;
                  pruned_value ()
                end
              end)))

let evaluate ?bound t mapping = eval_keyed ?bound t (Mapping.canonical_key mapping) mapping

(* ---- batch evaluation --------------------------------------------------- *)

type outcome = Evaluated of float | Skipped

(* Evaluate a batch of candidates against one fixed bound.

   Bounded ([?bound] given): the Engine's Propose_batch contract is
   first-improvement — the sequential caller stops at the first
   candidate whose value beats the bound, in original index order.
   Index order is therefore the unique sim-optimal evaluation order
   (a candidate evaluated out of turn past the eventual improver is
   work the sequential protocol never performs), so the batch runs the
   exact sequential loop — evaluate, charge, note — with an early
   exit, no journal, and no allocation beyond the outcome array.

   Unbounded: no short-circuit applies and every candidate is
   evaluated, so the evaluation order is free — candidates evaluate in
   diff-locality order, nearest the pinned replay anchor first, which
   maximizes Exec's placement-patch and cone-replay reuse.  The sort
   is stable on the original index, so duplicate candidates keep their
   relative order (the earlier one evaluates, the later one
   cache-hits, as sequentially).  Per-candidate clock charges and
   best-notes are journaled during out-of-order evaluation and
   replayed in original index order afterwards.

   Either way, every counter, clock value, db entry, best and trace
   line is bit-identical to the sequential loop of the contract. *)
let evaluate_batch ?bound ?(overhead = 0.0) t cands =
  t.batch_calls <- t.batch_calls + 1;
  let n = Array.length cands in
  if n = 0 then [||]
  else
    match bound with
    | Some raw_bound ->
        let outcomes = Array.make n Skipped in
        let stopped_at = ref n in
        (try
           for i = 0 to n - 1 do
             let m = cands.(i) in
             if overhead > 0.0 then t.virtual_time <- t.virtual_time +. overhead;
             let v = eval_keyed ~bound:raw_bound t (Mapping.canonical_key m) m in
             outcomes.(i) <- Evaluated v;
             if v < raw_bound then begin
               stopped_at := i;
               raise Exit
             end
           done
         with Exit -> ());
        if !stopped_at < n - 1 then
          t.batch_short_circuits <- t.batch_short_circuits + 1;
        outcomes
    | None ->
        (* evaluation order: ascending diff distance from the replay
           anchor — the mapping last pinned by [note_incumbent], or
           failing that the last bound mapping *)
        let order = Array.init n (fun i -> i) in
        (match
           (match Exec.preferred_mapping t.scratch with
           | Some _ as a -> a
           | None -> Exec.bound_mapping t.scratch)
         with
        | Some anchor ->
            let dist =
              Array.map
                (fun c ->
                  if c == anchor then 0
                  else begin
                    let tids, cids = Mapping.diff anchor c in
                    List.length tids + List.length cids
                  end)
                cands
            in
            Array.sort
              (fun a b ->
                if dist.(a) <> dist.(b) then compare dist.(a) dist.(b)
                else compare a b)
              order
        | None -> ());
        let values = Array.make n 0.0 in
        let j_kind = Array.make n 0 in
        let j_wall = Array.make n 0.0 in
        let j_noted = Array.make n false in
        let j_perf = Array.make n 0.0 in
        for oi = 0 to n - 1 do
          let i = order.(oi) in
          let m = cands.(i) in
          t.defer <- true;
          t.d_kind <- 0;
          t.d_noted <- false;
          let v = eval_keyed t (Mapping.canonical_key m) m in
          t.defer <- false;
          j_kind.(i) <- t.d_kind;
          j_wall.(i) <- t.d_wall;
          j_noted.(i) <- t.d_noted;
          j_perf.(i) <- t.d_perf;
          values.(i) <- v
        done;
        let outcomes = Array.make n Skipped in
        for i = 0 to n - 1 do
          if overhead > 0.0 then t.virtual_time <- t.virtual_time +. overhead;
          (match j_kind.(i) with
          | 1 ->
              t.virtual_time <- t.virtual_time +. j_wall.(i);
              t.eval_time <- t.eval_time +. j_wall.(i)
          | 2 ->
              t.virtual_time <- t.virtual_time +. j_wall.(i) +. t.eval_overhead;
              t.eval_time <- t.eval_time +. j_wall.(i)
          | 3 -> t.virtual_time <- t.virtual_time +. t.eval_overhead
          | _ -> ());
          if j_noted.(i) then note_best t cands.(i) j_perf.(i);
          outcomes.(i) <- Evaluated values.(i)
        done;
        outcomes

let note_suggestion_overhead t dt =
  if dt < 0.0 then invalid_arg "Evaluator.note_suggestion_overhead: negative";
  t.virtual_time <- t.virtual_time +. dt

let note_noop_neighbor t = t.noop_skips <- t.noop_skips + 1
let note_symmetry_skip t = t.symmetry_skips <- t.symmetry_skips + 1

let note_dead_coords t n =
  if n < 0 then invalid_arg "Evaluator.note_dead_coords: negative";
  t.dead_coord_skips <- t.dead_coord_skips + n

(* The searches report each newly accepted incumbent here so Exec keeps
   its committed timelines pinned: every subsequent neighbour then
   replays against a schedule at most a couple of coordinates away. *)
let note_incumbent t mapping = Exec.prefer_timeline t.scratch mapping
let note_result_cache_hit t = t.result_cache_hits <- t.result_cache_hits + 1
let note_warm_start t = t.warm_starts <- t.warm_starts + 1

let note_cache_state t ~hits ~misses ~evictions ~resident_bytes =
  t.compile_cache_hits <- hits;
  t.compile_cache_misses <- misses;
  t.cache_evictions <- evictions;
  t.cache_resident_bytes <- resident_bytes
let attach_surrogate t sg = t.surrogate <- Some sg

let best t = t.best
let trace t = List.rev t.trace
let virtual_time t = t.virtual_time
let suggested t = t.suggested
let evaluated t = t.evaluated
let cache_hits t = t.cache_hits
let invalid_count t = t.invalid
let oom_count t = t.oom
let cut_evals t = t.cut_evals
let cut_runs t = t.cut_runs
let cut_sims t = t.cut_sims
let noop_skips t = t.noop_skips
let dead_coord_skips t = t.dead_coord_skips
let eval_time t = t.eval_time

let stats t =
  let hits_shared, hits_private = Exec.bind_cache_hits t.scratch in
  {
    s_suggested = t.suggested;
    s_evaluated = t.evaluated;
    s_cache_hits = t.cache_hits;
    s_invalid = t.invalid;
    s_oom = t.oom;
    s_cut_evals = t.cut_evals;
    s_cut_runs = t.cut_runs;
    s_cut_sims = t.cut_sims;
    s_noop_skips = t.noop_skips;
    s_dead_coord_skips = t.dead_coord_skips;
    s_symmetry_skips = t.symmetry_skips;
    s_batch_calls = t.batch_calls;
    s_batch_short_circuits = t.batch_short_circuits;
    s_compile_cache_hits = t.compile_cache_hits;
    s_compile_cache_misses = t.compile_cache_misses;
    s_result_cache_hits = t.result_cache_hits;
    s_warm_starts = t.warm_starts;
    s_cache_evictions = t.cache_evictions;
    s_cache_resident_bytes = t.cache_resident_bytes;
    s_delta_binds = Exec.delta_binds t.scratch;
    s_full_binds = Exec.full_binds t.scratch;
    s_bind_hits_shared = hits_shared;
    s_bind_hits_private = hits_private;
    s_cone_replays = Exec.cone_replays t.scratch;
    s_cone_instances = Exec.cone_instances t.scratch;
    s_full_replays = Exec.full_replays t.scratch;
    s_timeline_bytes = Exec.timeline_bytes t.scratch;
    s_surrogate_trained = (match t.surrogate with Some s -> Surrogate.trained s | None -> 0);
    s_surrogate_reranks = (match t.surrogate with Some s -> Surrogate.reranks s | None -> 0);
    s_surrogate_skips = (match t.surrogate with Some s -> Surrogate.skips s | None -> 0);
    s_spearman = (match t.surrogate with Some s -> Surrogate.spearman s | None -> Float.nan);
  }

(* ---- checkpoint support -------------------------------------------------
   The evaluator's mutable state is part of every search decision: the
   virtual clock feeds the budget test, the partials table changes how a
   re-suggested candidate is answered, and [seed_counter] decides the
   seeds of any post-search [measure] calls.  Serializing it with hex
   floats ([%h]) makes restore bit-exact.  The profiles database is
   saved separately ({!Profiles_db.save}) by the checkpoint envelope;
   Exec's per-seed caches are pure performance state (replay is
   bit-identical, PR 3) and are rebuilt on demand after a restore.
   Batch counters are bench telemetry, not decision state, and are
   deliberately not persisted (the format predates them). *)

let fingerprint t =
  (* [symmetry] changes what Space.random_mapping returns and which
     candidates the engine's seen-set skips; [dominance] changes the
     choice lists every strategy enumerates.  Both are decision state,
     so — unlike the surrogate, whose presence the snapshot itself
     records — they must match between the checkpointing and the
     resuming evaluator. *)
  Printf.sprintf "%s|%s|r%d|n%h|f%b|i%s|p%h|o%h|pr%b|c%d|sy%b|do%b"
    t.machine.Machine.name t.graph.Graph.gname t.runs t.noise_sigma t.fallback
    (match t.iterations with None -> "-" | Some i -> string_of_int i)
    t.penalty t.eval_overhead t.prune t.crn_base t.symmetry t.dominance

let save_state t =
  let fl = Printf.sprintf "%h" in
  let counters =
    Printf.sprintf "counters %d %d %d %d %d %d %d %d %d %d %d" t.suggested
      t.evaluated t.cache_hits t.invalid t.oom t.cut_evals t.cut_runs t.cut_sims
      t.noop_skips t.dead_coord_skips t.symmetry_skips
  in
  let clocks = Printf.sprintf "clocks %s %s" (fl t.virtual_time) (fl t.eval_time) in
  let seed = Printf.sprintf "seed_counter %d" t.seed_counter in
  let best =
    match t.best with
    | None -> "best none"
    | Some (m, p) -> Printf.sprintf "best %s %s" (fl p) (Mapping.canonical_key m)
  in
  let trace =
    Printf.sprintf "trace %d" (List.length t.trace)
    :: List.map (fun (vt, p) -> Printf.sprintf "t %s %s" (fl vt) (fl p)) t.trace
  in
  let partial_lines =
    Hashtbl.fold
      (fun key p acc ->
        Printf.sprintf "p %s %d %d %s %s %d%s" key p.pbase p.pnext (fl p.psum)
          (fl p.plb) (List.length p.pdone)
          (String.concat "" (List.map (fun x -> " " ^ fl x) p.pdone))
        :: acc)
      t.partials []
    (* deterministic checkpoint bytes regardless of hash order *)
    |> List.sort compare
  in
  (counters :: clocks :: seed :: best :: trace)
  @ (Printf.sprintf "partials %d" (List.length partial_lines) :: partial_lines)

let restore_state t lines =
  let fail fmt = Printf.ksprintf (fun m -> Error ("Evaluator.restore_state: " ^ m)) fmt in
  let float_of s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> failwith ("Evaluator.restore_state: bad float " ^ s)
  in
  let int_of s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> failwith ("Evaluator.restore_state: bad int " ^ s)
  in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  try
    match lines with
    | counters :: clocks :: seed :: best :: rest -> (
        (match words counters with
        (* pre-symmetry checkpoints carry 10 counters; current ones 11 *)
        | [ "counters"; a; b; c; d; e; f; g; h; i; j ]
        | [ "counters"; a; b; c; d; e; f; g; h; i; j; _ ] as w ->
            t.suggested <- int_of a;
            t.evaluated <- int_of b;
            t.cache_hits <- int_of c;
            t.invalid <- int_of d;
            t.oom <- int_of e;
            t.cut_evals <- int_of f;
            t.cut_runs <- int_of g;
            t.cut_sims <- int_of h;
            t.noop_skips <- int_of i;
            t.dead_coord_skips <- int_of j;
            t.symmetry_skips <-
              (match w with [ _; _; _; _; _; _; _; _; _; _; _; k ] -> int_of k | _ -> 0)
        | _ -> failwith "Evaluator.restore_state: bad counters line");
        (match words clocks with
        | [ "clocks"; vt; et ] ->
            t.virtual_time <- float_of vt;
            t.eval_time <- float_of et
        | _ -> failwith "Evaluator.restore_state: bad clocks line");
        (match words seed with
        | [ "seed_counter"; s ] -> t.seed_counter <- int_of s
        | _ -> failwith "Evaluator.restore_state: bad seed_counter line");
        (match words best with
        | [ "best"; "none" ] -> t.best <- None
        | [ "best"; p; key ] -> (
            match Mapping.of_canonical_key t.graph key with
            | Some m -> t.best <- Some (m, float_of p)
            | None -> failwith "Evaluator.restore_state: best key mismatch")
        | _ -> failwith "Evaluator.restore_state: bad best line");
        let take_count tag = function
          | l :: rest -> (
              match words l with
              | [ w; n ] when w = tag -> (int_of n, rest)
              | _ -> failwith ("Evaluator.restore_state: expected " ^ tag ^ " line"))
          | [] -> failwith ("Evaluator.restore_state: missing " ^ tag ^ " line")
        in
        let n_trace, rest = take_count "trace" rest in
        let rec read_trace n acc rest =
          if n = 0 then (List.rev acc, rest)
          else
            match rest with
            | l :: rest -> (
                match words l with
                | [ "t"; vt; p ] -> read_trace (n - 1) ((float_of vt, float_of p) :: acc) rest
                | _ -> failwith "Evaluator.restore_state: bad trace line")
            | [] -> failwith "Evaluator.restore_state: truncated trace"
        in
        let trace_rev, rest = read_trace n_trace [] rest in
        (* lines were emitted newest-first; [read_trace] reversed them *)
        t.trace <- List.rev trace_rev;
        let n_partials, rest = take_count "partials" rest in
        Hashtbl.reset t.partials;
        let rec read_partials n rest =
          if n = 0 then rest
          else
            match rest with
            | l :: rest -> (
                match words l with
                | "p" :: key :: pbase :: pnext :: psum :: plb :: ndone :: done_s ->
                    let nd = int_of ndone in
                    if List.length done_s <> nd then
                      failwith "Evaluator.restore_state: bad partial run count";
                    Hashtbl.replace t.partials key
                      {
                        pbase = int_of pbase;
                        pdone = List.map float_of done_s;
                        psum = float_of psum;
                        pnext = int_of pnext;
                        plb = float_of plb;
                      };
                    read_partials (n - 1) rest
                | _ -> failwith "Evaluator.restore_state: bad partial line")
            | [] -> failwith "Evaluator.restore_state: truncated partials"
        in
        match read_partials n_partials rest with
        | [] -> Ok ()
        | l :: _ -> fail "trailing line %S" l)
    | _ -> fail "truncated state"
  with Failure m -> Error m

let measure_with t ?runs ?iterations metric mapping =
  let runs = Option.value runs ~default:t.runs in
  let rec go n acc =
    if n = 0 then acc
    else
      match run_once t ?iterations mapping with
      | Ok r -> go (n - 1) (metric r :: acc)
      | Error e -> failwith ("Evaluator.measure: " ^ Placement.error_to_string e)
  in
  go runs []

let measure t ?runs ?iterations mapping =
  measure_with t ?runs ?iterations (fun r -> r.Exec.per_iteration) mapping

let measure_objective t ?runs mapping =
  measure_with t ?runs (fun r -> t.objective t.machine r) mapping

let profile_for t mapping =
  match Exec.simulate ~noise_sigma:0.0 ~fallback:t.fallback ?iterations:t.iterations
          t.scratch mapping
  with
  | Ok r ->
      Profile.of_times t.graph
        (Array.to_list (Array.mapi (fun tid s -> (tid, s)) r.Exec.task_times))
  | Error _ -> Profile.uniform t.graph
