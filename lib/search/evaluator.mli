(** Mapping evaluation service (EvaluateMapping, Algorithm 1 line 21,
    and the driver/mapper interaction of Figure 4).

    Each *evaluation* executes the application (our simulator) [runs]
    times with distinct noise seeds and averages the per-iteration
    times — the paper's protocol ("each mapping ran 7 times, and the
    average was used", §5).  Results are cached in the
    {!Profiles_db}: re-suggesting an already-measured mapping costs
    nothing, which is how CCD's 1941 suggestions collapse to ~460
    executions (§5.3).

    The evaluator also keeps the bookkeeping the experiments report:

    - [suggested] / [evaluated] / [cache_hits] / [invalid] / [oom]
      counters;
    - *virtual search time*: the simulated wall-clock the search would
      have spent — the sum of all executed runs' makespans plus a
      per-action overhead — used as the x-axis of Figure 9;
    - the best-so-far trace [(virtual time, best perf)].

    Invalid mappings (§4.2 constraint (1) violations, as a
    constraint-unaware tuner produces) are answered with [penalty]
    without executing.  OOM mappings cost one aborted run and are
    answered with [penalty] (the search "detects an out-of-memory
    error and moves on", §5.2).

    {!create} compiles the simulation problem once ({!Exec.compile})
    and every [evaluate] / [measure] / [profile_for] call reuses the
    compiled problem and one {!Exec.scratch} — candidate evaluation is
    the search's hot path.  A consequence: an evaluator must not be
    shared across domains; give each domain its own. *)

type t

val create :
  ?runs:int ->
  ?noise_sigma:float ->
  ?fallback:bool ->
  ?iterations:int ->
  ?penalty:float ->
  ?seed:int ->
  ?eval_overhead:float ->
  ?objective:(Machine.t -> Exec.result -> float) ->
  ?extended:bool ->
  ?prune:bool ->
  ?incremental:bool ->
  ?domain_prune:bool ->
  ?symmetry:bool ->
  ?dominance:bool ->
  ?db:Profiles_db.t ->
  ?scratch:Exec.scratch ->
  Machine.t ->
  Graph.t ->
  t
(** Defaults: [runs] = 7, [noise_sigma] = 0.03, [fallback] = false,
    [penalty] = infinity, [seed] = 0, [eval_overhead] = 0.2 ms of
    virtual time per executed evaluation (relaunch cost, scaled to the
    simulator's compressed time base so the §5.3 useful-time fractions
    keep their relative magnitudes).
    [iterations] overrides the graph's iteration count during search
    evaluations (searches often run a truncated workload).
    [objective] maps a simulated run to the scalar the search
    minimizes; the default is per-iteration execution time, and
    {!Energy.joules_per_iteration} makes the same search stack optimize
    power consumption (§3.3).  [extended] (default false) opens the
    distribution-strategy dimension (see {!Space.make}).
    [prune] (default true) enables bound-and-prune evaluation: when
    {!evaluate} is given a finite [?bound], losing candidates are
    aborted as early as the partial mean proves they cannot win (see
    {!evaluate}).  Pruning never changes a search decision; disable it
    only to measure its effect.
    [incremental] (default true) enables {!Exec}'s incremental
    re-simulation (committed timelines + dirty-cone replay) on the
    evaluator's scratch.  Replay is bit-identical to full simulation,
    so decisions never change; disable it only for debugging or to
    measure its effect.
    [symmetry] (default false) activates orbit canonicalization on the
    evaluator's {!Space} (canonical random samples; the engine's
    seen-set uses {!Space.canonicalize} to skip symmetric duplicates,
    counted by [s_symmetry_skips] in {!stats}).  [dominance] (default
    false) additionally prunes dominated values from the space's choice lists
    ({!Analysis.compute_dominance}); it requires [domain_prune] and is
    ignored under [fallback], whose demotions invalidate the
    certificates.  Both flags are part of {!fingerprint}: unlike the
    surrogate, they change the decision stream, so a resume must use
    the same settings as the checkpointing run.

    Seeding uses common random numbers: run [k] of every evaluation
    draws seed [seed * 1_000_003 + k], so all candidates face the same
    [runs] noise streams (paired comparisons), and Exec's per-seed
    noise/timeline caches hit across the whole search.

    [scratch] supplies a pre-built {!Exec.scratch} instead of compiling
    a fresh one — the serve daemon's compile cache hands a cached
    scratch to each new search of the same workload (searches on it run
    one at a time, so its bind/noise/timeline caches hit across them).
    The scratch must come from [Exec.compile machine graph] for the
    same (machine, graph) pair. *)

val machine : t -> Machine.t
val graph : t -> Graph.t
val space : t -> Space.t
val db : t -> Profiles_db.t

val evaluate : ?bound:float -> t -> Mapping.t -> float
(** Average objective value of the mapping (cached), or [penalty]
    for invalid/OOM mappings.

    [?bound] is the caller's incumbent value: a candidate is useful to
    the caller only if its final mean objective is strictly below it.
    With pruning enabled and the default objective, run [i] of the §5
    protocol gets the clock cutoff [(runs * bound - sum_so_far) *
    iterations] ({!Exec.simulate_bounded}): run times are nonnegative,
    so once the partial sum alone pushes the final mean to [bound] the
    remaining runs are aborted and [max penalty bound] — a certified
    loser value — is returned.  This is *decision-exact*: the
    accept/reject sequence, the RNG stream (the per-candidate seed
    budget is consumed even when runs are skipped), the profiles
    database contents and the best-mapping trace are identical to the
    unpruned search, provided [bound] is at least the best perf this
    evaluator has seen (true for an incumbent/Metropolis threshold).
    A cut candidate is remembered as a partial evaluation: if it is
    ever re-suggested with a bound below its proven lower bound, the
    protocol resumes with the originally assigned seeds and reproduces
    the unpruned measurements bit-for-bit.  Without [?bound] (or with
    [~prune:false], a non-default objective, or an infinite bound) the
    behaviour is the exact legacy protocol. *)

type outcome =
  | Evaluated of float  (** the value {!evaluate} would have returned *)
  | Skipped
      (** short-circuited: an earlier-index candidate beat the bound,
          so a sequential caller stopping at its first acceptance would
          never have evaluated this one *)

val evaluate_batch :
  ?bound:float -> ?overhead:float -> t -> Mapping.t array -> outcome array
(** Evaluate a set of candidates against one fixed [bound], equivalent
    to the sequential loop

    {[for i = 0 to n-1 do
        let v = evaluate ?bound t cands.(i) in
        if overhead > 0.0 then note_suggestion_overhead t overhead;
        if v < Option.value bound ~default:infinity then stop
      done]}

    (with [overhead] charged before each evaluated candidate's clock
    charge) — every counter, clock value, db entry, partial, best and
    trace line is bit-identical to that loop, which is the contract
    {!Search} strategies rely on when they hand the engine whole
    neighbour sets.  Note the loop stops at the {e first} candidate
    strictly beating [bound]: batching is only decision-identical for
    callers whose acceptance test is exactly [value < bound]
    (first-improvement descent; see {!Search.Engine}).

    With [?bound] the loop above stops at the first acceptance, so
    original index order is the {e unique} sim-optimal evaluation
    order — any candidate evaluated out of turn past the eventual
    improver is work the sequential protocol never performs.  The
    bounded path therefore runs the sequential loop literally, with an
    early exit and no allocation beyond the outcome array; what
    batching buys is the amortized scratch setup, the one shared
    incumbent rebind, and the per-batch short-circuit accounting.

    Without [?bound] no short-circuit applies and every candidate is
    evaluated, so the evaluation order is free: candidates evaluate in
    ascending diff distance from the pinned replay anchor (the last
    {!note_incumbent} mapping, else the last bound mapping),
    maximizing Exec's placement-patch and cone-replay reuse.  The sort
    is stable on the original index, so duplicates keep their relative
    order (earlier evaluates, later cache-hits, as sequentially), and
    per-candidate clock charges and best-notes are journaled and
    replayed in original index order afterwards. *)

val note_suggestion_overhead : t -> float -> unit
(** Charge extra virtual time attributed to the search algorithm
    itself (the ensemble tuner's proposal machinery, §5.3's
    13–45 %-useful-time observation). *)

val best : t -> (Mapping.t * float) option

val trace : t -> (float * float) list
(** Improvement trace: (virtual search time, new best perf), oldest
    first. *)

val virtual_time : t -> float
val suggested : t -> int
val evaluated : t -> int
val cache_hits : t -> int
val invalid_count : t -> int
val oom_count : t -> int

val cut_evals : t -> int
(** Evaluations answered by pruning (the candidate was certified a
    loser before completing its run protocol).  A later resume that
    completes the protocol additionally counts in [evaluated]. *)

val cut_runs : t -> int
(** Protocol runs skipped outright thanks to pruning (the aborted run
    itself counts in [cut_sims], not here); decremented when a resume
    later executes them. *)

val cut_sims : t -> int
(** Simulations aborted by the clock cutoff. *)

val noop_skips : t -> int
(** No-op neighbours the search skipped (see {!note_noop_neighbor}). *)

val dead_coord_skips : t -> int
(** Coordinate values the searches never suggested because the
    analyzer-computed domains exclude them (see
    {!note_dead_coords}). *)

val note_dead_coords : t -> int -> unit
(** Record that a search skipped [n] domain-excluded candidate
    values without suggesting them. *)

val note_noop_neighbor : t -> unit
(** Record that a search skipped a candidate identical to its
    incumbent without suggesting it. *)

val note_symmetry_skip : t -> unit
(** Record that the engine skipped a candidate whose orbit-canonical
    representative was already evaluated. *)

val note_incumbent : t -> Mapping.t -> unit
(** Tell the evaluator which mapping the search currently holds as its
    incumbent ({!Exec.prefer_timeline}): its committed timelines are
    kept pinned so every neighbour candidate replays against a schedule
    at most a couple of coordinates away.  Purely a performance hint —
    never changes any evaluation result. *)

val note_result_cache_hit : t -> unit
(** The serve daemon answered a request from its result memo without
    simulating — counted here so {!stats} carries cache telemetry. *)

val note_warm_start : t -> unit
(** This evaluator's search was seeded from a memoized incumbent of an
    earlier request (same machine and graph, different search config). *)

val note_cache_state : t ->
  hits:int -> misses:int -> evictions:int -> resident_bytes:int -> unit
(** Overwrite the compile-cache counters with the server's global LRU
    statistics before reading {!stats}.  Telemetry only — never
    serialized by {!save_state}, never decision-relevant. *)

val attach_surrogate : t -> Surrogate.t -> unit
(** Register the search's surrogate model so {!stats} reports its
    counters (trained observations, reranks, skim skips, rank
    correlation).  Telemetry only: the evaluator never consults the
    model — training is the engine's, ranking the strategies'. *)

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
  s_symmetry_skips : int;  (** seen-set rejections ({!note_symmetry_skip}) *)
  s_batch_calls : int;     (** {!evaluate_batch} invocations *)
  s_batch_short_circuits : int;
      (** batches cut short because an earlier candidate beat the bound *)
  s_compile_cache_hits : int;
      (** compiled-problem reuses: 1 when this evaluator was created
          with [?scratch], plus any server compile-cache hits noted via
          {!note_cache_state} *)
  s_compile_cache_misses : int;  (** fresh {!Exec.compile} invocations *)
  s_result_cache_hits : int;
      (** requests answered from the server's result memo without any
          simulation ({!note_result_cache_hit}) *)
  s_warm_starts : int;
      (** searches seeded from a memoized incumbent ({!note_warm_start}) *)
  s_cache_evictions : int;       (** server LRU evictions *)
  s_cache_resident_bytes : int;  (** server cache footprint, bytes *)
  s_delta_binds : int;  (** {!Exec.delta_binds} of the evaluator's scratch *)
  s_full_binds : int;   (** {!Exec.full_binds} of the evaluator's scratch *)
  s_cone_replays : int;   (** {!Exec.cone_replays} *)
  s_cone_instances : int; (** {!Exec.cone_instances} *)
  s_full_replays : int;   (** {!Exec.full_replays} *)
  s_lane_pops : int;
      (** {!Exec.lane_pops}: events the scratch's live loop took from
          the event queue's same-instant lane *)
  s_heap_pops : int;      (** {!Exec.heap_pops} *)
  s_timeline_bytes : int; (** {!Exec.timeline_bytes} *)
  s_surrogate_trained : int;  (** {!Surrogate.trained} (0 when none attached) *)
  s_surrogate_reranks : int;  (** {!Surrogate.reranks} *)
  s_surrogate_skips : int;    (** {!Surrogate.skips} *)
  s_spearman : float;  (** {!Surrogate.spearman} ([nan] when none attached) *)
}
(** One-shot snapshot of every counter, for benches and tests. *)

val stats : t -> stats

val eval_time : t -> float
(** Virtual time spent actually executing candidates (for the
    useful-time fraction of §5.3). *)

val fingerprint : t -> string
(** One-line digest of the decision-relevant configuration (machine,
    graph, runs, noise, fallback, iterations, penalty, overhead, prune
    flag, CRN seed base).  A checkpoint written by one evaluator may
    only be restored into an evaluator with an equal fingerprint —
    anything else would silently change the decision sequence.
    Incremental replay and domain pruning are deliberately excluded:
    both are proven decision-neutral. *)

val save_state : t -> string list
(** Serialize the evaluator's mutable search state — counters, virtual
    and eval clocks, [measure] seed counter, best-so-far, improvement
    trace, and the partial-evaluation table — as text lines with
    hex-float ([%h]) exactness.  The profiles database is {e not}
    included; checkpoint it alongside with {!Profiles_db.save}.
    Restoring these lines (plus the database) into a fresh evaluator
    with the same {!fingerprint} makes every subsequent evaluation,
    budget test, and [measure] draw bit-identical to the uninterrupted
    run: cache answers come from the database, cut candidates resume
    from the partials table with their original seeds, and the virtual
    clock continues from the exact same value. *)

val restore_state : t -> string list -> (unit, string) result
(** Inverse of {!save_state}.  Overwrites the evaluator's mutable state;
    the caller is responsible for having checked {!fingerprint} equality
    and for loading the saved profiles database into [~db] at
    {!create} time.  Exec's per-seed noise/timeline caches are rebuilt
    lazily — they are bit-exact performance state, not decisions. *)

val measure : t -> ?runs:int -> ?iterations:int -> Mapping.t -> float list
(** Per-iteration *times* of [runs] executions, outside the search
    bookkeeping — for baseline comparisons.  Raises [Failure] on
    invalid/OOM mappings. *)

(** {2 Measurement runs across domains}

    The final protocol's runs ({!Driver.final_protocol}) are
    independent: each has its own seed.  These calls let a caller deal
    them across domains and still get exactly what measuring them one
    after another would return.  Measurement seeds are
    one-shot, so every measurement run ({!measure} included) leaves
    Exec's per-seed noise and timeline tables untouched. *)

val reserve_seeds : t -> int -> int
(** [reserve_seeds t n] takes the next [n] measurement seeds and returns
    the first: the seeds are [first .. first + n - 1], the ones the next
    [n] runs of {!measure} would have drawn. *)

val run_instances : t -> int
(** Task instances one measurement run simulates (instance slots per
    iteration x iterations) — the size of a run. *)

val measurement_scratch : t -> Exec.scratch
(** A fresh scratch over the evaluator's compiled problem, with
    incremental replay off, for measurement runs on another domain. *)

val objective_run : ?scratch:Exec.scratch -> t -> seed:int -> Mapping.t -> float
(** The objective of one run of [mapping] under [seed] (what the final
    protocol ranks by), on [scratch] (default: the evaluator's own).  Reads only immutable evaluator state, so calls on
    distinct scratches may run on distinct domains.  Raises [Failure]
    on invalid/OOM mappings. *)

val profile_for : t -> Mapping.t -> Profile.t
(** Noise-free per-task profile under a mapping (task ordering for
    CD/CCD); falls back to the uniform profile if the mapping cannot
    run. *)
