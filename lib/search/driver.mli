(** The AutoMap driver (Figure 4): owns the evaluator/profiles
    database, invokes a pluggable search algorithm through the
    {!Engine}, and applies the paper's measurement protocol — during
    the search each candidate is executed [runs] (7) times and
    averaged; afterwards the [final_top] (5) best mappings are
    re-executed [final_runs] (30) times each and the mapping with the
    fastest average is reported (§5, "Experimental Setup"). *)

type algo =
  | Cd
  | Ccd of { rotations : int }
  | Ensemble_tuner
  | Random_walk of { max_evals : int }
  | Annealing of { max_evals : int }
  | Portfolio  (** {!Portfolio.default_members} sharing the budget *)
  | Heft  (** no search: evaluate the HEFT list schedule (§5 baseline) *)

val algo_name : algo -> string

val algo_of_string : ?max_evals:int -> string -> (algo, string) Stdlib.result
(** CLI/wire spelling (["cd"], ["ccd"], ["ensemble"], ["random"],
    ["annealing"], ["portfolio"], ["heft"]; case-insensitive).
    [max_evals] (default 1000) parameterizes the stochastic
    algorithms. *)

type result = {
  algo : algo;
  db : Profiles_db.t;           (** every measurement of the search *)
  best : Mapping.t;            (** winner of the final re-evaluation *)
  perf : float;                (** its final average per-iteration time *)
  final_stats : Stats.summary; (** statistics of the winner's final runs *)
  search_perf : float;         (** best average seen during the search *)
  trace : (float * float) list;(** (virtual time, best-so-far) — Figure 9 *)
  virtual_search_time : float;
  eval_time_fraction : float;  (** useful fraction of search time (§5.3) *)
  suggested : int;
  evaluated : int;
  cache_hits : int;
  invalid : int;
  oom : int;
  engine_steps : int;          (** {!Engine} strategy steps taken *)
  checkpoints_written : int;
  stats : Evaluator.stats;     (** every evaluator counter, after the final protocol *)
}

val make_strategy :
  seed:int ->
  ?budget:float ->
  batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  algo ->
  Evaluator.t ->
  Engine.strategy
(** A fresh strategy for [algo], exactly as {!session} builds one:
    [seed] derives the stochastic algorithms' seeds, [budget] becomes
    the portfolio's member shares, [batch]/[min_batch]/[surrogate]
    configure CD/CCD proposal batching (gated — see
    {!Descent.next_gated} — and ranked). *)

val decode_strategy :
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  algo:string ->
  string list ->
  (Engine.strategy, string) Stdlib.result
(** Rebuild a checkpointed strategy from its [algo] name (as recorded in
    {!Engine.snapshot.s_algo}) and encoded state lines.  [batch]
    resumes CD/CCD in batch mode ([min_batch] gating sub-threshold
    rounds, default 1); [surrogate] resumes them with ranked batches
    (see {!run}). *)

val final_protocol :
  ?final_top:int ->
  ?final_runs:int ->
  ?domains:int ->
  Evaluator.t ->
  search_best:Mapping.t ->
  search_perf:float ->
  Mapping.t * float list
(** The paper's final measurement protocol: re-run the [final_top] (5)
    best mappings of the evaluator's profiles database [final_runs]
    (30) times each and return the fastest-on-average with its runs
    (falling back to [(search_best, [search_perf])] on an empty
    database).  {!run} applies it automatically; the serve daemon's
    slice driver calls it when a sliced search completes.

    The runs are independent, so they are dealt across [domains]
    workers (see {!Parallel.map}).  The answer does not depend on
    [domains]: run [r] of candidate [c] uses the seed the sequential
    protocol would draw, each candidate's runs come back newest first
    as successive {!Evaluator.objective_run}s would cons them, and the
    evaluator's measurement seed counter advances by the same total.
    The protocol uses [min 4 (Domain.recommended_domain_count ())]
    workers when one run simulates at least 8192 task instances
    ({!Evaluator.run_instances}) and 1 below that, where a run is too
    short for a second domain to pay.  [domains] overrides that choice;
    it is a test hook, so tests can force both paths on a small
    problem.  Worker 0 measures on the evaluator's scratch; every other
    worker builds one {!Evaluator.measurement_scratch}. *)

(** {2 Search sessions} *)

exception Resume_error of string
(** Raised by {!run} when [resume_from] names a checkpoint that cannot
    be resumed: missing or unreadable, truncated or corrupt,
    fingerprint-mismatched, or naming an unknown strategy.  The message
    starts with the checkpoint path. *)

type cfg = {
  algo : algo;
  runs : int;                  (** per-candidate measurement runs (§5: 7) *)
  noise_sigma : float option;  (** [None] = evaluator default *)
  iterations : int option;
  seed : int;
  budget : float option;       (** virtual-time cap *)
  max_trials : int option;     (** total evaluated-trial cap *)
  batch : bool;
  min_batch : int;
  surrogate : bool;
  surrogate_skim : int option;
  symmetry : bool;   (** orbit canonicalization + seen-set skipping *)
  dominance : bool;  (** dominance-pruned choice lists *)
  heft_seed : bool;
  final_top : int;
  final_runs : int;
}
(** Everything that determines a search's decision stream, plus the
    decision-neutral [min_batch] gate.  [batch] is decision-neutral
    only without a surrogate: with one (the default) it turns on
    best-predicted-first reranking, which changes the trajectory.  The
    fields mean what {!run}'s labelled arguments of the same names
    mean. *)

val default_cfg : cfg
(** {!run}'s defaults: CCD(5), 7 runs, seed 0, no caps, unranked
    ([batch = false]) with {!Descent.default_min_batch}, surrogate on,
    symmetry and dominance reduction on, final protocol 5 x 30. *)

type session = {
  ev : Evaluator.t;
  strategy : Engine.strategy;
  surrogate : Surrogate.t option;  (** trained on every exact evaluation *)
  seen : Engine.seen option;       (** symmetry seen-set *)
  start : Mapping.t;               (** start point, or the resumed best *)
  carry : Engine.carry option;     (** engine counters of a resumed search *)
  max_virtual : float option;
      (** the engine's virtual-time cap: [cfg.budget], except for the
          portfolio, which spends the budget through its own member
          deadlines *)
}
(** A search ready to hand to {!Engine.run} (see {!run_session}). *)

val session :
  ?objective:(Machine.t -> Exec.result -> float) ->
  ?extended:bool ->
  ?incremental:bool ->
  ?domain_prune:bool ->
  ?scratch:Exec.scratch ->
  ?db:Profiles_db.t ->
  ?start:Mapping.t ->
  ?snapshot:Engine.snapshot ->
  cfg ->
  Machine.t ->
  Graph.t ->
  (session, string) Stdlib.result
(** Build a search, or restore one from a parsed checkpoint.  This is
    the only place that creates the evaluator (over [scratch]'s
    compiled problem when given), the surrogate and the seen-set, and
    that builds or decodes the strategy.

    Fresh ([snapshot] absent): the evaluator is warm-started from [db];
    the search starts from [start], else from {!Heft.mapping} when
    [cfg.heft_seed] or the algorithm is HEFT, else from
    {!Mapping.default_start}.  Never fails.

    Resume: the snapshot's profiles database, evaluator state,
    surrogate (present exactly when the snapshot has a surrogate
    section), seen-set and strategy replace the fresh ones, and
    [carry] continues the engine's counters, so the search goes on
    decision-identically.  [db] and [start] are ignored.  Errors on a
    fingerprint mismatch (different machine, graph or evaluator
    configuration) or a corrupt section. *)

val run_session :
  ?on_event:(Engine.event -> unit) ->
  ?checkpoint:Engine.checkpoint_cfg ->
  ?max_trials:int ->
  ?max_wall:float ->
  session ->
  Engine.outcome
(** {!Engine.run} on the session, capped by [max_trials] (total, resume
    included), [max_wall] and the session's [max_virtual]. *)

val run :
  ?runs:int ->
  ?final_top:int ->
  ?final_runs:int ->
  ?noise_sigma:float ->
  ?iterations:int ->
  ?seed:int ->
  ?budget:float ->
  ?max_trials:int ->
  ?max_wall:float ->
  ?start:Mapping.t ->
  ?heft_seed:bool ->
  ?objective:(Machine.t -> Exec.result -> float) ->
  ?extended:bool ->
  ?incremental:bool ->
  ?domain_prune:bool ->
  ?batch:bool ->
  ?min_batch:int ->
  ?surrogate:bool ->
  ?surrogate_skim:int ->
  ?symmetry:bool ->
  ?dominance:bool ->
  ?db:Profiles_db.t ->
  ?on_event:(Engine.event -> unit) ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume_from:string ->
  algo ->
  Machine.t ->
  Graph.t ->
  result
(** [budget] caps virtual search time (seconds of simulated
    application execution); [max_trials] and [max_wall] cap evaluated
    proposals and real elapsed seconds — the three compose into one
    {!Budget.t} and the first exhausted axis stops the search.  The
    defaults follow §5: [runs] = 7,
    [final_top] = 5, [final_runs] = 30.  [objective] selects the
    metric the search minimizes (default: per-iteration time),
    [extended] opens the distribution-strategy dimension,
    [incremental] (default true) toggles incremental re-simulation,
    [batch] (default false) runs CD/CCD through
    {!Engine.Propose_batch} whole-neighbour-set evaluation (see
    {!Evaluator.evaluate_batch}; other algorithms ignore it).  Without
    a surrogate batching is decision-identical; with the default
    surrogate it also turns on reranking (below), which changes the
    trajectory.  [min_batch] (default
    {!Descent.default_min_batch}) keeps sub-threshold rounds on the
    sequential path where batching does not amortize (still
    decision-identical; pass 1 to always batch) and
    [db] warm-starts from a persisted profiles database (see
    {!Evaluator.create}).

    [surrogate] (default true) trains an online {!Surrogate} cost
    model on every exact evaluation; combined with [batch] it also
    reranks CD/CCD candidate batches best-predicted-first.  The
    candidates and the acceptance rule stay the same, but the order
    decides which improvement is taken first, so reranking changes the
    trajectory.  [surrogate_skim] additionally simulates only the top-K
    predictions of each ranked batch (implies [batch]); skimming can
    change the search trajectory, so it is guarded by test_surrogate's
    never-worse gate rather than an identity proof.  Resume note: the
    checkpoint decides — a snapshot with a surrogate section restores
    it (skim config must match), one without runs surrogate-free.

    [symmetry] (default true) quotients the search by the task-orbit
    symmetries {!Symmetry} certifies: random samples are canonicalized
    and an engine seen-set rejects symmetric duplicates of evaluated
    orbits without re-simulating ([symmetry_skips] counts them;
    checkpoints carry the seen-set so resume stays
    decision-identical).  [dominance] (default true; requires
    [domain_prune]) drops values {!Analysis.compute_dominance} proves
    dominated from the choice lists.  Both change the search
    trajectory, so they are part of the evaluator fingerprint — a
    checkpoint resumes only under the same flags.

    [heft_seed] starts the search from {!Heft.mapping} instead of
    {!Mapping.default_start} (ignored when [start] is given).

    [on_event] taps the engine's progress bus.  [checkpoint] names a
    file rewritten atomically every [checkpoint_every] (25) evaluated
    trials.  [resume_from] restores a checkpoint written by the same
    (machine, graph, evaluator-configuration) run — the snapshot's own
    strategy, evaluator state and profiles database replace [algo]'s
    fresh strategy and [db], and the search continues
    decision-identically from where it stopped.  Fresh and resumed
    searches are both built by {!session}.
    @raise Resume_error if the checkpoint cannot be resumed. *)

val pp_result : Format.formatter -> result -> unit
