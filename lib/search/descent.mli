(** The coordinate-descent sweep shared by CD and CCD — OptimizeTask
    over every task, longest-running first (Algorithm 1 lines 6,
    10–19) — expressed as a resumable cursor for {!Engine}.

    A cursor enumerates, task by task, the same candidate coordinates
    the legacy loops tested: first the distribution setting, then
    jointly the processor kind and, per collection argument in
    decreasing size order, the memory kind.  Each candidate is
    materialized against the caller's {e current} incumbent only when
    {!next} is called, so an accept in between changes subsequent
    candidates exactly as the in-place legacy loops did.  When an
    overlap graph is supplied (CCD), every candidate is repaired into
    co-location-satisfying form by Algorithm 2 before being returned;
    plain CD yields the raw candidate (Algorithm 1 "excluding
    line 17").

    The cursor also owns the sweep's bookkeeping side effects:
    analyzer-dead coordinates are counted ({!Evaluator.note_dead_coords})
    when a task is entered, and candidates equal to the incumbent after
    repair are counted ({!Evaluator.note_noop_neighbor}) and skipped
    rather than returned. *)

type t

val start :
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  overlap:Overlap.t option ->
  profile:Profile.t ->
  t
(** Fresh sweep: task order is fixed now from [profile]
    (runtime-descending), candidates are generated lazily.

    With [surrogate] the cursor runs in {e ranked mode}: {!next_batch}
    returns the whole current task's candidates permuted
    best-predicted-first by {!Surrogate.rank} (truncated to the top-K
    when the surrogate carries a skim setting, dropped candidates
    counted as surrogate skips), and the task's specs are consumed
    atomically at build time — {!deliver} must {e not} be called.
    {!next} proposes the same ranked order one candidate at a time
    from an internal queue ({!abandon} drops it on an accept), so
    ranked-batched and ranked-sequential drives are bit-identical.
    The queue {e is} serialized by {!encode}: the permutation depends
    on the model weights as they stood before the batch trained on its
    own results, so it cannot be re-derived at decode time — carrying
    it makes resume exact even when the engine truncated a ranked
    batch at the trial budget. *)

val next : t -> incumbent:Mapping.t -> Mapping.t option
(** The next candidate to evaluate, built from [incumbent]; [None] when
    the sweep is complete.  Advancing may consume no-op specs (counted)
    and enter new tasks (dead-coordinate accounting). *)

val next_batch : t -> incumbent:Mapping.t -> Mapping.t array
(** Batch mode: the current task's remaining (non-no-op) candidates,
    all built against [incumbent], {e without} consuming their specs —
    leading no-ops and task-entry accounting are settled eagerly, gap
    and trailing no-ops are not counted yet.  Empty iff the sweep is
    complete.  Each candidate's verdict must be acknowledged with
    {!deliver}; candidates past the last delivered one are forgotten
    (the next call rebuilds them against the then-current incumbent),
    which is exactly the state a sequential {!next} caller that stopped
    at the same point would be in.  In ranked mode (see {!start}) the
    contract changes: the array is the whole task permuted by predicted
    makespan, its specs are already consumed, and each verdict is
    acknowledged with {!deliver_ranked} instead — a resumed cursor
    holding an undelivered remainder returns it verbatim, in its
    original model order. *)

val default_min_batch : int
(** Default minimum round size below which {!next_gated} prefers the
    sequential drive — measured at smoke sizes, smaller batches lost to
    sequential evaluation (geomean 0.981), so batching only engages
    past the amortization point. *)

val next_gated :
  t ->
  incumbent:Mapping.t ->
  min_batch:int ->
  [ `Done | `Batch of Mapping.t array | `Seq of Mapping.t ]
(** Size-gated proposal round: [`Batch] with the same array
    {!next_batch} would return when it holds at least [min_batch]
    candidates, [`Seq] with one candidate at a time (the same
    candidates in the same order) below the gate, [`Done] when the
    sweep is complete.  Every verdict — batched or sequential — is
    acknowledged with {!deliver_verdict}.  Decision-identical to both
    {!next_batch} and the sequential drive for any [min_batch]: the
    gate only switches between two representations that are themselves
    bit-identical, and it is re-decided each round from checkpointed
    cursor state, so resumed runs reproduce it.  [min_batch <= 1]
    always batches; [max_int] never does. *)

val deliver_verdict : t -> unit
(** Acknowledge one verdict after a {!next_gated} round: dispatches to
    {!deliver} (plain) or {!deliver_ranked} (ranked) for batched
    rounds, and is a no-op for gated sequential rounds, whose
    candidates were already consumed at proposal time. *)

val deliver : t -> unit
(** Acknowledge the verdict of the next outstanding batch candidate:
    consumes its spec plus the gap no-ops before it (counted now —
    same totals as {!next}, which counts them on its way to the
    candidate).  Plain batch mode only.
    @raise Invalid_argument with no outstanding batch. *)

val deliver_ranked : t -> unit
(** Ranked batch mode: acknowledge one verdict by draining the queued
    candidate it belongs to, so a budget-truncated batch leaves exactly
    the undelivered remainder in the (serialized) queue.
    @raise Invalid_argument with no outstanding ranked candidate. *)

val abandon : t -> unit
(** Ranked mode, on an accept: drop the rest of the current ranked
    batch — those candidates were built against the replaced incumbent.
    No-op in plain mode and after batched delivery. *)

val encode : t -> string
(** Checkpoint line: task order + position.  Candidate specs are
    re-derived from the space on {!decode}, so the line stays small. *)

val decode :
  ?surrogate:Surrogate.t ->
  Evaluator.t ->
  overlap:Overlap.t option ->
  string ->
  (t, string) result
(** Rebuild a cursor mid-sweep.  Entry accounting for the current task
    is {e not} redone — the restored evaluator counters already include
    it.  [surrogate] resumes the cursor in ranked mode (the caller
    restores the model itself from the checkpoint's surrogate
    section). *)
