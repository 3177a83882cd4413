(* One scheduling quantum of a search, for the serve daemon: run the
   engine for at most [slice_trials] evaluated proposals, then either
   finish (strategy stopped or the request's own budget ran out) or
   pause.  A paused slice hands back its live [Driver.session], its
   engine carry advanced to the slice's outcome, and the next slice
   runs the engine on that same session: one evaluator, one scratch
   with its noise streams, committed timelines and bind cache, one
   strategy, for the whole search.  Restarting [Engine.run] with the
   carry continues the trial loop exactly where the budget check
   stopped it, so the sliced search takes the unsliced trial sequence.

   The checkpoint envelope is printed only on demand ([envelope]): the
   server writes it for durability, or when it drops a paused session to
   stay within its byte budget.  [resume] rebuilds a session from an
   envelope through [Driver.session], the same path [Driver.run]
   resumes through, so a chain may mix continued and resumed slices.

   The only approximation is the wall clock: each slice accumulates its
   own elapsed time into the carry's wall field.  Wall is not
   decision-relevant here (slice budgets are trial-counted and requests
   carry no max_wall), so the accumulated value is telemetry. *)

type cfg = Driver.cfg = {
  algo : Driver.algo;
  runs : int;
  noise_sigma : float option;
  iterations : int option;
  seed : int;
  budget : float option;      (* request's virtual-time cap *)
  max_trials : int option;    (* request's total trial cap *)
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

(* The CLI runs unranked; serve ranks its batches with the surrogate,
   which on the serve benchmark cuts the tuning time enough to pay for
   the model. *)
let default_cfg = { Driver.default_cfg with batch = true }

let algo_spec = function
  | Driver.Cd -> "cd"
  | Driver.Ccd { rotations } -> Printf.sprintf "ccd:%d" rotations
  | Driver.Ensemble_tuner -> "ensemble"
  | Driver.Random_walk { max_evals } -> Printf.sprintf "random:%d" max_evals
  | Driver.Annealing { max_evals } -> Printf.sprintf "annealing:%d" max_evals
  | Driver.Portfolio -> "portfolio"
  | Driver.Heft -> "heft"

let opt_f = function None -> "none" | Some v -> Printf.sprintf "%h" v
let opt_i = function None -> "none" | Some v -> string_of_int v

(* Only the fields that pick the evaluator's decision stream: profiles
   measured under one eval identity are poison under another (different
   CRN seeds, run counts, noise), so the server's shared profiles pool
   is segmented by this digest. *)
let eval_identity cfg =
  Printf.sprintf "runs=%d noise=%s iters=%s seed=%d" cfg.runs
    (opt_f cfg.noise_sigma) (opt_i cfg.iterations) cfg.seed

let eval_fingerprint cfg = Digest.to_hex (Digest.string (eval_identity cfg))

(* The full search identity, for the result memo.  [batch] is part of
   it because, under the surrogate, it turns on reranking, which
   changes the trajectory.  [min_batch] is decision-neutral but
   included anyway: segmenting the memo slightly finer than necessary
   costs a warm start where a hit was possible, never a wrong answer. *)
let fingerprint cfg =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf
          "algo=%s %s budget=%s trials=%s batch=%b min_batch=%d surrogate=%b \
           skim=%s symmetry=%b dominance=%b heft=%b top=%d final_runs=%d"
          (algo_spec cfg.algo) (eval_identity cfg) (opt_f cfg.budget)
          (opt_i cfg.max_trials) cfg.batch cfg.min_batch cfg.surrogate
          (opt_i cfg.surrogate_skim) cfg.symmetry cfg.dominance cfg.heft_seed
          cfg.final_top cfg.final_runs))

type finished = {
  best : Mapping.t;
  perf : float;
  search_perf : float;
  trials : int;
}

type progress = { session : Driver.session; p_trials : int; p_best_perf : float }
type status = Finished of finished | Paused of progress

(* Did the slice end because the search is over, or because the quantum
   ran out?  Hitting the slice cap with the request's own limits still
   open means "more work"; anything else — strategy stop, request trial
   cap, virtual budget overrun — is final.  A strategy that stops
   exactly on the cap is indistinguishable from a truncated one; it
   costs one extra no-op slice that stops immediately, evaluating
   nothing. *)
let is_finished cfg (s : Driver.session) (o : Engine.outcome) ~cap =
  o.Engine.trials < cap
  || (match cfg.max_trials with Some m -> o.Engine.trials >= m | None -> false)
  ||
  match s.Driver.max_virtual with
  | Some b -> Evaluator.virtual_time s.Driver.ev > b
  | None -> false

let conclude cfg ev (o : Engine.outcome) =
  let best, best_runs =
    Driver.final_protocol ~final_top:cfg.final_top ~final_runs:cfg.final_runs ev
      ~search_best:o.Engine.best ~search_perf:o.Engine.perf
  in
  Finished
    {
      best;
      perf = Stats.mean best_runs;
      search_perf = o.Engine.perf;
      trials = o.Engine.trials;
    }

let pause (s : Driver.session) (o : Engine.outcome) ~wall =
  let carry =
    {
      Engine.c_trials = o.Engine.trials;
      c_steps = o.Engine.steps;
      c_wall = wall;
      c_best = (o.Engine.best, o.Engine.perf);
    }
  in
  Paused
    {
      session = { s with Driver.start = o.Engine.best; carry = Some carry };
      p_trials = o.Engine.trials;
      p_best_perf = o.Engine.perf;
    }

let envelope p =
  let s = p.session in
  let c = Option.get s.Driver.carry (* [pause] always sets it *) in
  Engine.checkpoint_string ?surrogate:s.Driver.surrogate ?seen:s.Driver.seen s.Driver.ev
    s.Driver.strategy ~trials:c.Engine.c_trials ~steps:c.Engine.c_steps
    ~wall:c.Engine.c_wall ~best:c.Engine.c_best

let live_bytes p = Obj.reachable_words (Obj.repr p.session) * (Sys.word_size / 8)

(* Run one slice of a session: at most [slice_trials] more evaluated
   trials, never past the request's own cap. *)
let run_slice ?on_event ~slice_trials cfg (s : Driver.session) =
  let done_trials, wall0 =
    match s.Driver.carry with
    | Some c -> (c.Engine.c_trials, c.Engine.c_wall)
    | None -> (0, 0.0)
  in
  let cap =
    let c = done_trials + slice_trials in
    match cfg.max_trials with Some m -> min m c | None -> c
  in
  let t0 = Unix.gettimeofday () in
  let o = Driver.run_session ?on_event ~max_trials:cap s in
  let status =
    if is_finished cfg s o ~cap then conclude cfg s.Driver.ev o
    else pause s o ~wall:(wall0 +. (Unix.gettimeofday () -. t0))
  in
  (status, s.Driver.ev)

let start ?scratch ?db ?warm_start ?on_event ~slice_trials cfg machine graph =
  Driver.session ?scratch ?db ?start:warm_start cfg machine graph
  |> Result.map (fun s ->
         if warm_start <> None then Evaluator.note_warm_start s.Driver.ev;
         run_slice ?on_event ~slice_trials cfg s)

let resume ?scratch ?on_event ~slice_trials cfg machine graph ~ckpt =
  Result.bind (Engine.snapshot_of_string ckpt) (fun snapshot ->
      Driver.session ?scratch ~snapshot cfg machine graph)
  |> Result.map (run_slice ?on_event ~slice_trials cfg)
  |> Result.map_error (fun e -> "Slice.resume: " ^ e)

let continue ?on_event ~slice_trials cfg p = run_slice ?on_event ~slice_trials cfg p.session
