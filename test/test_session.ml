(* One search session: Driver.run and the serve daemon's slice driver
   build and resume a search through Driver.session.  Two consequences
   are checked here:

   - a search chopped into slices takes the unsliced trajectory exactly
     (every Eval event, the best mapping, its bit-exact perf and the
     trial count), whether each slice continues the live session the
     previous one paused, resumes from its printed envelope, or the
     chain alternates between the two;
   - a checkpoint that cannot be resumed is refused by both entry
     points: Driver.run raises Driver.Resume_error, Slice.resume
     returns Error. *)

let apps =
  [
    (App.circuit, "n50w200");
    (App.stencil, "500x500");
    (App.pennant, "320x90");
    (App.htr, "8x8y9z");
    (App.maestro, "lf4r16");
  ]

let cfg ~batch =
  {
    Driver.default_cfg with
    Driver.runs = 2;
    max_trials = Some 60;
    batch;
    final_top = 3;
    final_runs = 2;
  }

(* Driver.run with every labelled argument taken from [cfg] *)
let run_cfg ?on_event ?checkpoint ?resume_from (c : Driver.cfg) m g =
  Driver.run ~runs:c.runs ?noise_sigma:c.noise_sigma ?iterations:c.iterations
    ~seed:c.seed ?budget:c.budget ?max_trials:c.max_trials ~batch:c.batch
    ~min_batch:c.min_batch ~surrogate:c.surrogate ?surrogate_skim:c.surrogate_skim
    ~symmetry:c.symmetry ~dominance:c.dominance ~heft_seed:c.heft_seed
    ~final_top:c.final_top ~final_runs:c.final_runs ?on_event ?checkpoint
    ~checkpoint_every:20 ?resume_from c.algo m g

let hex = Printf.sprintf "%h"

(* every evaluation as (trial, mapping key, bit-exact perf, accepted) *)
let recorder () =
  let evs = ref [] in
  let on_event = function
    | Engine.Eval { trial; mapping; perf; accepted; _ } ->
        evs := (trial, Mapping.canonical_key mapping, hex perf, accepted) :: !evs
    | _ -> ()
  in
  (evs, on_event)

(* How a chain runs the slice after a pause: continue the paused live
   session, resume from its printed envelope (as after a restart or a
   budget eviction), or alternate — continue, evict, resume, continue
   the resumed session, ... *)
type chain = Continue | Resume | Mixed

let chain_name = function Continue -> "continue" | Resume -> "resume" | Mixed -> "mixed"

let sliced ~chain ~slice_trials c m g =
  let evs, on_event = recorder () in
  let slices = ref 1 in
  let rec go = function
    | Error e -> Alcotest.failf "slice %d: %s" !slices e
    | Ok (Slice.Finished f, _) -> f
    | Ok (Slice.Paused p, _) ->
        incr slices;
        let via_envelope =
          match chain with Continue -> false | Resume -> true | Mixed -> !slices mod 2 = 1
        in
        go
          (if via_envelope then
             Slice.resume ~on_event ~slice_trials c m g ~ckpt:(Slice.envelope p)
           else Ok (Slice.continue ~on_event ~slice_trials c p))
  in
  let f = go (Slice.start ~on_event ~slice_trials c m g) in
  (f, List.rev !evs, !slices)

(* Maestro finds no feasible mapping on Shepard, so its perfs are all
   infinite and a perf comparison alone would pass by inf = inf; the
   mapping keys of the best and of every evaluation, and the trial
   count, must match as well. *)
let test_sliced_equals_unsliced () =
  let m = Presets.shepard ~nodes:2 in
  List.iter
    (fun ((app : App.t), input) ->
      let g = app.App.graph ~nodes:2 ~input in
      List.iter
        (fun batch ->
          let c = cfg ~batch in
          let evs, on_event = recorder () in
          let r = run_cfg ~on_event c m g in
          let evs = List.rev !evs in
          let trials = match List.rev evs with (t, _, _, _) :: _ -> t | [] -> 0 in
          List.iter
            (fun (chain, slice_trials) ->
              let name =
                Printf.sprintf "%s batch=%b %s slice=%d" app.App.app_name batch
                  (chain_name chain) slice_trials
              in
              let f, sevs, slices = sliced ~chain ~slice_trials c m g in
              if slice_trials < trials then
                Alcotest.(check bool) (name ^ ": actually sliced") true (slices > 1);
              Alcotest.(check string) (name ^ ": best mapping")
                (Mapping.canonical_key r.Driver.best)
                (Mapping.canonical_key f.Slice.best);
              Alcotest.(check string) (name ^ ": perf bits") (hex r.Driver.perf)
                (hex f.Slice.perf);
              Alcotest.(check string) (name ^ ": search perf bits")
                (hex r.Driver.search_perf) (hex f.Slice.search_perf);
              Alcotest.(check int) (name ^ ": trials") trials f.Slice.trials;
              Alcotest.(check bool) (name ^ ": same evaluations") true (evs = sevs))
            [ (Resume, 7); (Resume, 40); (Continue, 7); (Continue, 40); (Mixed, 7) ])
        [ true; false ])
    apps

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let test_bad_checkpoints () =
  let m = Presets.shepard ~nodes:1 in
  let g = App.stencil.App.graph ~nodes:1 ~input:"500x500" in
  let c = { (cfg ~batch:false) with Driver.max_trials = Some 20 } in
  let good = Filename.temp_file "automap_session" ".ckpt" in
  let truncated = Filename.temp_file "automap_session_trunc" ".ckpt" in
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "automap_no_such.ckpt"
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ good; truncated ])
    (fun () ->
      ignore (run_cfg ~checkpoint:good c m g);
      let text = read_file good in
      let cut = String.sub text 0 (String.length text / 3) in
      write_file truncated cut;
      (* the intact checkpoint resumes through both entry points *)
      ignore (run_cfg ~resume_from:good c m g);
      (match Slice.resume ~slice_trials:40 c m g ~ckpt:text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "intact envelope refused: %s" e);
      let other = { c with Driver.runs = 3 } in
      (* (case, config, file for Driver.run, envelope for Slice.resume —
         a missing file reads as the empty envelope, expected reasons) *)
      List.iter
        (fun (name, cfg, path, ckpt, why, slice_why) ->
          (match run_cfg ~resume_from:path cfg m g with
          | _ -> Alcotest.failf "%s: Driver.run resumed" name
          | exception Driver.Resume_error msg ->
              Alcotest.(check bool) (name ^ ": names the path") true
                (Str_helpers.contains msg path);
              Alcotest.(check bool) (name ^ ": says why") true
                (Str_helpers.contains msg why));
          match Slice.resume ~slice_trials:40 cfg m g ~ckpt with
          | Ok _ -> Alcotest.failf "%s: Slice.resume resumed" name
          | Error msg ->
              Alcotest.(check bool) (name ^ ": slice says why") true
                (Str_helpers.contains msg slice_why))
        [
          ("missing", c, missing, "", "No such file", "bad magic");
          ("truncated", c, truncated, cut, "snapshot_of_string", "snapshot_of_string");
          ("mismatched", other, good, text, "fingerprint mismatch", "fingerprint mismatch");
        ])

(* The final protocol deals its runs across domains; the answer must not
   depend on how many.  Three evaluators run the same search on a small
   routed grid; the final protocol over the 3 best db entries then runs
   on two domains, on one, and as a reference rebuilt from plain
   Exec.simulate calls: one fresh scratch with incremental replay on,
   one seed drawn per run in order, each candidate's list consed newest
   first.  All three must pick the same mapping with %h-equal run
   lists, and a following Evaluator.measure must agree too — proof that
   the seed counter advanced by the same total. *)
let test_parallel_final_protocol () =
  let machine =
    match Presets.of_spec "grid:4x4" ~nodes:1 with Ok m -> m | Error e -> Alcotest.fail e
  in
  let g =
    App.stencil.App.graph ~nodes:machine.Machine.nodes
      ~input:(List.hd (App.stencil.App.inputs ~nodes:machine.Machine.nodes))
  in
  let noise_sigma = 0.03 in
  let searched () =
    let ev = Evaluator.create ~runs:2 ~prune:false ~noise_sigma ~seed:5 machine g in
    let o =
      Engine.run ~budget:(Budget.make ~max_trials:12 ())
        ~start:(Mapping.default_start g machine) ev
        (Ccd.make ~rotations:2 ev)
    in
    (ev, o)
  in
  let final_top = 3 and final_runs = 7 in
  let protocol domains =
    let ev, o = searched () in
    Alcotest.(check bool) "db holds the top 3" true (Profiles_db.size (Evaluator.db ev) >= 3);
    let best, runs =
      Driver.final_protocol ~final_top ~final_runs ~domains ev ~search_best:o.Engine.best
        ~search_perf:o.Engine.perf
    in
    (ev, best, runs)
  in
  let reference () =
    let ev, _ = searched () in
    let sc = Exec.scratch (Exec.compile machine g) in
    Exec.set_incremental sc true;
    let run m =
      let seed = Evaluator.reserve_seeds ev 1 in
      match Exec.simulate ~noise_sigma ~seed sc m with
      | Ok r -> r.Exec.per_iteration
      | Error e -> Alcotest.fail (Placement.error_to_string e)
    in
    let cands =
      List.map
        (fun e ->
          let m = e.Profiles_db.mapping in
          let rec go n acc = if n = 0 then acc else go (n - 1) (run m :: acc) in
          (m, go final_runs []))
        (Profiles_db.top (Evaluator.db ev) final_top)
    in
    let best, runs =
      List.fold_left
        (fun ((_, br) as acc) ((_, r) as c) -> if Stats.mean r < Stats.mean br then c else acc)
        (List.hd cands) (List.tl cands)
    in
    (ev, best, runs)
  in
  let ev2, b2, r2 = protocol 2 in
  let ev1, b1, r1 = protocol 1 in
  let evl, bl, rl = reference () in
  let key = Mapping.canonical_key in
  let hexes = List.map hex in
  Alcotest.(check int) "runs per candidate" final_runs (List.length r2);
  Alcotest.(check string) "2 domains = 1 domain: mapping" (key b1) (key b2);
  Alcotest.(check (list string)) "2 domains = 1 domain: runs" (hexes r1) (hexes r2);
  Alcotest.(check string) "1 domain = reference: mapping" (key bl) (key b1);
  Alcotest.(check (list string)) "1 domain = reference: runs" (hexes rl) (hexes r1);
  let after ev = hexes (Evaluator.measure ev ~runs:3 b1) in
  let a2 = after ev2 and a1 = after ev1 and al = after evl in
  Alcotest.(check (list string)) "seed counter: 2 domains = 1" a1 a2;
  Alcotest.(check (list string)) "seed counter: 1 domain = reference" al a1

let suite =
  [
    Alcotest.test_case "sliced = unsliced (CCD, five apps)" `Quick
      test_sliced_equals_unsliced;
    Alcotest.test_case "bad checkpoints are refused" `Quick test_bad_checkpoints;
    Alcotest.test_case "parallel final protocol = sequential" `Quick
      test_parallel_final_protocol;
  ]
