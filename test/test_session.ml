(* One search session: Driver.run and the serve daemon's slice driver
   build and resume a search through Driver.session.  Two consequences
   are checked here:

   - a search chopped into slices takes the unsliced trajectory exactly
     (every Eval event, the best mapping, its bit-exact perf and the
     trial count);
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

let sliced ~slice_trials c m g =
  let evs, on_event = recorder () in
  let slices = ref 1 in
  let rec go = function
    | Error e -> Alcotest.failf "slice %d: %s" !slices e
    | Ok (Slice.Finished f, _) -> f
    | Ok (Slice.Paused p, _) ->
        incr slices;
        go (Slice.resume ~on_event ~slice_trials c m g ~ckpt:p.Slice.ckpt)
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
            (fun slice_trials ->
              let name =
                Printf.sprintf "%s batch=%b slice=%d" app.App.app_name batch slice_trials
              in
              let f, sevs, slices = sliced ~slice_trials c m g in
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
            [ 7; 40 ])
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

let suite =
  [
    Alcotest.test_case "sliced = unsliced (CCD, five apps)" `Quick
      test_sliced_equals_unsliced;
    Alcotest.test_case "bad checkpoints are refused" `Quick test_bad_checkpoints;
  ]
