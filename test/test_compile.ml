(* Golden determinism of the compiled simulator (Exec.compile /
   Exec.simulate): for the same seed it must reproduce the reference
   interpreter bit-for-bit, across all five apps; and Parallel.map
   must keep input order and surface job failures. *)

let exact = Alcotest.float 0.0

let check_results name (a : Exec.result) (b : Exec.result) =
  Alcotest.(check exact) (name ^ ": makespan") a.Exec.makespan b.Exec.makespan;
  Alcotest.(check exact) (name ^ ": per_iteration") a.Exec.per_iteration b.Exec.per_iteration;
  Alcotest.(check exact) (name ^ ": bytes_moved") a.Exec.bytes_moved b.Exec.bytes_moved;
  Alcotest.(check int) (name ^ ": n_copies") a.Exec.n_copies b.Exec.n_copies;
  Alcotest.(check int) (name ^ ": demotions") a.Exec.demotions b.Exec.demotions;
  Alcotest.(check (array exact)) (name ^ ": channel_bytes") a.Exec.channel_bytes
    b.Exec.channel_bytes;
  Alcotest.(check (array exact)) (name ^ ": task_times") a.Exec.task_times b.Exec.task_times;
  Alcotest.(check (array exact)) (name ^ ": proc_busy") a.Exec.proc_busy b.Exec.proc_busy

let ok name = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" name (Placement.error_to_string e)

let seeds = [ 0; 3; 11 ]

(* one scratch per (machine, graph), reused across every mapping, seed
   and sigma below — exactly how the evaluator drives it *)
let check_app machine (app : App.t) =
  let input = List.hd (app.App.inputs ~nodes:machine.Machine.nodes) in
  let g = app.App.graph ~nodes:machine.Machine.nodes ~input in
  let sc = Exec.scratch (Exec.compile machine g) in
  let mappings =
    [
      ("default", Mapping.default_start g machine);
      ("custom", app.App.custom g machine);
      ("all_cpu", Mapping.all_cpu g machine);
    ]
  in
  List.iter
    (fun (mname, mapping) ->
      List.iter
        (fun seed ->
          List.iter
            (fun noise_sigma ->
              let name =
                Printf.sprintf "%s/%s seed=%d sigma=%.2f" app.App.app_name mname seed
                  noise_sigma
              in
              match
                ( Exec.run_reference ~noise_sigma ~seed ~fallback:true machine g mapping,
                  Exec.simulate ~noise_sigma ~seed ~fallback:true sc mapping )
              with
              | Ok a, Ok b -> check_results name a b
              | Error ea, Error eb ->
                  Alcotest.(check string)
                    (name ^ ": same error")
                    (Placement.error_to_string ea)
                    (Placement.error_to_string eb)
              | Ok _, Error e | Error e, Ok _ ->
                  Alcotest.failf "%s: one side failed: %s" name
                    (Placement.error_to_string e))
            [ 0.0; 0.03 ])
        seeds)
    mappings

let test_apps_golden () =
  let machine = Presets.shepard ~nodes:2 in
  List.iter (check_app machine) App.all

let test_fixture_golden_iterations () =
  (* scratch reuse across changing iteration counts, including growth *)
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.shared_halo ~iterations:2 () in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m = Mapping.default_start g machine in
  List.iter
    (fun iterations ->
      let name = Printf.sprintf "shared_halo iters=%d" iterations in
      let a = ok name (Exec.run_reference ~seed:7 ~iterations machine g m) in
      let b = ok name (Exec.simulate ~seed:7 ~iterations sc m) in
      check_results name a b)
    [ 2; 7; 1; 4 ]

let test_run_matches_reference () =
  (* the compatibility wrapper is the compiled path *)
  let machine = Fixtures.default_machine () in
  let g, _, _, _, inp = Fixtures.pipeline ~iterations:3 () in
  let m = Mapping.set_mem (Mapping.default_start g machine) inp Kinds.Zero_copy in
  let a = ok "run" (Exec.run ~seed:5 machine g m) in
  let b = ok "reference" (Exec.run_reference ~seed:5 machine g m) in
  check_results "wrapper" a b

let test_result_arrays_fresh () =
  (* results returned by earlier simulate calls must survive later ones *)
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.shared_halo () in
  let sc = Exec.scratch (Exec.compile machine g) in
  let m = Mapping.default_start g machine in
  let a = ok "first" (Exec.simulate ~seed:1 sc m) in
  let snapshot = Array.copy a.Exec.task_times in
  let _b = ok "second" (Exec.simulate ~seed:2 sc m) in
  Alcotest.(check (array exact)) "first result untouched" snapshot a.Exec.task_times

let test_evaluator_unchanged () =
  (* the compiled evaluator must score candidates exactly as the
     reference protocol (run_reference with the evaluator's seed
     schedule: seed * 1_000_003 + k for the k-th execution) *)
  let machine = Fixtures.default_machine () in
  let g, _, _ = Fixtures.shared_halo () in
  let m = Mapping.default_start g machine in
  let runs = 4 and seed = 9 in
  let ev = Evaluator.create ~runs ~seed machine g in
  let got = Evaluator.evaluate ev m in
  let expected =
    let times =
      List.init runs (fun k ->
          let seed = (seed * 1_000_003) + k + 1 in
          match Exec.run_reference ~noise_sigma:0.03 ~seed machine g m with
          | Ok r -> r.Exec.per_iteration
          | Error e -> Alcotest.fail (Placement.error_to_string e))
    in
    (* the evaluator averages newest-first; float addition order matters
       for exactness *)
    Stats.mean (List.rev times)
  in
  Alcotest.(check exact) "evaluator objective" expected got

let test_parallel_map_order () =
  let jobs = List.init 17 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in input order"
    (List.init 17 (fun i -> i * i))
    (Parallel.map ~domains:4 jobs)

let test_parallel_map_exception () =
  let jobs =
    List.init 6 (fun i () -> if i = 3 then failwith "boom" else i)
  in
  match Parallel.map ~domains:3 jobs with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "propagated" "boom" msg

(* ---------------------------------------------------------------- *)
(* Differential oracle: the compiled loop against run_reference on    *)
(* random graphs, random machine specs (the spec-string generator's   *)
(* well-formed half) and random mappings.  sigma = 0 makes exact      *)
(* timestamp ties common, which is where the event queue's lane and   *)
(* FIFO tie-breaks matter.  Each case runs a mapping, a one-coordinate *)
(* neighbour of it (so the replay scratch admits a clean prefix), an  *)
(* unrelated mapping and the first again, on a scratch with           *)
(* incremental replay on and one with it off, and compares every      *)
(* result with the reference bit for bit ([%h]).  A random cutoff     *)
(* must cut exactly when the reference makespan reaches it, at the    *)
(* same time on both scratches.                                       *)
(* ---------------------------------------------------------------- *)

type oracle_case = {
  graph : Gen.spec;
  machine : string * int;
  mseed : int;
  sigma : float;
  fallback : bool;
  cut_frac : float;
  seed : int;
}

let oracle_case_gen =
  let open QCheck.Gen in
  let* graph = Gen.spec_gen in
  let* machine = Gen.machine_spec_gen ~valid:true in
  let* mseed = int_range 0 1_000_000 in
  let* sigma = oneofl [ 0.0; 0.03 ] in
  let* fallback = bool in
  let* cut_frac = frequency [ (1, return 1.0); (3, float_range 0.3 1.5) ] in
  let+ seed = int_range 0 50 in
  { graph; machine; mseed; sigma; fallback; cut_frac; seed }

let print_oracle_case c =
  Printf.sprintf "%s on %s, mapping seed %d, sigma %g, fallback %b, cutoff x%g, seed %d"
    (Gen.print_spec c.graph)
    (Gen.print_machine_spec c.machine)
    c.mseed c.sigma c.fallback c.cut_frac c.seed

let hex = Printf.sprintf "%h"

let same_result (a : Exec.result) (b : Exec.result) =
  let hexes xs = Array.map hex xs in
  hex a.Exec.makespan = hex b.Exec.makespan
  && hex a.Exec.per_iteration = hex b.Exec.per_iteration
  && hex a.Exec.bytes_moved = hex b.Exec.bytes_moved
  && a.Exec.n_copies = b.Exec.n_copies
  && a.Exec.demotions = b.Exec.demotions
  && hexes a.Exec.task_times = hexes b.Exec.task_times
  && hexes a.Exec.proc_busy = hexes b.Exec.proc_busy
  && hexes a.Exec.channel_bytes = hexes b.Exec.channel_bytes

let prop_compiled_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"compiled loop = reference on random graphs, machines and mappings"
    (QCheck.make ~print:print_oracle_case oracle_case_gen)
    (fun c ->
      let g = Gen.graph_of_spec c.graph in
      let spec, nodes = c.machine in
      let machine =
        match Presets.of_spec spec ~nodes with
        | Ok m -> m
        | Error e -> QCheck.Test.fail_reportf "well-formed spec refused: %s" e
      in
      let space = Space.make g machine in
      let rng = Rng.create c.mseed in
      let m1 = Space.random_mapping space rng in
      let m2 = Space.random_mapping space rng in
      let neighbour =
        let cid = Rng.int rng (Graph.n_collections g) in
        Mapping.set_mem m1 cid (Mapping.mem_of m2 cid)
      in
      let prob = Exec.compile machine g in
      let replay = Exec.scratch prob and plain = Exec.scratch prob in
      Exec.set_incremental plain false;
      let noise_sigma = c.sigma and seed = c.seed and fallback = c.fallback in
      let agree what m =
        let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) what in
        let reference = Exec.run_reference ~noise_sigma ~seed ~fallback machine g m in
        let on sc = Exec.simulate ~noise_sigma ~seed ~fallback sc m in
        (match (reference, on replay, on plain) with
        | Ok r, Ok a, Ok b ->
            if not (same_result r a) then fail "replay scratch differs from reference";
            if not (same_result r b) then fail "plain scratch differs from reference";
            let cutoff = r.Exec.makespan *. c.cut_frac in
            let bounded sc =
              Exec.simulate_bounded ~noise_sigma ~seed ~fallback ~cutoff sc m
            in
            (match (bounded replay, bounded plain) with
            | Ok (Exec.Cut ta), Ok (Exec.Cut tb) ->
                if r.Exec.makespan < cutoff then fail "cut below the cutoff";
                if hex ta <> hex tb then fail "cut times differ: %h vs %h" ta tb;
                if ta < cutoff || ta > r.Exec.makespan then fail "cut at %h" ta
            | Ok (Exec.Finished a), Ok (Exec.Finished b) ->
                if r.Exec.makespan >= cutoff then fail "no cut at the cutoff";
                if not (same_result r a && same_result r b) then
                  fail "bounded run differs from reference"
            | _ -> fail "bounded runs disagree")
        | Error e, Error ea, Error eb ->
            let s = Placement.error_to_string in
            if s e <> s ea || s e <> s eb then fail "different errors"
        | _ -> fail "one side failed");
        true
      in
      agree "first" m1 && agree "neighbour" neighbour && agree "unrelated" m2
      && agree "first again" m1)

let suite =
  [
    Alcotest.test_case "five apps: simulate == reference" `Slow test_apps_golden;
    Alcotest.test_case "scratch reuse across iteration counts" `Quick
      test_fixture_golden_iterations;
    Alcotest.test_case "run wrapper matches reference" `Quick test_run_matches_reference;
    Alcotest.test_case "result arrays are fresh per simulate" `Quick
      test_result_arrays_fresh;
    Alcotest.test_case "evaluator protocol unchanged" `Quick test_evaluator_unchanged;
    Alcotest.test_case "parallel map preserves order" `Quick test_parallel_map_order;
    Alcotest.test_case "parallel map propagates exceptions" `Quick
      test_parallel_map_exception;
    QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
  ]
