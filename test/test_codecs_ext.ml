(* Machine and task-graph file codecs. *)

let machines_equal (a : Machine.t) (b : Machine.t) =
  a.Machine.name = b.Machine.name
  && a.Machine.nodes = b.Machine.nodes
  && a.Machine.node = b.Machine.node
  && a.Machine.exec_bw = b.Machine.exec_bw
  && a.Machine.compute = b.Machine.compute
  && a.Machine.copy = b.Machine.copy

let test_machine_round_trip () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Machine.name ^ " round-trips")
        true
        (machines_equal m (Machine_codec.round_trip_exn m)))
    [ Presets.shepard ~nodes:2; Presets.lassen ~nodes:4; Presets.testbed ~nodes:1 ]

(* Every preset constructor — including the degenerate cpu_only and the
   deliberately broken headless machine — must survive encode → decode
   at any node count.  %.17g round-trips doubles exactly and the
   processor/memory tables are derived deterministically from the node
   description, so full structural equality is the right check. *)
let all_presets =
  [
    ("shepard", Presets.shepard);
    ("lassen", Presets.lassen);
    ("testbed", Presets.testbed);
    ("cpu_only", Presets.cpu_only);
    ("headless", Presets.headless);
  ]

let qcheck_machine_round_trip =
  QCheck.Test.make ~count:60
    ~name:"machine codec round-trips every preset at any node count"
    QCheck.(
      pair
        (map
           (fun i -> List.nth all_presets (i mod List.length all_presets))
           (int_range 0 (List.length all_presets - 1)))
        (int_range 1 16))
    (fun ((_, mk), nodes) ->
      let m = mk ~nodes in
      Machine_codec.round_trip_exn m = m)

(* Topology presets: the codec serializes the topology as its spec (or
   custom link list) and *regenerates* the route tables at decode time,
   so the decoded machine must be structurally equal and route-identical
   — same distances and same link sequence for every sampled pair. *)
let topo_specs =
  [|
    "grid:4x4"; "grid:8x8"; "grid:1x6"; "torus:4x4"; "torus:3x5"; "fattree:2:3";
    "fattree:3:2"; "direct:4"; "direct:9"; "grid:4x4:free"; "torus:4x4:free";
    "fattree:2:2:free";
  |]

let routes_identical t t' ~src ~dst =
  Topology.distance t ~src ~dst = Topology.distance t' ~src ~dst
  &&
  let path topo =
    let l = ref [] in
    Topology.route_iter topo ~src ~dst ~f:(fun lk -> l := lk.Topology.lid :: !l);
    List.rev !l
  in
  path t = path t'

let qcheck_topology_machine_round_trip =
  QCheck.Test.make ~count:80
    ~name:"machine codec round-trips topology presets (routes regenerated)"
    QCheck.(triple (int_bound (Array.length topo_specs - 1)) small_nat small_nat)
    (fun (i, a, b) ->
      let spec = topo_specs.(i) in
      let m =
        match Presets.of_spec spec ~nodes:1 with
        | Ok m -> m
        | Error e -> QCheck.Test.fail_reportf "of_spec %s: %s" spec e
      in
      let m' = Machine_codec.round_trip_exn m in
      machines_equal m m'
      &&
      match (m.Machine.topology, m'.Machine.topology) with
      | Some t, Some t' ->
          Topology.equal_structure t t'
          &&
          let n = Topology.n_nodes t in
          routes_identical t t' ~src:(a mod n) ~dst:(b mod n)
      | _ -> false)

let test_custom_topology_round_trip () =
  (* Custom topologies serialize their explicit link list (topolink
     stanzas); the per-destination next-hop tables are rebuilt, so a
     decode must reproduce every route. *)
  let topo =
    Topology.custom ~name:"ring4" ~n_nodes:4
      ~links:
        [ (0, 1, 2e9, 1e-6); (1, 2, 2e9, 1e-6); (2, 3, 2e9, 1e-6); (3, 0, 2e9, 1e-6) ]
      ()
  in
  let m =
    let base = Presets.testbed ~nodes:4 in
    Machine.make ~name:"ring-machine" ~nodes:4 ~node:base.Machine.node
      ~exec_bw:base.Machine.exec_bw ~compute:base.Machine.compute
      ~copy:base.Machine.copy ~topology:topo ()
  in
  let text = Machine_codec.to_string m in
  Alcotest.(check bool)
    "route tables are not serialized" false
    (Str_helpers.contains text "route");
  let m' = Machine_codec.round_trip_exn m in
  Alcotest.(check bool) "machine fields survive" true (machines_equal m m');
  match (m.Machine.topology, m'.Machine.topology) with
  | Some t, Some t' ->
      Alcotest.(check bool) "structure survives" true (Topology.equal_structure t t');
      for src = 0 to 3 do
        for dst = 0 to 3 do
          Alcotest.(check bool)
            (Printf.sprintf "route %d->%d identical" src dst)
            true
            (routes_identical t t' ~src ~dst)
        done
      done
  | _ -> Alcotest.fail "topology lost in round trip"

let test_machine_parse_errors () =
  let check_error input frag =
    match Machine_codec.of_string input with
    | Ok _ -> Alcotest.fail "expected error"
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" e frag)
          true (Str_helpers.contains e frag)
  in
  check_error "nonsense stanza" "unknown stanza";
  check_error "machine X nodes=two" "bad integer";
  check_error "machine X nodes=1" "missing";
  let valid = Machine_codec.to_string (Presets.testbed ~nodes:1) in
  check_error (valid ^ "\nmachine Y nodes=1") "duplicate"

let test_machine_comments () =
  let s = "# hello\n" ^ Machine_codec.to_string (Presets.testbed ~nodes:1) in
  match Machine_codec.of_string s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_machine_validation_propagates () =
  let s =
    Machine_codec.to_string (Presets.testbed ~nodes:1)
    |> String.split_on_char '\n'
    |> List.map (fun l ->
           if String.length l > 4 && String.sub l 0 4 = "node" then
             "node sockets=0 cores_per_socket=1 gpus=1 sysmem=1e9 zc=1e9 fb=1e9"
           else l)
    |> String.concat "\n"
  in
  match Machine_codec.of_string s with
  | Error e -> Alcotest.(check bool) "mentions sockets" true (Str_helpers.contains e "sockets")
  | Ok _ -> Alcotest.fail "expected validation error"

let graphs_equal (a : Graph.t) (b : Graph.t) =
  Graph.n_tasks a = Graph.n_tasks b
  && Graph.n_collections a = Graph.n_collections b
  && List.length a.Graph.edges = List.length b.Graph.edges
  && a.Graph.overlaps = b.Graph.overlaps
  && a.Graph.iterations = b.Graph.iterations
  && List.for_all2
       (fun (x : Graph.task) (y : Graph.task) ->
         x.Graph.tname = y.Graph.tname
         && x.Graph.group_size = y.Graph.group_size
         && x.Graph.variants = y.Graph.variants
         && x.Graph.flops = y.Graph.flops
         && List.for_all2
              (fun (c : Graph.collection) (d : Graph.collection) ->
                c.Graph.cname = d.Graph.cname
                && c.Graph.bytes = d.Graph.bytes
                && Mode.equal c.Graph.mode d.Graph.mode)
              x.Graph.args y.Graph.args)
       (Array.to_list a.Graph.tasks)
       (Array.to_list b.Graph.tasks)

let test_graph_round_trip_fixtures () =
  let g1, _, _, _, _ = Fixtures.pipeline () in
  let g2, _, _ = Fixtures.shared_halo () in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (g.Graph.gname ^ " round-trips")
        true
        (graphs_equal g (Graph_codec.round_trip_exn g)))
    [ g1; g2 ]

let test_graph_round_trip_apps () =
  (* the big generated graphs round-trip too, including all edges *)
  List.iter
    (fun g ->
      let g' = Graph_codec.round_trip_exn g in
      Alcotest.(check bool) (g.Graph.gname ^ " equal") true (graphs_equal g g');
      Alcotest.(check int)
        (g.Graph.gname ^ " edges")
        (List.length g.Graph.edges)
        (List.length g'.Graph.edges))
    [
      App.circuit.App.graph ~nodes:1 ~input:"n50w200";
      App.pennant.App.graph ~nodes:1 ~input:"320x90";
    ]

let test_graph_simulates_identically () =
  (* a round-tripped graph must simulate to the same makespan *)
  let machine = Presets.shepard ~nodes:1 in
  let g = App.htr.App.graph ~nodes:1 ~input:"8x8y9z" in
  let g' = Graph_codec.round_trip_exn g in
  let time graph =
    match Exec.run ~noise_sigma:0.0 machine graph (Mapping.default_start graph machine) with
    | Ok r -> r.Exec.makespan
    | Error e -> Alcotest.fail (Placement.error_to_string e)
  in
  Alcotest.(check (float 1e-12)) "same makespan" (time g) (time g')

let test_graph_parse_errors () =
  let check_error input frag =
    match Graph_codec.of_string input with
    | Ok _ -> Alcotest.fail "expected error"
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" e frag)
          true (Str_helpers.contains e frag)
  in
  check_error "" "no graph header";
  check_error "task t group=1 flops=1" "header must come first";
  check_error "graph g\ntask t group=1 flops=1 variants=TPU" "bad processor kind";
  check_error "graph g\narg nope x bytes=1 mode=R" "unknown task";
  check_error "graph g\ntask t group=1 flops=1\narg t x bytes=1 mode=Q" "bad mode";
  check_error
    "graph g\ntask t group=1 flops=1\narg t x bytes=1 mode=W\ndep t x t y" "unknown argument"

let test_graph_minimal_example () =
  let s =
    "graph tiny iterations=2\n\
     task a group=2 flops=1e6\n\
     arg a out bytes=1e6 mode=RW\n\
     task b group=2 flops=1e6\n\
     arg b in bytes=1e6 mode=RW\n\
     dep a out b in pattern=halo:0.25\n\
     dep b in a out carried=true\n\
     overlap a out b in bytes=5e5\n"
  in
  match Graph_codec.of_string s with
  | Ok g ->
      Alcotest.(check int) "tasks" 2 (Graph.n_tasks g);
      Alcotest.(check int) "iterations" 2 g.Graph.iterations;
      Alcotest.(check int) "edges" 2 (List.length g.Graph.edges);
      let carried = List.filter (fun (e : Graph.edge) -> e.Graph.carried) g.Graph.edges in
      Alcotest.(check int) "one carried" 1 (List.length carried)
  | Error e -> Alcotest.fail e

(* Rewrite [key]'s value on every line whose first word is [stanza].
   Fails the test when no token changed, so a renamed field cannot make
   a case below pass vacuously. *)
let set_field text ~stanza ~key value =
  let prefix = key ^ "=" in
  let changed = ref false in
  let text =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | first :: rest when first = stanza ->
               String.concat " "
                 (first
                 :: List.map
                      (fun tok ->
                        if String.starts_with ~prefix tok then begin
                          changed := true;
                          prefix ^ value
                        end
                        else tok)
                      rest)
           | _ -> line)
    |> String.concat "\n"
  in
  if not !changed then Alcotest.failf "no %s field %s to rewrite" stanza key;
  text

let non_finite = [ "nan"; "inf"; "-inf" ]

let test_machine_non_finite () =
  (* every float field of a machine file: NaN passes a [<= 0.0] range
     check, and the unchecked ones (latencies, GPU rates of GPU-less
     nodes) used to decode into machines whose simulated makespans
     disagreed with the reference interpreter *)
  let fields =
    [
      ("node", [ "sysmem"; "zc"; "fb" ]);
      ("exec_bw", [ "cpu_sys"; "cpu_zc"; "gpu_fb"; "gpu_zc" ]);
      ("compute", [ "cpu_flops"; "gpu_flops"; "cpu_launch"; "gpu_launch"; "dispatch" ]);
      ( "copy",
        [ "memcpy"; "cross_socket"; "pcie"; "gpu_peer"; "local_latency"; "net_bw";
          "net_latency" ] );
    ]
  in
  let custom =
    let base = Presets.shepard ~nodes:2 in
    Machine.make ~name:"pair" ~nodes:2 ~node:base.Machine.node
      ~exec_bw:base.Machine.exec_bw ~compute:base.Machine.compute ~copy:base.Machine.copy
      ~topology:
        (Topology.custom ~name:"pair" ~n_nodes:2
           ~links:[ (0, 1, 2e9, 1e-6); (1, 0, 2e9, 1e-6) ]
           ())
      ()
  in
  let grid =
    match Presets.of_spec "grid:2x2" ~nodes:1 with Ok m -> m | Error e -> Alcotest.fail e
  in
  let cases =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun (stanza, keys) -> List.map (fun key -> (m, stanza, key)) keys)
          fields)
      [ Presets.shepard ~nodes:4; Presets.cpu_only ~nodes:2 ]
    @ [
        (grid, "topology", "bw");
        (grid, "topology", "lat");
        (custom, "topolink", "bw");
        (custom, "topolink", "lat");
      ]
  in
  List.iter
    (fun ((m : Machine.t), stanza, key) ->
      let text = Machine_codec.to_string m in
      List.iter
        (fun v ->
          let name = Printf.sprintf "%s %s %s=%s" m.Machine.name stanza key v in
          match Machine_codec.of_string (set_field text ~stanza ~key v) with
          | Ok _ -> Alcotest.failf "%s decoded" name
          | Error _ -> ()
          | exception e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e))
        non_finite)
    cases

let test_graph_non_finite () =
  let text =
    "graph tiny iterations=2\n\
     task a group=2 flops=1e6 cpu_eff=0.5 gpu_eff=0.5\n\
     arg a out bytes=1e6 mode=RW\n\
     task b group=2 flops=1e6\n\
     arg b in bytes=1e6 mode=RW\n\
     dep a out b in pattern=halo:0.25 bytes=2e5\n\
     overlap a out b in bytes=5e5\n"
  in
  (match Graph_codec.of_string text with Ok _ -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun (stanza, key, value) ->
      List.iter
        (fun v ->
          let v = value v in
          let name = Printf.sprintf "%s %s=%s" stanza key v in
          match Graph_codec.of_string (set_field text ~stanza ~key v) with
          | Ok _ -> Alcotest.failf "%s decoded" name
          | Error _ -> ()
          | exception e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e))
        non_finite)
    [
      ("task", "flops", Fun.id);
      ("task", "cpu_eff", Fun.id);
      ("task", "gpu_eff", Fun.id);
      ("arg", "bytes", Fun.id);
      ("dep", "bytes", Fun.id);
      ("dep", "pattern", fun v -> "halo:" ^ v);
      ("overlap", "bytes", Fun.id);
    ]

let suite =
  [
    Alcotest.test_case "machine round trip" `Quick test_machine_round_trip;
    QCheck_alcotest.to_alcotest qcheck_machine_round_trip;
    QCheck_alcotest.to_alcotest qcheck_topology_machine_round_trip;
    Alcotest.test_case "custom topology round trip" `Quick
      test_custom_topology_round_trip;
    Alcotest.test_case "machine parse errors" `Quick test_machine_parse_errors;
    Alcotest.test_case "machine comments" `Quick test_machine_comments;
    Alcotest.test_case "machine validation" `Quick test_machine_validation_propagates;
    Alcotest.test_case "graph round trip" `Quick test_graph_round_trip_fixtures;
    Alcotest.test_case "graph round trip apps" `Quick test_graph_round_trip_apps;
    Alcotest.test_case "graph same simulation" `Quick test_graph_simulates_identically;
    Alcotest.test_case "graph parse errors" `Quick test_graph_parse_errors;
    Alcotest.test_case "graph minimal example" `Quick test_graph_minimal_example;
    Alcotest.test_case "machine non-finite numbers refused" `Quick
      test_machine_non_finite;
    Alcotest.test_case "graph non-finite numbers refused" `Quick test_graph_non_finite;
  ]
