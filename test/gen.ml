(* QCheck generator for random (but always well-formed) workloads,
   used to fuzz the whole pipeline: builder validation, codecs,
   placement, the simulator and the search algorithms. *)

open QCheck

let array_names = [ "alpha"; "beta"; "gamma"; "delta"; "eps" ]

type spec = {
  n_arrays : int;
  n_tasks : int;
  seed : int;
  iterations : int;
  group_size : int;
}

let spec_gen =
  Gen.map5
    (fun n_arrays n_tasks seed iterations group_size ->
      { n_arrays; n_tasks; seed; iterations; group_size })
    (Gen.int_range 1 5) (Gen.int_range 1 6) (Gen.int_range 0 1_000_000)
    (Gen.int_range 1 3) (Gen.int_range 1 6)

(* Build a workload deterministically from the spec via our own Rng so
   shrinking stays meaningful on the integer fields. *)
let build spec =
  let rng = Rng.create spec.seed in
  let arrays =
    List.init spec.n_arrays (fun i ->
        Workload.array_decl
          ~name:(List.nth array_names i)
          ~elems:(float_of_int (1000 + Rng.int rng 100_000))
          ~comps:(1 + Rng.int rng 3)
          ~halo_frac:(if Rng.bool rng then 0.1 else 0.0)
          ())
  in
  let tasks =
    List.init spec.n_tasks (fun i ->
        let n_accesses = 1 + Rng.int rng (min 4 spec.n_arrays) in
        (* distinct arrays per task (duplicate accesses are legal but
           make the overlap clique noisy) *)
        let chosen =
          let all = Array.of_list (List.filteri (fun j _ -> j < spec.n_arrays) array_names) in
          Rng.shuffle rng all;
          Array.to_list (Array.sub all 0 (min n_accesses (Array.length all)))
        in
        let accesses =
          List.map
            (fun a ->
              match Rng.int rng 3 with
              | 0 -> Workload.read ~ghosted:(Rng.bool rng) a
              | 1 -> Workload.write a
              | _ -> Workload.read_write a)
            chosen
        in
        Workload.task_decl
          ~name:(Printf.sprintf "task%d" i)
          ~work_elems:(float_of_int (1000 + Rng.int rng 1_000_000))
          ~flops_per_elem:(float_of_int (1 + Rng.int rng 500))
          ~group_size:spec.group_size
          ~gpu_eff:(0.2 +. Rng.float rng 0.8)
          ~cpu_eff:(0.2 +. Rng.float rng 0.8)
          ~accesses ())
  in
  Workload.build
    ~name:(Printf.sprintf "fuzz%d" spec.seed)
    ~iterations:spec.iterations ~arrays ~tasks

let print_spec spec =
  Printf.sprintf "{arrays=%d tasks=%d seed=%d iters=%d group=%d}" spec.n_arrays
    spec.n_tasks spec.seed spec.iterations spec.group_size

let arbitrary_spec = make ~print:print_spec spec_gen

let graph_of_spec = build

(* ---- machine spec strings ----

   [machine_spec_gen ~valid] draws an argument pair for
   [Presets.of_spec]: a spec string and a node count.  With
   [valid:true] it draws only well-formed specs of small machines
   (legacy presets on 1-4 nodes; grids, tori, fat-trees and direct
   networks of at most 27 nodes, contended or [:free]) — the machines
   the differential simulator oracle runs on.  With [valid:false] it
   also draws malformed ones: bad numbers (zero, negative, non-decimal,
   overflowing, above the generator's node cap), wrong arity, unknown
   families and suffixes, mismatched or nonpositive node counts, and
   short random strings over the spec alphabet.  Sizes stay either
   tiny or far past the cap, so no draw builds a large machine. *)

let legacy_names = [| "shepard"; "lassen"; "testbed"; "cpu_only"; "cpu-only"; "headless" |]

let valid_spec_gen =
  let open Gen in
  let free s = map (fun f -> if f then s ^ ":free" else s) bool in
  let topo =
    oneof
      [
        map2 (fun w h -> Printf.sprintf "grid:%dx%d" w h) (int_range 1 4) (int_range 1 4);
        map2 (fun w h -> Printf.sprintf "torus:%dx%d" w h) (int_range 2 4) (int_range 2 3);
        map2 (fun l a -> Printf.sprintf "fattree:%d:%d" l a) (int_range 1 3) (int_range 2 3);
        map (fun n -> Printf.sprintf "direct:%d" n) (int_range 1 6);
      ]
  in
  frequency
    [
      (1, map2 (fun name nodes -> (name, nodes)) (oneofa legacy_names) (int_range 1 4));
      (3, map (fun s -> (s, 1)) (topo >>= free));
    ]

let bad_number_gen =
  Gen.oneofl
    [
      "0"; "-1"; "-4"; ""; "x"; "1e3"; "0x10"; "0b11"; "+3"; "3_0"; " 2"; "1000001";
      "2147483648"; "4294967296"; "4611686018427387903"; "99999999999999999999";
    ]

let invalid_spec_gen =
  let open Gen in
  let num = frequency [ (2, map string_of_int (int_range 1 4)); (3, bad_number_gen) ] in
  let spec =
    oneof
      [
        map2 (Printf.sprintf "grid:%sx%s") num num;
        map2 (Printf.sprintf "torus:%sx%s") num num;
        map2 (Printf.sprintf "fattree:%s:%s") num num;
        map (Printf.sprintf "direct:%s") num;
        map (Printf.sprintf "grid:%s") num;
        map (Printf.sprintf "fattree:%s") num;
        map3 (Printf.sprintf "fattree:%s:%s:%s") num num num;
        map (Printf.sprintf "ring:%s") num;
        map (fun s -> s ^ ":nope") (map fst valid_spec_gen);
        map (fun s -> s ^ ":free:free") (map fst valid_spec_gen);
        map String.uppercase_ascii (map fst valid_spec_gen);
        oneofl [ ""; ":"; "free"; ":free"; "x"; "grid"; "grid:"; "gridx"; "direct:" ];
        string_size ~gen:(oneofl (List.init 20 (String.get "gridtorusfaex:0123-1")))
          (int_range 0 8);
      ]
  in
  frequency
    [
      (3, pair spec (oneofl [ 1; 1; 1; 2; 0; -1 ]));
      (1, pair (oneofa legacy_names) (oneofl [ 0; -1; -7 ]));
      (1, pair (map fst valid_spec_gen) (oneofl [ 0; -1; 3; 5 ]));
    ]

let machine_spec_gen ~valid =
  if valid then valid_spec_gen
  else Gen.frequency [ (1, valid_spec_gen); (2, invalid_spec_gen) ]

let print_machine_spec (spec, nodes) = Printf.sprintf "%S ~nodes:%d" spec nodes

let arbitrary_machine_spec ~valid =
  make ~print:print_machine_spec (machine_spec_gen ~valid)
