let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* advancing the copy does not affect the original *)
  let before = Rng.copy a in
  ignore (Rng.bits64 b);
  Alcotest.(check int64) "original unaffected" (Rng.bits64 before) (Rng.bits64 a)

let test_split_diverges () =
  let a = Rng.create 3 in
  let child = Rng.split a in
  let x = Rng.bits64 a and y = Rng.bits64 child in
  Alcotest.(check bool) "parent and child streams differ" true (x <> y)

let test_int_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_int_invalid () =
  let r = Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_float_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_float_mean () =
  let r = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float r 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "uniform mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_gaussian_moments () =
  let r = Rng.create 17 in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.gaussian r in
    sum := !sum +. v;
    sumsq := !sumsq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (abs_float mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (abs_float (var -. 1.0) < 0.08)

let test_lognormal_median () =
  let r = Rng.create 19 in
  let n = 10_001 in
  let vs = List.init n (fun _ -> Rng.lognormal r ~sigma:0.1) in
  let med = Stats.median vs in
  Alcotest.(check bool) "median near 1.0" true (abs_float (med -. 1.0) < 0.02);
  List.iter (fun v -> Alcotest.(check bool) "positive" true (v > 0.0)) vs

let test_choose () =
  let r = Rng.create 23 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.choose r a) a)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose r [||]))

let test_shuffle_permutation () =
  let r = Rng.create 29 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let prop_int_uniformish =
  QCheck.Test.make ~name:"rng int covers full range"
    QCheck.(int_bound 1000)
    (fun seed ->
      let r = Rng.create seed in
      let seen = Array.make 4 false in
      for _ = 1 to 200 do
        seen.(Rng.int r 4) <- true
      done;
      Array.for_all Fun.id seen)

(* The bulk fill is the simulator's noise source: it must reproduce the
   one-draw stream bit for bit and leave the generator in the same
   state, whatever the seed, sigma, buffer offset and length — and touch
   nothing outside its range. *)
let prop_fill_lognormal_identity =
  QCheck.Test.make ~count:300 ~name:"fill_lognormal = repeated lognormal, bit for bit"
    QCheck.(
      quad int (float_range 0.0 2.0) (int_bound 40) (pair (int_bound 300) (int_bound 40)))
    (fun (seed, sigma, skip, (len, pos)) ->
      let a = Rng.create seed and b = Rng.create seed in
      (* start both streams somewhere past the seed *)
      for _ = 1 to skip do
        ignore (Rng.bits64 a);
        ignore (Rng.bits64 b)
      done;
      let buf = Array.make (pos + len + 3) nan in
      Rng.fill_lognormal a ~sigma buf ~pos ~len;
      let expected = Array.init len (fun _ -> Rng.lognormal b ~sigma) in
      let bits = Int64.bits_of_float in
      let ok = ref (Rng.state a = Rng.state b) in
      Array.iteri (fun i x -> if bits buf.(pos + i) <> bits x then ok := false) expected;
      for i = 0 to pos - 1 do
        if not (Float.is_nan buf.(i)) then ok := false
      done;
      for i = pos + len to Array.length buf - 1 do
        if not (Float.is_nan buf.(i)) then ok := false
      done;
      !ok)

let test_fill_lognormal_bounds () =
  let r = Rng.create 1 in
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Rng.fill_lognormal: range out of bounds") (fun () ->
      Rng.fill_lognormal r ~sigma:0.1 (Array.make 4 0.0) ~pos:2 ~len:3)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "copy" `Quick test_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int invalid" `Quick test_int_invalid;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "lognormal median" `Quick test_lognormal_median;
    Alcotest.test_case "choose" `Quick test_choose;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_int_uniformish;
    QCheck_alcotest.to_alcotest prop_fill_lognormal_identity;
    Alcotest.test_case "fill_lognormal bounds" `Quick test_fill_lognormal_bounds;
  ]
