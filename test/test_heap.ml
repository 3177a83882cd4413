let test_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  Alcotest.(check (option (pair (float 0.0) string))) "peek min" (Some (1.0, "a")) (Heap.peek h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (Heap.pop h);
  Alcotest.(check bool) "drained" true (Heap.pop h = None)

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ] order

let test_interleaved () =
  let h = Heap.create () in
  Heap.push h 5.0 5;
  Heap.push h 1.0 1;
  Alcotest.(check (option (pair (float 0.0) int))) "min" (Some (1.0, 1)) (Heap.pop h);
  Heap.push h 0.5 0;
  Heap.push h 3.0 3;
  Alcotest.(check (option (pair (float 0.0) int))) "new min" (Some (0.5, 0)) (Heap.pop h);
  Alcotest.(check int) "length" 2 (Heap.length h)

let test_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 ();
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  (* clear keeps the heap usable without regrowing from scratch *)
  Heap.push h 2.0 ();
  Alcotest.(check int) "reusable after clear" 1 (Heap.length h)

let test_reset_rewinds_ties () =
  (* after reset, tie-breaking must behave exactly like a fresh heap:
     entries pushed before the reset cannot shadow new sequence
     numbers *)
  let run_ties h =
    List.iter (fun v -> Heap.push h 1.0 v) [ "a"; "b"; "c" ];
    List.init 3 (fun _ -> snd (Option.get (Heap.pop h)))
  in
  let h = Heap.create () in
  let first = run_ties h in
  Heap.reset h;
  let second = run_ties h in
  Alcotest.(check (list string)) "same order after reset" first second

module Q = Exec.Event_queue

let drain_event_queue h =
  let rec go acc =
    if Q.is_empty h then List.rev acc
    else begin
      let p = Q.top_prio h in
      let v = Q.pop h in
      go ((p, v) :: acc)
    end
  in
  go []

let test_event_queue_ordering_and_ties () =
  let h = Q.create ~capacity:2 () in
  List.iter (fun (p, v) -> Q.push h p v) [ (3.0, 30); (1.0, 10); (1.0, 11); (2.0, 20) ];
  Alcotest.(check (list (pair (float 0.0) int)))
    "sorted, FIFO on ties"
    [ (1.0, 10); (1.0, 11); (2.0, 20); (3.0, 30) ]
    (drain_event_queue h);
  Q.reset h;
  Alcotest.(check bool) "empty after reset" true (Q.is_empty h)

let prop_event_queue_matches_heap =
  QCheck.Test.make ~name:"event queue pops in the same order as the boxed heap"
    QCheck.(list (pair (float_range 0.0 100.0) small_nat))
    (fun entries ->
      let fh = Q.create () and h = Heap.create () in
      List.iter
        (fun (p, v) ->
          Q.push fh p v;
          Heap.push h p v)
        entries;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, v) -> drain ((p, v) :: acc)
      in
      drain [] = drain_event_queue fh)

(* A simulator-shaped script: each pop pushes 0-3 follow-ups, most at
   the popped instant itself (the lane's case), some later, and — with
   [backwards] — a few below it, which the simulator never does but the
   queue must still order.  [push]/[top_prio]/[pop] run one queue; the
   result is the (prio, payload) pop sequence and the number of pops
   before [top_prio] first reached [cutoff] ([-1]: never). *)
let drive ~seed ~backwards ~cutoff push top_prio pop is_empty =
  let rng = Rng.create seed in
  let next = ref 0 in
  let push_new t =
    push t !next;
    incr next
  in
  for _ = 1 to 1 + Rng.int rng 8 do
    push_new (if Rng.int rng 3 = 0 then float_of_int (Rng.int rng 3) else 0.0)
  done;
  let pops = ref [] and cut_at = ref (-1) and n = ref 0 in
  while not (is_empty ()) do
    let t = top_prio () in
    if !cut_at < 0 && t >= cutoff then cut_at := !n;
    let v = pop () in
    pops := (t, v) :: !pops;
    incr n;
    if !next < 400 then
      for _ = 1 to Rng.int rng 4 do
        let dt =
          match Rng.int rng 10 with
          | 0 -> 1.0
          | 1 -> 0.25
          | 2 -> float_of_int (1 + Rng.int rng 5)
          | 3 when backwards -> -0.5
          | _ -> 0.0
        in
        push_new (t +. dt)
      done
  done;
  (List.rev !pops, !cut_at)

let prop_event_queue_lane_order =
  QCheck.Test.make ~count:300
    ~name:"two-lane event queue pops in plain-heap (prio, seq) order; cuts agree"
    QCheck.(triple small_nat bool (float_range 0.0 12.0))
    (fun (seed, backwards, cutoff) ->
      let q = Q.create ~capacity:1 () in
      let lane =
        drive ~seed ~backwards ~cutoff (Q.push q)
          (fun () -> Q.top_prio q)
          (fun () -> Q.pop q)
          (fun () -> Q.is_empty q)
      in
      let h = Heap.create () in
      let plain =
        drive ~seed ~backwards ~cutoff (Heap.push h)
          (fun () -> fst (Option.get (Heap.peek h)))
          (fun () -> snd (Option.get (Heap.pop h)))
          (fun () -> Heap.is_empty h)
      in
      (* after a reset the same script must pop the same way again *)
      Q.reset q;
      let again =
        drive ~seed ~backwards ~cutoff (Q.push q)
          (fun () -> Q.top_prio q)
          (fun () -> Q.pop q)
          (fun () -> Q.is_empty q)
      in
      lane = plain && again = plain)

let test_event_queue_lane_counts () =
  (* pushes at the current instant skip the heap; a push at [now] after
     a heap entry at [now] still pops after it *)
  let q = Q.create () in
  Q.push q 0.0 1;
  Q.push q 2.0 2;
  Q.push q 2.0 3;
  Alcotest.(check int) "lane first" 1 (Q.pop q);
  Alcotest.(check int) "heap at 2.0" 2 (Q.pop q);
  Q.push q 2.0 4;
  Alcotest.(check (float 0.0)) "heap entry at now" 2.0 (Q.top_prio q);
  Alcotest.(check int) "older heap entry before the lane" 3 (Q.pop q);
  Alcotest.(check int) "then the lane" 4 (Q.pop q);
  Alcotest.(check bool) "drained" true (Q.is_empty q);
  Alcotest.(check (pair int int)) "lane/heap pops" (2, 2) (Q.lane_pops q, Q.heap_pops q)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in non-decreasing priority order"
    QCheck.(list (float_range 0.0 1e6))
    (fun ps ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p p) ps;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare ps)

let prop_heap_length =
  QCheck.Test.make ~name:"length tracks pushes and pops"
    QCheck.(list (float_range 0.0 100.0))
    (fun ps ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h p ()) ps;
      let n = List.length ps in
      Heap.length h = n
      &&
      (ignore (Heap.pop h);
       Heap.length h = max 0 (n - 1)))

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
    Alcotest.test_case "interleaved" `Quick test_interleaved;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "reset rewinds ties" `Quick test_reset_rewinds_ties;
    Alcotest.test_case "event queue ordering and ties" `Quick
      test_event_queue_ordering_and_ties;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_length;
    QCheck_alcotest.to_alcotest prop_event_queue_matches_heap;
    Alcotest.test_case "event queue lane counts" `Quick test_event_queue_lane_counts;
    QCheck_alcotest.to_alcotest prop_event_queue_lane_order;
  ]
