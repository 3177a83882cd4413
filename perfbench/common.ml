(* Shared plumbing of the benchmark passes: clocks, the per-pass JSON
   record, non-vacuous identity checks and small statistics.

   A pass prints exactly one JSON object as its last stdout line;
   run.py aggregates the passes of a run into the benchmark's result. *)

let now = Unix.gettimeofday

(* ---- JSON ------------------------------------------------------------- *)

(* [Wire.to_string] prints non-finite numbers as [null]; the failure
   they stand for is counted separately, never hidden. *)
let num f = Wire.Num f
let int i = Wire.Num (float_of_int i)
let str s = Wire.Str s

(* ---- correctness ------------------------------------------------------ *)

(* Every failed check of the pass, in order.  A non-empty list makes the
   run report [correct: false]. *)
let failures : string list ref = ref []

let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

(* One answer of a search or a request: the mapping's canonical key and
   its perf, compared as a [%h] string so equality is bit-equality. *)
type answer = { key : string; perf : float }

let perf_hex p = Printf.sprintf "%h" p

(* [same_answer ~what ~counted a b] is the identity check every gate of
   the benchmark goes through.  Equal non-finite perfs prove nothing —
   two searches that both found no feasible mapping "agree" vacuously —
   so the check fails on them unless the caller declares the case a
   counted failure (it is then reported in the run's [failed] tally).
   A counted case must still agree on key and perf bit for bit.  Every
   [false] it returns is recorded with [fail]. *)
let same_answer ~what ~counted a b =
  let finite = Float.is_finite a.perf && Float.is_finite b.perf in
  if not (finite || counted) then begin
    fail "%s: non-finite perf (%s vs %s) cannot prove identity" what
      (perf_hex a.perf) (perf_hex b.perf);
    false
  end
  else if a.key <> b.key || perf_hex a.perf <> perf_hex b.perf then begin
    fail "%s: answers differ (%s %s vs %s %s)" what (perf_hex a.perf) a.key
      (perf_hex b.perf) b.key;
    false
  end
  else true

(* The traced/untraced identity gate.  [line] is the record the untraced
   pass printed for the same seed; the traced pass must reach the same
   answers, in the same order, after the same number of suggestions
   ([extra]).  An empty answer list proves nothing and fails. *)
let check_against line answers =
  let field k = function Wire.Obj kv -> List.assoc_opt k kv | _ -> None in
  match Wire.of_string line with
  | Error e -> fail "identity: unreadable untraced record: %s" e
  | Ok j ->
      let expected = match field "answers" j with Some (Wire.Arr l) -> l | _ -> [] in
      if expected = [] || answers = [] then fail "identity: no answers to compare"
      else if List.length expected <> List.length answers then
        fail "identity: %d answers untraced, %d traced" (List.length expected)
          (List.length answers)
      else
        List.iter2
          (fun e (job, a, extra, counted) ->
            let s k = match field k e with Some (Wire.Str s) -> s | _ -> "" in
            let n k = match field k e with Some (Wire.Num f) -> int_of_float f | _ -> -1 in
            let what = "identity " ^ job in
            let counted_before = field "counted" e = Some (Wire.Bool true) in
            if s "job" <> job then fail "%s: untraced pass answered %s here" what (s "job")
            else begin
              if n "extra" <> extra then
                fail "%s: %d suggestions untraced, %d traced" what (n "extra") extra;
              if counted_before <> counted then
                fail "%s: counted failure %b untraced, %b traced" what counted_before counted;
              let perf = Option.value ~default:nan (float_of_string_opt (s "perf_hex")) in
              ignore
                (same_answer ~what ~counted:(counted && counted_before)
                   { key = s "key"; perf } a)
            end)
          expected answers

(* ---- statistics ------------------------------------------------------- *)

let geomean = function
  | [] -> nan
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
           /. float_of_int (List.length xs))

(* Nearest-rank percentile of a sample ([p] in [0,100]); nan when empty. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- process-level measurements --------------------------------------- *)

(* The GC's top heap since process start.  It ratchets, which is why
   every pass runs in a fresh process. *)
let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- host speed ------------------------------------------------------- *)

(* The host is shared: its speed drifts by 15-30% over seconds to
   minutes, far more than the changes the benchmark must resolve.  A
   pass therefore samples a fixed reference kernel between its jobs
   (never inside a timed region) and reports its end-to-end times at
   the reference speed: raw seconds x [reference_s] / median kernel
   time.  The kernel is the benchmark's own code — an array binary-heap
   event loop, the shape of the simulator's hot loop.  It allocates
   nothing, so it never triggers a minor collection and never does a
   slice of major-GC work on the heap the program left behind: a change
   that grows the program's heap cannot slow the kernel and so shrink
   the reported times.  [bench.exe selftest] checks that it allocates
   nothing; [bench.exe kernelcheck] times it beside a bloated heap. *)
let reference_s = 0.012

let kernel_n = 4096
let kernel_events = 75_000

(* Allocated once: [float array]s store their elements unboxed. *)
let heap = Array.make (kernel_n + 1) 0.0
let ids = Array.make (kernel_n + 1) 0
let recent = Array.make 64 0.0

(* One function with no calls in its loops, so no float is ever boxed
   to cross a call. *)
let kernel () =
  let size = ref 0 and state = ref 12345 and total = ref 0.0 in
  let next = ref 0 and t = ref 0.0 and i = ref 0 in
  for e = 1 to kernel_n + kernel_events do
    (* the event: a new one, or the earliest popped and rescheduled *)
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    let dt = float_of_int !state /. 1073741824.0 in
    if e <= kernel_n then begin
      t := dt;
      i := e
    end
    else begin
      (* pop the root into [t], [i] *)
      t := heap.(1);
      i := ids.(1);
      let lt = heap.(!size) and li = ids.(!size) in
      decr size;
      let k = ref 1 and stop = ref false in
      while not !stop do
        let c = 2 * !k in
        if c > !size then stop := true
        else begin
          let c = if c < !size && heap.(c + 1) < heap.(c) then c + 1 else c in
          if heap.(c) < lt then begin
            heap.(!k) <- heap.(c);
            ids.(!k) <- ids.(c);
            k := c
          end
          else stop := true
        end
      done;
      heap.(!k) <- lt;
      ids.(!k) <- li;
      total := !total +. !t;
      if !i land 7 = 0 then begin
        recent.(!next) <- !t;
        next := (!next + 1) land 63
      end;
      t := !t +. dt
    end;
    (* push [t], [i] *)
    incr size;
    let k = ref !size in
    while !k > 1 && heap.(!k / 2) > !t do
      heap.(!k) <- heap.(!k / 2);
      ids.(!k) <- ids.(!k / 2);
      k := !k / 2
    done;
    heap.(!k) <- !t;
    ids.(!k) <- !i
  done;
  recent.(!next) <- !total

(* Minor words one call of [kernel] allocates (0 when it is sound). *)
let kernel_words () =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  kernel ();
  let w2 = Gc.minor_words () in
  int_of_float (w2 -. w1 -. (w1 -. w0))

let kernel_samples : float list ref = ref []

(* Wall spent in the kernel so far — a caller whose timed region spans a
   sample subtracts it. *)
let kernel_time = ref 0.0

(* Time the reference kernel [n] times. *)
let sample_speed n =
  for _ = 1 to n do
    let t0 = now () in
    kernel ();
    let dt = now () -. t0 in
    kernel_samples := dt :: !kernel_samples;
    kernel_time := !kernel_time +. dt
  done

(* Multiply a raw time of this pass by this to get reference-speed time. *)
let speed () = reference_s /. percentile 50.0 !kernel_samples

(* The per-pass record run.py reads.  [e2e] holds the end-to-end
   metrics (aggregated as medians over untraced passes), [layer] the
   per-layer ones (medians over traced passes), [answers] the decisions
   the traced/untraced identity gate compares.  [speed] is the pass's
   host-speed factor; [e2e] times are already multiplied by it, [wall]
   and the per-layer times are raw.  [unreached] names the layers (the
   metric-name prefix before the first dot) the workload never calls
   into: their metrics read 0, and any other metric missing from
   [layer] fails the run. *)
let emit ~workload ~seed ~traced ~wall ~attempted ~failed ~e2e ~layer ~unreached ~answers =
  let j =
    Wire.Obj
      [
        ("workload", str workload);
        ("seed", int seed);
        ("traced", Wire.Bool traced);
        ("ocaml", str Sys.ocaml_version);
        ("wall_s", num wall);
        ("speed", num (speed ()));
        ("attempted", int attempted);
        ("failed", int failed);
        ("failures", Wire.Arr (List.rev_map str !failures));
        ("e2e", Wire.Obj (List.map (fun (k, v) -> (k, num v)) e2e));
        ("layer", Wire.Obj (List.map (fun (k, v) -> (k, num v)) layer));
        ("unreached", Wire.Arr (List.map str unreached));
        ( "answers",
          Wire.Arr
            (List.map
               (fun (job, a, extra, counted) ->
                 Wire.Obj
                   [
                     ("job", str job);
                     ("key", str a.key);
                     ("perf_hex", str (perf_hex a.perf));
                     ("extra", int extra);
                     ("counted", Wire.Bool counted);
                   ])
               answers) );
      ]
  in
  print_string (Wire.to_string j);
  print_newline ()
