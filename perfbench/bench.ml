(* One pass of a benchmark workload per process (see README.md):

     bench.exe pass --workload <name> --seed <n> [--traced [--expect -]]
     bench.exe selftest
     bench.exe kernelcheck

   [pass] prints one JSON record as its last stdout line; run.py
   aggregates the passes of a run.  With [--expect -] a traced pass
   reads the untraced pass's record for the same seed from stdin and
   fails unless it reached the same decisions.  [selftest] proves the
   identity checks are not vacuous: on a search that is infeasible by
   construction they must fail unless the case is declared a counted
   failure.  It also checks that the host-speed kernel allocates
   nothing.  [kernelcheck] times the kernel on a small and on a bloated
   heap. *)

open Common

let usage () =
  prerr_endline
    "usage: bench.exe pass --workload <paper-shepard|mesh-1024|serve-mix> --seed <n> \
     [--traced [--expect -]]\n       bench.exe selftest\n       bench.exe kernelcheck";
  exit 2

(* Shepard's one-node rates with every memory shrunk to one byte: every
   mapping of every graph is out of memory, so a search on it finds no
   finite mapping by construction. *)
let starved () =
  let m = Presets.shepard ~nodes:1 in
  Machine.make ~name:"starved" ~nodes:1
    ~node:
      { m.Machine.node with
        Machine.sysmem_per_socket = 1.0; zc_capacity = 1.0; fb_capacity = 1.0 }
    ~exec_bw:m.Machine.exec_bw ~compute:m.Machine.compute ~copy:m.Machine.copy ()

let selftest () =
  let g = App.stencil.App.graph ~nodes:1 ~input:(List.hd (App.stencil.App.inputs ~nodes:1)) in
  let search m =
    let r = Driver.run ~seed:1 ~max_trials:20 ~final_runs:2 Driver.(Ccd { rotations = 5 }) m g in
    { key = Mapping.canonical_key r.Driver.best; perf = r.Driver.perf }
  in
  let inf = search (starved ()) and fin = search (Presets.shepard ~nodes:1) in
  let ok = ref true in
  let expect what cond =
    if not cond then begin
      ok := false;
      Printf.printf "selftest FAILED: %s\n" what
    end
  in
  (* [gate] must return [pass] and record a failure exactly when it
     does not pass. *)
  let gate what ~counted ~pass a b =
    failures := [];
    expect what (same_answer ~what:"selftest" ~counted a b = pass && (!failures = []) = pass);
    failures := []
  in
  expect "the search on the starved machine is infeasible (non-finite best)"
    (not (Float.is_finite inf.perf));
  expect "the search on shepard:1 is feasible" (Float.is_finite fin.perf);
  gate "inf == inf is not accepted as identity" ~counted:false ~pass:false inf inf;
  gate "a declared counted failure passes" ~counted:true ~pass:true inf inf;
  gate "a counted failure against a finite answer fails" ~counted:true ~pass:false inf fin;
  gate "counted failures with different perfs fail" ~counted:true ~pass:false inf
    { inf with perf = nan };
  gate "counted failures with different mappings fail" ~counted:true ~pass:false inf
    { inf with key = fin.key ^ "x" };
  gate "equal finite answers pass" ~counted:false ~pass:true fin fin;
  gate "finite answers one ulp apart fail" ~counted:false ~pass:false fin
    { fin with perf = Float.succ fin.perf };
  expect "non-finite numbers print as null"
    (Wire.to_string (Wire.Arr [ num infinity; num nan ]) = "[null,null]");
  let words = kernel_words () in
  expect (Printf.sprintf "the host-speed kernel allocates nothing (%d words)" words)
    (words = 0);
  if !ok then print_endline "selftest ok" else exit 1

(* The kernel's median time on the benchmark's own small heap, then
   beside a live heap of about 40 MB of small blocks with major-GC work
   pending.  The two medians should agree within the host's noise. *)
let kernelcheck () =
  let median () =
    kernel_samples := [];
    sample_speed 15;
    percentile 50.0 !kernel_samples
  in
  let small = median () in
  let live = Array.init 1_000_000 (fun i -> [| i; i + 1; i + 2 |]) in
  for i = 1 to 2_000_000 do
    ignore (Sys.opaque_identity [| i |])
  done;
  let bloated = median () in
  Printf.printf
    "kernel median: %.3f ms on a small heap, %.3f ms beside a %.0f MB heap (ratio %.3f)\n"
    (1e3 *. small) (1e3 *. bloated) (peak_heap_mb ()) (bloated /. small);
  ignore (Sys.opaque_identity live)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> selftest ()
  | [ "kernelcheck" ] -> kernelcheck ()
  | "pass" :: rest ->
      let workload = ref "" and seed = ref None and traced = ref false in
      let expect = ref None in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: r ->
            workload := w;
            parse r
        | "--seed" :: s :: r ->
            seed := int_of_string_opt s;
            parse r
        | "--traced" :: r ->
            traced := true;
            parse r
        | "--expect" :: "-" :: r ->
            expect := Some (In_channel.input_all stdin);
            parse r
        | _ -> usage ()
      in
      parse rest;
      let seed = match !seed with Some s -> s | None -> usage () in
      (match !workload with
      | "paper-shepard" | "mesh-1024" ->
          Search_wl.pass ?expect:!expect ~workload:!workload ~seed ~traced:!traced ()
      | "serve-mix" -> Serve_wl.pass ?expect:!expect ~seed ~traced:!traced ()
      | _ -> usage ())
  | _ -> usage ()
