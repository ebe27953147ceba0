(* Tests for lib/harness and the determinism contract it rests on:
   same-seed boots replay identically, the campaign runner preserves
   trial order and propagates failures, and the experiment sweeps are
   byte-identical whether they run on one domain or several. *)

module System = Resilix_system.System
module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Time = Resilix_sim.Time
module Metrics = Resilix_obs.Metrics
module Trial = Resilix_harness.Trial
module Campaign = Resilix_harness.Campaign
module E = Resilix_experiments

let mb = 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Same seed, same machine                                             *)
(* ------------------------------------------------------------------ *)

(* Boot a full machine, crash the Ethernet driver once, and let the
   reincarnation server recover it — enough activity to touch the
   kernel, RS, DS, INET and the driver. *)
let boot_and_exercise seed =
  let opts = { System.default_opts with System.seed } in
  let t = System.boot ~opts () in
  System.start_services t [ System.spec_rtl8139 () ];
  (match System.kill_service_once t ~target:"eth.rtl8139" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("kill failed: " ^ Resilix_proto.Errno.to_string e));
  System.run ~until:(Time.msec 1500) t;
  t

let test_same_seed_same_run () =
  let a = boot_and_exercise 42 and b = boot_and_exercise 42 in
  let ev t = Trace.events t.System.trace in
  Alcotest.(check int)
    "same number of trace events"
    (List.length (ev a))
    (List.length (ev b));
  (* Event payloads are pure data, so the whole streams must be
     structurally equal — times, levels, subsystems and operands. *)
  Alcotest.(check bool) "identical trace streams" true (ev a = ev b);
  let snap t = Metrics.snapshot ~at:(Engine.now t.System.engine) t.System.metrics in
  Alcotest.(check bool) "identical metric snapshots" true (snap a = snap b);
  Alcotest.(check bool) "identical observability dumps" true
    (System.obs_lines ~label:"det" a = System.obs_lines ~label:"det" b);
  (* Guard against the comparison being vacuous: the run really did
     produce events, activity and a completed recovery. *)
  Alcotest.(check bool) "trace is non-empty" true (ev a <> []);
  Alcotest.(check bool) "a restart was recorded" true
    (List.exists
       (fun e ->
         match e.Trace.payload with
         | Resilix_obs.Event.Restart { component; _ } -> component = "eth.rtl8139"
         | _ -> false)
       (ev a));
  Alcotest.(check bool) "counters are non-trivial" true
    (List.exists (fun (_, v) -> v > 0) (snap a).Metrics.counters)

(* ------------------------------------------------------------------ *)
(* Campaign runner semantics                                           *)
(* ------------------------------------------------------------------ *)

let test_campaign_preserves_order () =
  let trials =
    List.init 17 (fun i ->
        Trial.make ~name:(Printf.sprintf "t%d" i) ~seed:i (fun () ->
            (* Skew the work so late trials tend to finish first under
               parallel execution; order must still be input order. *)
            let spin = ref 0 in
            for _ = 1 to (17 - i) * 10_000 do
              incr spin
            done;
            ignore !spin;
            i * i))
  in
  let expect = List.init 17 (fun i -> i * i) in
  Alcotest.(check (list int))
    "jobs=1 in input order" expect
    Campaign.(values (run ~jobs:1 trials));
  Alcotest.(check (list int))
    "jobs=4 in input order" expect
    Campaign.(values (run ~jobs:4 trials));
  Alcotest.(check (list int))
    "jobs beyond trial count is clamped" expect
    Campaign.(values (run ~jobs:64 trials));
  let r = Campaign.run ~jobs:3 trials in
  Alcotest.(check int) "no failures reported" 0 (List.length r.Campaign.failures);
  Alcotest.(check (list (pair string int)))
    "outcomes pair up with trial names in input order"
    (List.init 17 (fun i -> (Printf.sprintf "t%d" i, i * i)))
    (List.map2
       (fun t o -> (t.Resilix_harness.Trial.name, Result.get_ok o))
       trials r.Campaign.outcomes)

let test_campaign_collects_every_failure () =
  let trials =
    List.init 8 (fun i ->
        Trial.make ~name:(Printf.sprintf "t%d" i) ~seed:i (fun () ->
            if i = 5 then failwith "five";
            if i = 2 then failwith "two";
            i))
  in
  List.iter
    (fun jobs ->
      match Campaign.(values (run ~jobs trials)) with
      | (_ : int list) -> Alcotest.failf "jobs=%d: expected Partial" jobs
      | exception Campaign.Partial failures ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "jobs=%d reports every failed trial, lowest index first" jobs)
            [ (2, "t2"); (5, "t5") ]
            (List.map (fun f -> (f.Campaign.f_index, f.Campaign.f_name)) failures);
          List.iter
            (fun f ->
              Alcotest.(check string)
                "the original exception is preserved"
                (if f.Campaign.f_index = 2 then {|Failure("two")|} else {|Failure("five")|})
                (Printexc.to_string f.Campaign.f_error))
            failures;
          let summary = Campaign.failures_summary failures in
          List.iter
            (fun needle ->
              let found =
                let n = String.length needle and l = String.length summary in
                let rec go i = i + n <= l && (String.sub summary i n = needle || go (i + 1)) in
                go 0
              in
              Alcotest.(check bool)
                (Printf.sprintf "summary mentions %S" needle)
                true found)
            [ "2 trial(s) failed"; "t2"; "t5"; "two"; "five" ])
    [ 1; 4 ];
  (* The run_result record is the non-raising face of the same
     contract: every outcome present, failures listed alongside. *)
  (let r = Campaign.run ~jobs:4 trials in
   Alcotest.(check (list int)) "run reports the same failures" [ 2; 5 ]
     (List.map (fun f -> f.Campaign.f_index) r.Campaign.failures);
   Alcotest.(check int) "every outcome is still present" 8
     (List.length r.Campaign.outcomes);
   Alcotest.(check (list int))
     "successful outcomes are kept despite the failures"
     [ 0; 1; 3; 4; 6; 7 ]
     (List.filter_map Result.to_option r.Campaign.outcomes));
  Alcotest.check_raises "jobs < 1 rejected" (Invalid_argument "Campaign.run: jobs must be >= 1")
    (fun () -> ignore (Campaign.run ~jobs:0 trials))

(* ------------------------------------------------------------------ *)
(* Progress observer                                                   *)
(* ------------------------------------------------------------------ *)

let test_campaign_progress_events () =
  let n = 9 in
  let trials =
    List.init n (fun i -> Trial.make ~name:(Printf.sprintf "t%d" i) ~seed:i (fun () -> i))
  in
  (* jobs=1: events arrive strictly in trial order with an exact
     completed counter. *)
  let seen = ref [] in
  let got = Campaign.(values (run ~jobs:1 ~on_progress:(fun p -> seen := p :: !seen) trials)) in
  Alcotest.(check (list int)) "results unaffected by the observer" (List.init n Fun.id) got;
  let events = List.rev !seen in
  Alcotest.(check int) "one event per trial" n (List.length events);
  List.iteri
    (fun k p ->
      Alcotest.(check int) "sequential events follow trial order" k p.Campaign.p_index;
      Alcotest.(check string) "event names the trial" (Printf.sprintf "t%d" k) p.Campaign.p_name;
      Alcotest.(check int) "completed counts up" (k + 1) p.Campaign.p_completed;
      Alcotest.(check int) "total is the campaign size" n p.Campaign.p_total;
      Alcotest.(check bool) "trial succeeded" false p.Campaign.p_failed;
      Alcotest.(check bool) "elapsed is non-negative" true (p.Campaign.p_elapsed_s >= 0.))
    events;
  (* jobs=4: completion order is scheduling-dependent, but every trial
     reports exactly once and the completed counters are a permutation
     of 1..n. *)
  let seen = ref [] in
  let got = Campaign.(values (run ~jobs:4 ~on_progress:(fun p -> seen := p :: !seen) trials)) in
  Alcotest.(check (list int)) "parallel results still in input order" (List.init n Fun.id) got;
  let events = !seen in
  Alcotest.(check int) "one event per trial under jobs=4" n (List.length events);
  let sorted_indices = List.sort compare (List.map (fun p -> p.Campaign.p_index) events) in
  Alcotest.(check (list int)) "every trial index reported once" (List.init n Fun.id)
    sorted_indices;
  let sorted_completed = List.sort compare (List.map (fun p -> p.Campaign.p_completed) events) in
  Alcotest.(check (list int))
    "completed counters are a permutation of 1..n"
    (List.init n (fun i -> i + 1))
    sorted_completed;
  (* Failed trials still emit progress, flagged as failures. *)
  let failing =
    List.init 4 (fun i ->
        Trial.make ~name:(Printf.sprintf "f%d" i) ~seed:i (fun () ->
            if i = 1 then failwith "boom";
            i))
  in
  let seen = ref [] in
  (match Campaign.(values (run ~jobs:1 ~on_progress:(fun p -> seen := p :: !seen) failing)) with
  | _ -> Alcotest.fail "expected Partial"
  | exception Campaign.Partial _ -> ());
  Alcotest.(check int) "failures still emit a progress event" 4 (List.length !seen);
  let by_index = List.sort (fun a b -> compare a.Campaign.p_index b.Campaign.p_index) !seen in
  Alcotest.(check (list bool))
    "exactly the failing trial is flagged"
    [ false; true; false; false ]
    (List.map (fun p -> p.Campaign.p_failed) by_index)

(* ------------------------------------------------------------------ *)
(* Parallel sweeps are byte-identical to sequential ones               *)
(* ------------------------------------------------------------------ *)

let collect_obs run =
  let buf = Buffer.create 4096 in
  let rows = run (fun line -> Buffer.add_string buf line; Buffer.add_char buf '\n') in
  (rows, Buffer.contents buf)

(* The JSONL lines reporting MTTR, for [component] if given. *)
let mttr_lines ?component obs =
  List.filter
    (fun line ->
      let fields = String.split_on_char ',' line in
      List.mem "{\"type\":\"mttr\"" fields
      &&
      match component with
      | None -> true
      | Some c -> List.mem (Printf.sprintf "\"component\":\"%s\"" c) fields)
    (String.split_on_char '\n' obs)

let test_fig7_jobs_invariant () =
  (* The acceptance criterion for the progress observer: enabling it
     must leave the stdout/JSONL path byte-identical for every job
     count — the observer only ever sees the stderr-side sink.  7 MB
     is the smallest transfer that outlasts the first 1-s kill. *)
  let sweep jobs =
    collect_obs (fun sink ->
        E.Fig7.run ~jobs
          ~on_progress:(fun (_ : Campaign.progress) -> ())
          ~size:(7 * mb) ~intervals:[ 1 ] ~seed:42 ~obs:sink ())
  in
  let rows1, obs1 = sweep 1 and rows2, obs2 = sweep 2 and rows4, obs4 = sweep 4 in
  Alcotest.(check int) "baseline + one interval" 2 (List.length rows1);
  Alcotest.(check bool) "fig7 rows identical for jobs=1 and jobs=2" true (rows1 = rows2);
  Alcotest.(check bool) "fig7 rows identical for jobs=1 and jobs=4" true (rows1 = rows4);
  Alcotest.(check string) "fig7 observability byte-identical (jobs=2)" obs1 obs2;
  Alcotest.(check string) "fig7 observability byte-identical (jobs=4)" obs1 obs4;
  Alcotest.(check bool) "sweep passes its own integrity check" true (E.Fig7.ok rows1);
  Alcotest.(check bool) "a kill landed and its MTTR was reported" true (mttr_lines obs1 <> [])

let test_fig8_jobs_invariant () =
  (* 14 MB is the smallest read that outlasts the first 1-s kill. *)
  let sweep jobs =
    collect_obs (fun sink ->
        E.Fig8.run ~jobs ~size:(14 * mb) ~intervals:[ 1 ] ~seed:42 ~obs:sink ())
  in
  let rows1, obs1 = sweep 1 and rows2, obs2 = sweep 2 in
  Alcotest.(check int) "baseline + one interval" 2 (List.length rows1);
  Alcotest.(check bool) "fig8 rows identical for jobs=1 and jobs=2" true (rows1 = rows2);
  Alcotest.(check string) "fig8 observability byte-identical (jobs=2)" obs1 obs2;
  Alcotest.(check bool) "sweep passes its own integrity check" true (E.Fig8.ok rows1);
  Alcotest.(check bool) "the disk-driver kill reported its MTTR" true
    (mttr_lines ~component:"blk.sata" obs1 <> [])

let test_sec72_jobs_invariant () =
  let campaign jobs =
    collect_obs (fun sink ->
        E.Sec72.run ~jobs ~faults:200 ~shard_size:50 ~seed:42 ~obs:sink ())
  in
  let o1, obs1 = campaign 1 and o4, obs4 = campaign 4 in
  Alcotest.(check bool) "sec7_2 outcome identical for jobs=1 and jobs=4" true (o1 = o4);
  Alcotest.(check string) "sec7_2 observability byte-identical" obs1 obs4;
  Alcotest.(check int) "every shard injected its share" 200 o1.E.Sec72.injected;
  Alcotest.(check bool) "crash-class split accounts for every crash" true (E.Sec72.ok o1)

(* Run the resilix CLI with [args] (from [cwd], if given) and return
   its exit code, stdout and stderr. *)
let run_cli ?cwd args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat (Filename.concat ".." "bin") "resilix.exe")
  in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let slurp file = In_channel.with_open_bin file In_channel.input_all in
  let out = Filename.temp_file "resilix" ".out" and err = Filename.temp_file "resilix" ".err" in
  let cd = match cwd with Some dir -> "cd " ^ Filename.quote dir ^ " && " | None -> "" in
  let rc =
    Sys.command
      (Printf.sprintf "%s%s %s >%s 2>%s" cd (Filename.quote exe) args (Filename.quote out)
         (Filename.quote err))
  in
  let stdout = slurp out and stderr = slurp err in
  Sys.remove out;
  Sys.remove err;
  (rc, stdout, stderr)

(* [--jobs 0] on every campaign subcommand of the resilix CLI is a
   one-line usage error with exit 2, raised before any work starts
   (the campaign runner would otherwise die with an uncaught
   Invalid_argument). *)
let test_cli_rejects_zero_jobs () =
  List.iter
    (fun sub ->
      let rc, stdout, stderr = run_cli (sub ^ " --jobs 0") in
      Alcotest.(check int) (sub ^ ": exit 2") 2 rc;
      Alcotest.(check string) (sub ^ ": nothing on stdout") "" stdout;
      Alcotest.(check string) (sub ^ ": one-line error") "resilix: --jobs must be >= 1 (got 0)\n"
        stderr)
    [ "fig3"; "fig7"; "fig8"; "sec72"; "fig9"; "ablations"; "explore dp-inject"; "all" ]

(* Guided mutants can time a fault before the machine finished
   booting; exploring must still exit like a fuzzer (0 clean, 1
   finding), never with an uncaught exception. *)
let test_cli_guided_explore_exits_cleanly () =
  let rc, _, stderr = run_cli "explore wget --seed 7 --runs 32 --guided --jobs 2 --progress never" in
  Alcotest.(check bool) (Printf.sprintf "exit 0 or 1 (got %d: %s)" rc stderr) true (rc = 0 || rc = 1)

(* Fig. 9 counts this repository's sources: run anywhere else it is a
   one-line error, not a table of zeros. *)
let test_cli_fig9_outside_checkout () =
  let dir = Filename.temp_dir "resilix" "fig9" in
  let rc, stdout, stderr = run_cli ~cwd:dir "fig9 --progress never" in
  Sys.rmdir dir;
  Alcotest.(check int) "exit 2" 2 rc;
  Alcotest.(check string) "nothing on stdout" "" stdout;
  Alcotest.(check int) "one line on stderr" 1
    (List.length (String.split_on_char '\n' (String.trim stderr)))

let tests =
  [
    Alcotest.test_case "same seed, same run" `Quick test_same_seed_same_run;
    Alcotest.test_case "campaign preserves trial order" `Quick test_campaign_preserves_order;
    Alcotest.test_case "campaign collects every failure" `Quick
      test_campaign_collects_every_failure;
    Alcotest.test_case "campaign progress observer" `Quick test_campaign_progress_events;
    Alcotest.test_case "fig7 sweep is jobs-invariant" `Quick test_fig7_jobs_invariant;
    Alcotest.test_case "sec7_2 campaign is jobs-invariant" `Quick test_sec72_jobs_invariant;
    Alcotest.test_case "fig8 sweep is jobs-invariant" `Quick test_fig8_jobs_invariant;
    Alcotest.test_case "CLI rejects --jobs 0" `Quick test_cli_rejects_zero_jobs;
    Alcotest.test_case "CLI guided explore exits cleanly" `Quick
      test_cli_guided_explore_exits_cleanly;
    Alcotest.test_case "CLI fig9 outside a checkout" `Quick test_cli_fig9_outside_checkout;
  ]
