(* The repository benchmark.

   Three workloads driven through the library's public entry points,
   one process, one domain:

   - dd-kill        Dd reads a file through VFS -> MFS -> Cache -> the
                    SATA driver, killed every virtual second; paired
                    with a same-seed no-kill read.
   - storm-kill     open-loop Loadgen arrivals against the Httpd worker
                    pool, one RTL8139 kill mid-storm; paired with a
                    same-seed fault-free storm.
   - inject-explore Explore-style blind runs of the dp-inject workload
                    (Seeded tie-breaks, 10 binary faults per run).

   A "pass" is one complete execution of a workload at the given seed
   (setup, simulate, verify).  A timed run repeats passes for the
   requested host seconds and reports medians of the host metrics; the
   virtual metrics, counts and allocated words of every pass must be
   identical.  A traced run (--trace 1) adds outside-in per-layer
   numbers: counters and spans the program already keeps, plus layer
   microbenches timed through each layer's public functions.

   Two clocks are kept apart: host seconds (how fast the simulator
   runs) and virtual time (what the simulated machine experiences). *)

module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng
module SimTrace = Resilix_sim.Trace
module System = Resilix_system.System
module Hwmap = Resilix_system.Hwmap
module Metrics = Resilix_obs.Metrics
module Span = Resilix_obs.Span
module Kernel = Resilix_kernel.Kernel
module Sysif = Resilix_kernel.Sysif
module Api = Sysif.Api
module Privilege = Resilix_proto.Privilege
module Msg = Resilix_proto.Message
module Status = Resilix_proto.Status
module Link = Resilix_hw.Link
module Bus = Resilix_hw.Bus
module Mfs = Resilix_fs.Mfs
module Dd = Resilix_apps.Dd
module Httpd = Resilix_apps.Httpd
module Sockets = Resilix_apps.Sockets
module Loadgen = Resilix_load.Loadgen
module Tcp = Resilix_net.Tcp
module Wire = Resilix_net.Wire
module Peer = Resilix_net.Peer
module Fnv = Resilix_checksum.Fnv
module Isa = Resilix_vm.Isa
module Interp = Resilix_vm.Interp
module Image = Resilix_drivers.Image
module Reincarnation = Resilix_core.Reincarnation
module Data_store = Resilix_datastore.Data_store
module Scenario = Resilix_dst.Scenario
module Fault_plan = Resilix_dst.Fault_plan
module Invariant = Resilix_dst.Invariant
module Explore = Resilix_dst.Explore

(* ------------------------------------------------------------------ *)
(* Scale                                                               *)
(* ------------------------------------------------------------------ *)

type scale = {
  dd_bytes : int;  (** file size dd reads *)
  storm_requests : int;
  storm_workers : int;
  storm_backlog : int;
  storm_subs : int;  (** storms per pass, each at its own sub-seed *)
  inject_runs : int;  (** dp-inject runs per pass *)
  micro : int;  (** microbench iteration multiplier *)
}

let full =
  {
    dd_bytes = 96 * 1024 * 1024;
    storm_requests = 1000;
    storm_workers = 32;
    storm_backlog = 128;
    storm_subs = 3;
    inject_runs = 16;
    micro = 10;
  }

(* Seconds, not minutes: what the self-test runs. *)
let smoke =
  {
    dd_bytes = 4 * 1024 * 1024;
    storm_requests = 120;
    storm_workers = 16;
    storm_backlog = 64;
    storm_subs = 1;
    inject_runs = 2;
    micro = 1;
  }

(* Fig. 8's fastest kill interval, and the dp-inject scenario's faults
   per run. *)
let dd_kill_every = 1_000_000
let inject_faults = 10

(* ------------------------------------------------------------------ *)
(* Host clock and allocation accounting                                *)
(* ------------------------------------------------------------------ *)

(* Host seconds are this process's CPU seconds (user + system): on a
   shared host they leave out the time the process waits for a core. *)
let host_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Per-phase host seconds and minor words, summed over every machine a
   pass boots.  The same accounting runs in timed and traced passes, so
   the words it reports are comparable byte for byte. *)
type acc = { host : float array; words : float array; mutable steps : int }

let setup_ph = 0
let simulate_ph = 1
let verify_ph = 2
let phase_names = [| "setup"; "simulate"; "verify" |]
let new_acc () = { host = Array.make 3 0.; words = Array.make 3 0.; steps = 0 }

let timed acc ph f =
  let w0 = Gc.minor_words () in
  let t0 = host_now () in
  let r = f () in
  let t1 = host_now () in
  let w1 = Gc.minor_words () in
  acc.host.(ph) <- acc.host.(ph) +. (t1 -. t0);
  acc.words.(ph) <- acc.words.(ph) +. (w1 -. w0);
  r

(* The bench's own stepping loop: the same shape as System.run_until,
   counting every Engine.step it makes. *)
let step_until acc engine ~timeout pred =
  let deadline = Engine.now engine + timeout in
  let rec go () =
    if pred () then true
    else if Engine.now engine >= deadline then false
    else if Engine.step engine then begin
      acc.steps <- acc.steps + 1;
      go ()
    end
    else pred ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Outside-in counters                                                 *)
(* ------------------------------------------------------------------ *)

(* Per-layer counts, summed over the machines of one pass.  Keys are
   the per-layer metric names. *)
type counts = (string, float) Hashtbl.t

let bump (c : counts) k v =
  Hashtbl.replace c k (v +. Option.value (Hashtbl.find_opt c k) ~default:0.)

let get (c : counts) k = Option.value (Hashtbl.find_opt c k) ~default:0.

type probe = {
  p_kernel : Kernel.Stats.snapshot;
  p_registry : Metrics.snapshot;
  p_frames : int;
  p_dropped : int;
  p_reissued : int;
}

let probe (t : System.t) =
  {
    p_kernel = Kernel.Stats.snapshot t.System.kernel;
    p_registry = Metrics.snapshot t.System.metrics;
    p_frames = Link.frames_sent t.System.rtl_link + Link.frames_sent t.System.dp_link;
    p_dropped = Link.frames_dropped t.System.rtl_link + Link.frames_dropped t.System.dp_link;
    p_reissued = Mfs.reissued_ios t.System.mfs;
  }

(* Add the activity between two probes of one machine to [c]. *)
let add_activity c before after =
  let k = Kernel.Stats.diff before.p_kernel after.p_kernel in
  let reg = Metrics.diff before.p_registry after.p_registry in
  let f = float_of_int in
  bump c "kernel.ipc.messages" (f k.Kernel.Stats.messages);
  bump c "kernel.ipc.notifications" (f k.Kernel.Stats.notifications);
  bump c "kernel.safecopy.calls" (f k.Kernel.Stats.safecopies);
  bump c "kernel.safecopy.bytes" (f k.Kernel.Stats.safecopy_bytes);
  bump c "kernel.devio.calls" (f k.Kernel.Stats.devios);
  bump c "kernel.irq.raised" (f k.Kernel.Stats.irqs);
  List.iter
    (fun (name, v) ->
      let is_driver_requests =
        String.length name > 16
        && String.sub name 0 7 = "driver."
        && Filename.extension name = ".requests"
      in
      if is_driver_requests then bump c "driver.requests" (f v))
    reg.Metrics.counters;
  let cv = Metrics.counter_value reg in
  bump c "inet.accept_refused" (f (cv "inet.accept_refused"));
  bump c "inet.frames_queued_during_outage" (f (cv "inet.tx.postponed"));
  bump c "mfs.driver.outages" (f (cv "mfs.driver.outages"));
  bump c "ds.publishes" (f (cv "ds.publishes"));
  bump c "httpd.requests" (f (cv "httpd.requests"));
  bump c "hw.link.frames_sent" (f (after.p_frames - before.p_frames));
  bump c "hw.link.frames_dropped" (f (after.p_dropped - before.p_dropped));
  bump c "fs.reissued_ios" (f (after.p_reissued - before.p_reissued))

(* Closed recovery spans of one machine: count, total detect->up, and
   per-phase offset sums (for the phase means). *)
type recov = {
  mutable closed : int;
  mutable total_us : int;
  phase_sum : int array;
  phase_n : int array;
}

let new_recov () = { closed = 0; total_us = 0; phase_sum = Array.make 5 0; phase_n = Array.make 5 0 }

let phase_idx = function
  | Span.Detect -> 0
  | Span.Policy -> 1
  | Span.Respawn -> 2
  | Span.Republish -> 3
  | Span.Reopen -> 4

let add_spans r (t : System.t) =
  List.iter
    (fun s ->
      match Span.total_us s with
      | None -> ()
      | Some total ->
          r.closed <- r.closed + 1;
          r.total_us <- r.total_us + total;
          List.iter
            (fun (ph, d) ->
              let i = phase_idx ph in
              r.phase_sum.(i) <- r.phase_sum.(i) + d;
              r.phase_n.(i) <- r.phase_n.(i) + 1)
            (Span.phases s))
    (Span.spans t.System.spans)

(* ------------------------------------------------------------------ *)
(* Pass results                                                        *)
(* ------------------------------------------------------------------ *)

(* A named metric; [None] = not measured on this workload (never a
   stand-in number). *)
type metric = { m_name : string; m_unit : string; m_value : float option }

type pass = {
  acc : acc;
  decisions : int;  (** recorded tie-break choice points *)
  virt : metric list;  (** the virtual-clock end-to-end metrics *)
  counts : counts;
  recov : recov;
  payload_bytes : float;  (** verified payload bytes moved by the pass *)
  attempted : int;
  failed : int;
  gates : (string * bool) list;
  inputs : string;  (** what the seed generated, for the record *)
  machines : System.t list;  (** kept for the traced export *)
}

let alloc_words p = p.acc.words.(0) +. p.acc.words.(1) +. p.acc.words.(2)
let pass_host p = p.acc.host.(0) +. p.acc.host.(1) +. p.acc.host.(2)

let fmt_opt = function None -> "null" | Some v -> Printf.sprintf "%.17g" v

(* Everything a pass must reproduce exactly: virtual metrics, counts,
   step and decision counts, allocated words. *)
let fingerprint p =
  let b = Buffer.create 1024 in
  List.iter (fun v -> Printf.bprintf b "%s=%s;" v.m_name (fmt_opt v.m_value)) p.virt;
  List.iter
    (fun (k, v) -> Printf.bprintf b "%s=%.17g;" k v)
    (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) p.counts []));
  Printf.bprintf b "inputs=%s;steps=%d;decisions=%d;attempted=%d;failed=%d;recov=%d/%d;" p.inputs
    p.acc.steps p.decisions p.attempted p.failed p.recov.closed p.recov.total_us;
  Array.iteri (fun i w -> Printf.bprintf b "words.%s=%.17g;" phase_names.(i) w) p.acc.words;
  Buffer.contents b

let mb_per_s bytes dur_us = if dur_us > 0 then Some (float_of_int bytes /. float_of_int dur_us) else None

let pct_over ~baseline v =
  if baseline > 0 then Some (100. *. float_of_int (v - baseline) /. float_of_int baseline) else None

let mean_recovery_ms r =
  if r.closed > 0 then Some (float_of_int r.total_us /. float_of_int r.closed /. 1000.) else None

(* ------------------------------------------------------------------ *)
(* Workload: dd-kill                                                   *)
(* ------------------------------------------------------------------ *)

(* One dd machine.  [kill_phase]: None = no kills; Some p = SIGKILL the
   SATA driver at p after the read starts, then every [every] us. *)
let dd_machine acc counts recov ~seed ~bytes ~every ~kill_phase =
  let t, result, before =
    timed acc setup_ph (fun () ->
        let opts =
          {
            System.default_opts with
            System.seed;
            fs_files = [ ("big.bin", bytes) ];
            disk_mb = (bytes / 1024 / 1024) + 8;
          }
        in
        let t = System.boot ~opts () in
        System.start_services t [ System.spec_sata ~policy:"direct" () ];
        ignore
          (System.run_until t ~timeout:10_000_000 (fun () ->
               Reincarnation.service_up t.System.rs "blk.sata"));
        (t, Dd.fresh_result (), probe t))
  in
  let finished =
    timed acc simulate_ph (fun () ->
        ignore (System.spawn_app t ~name:"dd" (Dd.make ~path:"/big.bin" result));
        (match kill_phase with
        | None -> ()
        | Some phase ->
            let engine = t.System.engine in
            let rec kill_at at =
              ignore
                (Engine.schedule_at engine ~at (fun () ->
                     if not result.Dd.finished then begin
                       ignore (System.kill_service_once t ~target:"blk.sata");
                       kill_at (at + every)
                     end))
            in
            kill_at (Engine.now engine + phase));
        step_until acc t.System.engine ~timeout:3_600_000_000 (fun () -> result.Dd.finished))
  in
  timed acc verify_ph (fun () ->
      add_activity counts before (probe t);
      add_spans recov t);
  (t, finished, result)

(* The same-seed no-kill read each kill read is paired with.  It is
   deterministic, so a process computes it once per seed and every pass
   compares against it; its host time is in no pass. *)
type dd_base = { b_ok : bool; b_bytes : int; b_fnv : string; b_dur : int; b_recoveries : int }

let dd_baselines : (int * int, dd_base) Hashtbl.t = Hashtbl.create 4

let dd_baseline sc ~seed =
  let key = (seed, sc.dd_bytes) in
  match Hashtbl.find_opt dd_baselines key with
  | Some b -> b
  | None ->
      let recov = new_recov () in
      let _, fin, r =
        dd_machine (new_acc ()) (Hashtbl.create 8) recov ~seed ~bytes:sc.dd_bytes
          ~every:dd_kill_every ~kill_phase:None
      in
      let b =
        {
          b_ok = fin && r.Dd.ok;
          b_bytes = r.Dd.bytes;
          b_fnv = r.Dd.fnv;
          b_dur = r.Dd.finished_at - r.Dd.started_at;
          b_recoveries = recov.closed;
        }
      in
      Hashtbl.replace dd_baselines key b;
      b

let dd_pass sc ~seed =
  let acc = new_acc () and counts = Hashtbl.create 32 and recov = new_recov () in
  let bytes = sc.dd_bytes and every = dd_kill_every in
  let base = dd_baseline sc ~seed in
  let phase = Rng.int (Rng.create ~seed:(Rng.derive ~seed ~index:0xdd)) every in
  let t, fin, r = dd_machine acc counts recov ~seed ~bytes ~every ~kill_phase:(Some phase) in
  timed acc verify_ph (fun () ->
      let dur = r.Dd.finished_at - r.Dd.started_at in
      let ok_kill = fin && r.Dd.ok && r.Dd.bytes = bytes in
      let ok_base = base.b_ok && base.b_bytes = bytes in
      let digest_ok = String.equal r.Dd.fnv base.b_fnv in
      let failed = (if ok_kill && digest_ok then 0 else 1) + if ok_base then 0 else 1 in
      let virt =
        [
          {
            m_name = "goodput_mbs";
            m_unit = "MB/s";
            m_value = (if ok_kill then mb_per_s bytes dur else None);
          };
          {
            m_name = "kill_overhead_pct";
            m_unit = "%";
            m_value = (if ok_kill && ok_base then pct_over ~baseline:base.b_dur dur else None);
          };
          { m_name = "recovery_ms"; m_unit = "ms"; m_value = mean_recovery_ms recov };
          { m_name = "latency_p50_ms"; m_unit = "ms"; m_value = None };
          { m_name = "latency_p99_ms"; m_unit = "ms"; m_value = None };
          { m_name = "latency_max_ms"; m_unit = "ms"; m_value = None };
        ]
      in
      {
        acc;
        decisions = 0;
        virt;
        counts;
        recov;
        payload_bytes = float_of_int r.Dd.bytes;
        attempted = 2;
        failed;
        gates =
          [
            ("dd.both_reads_finished", fin && base.b_ok);
            ("dd.digest_equals_no_kill_digest", digest_ok);
            ("dd.bytes_read_whole", r.Dd.bytes = bytes && base.b_bytes = bytes);
            ("dd.no_recovery_in_baseline", base.b_recoveries = 0);
            ("dd.kills_recovered", recov.closed > 0);
          ];
        inputs =
          Printf.sprintf "file content from machine seed %d; first kill %d us into the read" seed
            phase;
        machines = [ t ];
      })

(* ------------------------------------------------------------------ *)
(* Workload: storm-kill                                                *)
(* ------------------------------------------------------------------ *)

(* The client deadline.  Loadgen's default is 20 s; the slowest request
   that completes in these storms takes about 7 virtual s, so 10 s still
   lets every completing request complete, while a request that hangs
   costs 10 virtual seconds of simulation instead of 20.  A request
   that hits it counts as failed. *)
let storm_deadline = 10_000_000

type storm_out = {
  s_stats : Loadgen.stats;
  s_finished : bool;
  s_duration : int;  (** virtual us from the first arrival to the last resolution *)
  s_latency : Metrics.hist_snapshot option;
  s_kill_at : int option;  (** virtual us from the first arrival to the kill *)
}

let storm_machine acc counts recov sc ~seed ~kill =
  let requests = sc.storm_requests in
  let t, lg, before =
    timed acc setup_ph (fun () ->
        let opts = { System.default_opts with System.seed; disk_mb = 8 } in
        let t = System.boot ~opts () in
        System.start_services t [ System.spec_rtl8139 ~policy:"direct" () ];
        let hstats = Httpd.fresh_stats () in
        ignore
          (System.spawn_app t ~name:"httpd-listener"
             (Httpd.listener ~backlog:sc.storm_backlog ~port:80 hstats));
        ignore
          (System.run_until t ~timeout:10_000_000 (fun () ->
               hstats.Httpd.listening && Reincarnation.service_up t.System.rs "eth.rtl8139"));
        for i = 1 to sc.storm_workers do
          ignore (System.spawn_app t ~name:(Printf.sprintf "httpd-w%d" i) (Httpd.worker hstats))
        done;
        let config =
          {
            Loadgen.default_config with
            Loadgen.requests;
            concurrency = requests;
            request_timeout = storm_deadline;
          }
        in
        let lg =
          Loadgen.create ~engine:t.System.engine ~seed ~peer:t.System.rtl_peer
            ~metrics:t.System.metrics ~config ~dst_ip:Hwmap.local_ip
            ~dst_mac:Hwmap.rtl8139_mac ()
        in
        (t, lg, probe t))
  in
  let t0 = Engine.now t.System.engine in
  (* One kill inside the middle half of the arrival span. *)
  let plan =
    if kill then
      let span = requests * Loadgen.default_config.Loadgen.arrival_interval in
      Fault_plan.generate ~seed:(Rng.derive ~seed ~index:0x5707) ~targets:[ "eth.rtl8139" ] ~n:1
        ~start:(span / 4) ~horizon:(3 * span / 4) ()
    else []
  in
  let finished =
    timed acc simulate_ph (fun () ->
        Loadgen.start lg;
        ignore
          (Scenario.apply_plan t
             (List.map (fun e -> { e with Fault_plan.at = t0 + e.Fault_plan.at }) plan));
        step_until acc t.System.engine ~timeout:240_000_000 (fun () -> Loadgen.finished lg))
  in
  timed acc verify_ph (fun () ->
      let after = probe t in
      add_activity counts before after;
      add_spans recov t;
      let s = Loadgen.stats lg in
      bump counts "load.refused" (float_of_int s.Loadgen.refused);
      bump counts "load.retries" (float_of_int (s.Loadgen.attempts - s.Loadgen.issued));
      bump counts "load.deferred" (float_of_int s.Loadgen.deferred);
      bump counts "load.attempts" (float_of_int s.Loadgen.attempts);
      let reg = Metrics.diff before.p_registry after.p_registry in
      ( t,
        {
          s_stats = s;
          s_finished = finished;
          s_duration = Engine.now t.System.engine - t0;
          s_latency = List.assoc_opt "load.latency_us" reg.Metrics.histograms;
          s_kill_at = (match plan with e :: _ -> Some e.Fault_plan.at | [] -> None);
        } ))

(* Requests a storm could not serve: failed, timed out, mismatched, or
   never resolved. *)
let storm_bad n (o : storm_out) =
  let s = o.s_stats in
  let resolved = s.Loadgen.completed + s.Loadgen.failed + s.Loadgen.timeouts + s.Loadgen.digest_mismatches in
  s.Loadgen.failed + s.Loadgen.timeouts + s.Loadgen.digest_mismatches + max 0 (n - resolved)

let storm_resolved n (o : storm_out) =
  let s = o.s_stats in
  o.s_finished
  && s.Loadgen.completed + s.Loadgen.failed + s.Loadgen.timeouts + s.Loadgen.digest_mismatches = n

(* Fault-free storms, one per sub-storm seed: computed once per process
   like dd's baseline. *)
let storm_baselines : (int * int, storm_out * int) Hashtbl.t = Hashtbl.create 8

let storm_baseline sc ~sub =
  let key = (sub, sc.storm_requests) in
  match Hashtbl.find_opt storm_baselines key with
  | Some b -> b
  | None ->
      let recov = new_recov () in
      let _, o = storm_machine (new_acc ()) (Hashtbl.create 8) recov sc ~seed:sub ~kill:false in
      Hashtbl.replace storm_baselines key (o, recov.closed);
      (o, recov.closed)

(* [sc.storm_subs] storms per pass, each at its own sub-seed, pooled:
   one storm's byte mix varies by several percent from seed to seed. *)
let storm_pass sc ~seed =
  let acc = new_acc () and counts = Hashtbl.create 32 and recov = new_recov () in
  let n = sc.storm_requests in
  let runs =
    List.init sc.storm_subs (fun k ->
        let sub = Rng.derive ~seed ~index:k in
        let base = storm_baseline sc ~sub in
        let closed_before = recov.closed in
        let t, o = storm_machine acc counts recov sc ~seed:sub ~kill:true in
        (t, o, recov.closed - closed_before, base, sub))
  in
  timed acc verify_ph (fun () ->
      let all f = List.for_all f runs in
      let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
      let ok_kill = all (fun (_, o, _, _, _) -> storm_resolved n o && storm_bad n o = 0) in
      let ok_base = all (fun (_, _, _, (b, _), _) -> storm_resolved n b && storm_bad n b = 0) in
      let latency =
        Metrics.merge_all
          (List.map
             (fun (_, o, _, _, _) ->
               match o.s_latency with
               | Some h -> { Metrics.empty with Metrics.histograms = [ ("lat", h) ] }
               | None -> Metrics.empty)
             runs)
      in
      let hist = List.assoc_opt "lat" latency.Metrics.histograms in
      (* Latency is over completed requests; a request that failed
         counts in [failed] instead. *)
      let lat f =
        match hist with
        | Some h when h.Metrics.count >= min (n * sc.storm_subs) 1000 ->
            Some (float_of_int (f h) /. 1000.)
        | _ -> None
      in
      let dur_kill = sum (fun (_, o, _, _, _) -> o.s_duration) in
      let dur_base = sum (fun (_, _, _, (b, _), _) -> b.s_duration) in
      let virt =
        [
          {
            m_name = "goodput_mbs";
            m_unit = "MB/s";
            m_value =
              (if ok_kill then mb_per_s (sum (fun (_, o, _, _, _) -> o.s_stats.Loadgen.bytes_in)) dur_kill
               else None);
          };
          {
            m_name = "kill_overhead_pct";
            m_unit = "%";
            m_value = (if ok_kill && ok_base then pct_over ~baseline:dur_base dur_kill else None);
          };
          { m_name = "recovery_ms"; m_unit = "ms"; m_value = mean_recovery_ms recov };
          { m_name = "latency_p50_ms"; m_unit = "ms"; m_value = lat (fun h -> Metrics.quantile h 0.50) };
          { m_name = "latency_p99_ms"; m_unit = "ms"; m_value = lat (fun h -> Metrics.quantile h 0.99) };
          { m_name = "latency_max_ms"; m_unit = "ms"; m_value = lat (fun h -> h.Metrics.max_v) };
        ]
      in
      {
        acc;
        decisions = 0;
        virt;
        counts;
        recov;
        payload_bytes = float_of_int (sum (fun (_, o, _, _, _) -> o.s_stats.Loadgen.bytes_in));
        attempted = 2 * n * sc.storm_subs;
        failed = sum (fun (_, o, _, (b, _), _) -> storm_bad n o + storm_bad n b);
        gates =
          [
            ( "storm.every_request_resolves",
              all (fun (_, o, _, (b, _), _) -> storm_resolved n o && storm_resolved n b) );
            ( "storm.no_digest_mismatch",
              sum (fun (_, o, _, (b, _), _) ->
                  o.s_stats.Loadgen.digest_mismatches + b.s_stats.Loadgen.digest_mismatches)
              = 0 );
            ( "storm.no_deferred_arrival",
              sum (fun (_, o, _, (b, _), _) -> o.s_stats.Loadgen.deferred + b.s_stats.Loadgen.deferred)
              = 0 );
            ("storm.kill_recovered", all (fun (_, _, closed, _, _) -> closed = 1));
            ("storm.no_recovery_in_baseline", all (fun (_, _, _, (_, closed), _) -> closed = 0));
          ];
        inputs =
          String.concat "; "
            (List.map
               (fun (_, o, _, _, sub) ->
                 Printf.sprintf "storm seed %d kill at +%s us" sub
                   (match o.s_kill_at with Some a -> string_of_int a | None -> "none"))
               runs);
        machines = List.map (fun (t, _, _, _, _) -> t) runs;
      })

(* ------------------------------------------------------------------ *)
(* Workload: inject-explore                                            *)
(* ------------------------------------------------------------------ *)

(* The dp-inject scenario's workload and plan window, stepped by the
   bench so that setup and simulation are timed apart: a 700 B UDP
   stream into the VM-run DP8390 driver while the plan mutates its code
   image, with the scenario's watchdog restarting a silently wedged
   driver.

   The exploration is pinned: run [i] boots machine seed and fault plan
   [derive 42 i], as [resilix explore dp-inject --seed 42] does, and the
   bench's --seed picks every run's Seeded tie-break permutation.  A
   blind sample of runs is heavy-tailed in cost (a fault that loops the
   driver VM costs ten times a fault that panics it), so letting the
   seed redraw the plans would make host figures measure the draw, not
   the code. *)
let inject_master_seed = 42

let inject_start = 500_000
let inject_horizon = 2_500_000

type defects = {
  mutable panics : int;
  mutable exceptions : int;
  mutable heartbeats : int;
  mutable other : int;
}

let inject_machine acc counts recov defects ~child ~tiebreak ~faults =
  let plan =
    Fault_plan.generate ~seed:child ~targets:[ "eth.dp8390" ] ~n:faults ~start:inject_start
      ~horizon:inject_horizon ~inject_prob:1.0 ()
  in
  let t, received, before =
    timed acc setup_ph (fun () ->
        let opts =
          {
            System.default_opts with
            System.seed = child;
            engine_policy = Engine.Seeded tiebreak;
            inet_driver = "eth.dp8390";
            disk_mb = 8;
          }
        in
        let t = System.boot ~opts () in
        System.start_services t
          [ System.spec_dp8390 ~policy:"direct" ~heartbeat_period:200_000 () ];
        let received = ref 0 in
        ignore
          (System.spawn_app t ~name:"udp-sink" (fun () ->
               match Sockets.socket Msg.Udp with
               | Error _ -> ()
               | Ok sock -> (
                   match Sockets.listen sock ~port:9 with
                   | Error _ -> ()
                   | Ok () ->
                       let rec pump () =
                         (match Sockets.recvfrom sock ~len:2048 with
                         | Ok _ -> incr received
                         | Error _ -> Api.sleep 50_000);
                         pump ()
                       in
                       pump ())));
        ignore
          (System.run_until t ~timeout:10_000_000 (fun () ->
               Reincarnation.service_up t.System.rs "eth.dp8390"));
        (t, received, probe t))
  in
  let engine = t.System.engine in
  let t0 = Engine.now engine in
  let stop = inject_horizon + 2_000_000 in
  let applied, expected_spans =
    timed acc simulate_ph (fun () ->
        let (_stop : unit -> unit) =
          Peer.start_udp_stream t.System.dp_peer ~dst_ip:Hwmap.local_ip
            ~dst_mac:Hwmap.dp8390_mac ~dst_port:9 ~src_port:7777 ~payload_len:700
            ~interval:10_000
        in
        let applied, expected = Scenario.apply_plan t plan in
        let last_rx = ref 0 and last_progress = ref t0 in
        let rec watchdog () =
          let now = Engine.now engine in
          if now < stop then begin
            if !received > !last_rx then begin
              last_rx := !received;
              last_progress := now
            end
            else if now - !last_progress > 1_000_000 then begin
              last_progress := now;
              match Kernel.find_by_name t.System.kernel "eth.dp8390" with
              | Some _ -> ignore (System.kill_service_once t ~target:"eth.dp8390")
              | None -> ()
            end;
            ignore (Engine.schedule engine ~after:100_000 watchdog)
          end
        in
        watchdog ();
        ignore (step_until acc engine ~timeout:stop (fun () -> Engine.now engine >= stop));
        (!applied, !expected))
  in
  timed acc verify_ph (fun () ->
      add_activity counts before (probe t);
      add_spans recov t;
      List.iter
        (fun (e : Reincarnation.recovery_event) ->
          match e.Reincarnation.defect with
          | Status.D_exit -> defects.panics <- defects.panics + 1
          | Status.D_exception -> defects.exceptions <- defects.exceptions + 1
          | Status.D_heartbeat -> defects.heartbeats <- defects.heartbeats + 1
          | Status.D_killed_by_user | Status.D_complaint | Status.D_update ->
              defects.other <- defects.other + 1)
        (Reincarnation.events t.System.rs);
      let spans = Span.spans t.System.spans in
      let report =
        {
          Scenario.r_completed = !received > 0;
          r_checksum_ok = true;
          r_endpoints_ok = Scenario.endpoints_consistent t [ "eth.dp8390" ];
          r_applied = applied;
          r_expected_spans = expected_spans;
          r_recoveries = List.length (List.filter (fun s -> s.Span.closed_at <> None) spans);
          r_spans = t.System.spans;
          r_end_time = Engine.now engine;
          r_decisions = Engine.decisions engine;
          r_degraded = Data_store.degraded t.System.ds;
          r_breakers = [];
          r_shape = 0L;
          r_storm = None;
        }
      in
      let violations = Invariant.check ~bound:Explore.default_bound report in
      let no_breakers = Reincarnation.breaker_stats t.System.rs = [] in
      ( t,
        !received,
        Engine.now engine - t0,
        List.length spans,
        Array.length report.Scenario.r_decisions,
        violations,
        no_breakers ))

let inject_pass sc ~seed =
  let acc = new_acc () and counts = Hashtbl.create 32 and recov = new_recov () in
  let defects = { panics = 0; exceptions = 0; heartbeats = 0; other = 0 } in
  let machines = ref [] and received = ref 0 and vtime = ref 0 and spans = ref 0 in
  let decisions = ref 0 and findings = ref 0 and crashes = ref 0 and breakers_ok = ref true in
  for i = 0 to sc.inject_runs - 1 do
    let child = Rng.derive ~seed:inject_master_seed ~index:i in
    let tiebreak = Rng.derive ~seed:child ~index:seed in
    match inject_machine acc counts recov defects ~child ~tiebreak ~faults:inject_faults with
    | t, rx, vt, nspans, nd, violations, nb ->
        machines := t :: !machines;
        received := !received + rx;
        vtime := !vtime + vt;
        spans := !spans + nspans;
        decisions := !decisions + nd;
        if violations <> [] then incr findings;
        if not nb then breakers_ok := false
    | exception e ->
        Printf.eprintf "inject-explore run %d raised %s\n%!" i (Printexc.to_string e);
        incr crashes
  done;
  timed acc verify_ph (fun () ->
      bump counts "dst.runs" (float_of_int sc.inject_runs);
      bump counts "dst.findings" (float_of_int (!findings + !crashes));
      let classified = defects.panics + defects.exceptions + defects.heartbeats + defects.other in
      let payload = !received * 700 in
      let virt =
        [
          { m_name = "goodput_mbs"; m_unit = "MB/s"; m_value = None };
          { m_name = "kill_overhead_pct"; m_unit = "%"; m_value = None };
          { m_name = "recovery_ms"; m_unit = "ms"; m_value = mean_recovery_ms recov };
          { m_name = "latency_p50_ms"; m_unit = "ms"; m_value = None };
          { m_name = "latency_p99_ms"; m_unit = "ms"; m_value = None };
          { m_name = "latency_max_ms"; m_unit = "ms"; m_value = None };
        ]
      in
      bump counts "inject.panics" (float_of_int defects.panics);
      bump counts "inject.exceptions" (float_of_int defects.exceptions);
      bump counts "inject.heartbeats" (float_of_int defects.heartbeats);
      bump counts "inject.other" (float_of_int defects.other);
      bump counts "inject.virtual_s" (float_of_int !vtime /. 1e6);
      {
        acc;
        decisions = !decisions;
        virt;
        counts;
        recov;
        payload_bytes = float_of_int payload;
        attempted = sc.inject_runs;
        failed = !findings + !crashes;
        gates =
          [
            ("inject.defect_classes_sum_to_crashes", classified = !spans);
            ("inject.no_crashed_run", !crashes = 0);
            ("inject.no_breakers_under_direct_policy", !breakers_ok);
            ("inject.stream_delivered", !received > 0);
          ];
        inputs =
          Printf.sprintf "plans and machines from master seed %d; tie-break seeds %s" inject_master_seed
            (String.concat ","
               (List.init sc.inject_runs (fun i ->
                    string_of_int
                      (Rng.derive ~seed:(Rng.derive ~seed:inject_master_seed ~index:i) ~index:seed))));
        machines = List.rev !machines;
      })

(* ------------------------------------------------------------------ *)
(* Host-drift reference loops                                          *)
(* ------------------------------------------------------------------ *)

(* Pure OCaml, no repository code, fixed work.  Their times move only
   with the host, so they tell a noisy shared host apart from a
   regression; they are recorded beside every run and never folded
   into an end-to-end metric.  One loop only computes (xorshift over an
   L1-sized table); the other allocates short- and long-lived blocks
   the way the simulator does, and tracks the host's memory-bound
   slowdowns, which the simulator feels and the first loop does not. *)
let ref_cpu () =
  let a = Array.make 4096 0 in
  let x = ref 0x2545F491 in
  for i = 0 to 3_000_000 do
    x := !x lxor ((!x lsl 13) land 0x3FFFFFFFFFFF);
    x := !x lxor (!x lsr 7);
    x := !x lxor ((!x lsl 17) land 0x3FFFFFFFFFFF);
    let j = !x land 4095 in
    a.(j) <- a.(j) + i
  done;
  Sys.opaque_identity a.(0)

let ref_alloc () =
  let keep = Array.make 65536 [] in
  for i = 0 to 2_000_000 do
    let l = [ i; i + 1; i + 2 ] in
    if i land 7 = 0 then keep.(i land 65535) <- l
  done;
  Sys.opaque_identity (Array.length keep)

type drift = { cpu_ms : float list; alloc_ms : float list }

let sample_drift d =
  let ms f =
    let t0 = host_now () in
    ignore (f ());
    (host_now () -. t0) *. 1000.
  in
  let c = ms ref_cpu in
  (* Compacted, the heap the loop runs on no longer depends on how much
     the pass before it grew. *)
  Gc.compact ();
  let a = ms ref_alloc in
  { cpu_ms = c :: d.cpu_ms; alloc_ms = a :: d.alloc_ms }

let no_drift = { cpu_ms = []; alloc_ms = [] }

(* [pass_host p] over the allocating loop's time around the pass (the
   mean of the samples just before and just after it), in multiples of
   that loop.  The loop and the simulator slow down together when the
   host's memory system is contended, so the ratio holds still where
   raw host seconds swing by half. *)
let relative p ~before_ms ~after_ms = pass_host p *. 1000. /. ((before_ms +. after_ms) /. 2.)

(* ------------------------------------------------------------------ *)
(* Layer microbenches (traced runs only)                               *)
(* ------------------------------------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host ns and minor words per op of [f ()], which returns its op
   count; the median of [reps] repetitions. *)
let per_op ?(reps = 3) f =
  let samples =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = host_now () in
        let ops = f () in
        let t1 = host_now () in
        let w1 = Gc.minor_words () in
        let ops = float_of_int (max 1 ops) in
        ((t1 -. t0) *. 1e9 /. ops, (w1 -. w0) /. ops))
  in
  (median (List.map fst samples), median (List.map snd samples))

(* Engine: timers firing and rescheduling over 7 instants.  Eight
   timers keep the same-instant width at 1-2, as the workloads see it
   (inject-explore records a choice point on under 2% of its events),
   so the Seeded decision path is measured at the width it runs at. *)
let timer_storm ~policy ~timers ~total () =
  let engine = Engine.create ~policy () in
  let fired = ref 0 in
  let rec tick i () =
    incr fired;
    if !fired + timers <= total then
      ignore (Engine.schedule engine ~after:(1 + ((i + !fired) mod 7)) (tick i))
  in
  for i = 0 to timers - 1 do
    ignore (Engine.schedule engine ~after:(1 + (i mod 7)) (tick i))
  done;
  Engine.run engine;
  !fired

let all_priv = { Privilege.none with Privilege.ipc_to = Privilege.All; kcalls = Privilege.All }

let bare_kernel () =
  let engine = Engine.create () in
  let kernel = Kernel.create ~engine ~trace:(SimTrace.create ()) ~rng:(Rng.create ~seed:7) () in
  (engine, kernel)

let spawn kernel ~name ?(priv = all_priv) ?(mem_kb = 64) body =
  Kernel.register_program kernel name body;
  match Kernel.spawn_dynamic kernel ~name ~program:name ~args:[] ~priv ~mem_kb with
  | Ok ep -> ep
  | Error _ -> failwith ("perfbench: spawn " ^ name)

(* Kernel: sendrec round trips to an echo server. *)
let ipc_pingpong ~rounds () =
  let engine, kernel = bare_kernel () in
  let echo =
    spawn kernel ~name:"echo" (fun () ->
        let rec loop () =
          (match Api.receive Sysif.Any with
          | Ok (Sysif.Rx_msg { src; _ }) -> ignore (Api.send src Msg.Ok_reply)
          | _ -> ());
          loop ()
        in
        loop ())
  in
  let done_rounds = ref 0 in
  ignore
    (spawn kernel ~name:"ping" (fun () ->
         for _ = 1 to rounds do
           match Api.sendrec echo Msg.Ok_reply with Ok _ -> incr done_rounds | Error _ -> ()
         done));
  Engine.run engine;
  !done_rounds

(* Kernel: block-sized safecopies out of a grant. *)
let safecopy_blocks ~chunk ~copies () =
  let engine, kernel = bare_kernel () in
  let grant = ref (-1) and copied = ref 0 in
  let copier =
    spawn kernel ~name:"copier" ~mem_kb:128 (fun () ->
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; _ }) ->
            for i = 1 to copies do
              match
                Api.safecopy_from ~owner:src ~grant:!grant ~grant_off:(i mod 8 * chunk)
                  ~local_addr:0 ~len:chunk
              with
              | Ok () -> copied := !copied + chunk
              | Error _ -> ()
            done;
            ignore (Api.send src Msg.Ok_reply)
        | _ -> ())
  in
  ignore
    (spawn kernel ~name:"owner" ~mem_kb:128 (fun () ->
         (match Api.grant_create ~for_:copier ~base:0 ~len:(8 * chunk) ~access:Sysif.Read_only with
         | Ok g -> grant := g
         | Error _ -> ());
         ignore (Api.send copier Msg.Ok_reply);
         ignore (Api.receive Sysif.Any)));
  Engine.run engine;
  !copied / 1024

(* Driver VM: replicas of each driver's hot program (same instruction
   mix, same port traffic) run on a bench-owned device. *)
let vm_base = 0x300
let vm_rx_buf = 0x4800
let vm_frame = 1514

let vm_programs =
  let open Isa in
  let p i = vm_base + i in
  [
    ( "dp8390_rx",
      [
        In (R1, p 6);
        Jz (R1, "empty");
        Chklt (R1, 2049);
        Mov (R3, R1);
        Addi (R3, 3);
        Shr (R3, 2);
        Chknz R3;
        Chklt (R3, 514);
        Mov (R5, R2);
        Chkeq (R5, vm_rx_buf);
        Label "rxloop";
        Jz (R3, "rxdone");
        Chklt (R3, 514);
        Chklt (R5, vm_rx_buf + 2048);
        In (R6, p 4);
        Store (R5, 0, R6);
        Addi (R5, 4);
        Addi (R3, -1);
        Jmp "rxloop";
        Label "rxdone";
        Chkeq (R3, 0);
        Chklt (R5, vm_rx_buf + 2048 + 4);
        Movi (R4, 1);
        Out (p 7, R4);
        Movi (R4, 1);
        Out (p 3, R4);
        Label "empty";
        Mov (R0, R1);
        Ret;
      ] );
    ("rtl8139_isr", [ In (R0, p 3); Chklt (R0, 16); Ret ]);
    ( "disk_io",
      [
        Chknz R2;
        Chklt (R2, 129);
        Out (p 1, R1);
        Out (p 2, R2);
        Out (p 5, R3);
        Out (p 0, R4);
        Movi (R0, 0);
        Ret;
      ] );
  ]

let vm_device ~reg access =
  match access with
  | Bus.Read -> Ok (match reg with 6 -> vm_frame | 3 -> 1 | _ -> reg * 0x01010101)
  | Bus.Write _ -> Ok 0

let vm_calls ~program ~calls () =
  let engine, kernel = bare_kernel () in
  let bus = Bus.create () in
  Bus.register bus ~base:vm_base ~len:16 vm_device;
  Bus.attach bus kernel;
  let priv = Privilege.driver ~ipc_to:[] ~io_ports:[ (vm_base, vm_base + 15) ] ~irqs:[] in
  let ran = ref 0 in
  ignore
    (spawn kernel ~name:"vm" ~priv ~mem_kb:32 (fun () ->
         let progs = Image.load (Image.assemble ~origin:0x1000 vm_programs) in
         let prog = Image.find progs program in
         let regs = Array.make 8 0 in
         for _ = 1 to calls do
           Array.fill regs 0 8 0;
           regs.(1) <- 7;
           regs.(2) <- (if program = "dp8390_rx" then vm_rx_buf else 8);
           ignore (Interp.run prog ~regs);
           incr ran
         done));
  Engine.run engine;
  !ran

(* Net: wire encode + CRC-checked decode of one frame. *)
let wire_frame ~payload =
  {
    Wire.dst_mac = Hwmap.rtl8139_mac;
    src_mac = Hwmap.rtl_peer_mac;
    packet =
      {
        Wire.src_ip = Hwmap.rtl_peer_ip;
        dst_ip = Hwmap.local_ip;
        body =
          Wire.Tcp
            {
              Wire.src_port = 80;
              dst_port = 40000;
              seq = 1000;
              ack_no = 2000;
              syn = false;
              ack = true;
              fin = false;
              rst = false;
              window = 65535;
              payload = Bytes.make payload 'x';
            };
      };
  }

let wire_roundtrips ~payload ~n () =
  let frame = wire_frame ~payload in
  let ok = ref 0 in
  for _ = 1 to n do
    match Wire.decode (Wire.encode frame) with Ok _ -> incr ok | Error _ -> ()
  done;
  !ok

(* Net: two TCP engines wired back to back through in-memory queues;
   segments are handed over as records (the wire cost is measured
   apart). *)
let tcp_pair ~isn =
  let to_a = Queue.create () and to_b = Queue.create () in
  let segments = ref 0 in
  let cbs q =
    {
      Tcp.emit =
        (fun s ->
          incr segments;
          Queue.push s q);
      set_timer = (fun _ -> ());
      notify = (fun _ -> ());
    }
  in
  let b =
    Tcp.create_passive (Tcp.default_config ~local_port:80 ~remote_port:40000 ~isn:(isn + 7))
      ~now:0 (cbs to_a)
  in
  let a =
    Tcp.create_active (Tcp.default_config ~local_port:40000 ~remote_port:80 ~isn) ~now:0
      (cbs to_b)
  in
  let rec pump () =
    match (Queue.take_opt to_b, Queue.take_opt to_a) with
    | None, None -> ()
    | sb, sa ->
        Option.iter (Tcp.handle_segment b ~now:0) sb;
        Option.iter (Tcp.handle_segment a ~now:0) sa;
        pump ()
  in
  (a, b, pump, segments)

let tcp_stream ~bytes () =
  let a, b, pump, segments = tcp_pair ~isn:1 in
  pump ();
  let chunk = Bytes.make 16384 'y' in
  let sent = ref 0 and got = ref 0 in
  let stalled = ref 0 in
  while !got < bytes && !stalled < 1000 do
    let before = !got in
    if !sent < bytes then
      sent := !sent + Tcp.send a ~now:0 chunk ~off:0 ~len:(min 16384 (bytes - !sent));
    pump ();
    got := !got + Bytes.length (Tcp.recv b ~max:65536);
    pump ();
    if !got = before then incr stalled
  done;
  !segments

let tcp_conns ~n () =
  let done_ = ref 0 in
  let msg = Bytes.make 100 'q' in
  for i = 1 to n do
    let a, b, pump, _ = tcp_pair ~isn:(i * 7919) in
    pump ();
    ignore (Tcp.send a ~now:0 msg ~off:0 ~len:100);
    pump ();
    ignore (Tcp.recv b ~max:1024);
    Tcp.close a ~now:0;
    pump ();
    Tcp.close b ~now:0;
    pump ();
    if Tcp.is_closed a || Tcp.peer_closed b then incr done_
  done;
  !done_

(* Checksum: FNV-1a over 64 KB buffers. *)
let fnv_kb ~kb () =
  let buf = Bytes.make 65536 'z' in
  let h = ref Fnv.start in
  for _ = 1 to kb / 64 do
    h := Fnv.update !h buf ~off:0 ~len:65536
  done;
  ignore (Sys.opaque_identity !h);
  kb

(* Fs: host ns per KB of a no-kill dd read through the whole stack
   (VFS, MFS, cache, SATA driver), setup excluded. *)
let fs_read_ns_per_kb ~bytes =
  median
    (List.init 3 (fun _ ->
         let acc = new_acc () in
         let _, finished, r =
           dd_machine acc (Hashtbl.create 8) (new_recov ()) ~seed:11 ~bytes ~every:1
             ~kill_phase:None
         in
         if not (finished && r.Dd.ok) then failwith "perfbench: fs microbench read failed";
         acc.host.(simulate_ph) *. 1e9 /. float_of_int (bytes / 1024)))

let microbenches sc =
  let m = sc.micro in
  let fifo_ns, fifo_w = per_op (timer_storm ~policy:Engine.Fifo ~timers:8 ~total:(20_000 * m)) in
  let seeded_ns, seeded_w =
    per_op (timer_storm ~policy:(Engine.Seeded 7) ~timers:8 ~total:(20_000 * m))
  in
  let ipc_ns, ipc_w = per_op (ipc_pingpong ~rounds:(2_000 * m)) in
  let copy_ns, _ = per_op (safecopy_blocks ~chunk:4096 ~copies:(1_000 * m)) in
  let vm name calls = per_op (vm_calls ~program:name ~calls) in
  let rx_ns, rx_w = vm "dp8390_rx" (50 * m) in
  let isr_ns, isr_w = vm "rtl8139_isr" (2_000 * m) in
  let io_ns, io_w = vm "disk_io" (2_000 * m) in
  let ack_ns, ack_w = per_op (wire_roundtrips ~payload:0 ~n:(5_000 * m)) in
  let mss_ns, mss_w = per_op (wire_roundtrips ~payload:Wire.max_payload ~n:(1_000 * m)) in
  let seg_ns, seg_w = per_op (tcp_stream ~bytes:(400_000 * m)) in
  let conn_ns, conn_w = per_op (tcp_conns ~n:(100 * m)) in
  let fnv_ns, _ = per_op (fnv_kb ~kb:(1024 * m)) in
  let fs_ns = fs_read_ns_per_kb ~bytes:(1024 * 1024 * max 1 (m / 2)) in
  [
    ("sim.step_ns.fifo", "ns", fifo_ns);
    ("sim.step_ns.seeded", "ns", seeded_ns);
    ("sim.step_words.fifo", "words", fifo_w);
    ("sim.step_words.seeded", "words", seeded_w);
    ("kernel.sendrec_ns", "ns", ipc_ns);
    ("kernel.sendrec_words", "words", ipc_w);
    ("kernel.safecopy_ns_per_kb", "ns/KB", copy_ns);
    ("vm.call_ns.dp8390_rx", "ns", rx_ns);
    ("vm.call_ns.rtl8139_isr", "ns", isr_ns);
    ("vm.call_ns.disk_io", "ns", io_ns);
    ("vm.call_words.dp8390_rx", "words", rx_w);
    ("vm.call_words.rtl8139_isr", "words", isr_w);
    ("vm.call_words.disk_io", "words", io_w);
    ("net.wire_ns.ack", "ns", ack_ns);
    ("net.wire_ns.mss", "ns", mss_ns);
    ("net.wire_words.ack", "words", ack_w);
    ("net.wire_words.mss", "words", mss_w);
    ("net.tcp_segment_ns", "ns", seg_ns);
    ("net.tcp_segment_words", "words", seg_w);
    ("net.tcp_conn_ns", "ns", conn_ns);
    ("net.tcp_conn_words", "words", conn_w);
    ("checksum.fnv_ns_per_kb", "ns/KB", fnv_ns);
    ("fs.read_ns_per_kb", "ns/KB", fs_ns);
  ]

(* ------------------------------------------------------------------ *)
(* Workload table                                                      *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_name : string;
  w_pass : scale -> seed:int -> pass;
  w_seeded : bool;  (** Seeded tie-breaks (else Fifo) *)
  w_tcp : bool;  (** payload crosses TCP *)
  w_vm_program : string;  (** the driver's hot VM program *)
  w_devio_per_call : float;  (** port accesses per call of that program *)
  w_frame_payload : int;  (** payload bytes per data frame on the link (0 = no link traffic) *)
}

let workloads =
  [
    {
      w_name = "dd-kill";
      w_pass = dd_pass;
      w_seeded = false;
      w_tcp = false;
      w_vm_program = "disk_io";
      w_devio_per_call = 4.;
      w_frame_payload = 0;
    };
    {
      w_name = "storm-kill";
      w_pass = storm_pass;
      w_seeded = false;
      w_tcp = true;
      w_vm_program = "rtl8139_isr";
      w_devio_per_call = 1.;
      w_frame_payload = Wire.max_payload;
    };
    {
      w_name = "inject-explore";
      w_pass = inject_pass;
      w_seeded = true;
      w_tcp = false;
      w_vm_program = "dp8390_rx";
      w_devio_per_call = float_of_int (((vm_frame + 3) / 4) + 3);
      w_frame_payload = 700;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let m name unit_ v = { m_name = name; m_unit = unit_; m_value = Some v }
let finite x = match classify_float x with FP_nan | FP_infinite -> false | _ -> true

let json_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.filter_map
         (fun x ->
           match x.m_value with
           | Some v when finite v ->
               Some (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.m_name v x.m_unit)
           | _ -> None)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

let print_metric x =
  Printf.printf "  %-36s %s %s\n" x.m_name
    (match x.m_value with None -> "null" | Some v -> Printf.sprintf "%.6g" v)
    x.m_unit

let cores () = Domain.recommended_domain_count ()

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Every gate of [warmup] and [passes], plus byte-identity of the
   fingerprints of [passes].  Returns the failing gate names. *)
let failed_gates ~warmup passes =
  let first = List.hd passes in
  let fp = fingerprint first in
  let own =
    List.sort_uniq compare
      (List.concat_map
         (fun p -> List.filter_map (fun (n, ok) -> if ok then None else Some n) p.gates)
         (warmup :: passes))
  in
  let differing =
    List.concat_map
      (fun p ->
        let a = String.split_on_char ';' fp and b = String.split_on_char ';' (fingerprint p) in
        if List.length a <> List.length b then [ "passes_identical(field set)" ]
        else
          List.concat
            (List.map2
               (fun x y ->
                 if String.equal x y then [] else [ "passes_identical(" ^ x ^ " vs " ^ y ^ ")" ])
               a b))
      passes
  in
  own @ List.sort_uniq compare differing

(* Workload counts that back a gate but are no per-layer metric. *)
let print_workload_counts p =
  let extra =
    List.filter
      (fun (k, _) -> String.length k > 7 && (String.sub k 0 7 = "inject." || k = "load.attempts"))
      (List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) p.counts []))
  in
  if extra <> [] then
    print_endline
      ("workload counts:" ^ String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%g" k v) extra))

let virt_metrics p =
  let share =
    if p.attempted > 0 then Some (float_of_int p.failed /. float_of_int p.attempted) else None
  in
  p.virt @ [ { m_name = "ops_failed_share"; m_unit = "ratio"; m_value = share } ]

let header ~wl ~seed ~commit ~trace sc_name =
  Printf.printf "perfbench %s seed=%d scale=%s trace=%d\n" wl.w_name seed sc_name trace;
  Printf.printf "host: commit=%s cores=%d ocaml=%s word=%d\n" commit (cores ()) Sys.ocaml_version
    Sys.word_size

let report_failure ~attempted ~failed bad =
  List.iter (fun g -> Printf.printf "GATE FAILED: %s\n" g) bad;
  print_endline (json_result ~correct:false ~attempted ~failed []);
  exit 1

(* ------------------------------------------------------------------ *)
(* Timed run                                                           *)
(* ------------------------------------------------------------------ *)

(* Every pass starts from a collected heap, so no pass pays for the
   garbage of the one before.  Only the traced pass keeps its machines:
   a retained machine would make every later pass's GC work larger. *)
let fresh_pass ?(keep_machines = false) sc wl ~seed =
  Gc.full_major ();
  let p = wl.w_pass sc ~seed in
  if keep_machines then p else { p with machines = [] }

(* The first pass of a process warms lazily built global tables (a few
   hundred words of one-time allocation), so it is checked by the gates
   but kept out of every figure and of the identity comparison. *)
let run_timed sc wl ~seed ~seconds =
  let drift = ref (sample_drift no_drift) in
  let start = Unix.gettimeofday () in
  let warmup = fresh_pass sc wl ~seed in
  let peak = peak_heap_mb () in
  drift := sample_drift !drift;
  let passes = ref [] in
  let rec more n =
    let elapsed = Unix.gettimeofday () -. start in
    let typical = median (List.map pass_host (warmup :: !passes)) in
    if n < 3 || (elapsed +. typical <= seconds && n < 200) then begin
      passes := fresh_pass sc wl ~seed :: !passes;
      drift := sample_drift !drift;
      more (n + 1)
    end
  in
  more 0;
  let passes = List.rev !passes in
  let first = List.hd passes in
  let drift = !drift in
  (* Samples in time order: before the warm-up, after it, then after
     each measured pass. *)
  let alloc_ms = Array.of_list (List.rev drift.alloc_ms) in
  let rel =
    List.mapi (fun k p -> relative p ~before_ms:alloc_ms.(k + 1) ~after_ms:alloc_ms.(k + 2)) passes
  in
  Printf.printf "passes: 1 warm-up + %d measured in %.3f wall s; per pass:" (List.length passes)
    (Unix.gettimeofday () -. start);
  List.iter (fun p -> Printf.printf " %.4f" (pass_host p)) (warmup :: passes);
  print_newline ();
  Printf.printf
    "host drift: ref_cpu_ms=%.4f ref_alloc_ms=%.4f (bench-local reference loops, median of %d, \
     one between passes)\n"
    (median drift.cpu_ms) (median drift.alloc_ms) (List.length drift.cpu_ms);
  match failed_gates ~warmup passes with
  | _ :: _ as bad -> report_failure ~attempted:first.attempted ~failed:first.failed bad
  | [] ->
      let e2e =
        [
          m "setup_s" "s" (median (List.map (fun p -> p.acc.host.(setup_ph)) passes));
          m "host_rel" "ref" (median rel);
          m "alloc_mwords" "Mwords" (alloc_words first /. 1e6);
          m "peak_heap_mb" "MB" peak;
        ]
      in
      Printf.printf "inputs: %s\n" first.inputs;
      print_workload_counts first;
      print_endline "end-to-end, host clock (medians over measured passes):";
      List.iter print_metric (m "host_s" "s" (median (List.map pass_host passes)) :: e2e);
      print_endline "end-to-end, virtual clock (identical in every pass; null = not measured here):";
      List.iter print_metric (virt_metrics first);
      print_endline (json_result ~correct:true ~attempted:first.attempted ~failed:first.failed e2e)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let run_traced sc wl ~seed ~jsonl =
  let drift = ref (sample_drift no_drift) in
  let untraced1 = fresh_pass sc wl ~seed in
  drift := sample_drift !drift;
  (* The traced pass: the same pass, then the outside-in dump — the
     registry, kernel counters and spans of every machine through the
     Obs.Export writer, and the per-component MTTR report. *)
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let traced = fresh_pass ~keep_machines:true sc wl ~seed in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  drift := sample_drift !drift;
  let traced_rel =
    match !drift.alloc_ms with
    | after_ms :: before_ms :: _ -> relative traced ~before_ms ~after_ms
    | _ -> nan
  in
  let t_export = host_now () in
  let lines =
    List.concat
      (List.mapi
         (fun i t -> System.obs_lines ~label:(Printf.sprintf "%s/machine-%d" wl.w_name i) t)
         traced.machines)
  in
  let mttr = List.concat_map (fun t -> Span.report t.System.spans) traced.machines in
  let export_s = host_now () -. t_export in
  let traced = { traced with machines = [] } in
  let untraced2 = fresh_pass sc wl ~seed in
  (match jsonl with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
      close_out oc);
  match failed_gates ~warmup:untraced1 [ traced; untraced2 ] with
  | _ :: _ as bad -> report_failure ~attempted:traced.attempted ~failed:traced.failed bad
  | [] ->
      let micro = microbenches sc in
      let mv name =
        match List.find_opt (fun (n, _, _) -> n = name) micro with
        | Some (_, _, v) -> v
        | None -> nan
      in
      let drift = !drift in
      let c = traced.counts in
      let sim_ns = traced.acc.host.(simulate_ph) *. 1e9 in
      let steps = float_of_int traced.acc.steps in
      let untraced_host = (pass_host untraced1 +. pass_host untraced2) /. 2. in
      let ratio a b = if b > 0. then a /. b else nan in
      let r = traced.recov in
      let phase_mean ph =
        let i = phase_idx ph in
        if r.phase_n.(i) > 0 then float_of_int r.phase_sum.(i) /. float_of_int r.phase_n.(i) else nan
      in
      let step_ns = mv (if wl.w_seeded then "sim.step_ns.seeded" else "sim.step_ns.fifo") in
      let pct ns = 100. *. ns /. sim_ns in
      (* Data frames carry the payload; the rest are ACK-sized.  A
         frame's wire cost is interpolated between the measured ACK and
         MSS round trips by its payload. *)
      let wire_ns =
        let frames = get c "hw.link.frames_sent" in
        if wl.w_frame_payload = 0 then 0.
        else
          let data = Float.min frames (traced.payload_bytes /. float_of_int wl.w_frame_payload) in
          let ack = mv "net.wire_ns.ack" and mss = mv "net.wire_ns.mss" in
          let per_data =
            ack +. ((mss -. ack) *. float_of_int wl.w_frame_payload /. float_of_int Wire.max_payload)
          in
          (data *. per_data) +. ((frames -. data) *. ack)
      in
      let shares =
        [
          ("share.engine_pct", pct (steps *. step_ns));
          ("share.kernel_ipc_pct", pct (get c "kernel.ipc.messages" *. mv "kernel.sendrec_ns" /. 2.));
          ( "share.safecopy_pct",
            pct (get c "kernel.safecopy.bytes" /. 1024. *. mv "kernel.safecopy_ns_per_kb") );
          ( "share.vm_pct",
            pct
              (get c "kernel.devio.calls" /. wl.w_devio_per_call
              *. mv ("vm.call_ns." ^ wl.w_vm_program)) );
          ("share.checksum_pct", pct (traced.payload_bytes /. 1024. *. mv "checksum.fnv_ns_per_kb"));
          ("share.wire_pct", pct wire_ns);
          ( "share.tcp_pct",
            if wl.w_tcp then pct (get c "hw.link.frames_sent" *. mv "net.tcp_segment_ns") else 0. );
        ]
      in
      let attributed = List.fold_left (fun a (_, v) -> a +. v) 0. shares in
      let counted name unit_ = m name unit_ (get c name) in
      let layer =
        [
          m "sim.events" "count" steps;
          m "sim.ns_per_event" "ns" (ratio sim_ns steps);
          m "sim.choice_points" "count" (float_of_int traced.decisions);
        ]
        @ List.filter_map
            (fun (n, u, v) -> if String.starts_with ~prefix:"sim." n then Some (m n u v) else None)
            micro
        @ [
            counted "kernel.ipc.messages" "count";
            counted "kernel.ipc.notifications" "count";
            counted "kernel.safecopy.calls" "count";
            counted "kernel.safecopy.bytes" "bytes";
            counted "kernel.devio.calls" "count";
            counted "kernel.irq.raised" "count";
            m "kernel.copy_ratio" "ratio" (ratio (get c "kernel.safecopy.bytes") traced.payload_bytes);
          ]
        @ List.filter_map
            (fun (n, u, v) ->
              if List.mem (String.sub n 0 (String.index n '.')) [ "kernel"; "vm"; "net"; "checksum"; "fs" ]
              then Some (m n u v)
              else None)
            micro
        @ [
            counted "driver.requests" "count";
            m "hw.devio_per_request" "ratio"
              (ratio (get c "kernel.devio.calls") (get c "driver.requests"));
            counted "hw.link.frames_sent" "count";
            counted "hw.link.frames_dropped" "count";
            counted "inet.accept_refused" "count";
            counted "inet.frames_queued_during_outage" "count";
            counted "fs.reissued_ios" "count";
            counted "mfs.driver.outages" "count";
            m "rs.recoveries" "count" (float_of_int r.closed);
            counted "ds.publishes" "count";
            counted "load.refused" "count";
            counted "load.retries" "count";
            counted "load.deferred" "count";
            counted "httpd.requests" "count";
            counted "dst.runs" "count";
            counted "dst.findings" "count";
            m "gc.words_per_payload_word" "ratio"
              (ratio (alloc_words traced) (traced.payload_bytes /. float_of_int (Sys.word_size / 8)));
            m "gc.major_collections" "count" (float_of_int majors);
            m "trace.overhead_pct" "%"
              (100. *. (pass_host traced +. export_s -. untraced_host) /. untraced_host);
            m "host.pass_s" "s" (pass_host traced);
            m "host.pass_rel" "ref" traced_rel;
            m "host.ref_cpu_ms" "ms" (median drift.cpu_ms);
            m "host.ref_alloc_ms" "ms" (median drift.alloc_ms);
          ]
        @ List.map (fun (n, v) -> m n "%" v) shares
        @ [ m "share.unattributed_pct" "%" (100. -. attributed) ]
        @ List.filter (fun x -> x.m_name = "ops_failed_share") (virt_metrics traced)
      in
      (* Printed, not in the JSON line: the virtual phase means are the
         same on every seed, and the other two exist on one workload. *)
      let opt_ratio a b = if b > 0. then Some (a /. b) else None in
      let phase_opt ph = let v = phase_mean ph in if Float.is_nan v then None else Some v in
      let text_only =
        List.map
          (fun ph ->
            { m_name = "rs.phase_us." ^ Span.phase_name ph; m_unit = "us"; m_value = phase_opt ph })
          [ Span.Detect; Span.Policy; Span.Respawn; Span.Republish; Span.Reopen ]
        @ [
            {
              m_name = "dst.ms_per_run";
              m_unit = "ms";
              m_value = opt_ratio (1000. *. pass_host traced) (get c "dst.runs");
            };
            {
              m_name = "load.refused_share";
              m_unit = "ratio";
              m_value = opt_ratio (get c "load.refused") (get c "load.attempts");
            };
          ]
      in
      Printf.printf "traced pass: %d JSONL lines through Obs.Export (%.4f host s), %d MTTR rows\n"
        (List.length lines) export_s (List.length mttr);
      Array.iteri
        (fun i name ->
          Printf.printf "span %-8s host %.6f s  minor words %.0f\n" name traced.acc.host.(i)
            traced.acc.words.(i))
        phase_names;
      Printf.printf "inputs: %s\n" traced.inputs;
      print_workload_counts traced;
      print_endline "per-layer (outside-in; host shares are estimates: count x microbench ns/op):";
      List.iter print_metric (layer @ text_only);
      print_endline "end-to-end, virtual clock:";
      List.iter print_metric (virt_metrics traced);
      print_endline
        (json_result ~correct:true ~attempted:traced.attempted ~failed:traced.failed layer)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload dd-kill|storm-kill|inject-explore --seed N --seconds S \
     --trace 0|1 [--scale full|smoke] [--commit ID] [--jsonl FILE]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let scale = ref ("full", full) and commit = ref "unknown" and jsonl = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := List.find_opt (fun x -> x.w_name = w) workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: s :: rest -> seed := Some (int_arg s); parse rest
    | "--seconds" :: s :: rest -> seconds := Some (int_arg s); parse rest
    | "--trace" :: ("0" | "1" as s) :: rest -> trace := Some (s = "1"); parse rest
    | "--scale" :: "full" :: rest -> scale := ("full", full); parse rest
    | "--scale" :: "smoke" :: rest -> scale := ("smoke", smoke); parse rest
    | "--commit" :: s :: rest -> commit := s; parse rest
    | "--jsonl" :: f :: rest -> jsonl := Some f; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some wl, Some seed, Some seconds, Some trace ->
      let sc_name, sc = !scale in
      header ~wl ~seed ~commit:!commit ~trace:(if trace then 1 else 0) sc_name;
      if trace then run_traced sc wl ~seed ~jsonl:!jsonl
      else run_timed sc wl ~seed ~seconds:(float_of_int seconds)
  | _ -> usage ()
