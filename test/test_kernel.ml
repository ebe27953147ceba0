(* Tests for the simulated microkernel: rendezvous IPC, temporally
   unique endpoints, notifications, async sends, grants + safecopy,
   privileges, kills during IPC, alarms, IRQ routing and DMA. *)

module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel
module Memory = Resilix_kernel.Memory
module Sysif = Resilix_kernel.Sysif
module Api = Resilix_kernel.Sysif.Api
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Privilege = Resilix_proto.Privilege
module Signal = Resilix_proto.Signal
module Status = Resilix_proto.Status
module Wellknown = Resilix_proto.Wellknown

let make_kernel () =
  let engine = Engine.create () in
  let trace = Trace.create () in
  let rng = Rng.create ~seed:1 in
  let kernel = Kernel.create ~engine ~trace ~rng () in
  (engine, kernel)

let all_priv =
  {
    Privilege.none with
    Privilege.ipc_to = Privilege.All;
    kcalls = Privilege.All;
    io_ports = [ (0, 0xFFFF) ];
    irqs = List.init 32 Fun.id;
  }

let ep slot = Endpoint.make ~slot ~gen:1

(* Spawn a test process at a dynamic slot with full privileges. *)
let spawn kernel name body =
  Kernel.register_program kernel name body;
  match
    Kernel.spawn_dynamic kernel ~name ~program:name ~args:[] ~priv:all_priv ~mem_kb:64
  with
  | Ok e -> e
  | Error _ -> Alcotest.fail "spawn failed"

let errno = Alcotest.testable Errno.pp Errno.equal

(* Route every port access through [f]: a read returns its result, a
   write its success. *)
let set_io kernel f =
  Kernel.set_io_handlers kernel ~io_in:f ~io_out:(fun port _ -> Result.map ignore (f port))

let test_rendezvous_send_receive () =
  let engine, kernel = make_kernel () in
  let got = ref None in
  let receiver =
    spawn kernel "receiver" (fun () ->
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { body = Message.Dev_open { minor }; _ }) -> got := Some minor
        | _ -> ())
  in
  let _sender =
    spawn kernel "sender" (fun () -> ignore (Api.send receiver (Message.Dev_open { minor = 7 })))
  in
  Engine.run engine;
  Alcotest.(check (option int)) "message delivered" (Some 7) !got

let test_sender_blocks_until_receive () =
  let engine, kernel = make_kernel () in
  let send_done_at = ref 0 in
  let receiver =
    spawn kernel "receiver" (fun () ->
        Api.sleep 1000;
        ignore (Api.receive Sysif.Any))
  in
  let _sender =
    spawn kernel "sender" (fun () ->
        ignore (Api.send receiver Message.Ok_reply);
        send_done_at := Api.now ())
  in
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "send completed only after receive (at %d)" !send_done_at)
    true (!send_done_at >= 1000)

let test_sendrec_reply () =
  let engine, kernel = make_kernel () in
  let reply = ref None in
  let server =
    spawn kernel "server" (fun () ->
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; body = Message.Dev_read _ }) ->
            ignore (Api.send src (Message.Dev_reply { result = Ok 42 }))
        | _ -> ())
  in
  let _client =
    spawn kernel "client" (fun () ->
        match Api.sendrec server (Message.Dev_read { minor = 0; pos = 0; grant = 0; len = 0 }) with
        | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok n }; _ }) -> reply := Some n
        | _ -> ())
  in
  Engine.run engine;
  Alcotest.(check (option int)) "sendrec got the reply" (Some 42) !reply

let test_receive_from_filters () =
  let engine, kernel = make_kernel () in
  let order = ref [] in
  (* Receiver waits specifically for B even though A sends first. *)
  let mk_receiver a_ep b_ep =
    spawn kernel "receiver" (fun () ->
        (match Api.receive (Sysif.From b_ep) with
        | Ok (Sysif.Rx_msg { body = Message.Err_reply e; _ }) -> order := ("b", e) :: !order
        | _ -> ());
        match Api.receive (Sysif.From a_ep) with
        | Ok (Sysif.Rx_msg { body = Message.Err_reply e; _ }) -> order := ("a", e) :: !order
        | _ -> ())
  in
  (* Pre-create sender endpoints by spawning them first but have them
     sleep so the receiver installs its filter first. *)
  let a =
    spawn kernel "a" (fun () ->
        Api.sleep 10;
        ignore (Api.send (Option.get (Kernel.find_by_name kernel "receiver")) (Message.Err_reply Errno.E_io)))
  in
  let b =
    spawn kernel "b" (fun () ->
        Api.sleep 50;
        ignore (Api.send (Option.get (Kernel.find_by_name kernel "receiver")) (Message.Err_reply Errno.E_busy)))
  in
  let _r = mk_receiver a b in
  Engine.run engine;
  Alcotest.(check (list (pair string errno)))
    "B served first despite A arriving earlier"
    [ ("a", Errno.E_io); ("b", Errno.E_busy) ]
    !order

let test_notify_queued_and_deduped () =
  let engine, kernel = make_kernel () in
  let notifies = ref 0 in
  let receiver =
    spawn kernel "receiver" (fun () ->
        Api.sleep 1000;
        let rec drain () =
          match Api.receive Sysif.Any with
          | Ok (Sysif.Rx_notify { kind = Message.N_heartbeat_request; _ }) ->
              incr notifies;
              drain ()
          | Ok (Sysif.Rx_msg { body = Message.Ok_reply; _ }) -> () (* stop marker *)
          | _ -> drain ()
        in
        drain ())
  in
  let _sender =
    spawn kernel "sender" (fun () ->
        (* Three notifies of the same kind while target is asleep must
           collapse into one pending notification. *)
        ignore (Api.notify receiver Message.N_heartbeat_request);
        ignore (Api.notify receiver Message.N_heartbeat_request);
        ignore (Api.notify receiver Message.N_heartbeat_request);
        Api.sleep 2000;
        ignore (Api.send receiver Message.Ok_reply))
  in
  Engine.run engine;
  Alcotest.(check int) "notifications deduplicated" 1 !notifies

let test_async_send_does_not_block () =
  let engine, kernel = make_kernel () in
  let t_sent = ref (-1) in
  let got = ref false in
  let receiver =
    spawn kernel "receiver" (fun () ->
        Api.sleep 5000;
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { body = Message.Ok_reply; _ }) -> got := true
        | _ -> ())
  in
  let _sender =
    spawn kernel "sender" (fun () ->
        ignore (Api.asend receiver Message.Ok_reply);
        t_sent := Api.now ())
  in
  Engine.run engine;
  Alcotest.(check bool) "async send returned immediately" true (!t_sent >= 0 && !t_sent < 5000);
  Alcotest.(check bool) "message eventually delivered" true !got

let test_dead_destination () =
  let engine, kernel = make_kernel () in
  let result = ref None in
  let victim = spawn kernel "victim" (fun () -> Api.sleep 100) in
  let _sender =
    spawn kernel "sender" (fun () ->
        Api.sleep 1000 (* victim exits at t=100ish *);
        result := Some (Api.send victim Message.Ok_reply))
  in
  Engine.run engine;
  match !result with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "expected E_dead_src_dst for send to dead process"

let test_kill_aborts_rendezvous () =
  let engine, kernel = make_kernel () in
  let result = ref None in
  (* The "driver" receives a request and hangs forever; killing it must
     abort the file-server-style sendrec with E_dead_src_dst. *)
  let driver =
    spawn kernel "driver" (fun () ->
        ignore (Api.receive Sysif.Any);
        Api.sleep 1_000_000_000)
  in
  let _fs =
    spawn kernel "fs" (fun () ->
        result := Some (Api.sendrec driver (Message.Dev_read { minor = 0; pos = 0; grant = 0; len = 512 })))
  in
  ignore
    (Engine.schedule engine ~after:5000 (fun () ->
         ignore (Kernel.kill kernel driver (Status.Killed Signal.Sig_kill))));
  Engine.run engine;
  match !result with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "expected E_dead_src_dst when driver killed mid-sendrec"

let test_stale_endpoint_after_restart () =
  let engine, kernel = make_kernel () in
  let result = ref None in
  Kernel.register_program kernel "drv" (fun () -> Api.sleep 1_000_000_000);
  let first =
    match Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv:all_priv ~mem_kb:64 with
    | Ok e -> e
    | Error _ -> Alcotest.fail "spawn"
  in
  ignore
    (Engine.schedule engine ~after:100 (fun () ->
         ignore (Kernel.kill kernel first (Status.Killed Signal.Sig_kill));
         (* Restart: same slot may be reused, generation must differ. *)
         match
           Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv:all_priv
             ~mem_kb:64
         with
         | Ok second -> Alcotest.(check bool) "endpoint differs" false (Endpoint.equal first second)
         | Error _ -> Alcotest.fail "respawn"));
  let _sender =
    spawn kernel "sender" (fun () ->
        Api.sleep 10_000;
        result := Some (Api.send first Message.Ok_reply))
  in
  Engine.run engine ~until:20_000;
  match !result with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "expected stale endpoint send to fail with E_dead_src_dst"

let test_grant_safecopy () =
  let engine, kernel = make_kernel () in
  let copied = ref "" in
  let owner =
    spawn kernel "owner" (fun () ->
        let mem = Api.memory () in
        Memory.write mem ~addr:100 (Bytes.of_string "hello grants");
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; body = Message.Dev_read { grant = -1; _ } }) ->
            (* Create the grant on demand and ship its id. *)
            let g =
              match
                Api.grant_create ~for_:src ~base:100 ~len:12 ~access:Sysif.Read_only
              with
              | Ok g -> g
              | Error _ -> Api.panic "grant_create failed"
            in
            ignore (Api.send src (Message.Dev_reply { result = Ok g }))
        | _ -> ())
  in
  let _reader =
    spawn kernel "reader" (fun () ->
        match Api.sendrec owner (Message.Dev_read { minor = 0; pos = 0; grant = -1; len = 12 }) with
        | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok g }; _ }) -> (
            match Api.safecopy_from ~owner ~grant:g ~grant_off:0 ~local_addr:0 ~len:12 with
            | Ok () ->
                let mem = Api.memory () in
                copied := Bytes.to_string (Memory.read mem ~addr:0 ~len:12)
            | Error _ -> ())
        | _ -> ())
  in
  Engine.run engine;
  Alcotest.(check string) "safecopy moved the bytes" "hello grants" !copied

let test_grant_wrong_grantee_rejected () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let owner =
    spawn kernel "owner" (fun () ->
        let other = Endpoint.make ~slot:63 ~gen:9 in
        (match Api.grant_create ~for_:other ~base:0 ~len:16 ~access:Sysif.Read_write with
        | Ok _ -> ()
        | Error _ -> ());
        Api.sleep 10_000)
  in
  let _thief =
    spawn kernel "thief" (fun () ->
        Api.sleep 100;
        (* Grant id 1 exists but names someone else as grantee. *)
        outcome := Some (Api.safecopy_from ~owner ~grant:1 ~grant_off:0 ~local_addr:0 ~len:8))
  in
  Engine.run engine ~until:20_000;
  match !outcome with
  | Some (Error Errno.E_no_perm) -> ()
  | _ -> Alcotest.fail "expected E_no_perm for wrong grantee"

let test_grant_bounds_checked () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let owner =
    spawn kernel "owner" (fun () ->
        (match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; _ }) ->
            let g =
              match Api.grant_create ~for_:src ~base:0 ~len:16 ~access:Sysif.Read_write with
              | Ok g -> g
              | Error _ -> Api.panic "grant failed"
            in
            ignore (Api.send src (Message.Dev_reply { result = Ok g }))
        | _ -> ());
        Api.sleep 10_000)
  in
  let _client =
    spawn kernel "client" (fun () ->
        match Api.sendrec owner Message.Ok_reply with
        | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok g }; _ }) ->
            outcome := Some (Api.safecopy_from ~owner ~grant:g ~grant_off:8 ~local_addr:0 ~len:16)
        | _ -> ())
  in
  Engine.run engine ~until:20_000;
  match !outcome with
  | Some (Error Errno.E_range) -> ()
  | _ -> Alcotest.fail "expected E_range for out-of-grant copy"

let test_ipc_privilege_enforced () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let target = spawn kernel "target" (fun () -> ignore (Api.receive Sysif.Any)) in
  Kernel.register_program kernel "restricted" (fun () ->
      outcome := Some (Api.send target Message.Ok_reply));
  let priv = { Privilege.none with Privilege.ipc_to = Privilege.Only [ "somebody-else" ] } in
  (match
     Kernel.spawn_dynamic kernel ~name:"restricted" ~program:"restricted" ~args:[] ~priv ~mem_kb:64
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine ~until:10_000;
  match !outcome with
  | Some (Error Errno.E_no_perm) -> ()
  | _ -> Alcotest.fail "expected E_no_perm for disallowed IPC destination"

let test_kcall_privilege_enforced () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  Kernel.register_program kernel "noio" (fun () -> outcome := Some (Api.devio_in 0x300));
  let priv =
    { Privilege.none with Privilege.ipc_to = Privilege.All; kcalls = Privilege.Only [ "alarm" ] }
  in
  (match Kernel.spawn_dynamic kernel ~name:"noio" ~program:"noio" ~args:[] ~priv ~mem_kb:64 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine;
  match !outcome with
  | Some (Error Errno.E_no_perm) -> ()
  | _ -> Alcotest.fail "expected E_no_perm for denied kernel call"

let test_io_port_privilege () =
  let engine, kernel = make_kernel () in
  set_io kernel (fun _ -> Ok 0xAB);
  let in_range = ref None and out_of_range = ref None in
  Kernel.register_program kernel "drv" (fun () ->
      in_range := Some (Api.devio_in 0x300);
      out_of_range := Some (Api.devio_in 0x400));
  let priv =
    {
      Privilege.none with
      Privilege.ipc_to = Privilege.All;
      kcalls = Privilege.All;
      io_ports = [ (0x300, 0x30F) ];
    }
  in
  (match Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv ~mem_kb:64 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine;
  (match !in_range with
  | Some (Ok 0xAB) -> ()
  | _ -> Alcotest.fail "allowed port read should succeed");
  match !out_of_range with
  | Some (Error Errno.E_no_perm) -> ()
  | _ -> Alcotest.fail "port outside the privileged range must be denied"

(* The mediated-I/O cost contract: each allowed port access advances
   the clock by exactly [costs.devio], and a denied one (port outside
   the range, or no [devio] kernel call) returns E_no_perm at the cost
   of a plain syscall. *)
let test_devio_cost_contract () =
  let costs = Kernel.default_costs in
  let n = 50 in
  let run_driver priv body =
    let engine, kernel = make_kernel () in
    set_io kernel (fun _ -> Ok 0xAB);
    let elapsed = ref (-1) in
    Kernel.register_program kernel "drv" (fun () ->
        let t0 = Api.now () in
        body ();
        elapsed := Api.now () - t0);
    (match Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv ~mem_kb:64 with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "spawn");
    Engine.run engine;
    !elapsed
  in
  let io_priv =
    {
      Privilege.none with
      Privilege.ipc_to = Privilege.All;
      kcalls = Privilege.All;
      io_ports = [ (0x200, 0x20F); (0x300, 0x30F) ];
    }
  in
  let allowed () =
    for i = 1 to n do
      (match Api.devio_in (0x300 + (i mod 16)) with
      | Ok 0xAB -> ()
      | _ -> Alcotest.fail "allowed devio_in failed");
      match Api.devio_out 0x205 i with Ok () -> () | Error _ -> Alcotest.fail "allowed devio_out failed"
    done
  in
  Alcotest.(check int) "2N allowed accesses cost 2N x devio" (2 * n * costs.devio)
    (run_driver io_priv allowed);
  let denied port () =
    for _ = 1 to n do
      (match Api.devio_in port with
      | Error Errno.E_no_perm -> ()
      | _ -> Alcotest.fail "denied devio_in must be E_no_perm");
      match Api.devio_out port 1 with
      | Error Errno.E_no_perm -> ()
      | _ -> Alcotest.fail "denied devio_out must be E_no_perm"
    done
  in
  Alcotest.(check int) "out-of-range port costs a syscall" (2 * n * costs.syscall)
    (run_driver io_priv (denied 0x400));
  let no_kcall = { io_priv with Privilege.kcalls = Privilege.Only [ "alarm" ] } in
  Alcotest.(check int) "no devio kcall costs a syscall" (2 * n * costs.syscall)
    (run_driver no_kcall (denied 0x300))

(* A driver spinning on device I/O and yields with nothing else due
   resumes in place: the whole spin costs O(1) engine steps however
   long it is, and the same virtual time as one event per syscall. *)
let test_spin_resumes_in_place () =
  let costs = Kernel.default_costs in
  let spin n =
    let engine, kernel = make_kernel () in
    set_io kernel (fun _ -> Ok 0);
    let elapsed = ref (-1) in
    ignore
      (spawn kernel "drv" (fun () ->
           let t0 = Api.now () in
           for _ = 1 to n do
             ignore (Api.devio_in 0x300);
             Api.yield ~cost:3 ()
           done;
           elapsed := Api.now () - t0));
    let steps = ref 0 in
    while Engine.step engine do
      incr steps
    done;
    Alcotest.(check int)
      (Printf.sprintf "%d spins take n x (devio + yield)" n)
      (n * (costs.devio + 3))
      !elapsed;
    !steps
  in
  let short = spin 10 and long = spin 100_000 in
  Alcotest.(check bool) (Printf.sprintf "O(1) steps (%d)" long) true (long <= 2);
  Alcotest.(check int) "steps independent of the spin length" short long

(* A timer due at the very instant a spinning driver's devio would
   resume competes with it: the resume must become a real event, so
   the Seeded engine records the choice, and the timer observes the
   driver at the progress the choice implies. *)
let test_same_instant_competitor () =
  let costs = Kernel.default_costs in
  List.iter
    (fun seed ->
      let engine = Engine.create ~policy:(Engine.Seeded seed) () in
      let kernel =
        Kernel.create ~engine ~trace:(Trace.create ()) ~rng:(Rng.create ~seed:1) ()
      in
      set_io kernel (fun _ -> Ok 0);
      let count = ref 0 and seen = ref (-1) and elapsed = ref (-1) in
      ignore
        (spawn kernel "drv" (fun () ->
             let t0 = Api.now () in
             ignore
               (Engine.schedule_at engine ~at:(t0 + (10 * costs.devio)) (fun () ->
                    seen := !count));
             for _ = 1 to 100 do
               ignore (Api.devio_in 0x300);
               incr count
             done;
             elapsed := Api.now () - t0));
      Engine.run engine;
      let decisions = Engine.decisions engine in
      Alcotest.(check int) "one choice point" 1 (Array.length decisions);
      Alcotest.(check int) "timer sees the chosen order" (9 + decisions.(0)) !seen;
      Alcotest.(check int) "spin time unchanged" (100 * costs.devio) !elapsed)
    [ 1; 2; 3; 4; 5; 6 ]

(* A kill that lands while the driver is on the CPU (here, from the
   device model inside its devio) is a pending kill, so that devio
   must take its event and unwind there rather than resume in place
   (clock figure pinned from one engine event per syscall). *)
let test_kill_during_devio () =
  let engine, kernel = make_kernel () in
  let accesses = ref 0 and count = ref 0 and drv = ref None in
  set_io kernel (fun _ ->
      incr accesses;
      (if !accesses = 5 then
         match !drv with
         | Some ep -> ignore (Kernel.kill kernel ep (Status.Killed Signal.Sig_kill))
         | None -> ());
      Ok 0);
  let ep =
    spawn kernel "drv" (fun () ->
        for _ = 1 to 100 do
          ignore (Api.devio_in 0x300);
          incr count
        done)
  in
  drv := Some ep;
  Engine.run engine;
  Alcotest.(check int) "killed at its fifth access" 4 !count;
  Alcotest.(check bool) "driver is dead" false (Kernel.alive kernel ep);
  Alcotest.(check int) "clock where it died" 3110 (Engine.now engine)

(* [run ~until] stops exactly at its bound even while a driver spins
   in place: the lookahead never carries the clock past it, and the
   driver has made exactly the progress it made with one event per
   syscall (figures pinned from that implementation). *)
let test_run_until_spin_pinned () =
  let engine, kernel = make_kernel () in
  set_io kernel (fun _ -> Ok 0);
  let count = ref 0 in
  ignore
    (spawn kernel "drv" (fun () ->
         while true do
           ignore (Api.devio_in 0x300);
           Api.yield ~cost:3 ();
           incr count
         done));
  let rec tick () = ignore (Engine.schedule engine ~after:1000 tick) in
  tick ();
  Engine.run engine ~until:12_345;
  Alcotest.(check int) "clock at the first bound" 12_345 (Engine.now engine);
  Alcotest.(check int) "progress at the first bound" 1849 !count;
  Engine.run engine ~until:20_001;
  Alcotest.(check int) "clock at the second bound" 20_001 (Engine.now engine);
  Alcotest.(check int) "progress at the second bound" 3380 !count

(* Resuming in place continues the fiber from the kernel's effect
   handler as a tail call: two million back-to-back yields complete
   in constant stack.  The run caps stacks at 8 MB (the default cap is
   1 GB), which a frame kept per yield would overflow. *)
let test_long_yield_chain () =
  let engine, kernel = make_kernel () in
  let n = 2_000_000 in
  let count = ref 0 in
  ignore
    (spawn kernel "spinner" (fun () ->
         for _ = 1 to n do
           Api.yield ~cost:1 ();
           incr count
         done));
  let gc = Gc.get () in
  Gc.set { gc with Gc.stack_limit = 1_000_000 };
  Fun.protect ~finally:(fun () -> Gc.set gc) (fun () -> Engine.run engine);
  Alcotest.(check int) "every yield returned" n !count

let test_mmu_fault_kills () =
  let engine, kernel = make_kernel () in
  let _victim =
    spawn kernel "victim" (fun () ->
        let mem = Api.memory () in
        (* Dereference a wild pointer: instant SIGSEGV. *)
        ignore (Memory.get_u32 mem 99_999_999))
  in
  (* PM would normally reap this; check via trace + liveness. *)
  Engine.run engine;
  Alcotest.(check bool) "victim is dead" true (Kernel.find_by_name kernel "victim" = None);
  let trace = Kernel.trace kernel in
  Alcotest.(check bool)
    "killed by SIGSEGV recorded" true
    (Trace.query trace ~pred:(fun e ->
         match e.Trace.payload with
         | Resilix_obs.Event.Exit { name = "victim"; status = Status.Killed Signal.Sig_segv; _ }
           -> true
         | _ -> false)
    <> [])

let test_exit_status_panic () =
  let engine, kernel = make_kernel () in
  let _p = spawn kernel "panicky" (fun () -> Api.panic "inconsistent state") in
  Engine.run engine;
  let trace = Kernel.trace kernel in
  Alcotest.(check bool)
    "panic recorded" true
    (Trace.query trace ~pred:(fun e ->
         match e.Trace.payload with
         | Resilix_obs.Event.Exit { status = Status.Panicked "inconsistent state"; _ } -> true
         | _ -> false)
    <> [])

let test_alarm_notification () =
  let engine, kernel = make_kernel () in
  let fired_at = ref 0 in
  let _p =
    spawn kernel "sleeper" (fun () ->
        ignore (Api.alarm 5000);
        match Api.receive (Sysif.From Wellknown.hardware) with
        | Ok (Sysif.Rx_notify { kind = Message.N_alarm; _ }) -> fired_at := Api.now ()
        | _ -> ())
  in
  Engine.run engine;
  (* The process only starts after the spawn cost, so just require the
     alarm to have fired a full period after that. *)
  Alcotest.(check bool)
    (Printf.sprintf "alarm after ~5000 (got %d)" !fired_at)
    true
    (!fired_at >= 5000 && !fired_at < 20_000)

let test_irq_routing () =
  let engine, kernel = make_kernel () in
  let got_irq = ref None in
  let _drv =
    spawn kernel "drv" (fun () ->
        ignore (Api.irq_register 11);
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_notify { kind = Message.N_irq line; _ }) -> got_irq := Some line
        | _ -> ())
  in
  (* Raise the line well after the driver had time to register. *)
  ignore (Engine.schedule engine ~after:10_000 (fun () -> Kernel.raise_irq kernel 11));
  Engine.run engine;
  Alcotest.(check (option int)) "IRQ 11 delivered" (Some 11) !got_irq

let test_dma_through_iommu () =
  let engine, kernel = make_kernel () in
  let handle = ref None in
  let _drv =
    spawn kernel "drv" (fun () ->
        let mem = Api.memory () in
        Memory.write mem ~addr:0x200 (Bytes.of_string "dma payload!");
        (match Api.grant_create ~for_:Wellknown.hardware ~base:0x200 ~len:12 ~access:Sysif.Read_write with
        | Ok g -> (
            match Api.iommu_map g with Ok h -> handle := Some h | Error _ -> ())
        | Error _ -> ());
        Api.sleep 100_000)
  in
  ignore
    (Engine.schedule engine ~after:10_000 (fun () ->
         match !handle with
         | Some h -> (
             (match Kernel.dma kernel ~handle:h ~off:0 ~op:(`Read 12) with
             | Ok b -> Alcotest.(check string) "device reads driver memory" "dma payload!" (Bytes.to_string b)
             | Error _ -> Alcotest.fail "dma read failed");
             (* Out-of-grant access must be rejected. *)
             match Kernel.dma kernel ~handle:h ~off:8 ~op:(`Read 12) with
             | Error Errno.E_range -> ()
             | _ -> Alcotest.fail "expected E_range for out-of-grant DMA")
         | None -> Alcotest.fail "no dma handle"));
  Engine.run engine ~until:50_000

let test_dma_stale_after_death () =
  let engine, kernel = make_kernel () in
  let handle = ref None in
  let victim =
    spawn kernel "drv" (fun () ->
        (match Api.grant_create ~for_:Wellknown.hardware ~base:0 ~len:64 ~access:Sysif.Read_write with
        | Ok g -> ( match Api.iommu_map g with Ok h -> handle := Some h | Error _ -> ())
        | Error _ -> ());
        Api.sleep 1_000_000_000)
  in
  ignore
    (Engine.schedule engine ~after:10_000 (fun () ->
         ignore (Kernel.kill kernel victim (Status.Killed Signal.Sig_kill))));
  ignore
    (Engine.schedule engine ~after:20_000 (fun () ->
         match !handle with
         | Some h -> (
             match Kernel.dma kernel ~handle:h ~off:0 ~op:(`Read 8) with
             | Error Errno.E_no_perm -> ()
             | _ -> Alcotest.fail "DMA must fail after the owning driver died")
         | None -> Alcotest.fail "no dma handle"));
  Engine.run engine ~until:30_000

let test_sendrec_to_self_rejected () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  Kernel.register_program kernel "selfish" (fun () ->
      let self = Api.self () in
      outcome := Some (Api.sendrec self Message.Ok_reply));
  (match
     Kernel.spawn_dynamic kernel ~name:"selfish" ~program:"selfish" ~args:[] ~priv:all_priv
       ~mem_kb:64
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine;
  match !outcome with
  | Some (Error Errno.E_inval) -> ()
  | _ -> Alcotest.fail "sendrec to self must fail"

let test_receive_from_dead_source_fails () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let short_lived = spawn kernel "short" (fun () -> ()) in
  let _waiter =
    spawn kernel "waiter" (fun () ->
        Api.sleep 1000;
        outcome := Some (Api.receive (Sysif.From short_lived)))
  in
  Engine.run engine;
  match !outcome with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "receive from a dead endpoint must fail immediately"

let test_receive_aborted_when_source_dies () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let victim = spawn kernel "victim" (fun () -> Api.sleep 1_000_000_000) in
  let _waiter = spawn kernel "waiter" (fun () -> outcome := Some (Api.receive (Sysif.From victim))) in
  ignore
    (Engine.schedule engine ~after:5000 (fun () ->
         ignore (Kernel.kill kernel victim (Status.Killed Signal.Sig_kill))));
  Engine.run engine ~until:20_000;
  match !outcome with
  | Some (Error Errno.E_dead_src_dst) -> ()
  | _ -> Alcotest.fail "pending receive must abort when its source dies"

let test_sigterm_is_notification () =
  let engine, kernel = make_kernel () in
  let got_term = ref false in
  let victim =
    spawn kernel "victim" (fun () ->
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_notify { kind = Message.N_sig Signal.Sig_term; _ }) -> got_term := true
        | _ -> ())
  in
  ignore
    (Engine.schedule engine ~after:100 (fun () ->
         ignore (Kernel.deliver_signal kernel victim Signal.Sig_term)));
  Engine.run engine;
  Alcotest.(check bool) "SIGTERM delivered as notification" true !got_term;
  Alcotest.(check bool) "victim exited gracefully" true (Kernel.find_by_name kernel "victim" = None)

let test_exit_queue_for_pm () =
  (* The exit queue + SIGCHLD path is exercised through the PM in the
     server tests; here just check the kernel records exits. *)
  let engine, kernel = make_kernel () in
  let _p = spawn kernel "transient" (fun () -> Api.exit (Status.Exited 3)) in
  let before = Kernel.Stats.snapshot kernel in
  Engine.run engine;
  let delta = Kernel.Stats.diff before (Kernel.Stats.snapshot kernel) in
  Alcotest.(check int) "one exit recorded" 1 delta.Kernel.Stats.exits

let prop_many_processes_all_messages_delivered =
  QCheck.Test.make ~name:"N senders, one receiver: all delivered exactly once" ~count:30
    QCheck.(int_range 1 20)
    (fun n ->
      let engine, kernel = make_kernel () in
      let received = Hashtbl.create 16 in
      let receiver =
        spawn kernel "receiver" (fun () ->
            for _ = 1 to n do
              match Api.receive Sysif.Any with
              | Ok (Sysif.Rx_msg { body = Message.Dev_open { minor }; _ }) ->
                  Hashtbl.replace received minor (1 + Option.value ~default:0 (Hashtbl.find_opt received minor))
              | _ -> ()
            done)
      in
      for i = 1 to n do
        ignore
          (spawn kernel (Printf.sprintf "sender%d" i) (fun () ->
               ignore (Api.send receiver (Message.Dev_open { minor = i }))))
      done;
      Engine.run engine;
      List.for_all
        (fun i -> Hashtbl.find_opt received i = Some 1)
        (List.init n (fun i -> i + 1)))

(* Property: safecopy succeeds exactly on in-grant, in-memory ranges. *)
let prop_grant_bounds =
  QCheck.Test.make ~name:"safecopy honours grant bounds exactly" ~count:40
    QCheck.(quad (int_bound 2000) (int_bound 2000) (int_bound 2000) (int_bound 2000))
    (fun (base, len, off, n) ->
      let engine, kernel = make_kernel () in
      let outcome = ref None in
      let owner =
        spawn kernel "owner" (fun () ->
            (match Api.receive Sysif.Any with
            | Ok (Sysif.Rx_msg { src; _ }) -> (
                match Api.grant_create ~for_:src ~base ~len ~access:Sysif.Read_write with
                | Ok g -> ignore (Api.send src (Message.Dev_reply { result = Ok g }))
                | Error _ -> ignore (Api.send src (Message.Dev_reply { result = Error Errno.E_nomem })))
            | _ -> ());
            Api.sleep 1_000_000_000)
      in
      ignore
        (spawn kernel "copier" (fun () ->
             match Api.sendrec owner Message.Ok_reply with
             | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok g }; _ }) ->
                 outcome :=
                   Some (Api.safecopy_from ~owner ~grant:g ~grant_off:off ~local_addr:0 ~len:n)
             | _ -> outcome := Some (Error Errno.E_nomem)));
      Engine.run engine ~until:10_000_000;
      let mem_bytes = 64 * 1024 in
      let grant_creatable = base + len <= mem_bytes in
      let in_grant = off + n <= len in
      match !outcome with
      | Some (Ok ()) -> grant_creatable && in_grant
      | Some (Error Errno.E_range) -> grant_creatable && not in_grant
      | Some (Error Errno.E_nomem) -> not grant_creatable
      | _ -> false)

(* The kernel parks a waiting process in one way: the continuation of
   the syscall it is in.  Each row parks a victim at one place it can
   wait and kills it there.  The kill must unwind that syscall exactly
   once: the victim exits [Killed Sig_kill] with one exit-queue entry,
   runs no code after the syscall, and a peer blocked on it wakes with
   [E_dead_src_dst]. *)
let test_kill_at_every_wait () =
  let rows =
    [
      ("before its first instruction", 3130, fun ~sink:_ ~server:_ -> ());
      ("blocked in send", 10_000, fun ~sink ~server:_ -> ignore (Api.send sink Message.Ok_reply));
      ( "in the send phase of sendrec",
        10_000,
        fun ~sink ~server:_ -> ignore (Api.sendrec sink Message.Ok_reply) );
      ( "in the reply phase of sendrec",
        10_000,
        fun ~sink:_ ~server -> ignore (Api.sendrec server Message.Ok_reply) );
      ("in receive", 10_000, fun ~sink:_ ~server:_ -> ignore (Api.receive Sysif.Any));
      ("in sleep", 10_000, fun ~sink:_ ~server:_ -> Api.sleep 1_000_000);
    ]
  in
  List.iter
    (fun (row, kill_at, wait) ->
      let engine, kernel = make_kernel () in
      (* [sink] never receives; [server] takes one request and never
         replies. *)
      let sink = spawn kernel "sink" (fun () -> Api.sleep 1_000_000) in
      let server =
        spawn kernel "server" (fun () ->
            ignore (Api.receive Sysif.Any);
            Api.sleep 1_000_000)
      in
      let victim = ref None and after = ref false and peer_got = ref None and reaped = ref [] in
      (* The peer blocks on the victim at 3120 us; the victim, spawned
         at 50 us, runs its first instruction at 3150 us. *)
      ignore
        (spawn kernel "peer" (fun () ->
             Api.sleep 20;
             Option.iter (fun v -> peer_got := Some (Api.receive (Sysif.From v))) !victim));
      ignore
        (spawn kernel "reaper" (fun () ->
             Api.sleep 20_000;
             let rec drain () =
               match Api.reap_exit () with
               | Some e ->
                   reaped := e :: !reaped;
                   drain ()
               | None -> ()
             in
             drain ()));
      ignore
        (Engine.schedule engine ~after:50 (fun () ->
             victim :=
               Some
                 (spawn kernel "victim" (fun () ->
                      wait ~sink ~server;
                      after := true))));
      ignore
        (Engine.schedule engine ~after:kill_at (fun () ->
             Option.iter
               (fun v -> ignore (Kernel.kill kernel v (Status.Killed Signal.Sig_kill)))
               !victim));
      Engine.run engine;
      let v = Option.get !victim in
      Alcotest.(check bool) (row ^ ": victim dead") false (Kernel.alive kernel v);
      Alcotest.(check bool) (row ^ ": nothing after the syscall ran") false !after;
      Alcotest.(check bool)
        (row ^ ": one exit-queue entry, Killed Sig_kill")
        true
        (List.filter (fun (ep, _, _) -> Endpoint.equal ep v) !reaped
        = [ (v, "victim", Status.Killed Signal.Sig_kill) ]);
      match !peer_got with
      | Some (Error Errno.E_dead_src_dst) -> ()
      | _ -> Alcotest.fail (row ^ ": peer blocked on the victim must get E_dead_src_dst"))
    rows

(* Minor words one sendrec round trip allocates (ping's sendrec plus
   the echo server's receive and reply send), averaged over [rounds]. *)
let sendrec_words ~rounds =
  let engine, kernel = make_kernel () in
  let echo =
    spawn kernel "echo" (fun () ->
        let rec loop () =
          (match Api.receive Sysif.Any with
          | Ok (Sysif.Rx_msg { src; _ }) -> ignore (Api.send src Message.Ok_reply)
          | _ -> ());
          loop ()
        in
        loop ())
  in
  let done_rounds = ref 0 in
  ignore
    (spawn kernel "ping" (fun () ->
         for _ = 1 to rounds do
           match Api.sendrec echo Message.Ok_reply with Ok _ -> incr done_rounds | Error _ -> ()
         done));
  let w0 = Gc.minor_words () in
  Engine.run engine;
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every round trip completed" rounds !done_rounds;
  w /. float_of_int rounds

(* A blocked process holds its syscall continuation and nothing else,
   so a round trip builds no per-call closures. *)
let test_sendrec_allocation () =
  let w = sendrec_words ~rounds:5000 in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per round trip <= 185" w) true (w <= 185.)

(* One [Kernel.kill] of a sleeping process is one kill and one exit. *)
let test_kill_counts_once () =
  let engine, kernel = make_kernel () in
  let victim = spawn kernel "victim" (fun () -> Api.sleep 1_000_000) in
  let before = Kernel.Stats.snapshot kernel in
  ignore
    (Engine.schedule engine ~after:10_000 (fun () ->
         ignore (Kernel.kill kernel victim (Status.Killed Signal.Sig_kill))));
  Engine.run engine;
  let d = Kernel.Stats.diff before (Kernel.Stats.snapshot kernel) in
  Alcotest.(check (pair int int)) "kills, exits" (1, 1) (d.Kernel.Stats.kills, d.Kernel.Stats.exits)

(* Range checks must not wrap: [grant_off + len] with [len = max_int]
   is negative, and a check in that form would let the copy through
   to [Bytes.blit], whose exception would take down the whole run. *)
let test_safecopy_length_overflow () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  let owner =
    spawn kernel "owner" (fun () ->
        (match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { src; _ }) ->
            let g =
              match Api.grant_create ~for_:src ~base:0 ~len:16 ~access:Sysif.Read_write with
              | Ok g -> g
              | Error _ -> Api.panic "grant failed"
            in
            ignore (Api.send src (Message.Dev_reply { result = Ok g }))
        | _ -> ());
        Api.sleep 10_000)
  in
  ignore
    (spawn kernel "client" (fun () ->
         match Api.sendrec owner Message.Ok_reply with
         | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok g }; _ }) ->
             outcome :=
               Some (Api.safecopy_from ~owner ~grant:g ~grant_off:1 ~local_addr:1 ~len:max_int)
         | _ -> ()));
  (match Engine.run engine with
  | () -> ()
  | exception e -> Alcotest.failf "Engine.run raised %s" (Printexc.to_string e));
  match !outcome with
  | Some (Error Errno.E_range) -> ()
  | _ -> Alcotest.fail "expected E_range for a wrapping copy length"

let test_grant_create_length_overflow () =
  let engine, kernel = make_kernel () in
  let outcome = ref None in
  ignore
    (spawn kernel "owner" (fun () ->
         outcome :=
           Some
             (Api.grant_create ~for_:Wellknown.hardware ~base:1 ~len:max_int
                ~access:Sysif.Read_only)));
  Engine.run engine;
  match !outcome with
  | Some (Error Errno.E_range) -> ()
  | _ -> Alcotest.fail "expected E_range for a wrapping grant length"

(* [Privctl] is the one run-time writer of a process's privileges: a
   revoked [devio] is denied on the very next access, and restoring it
   lets the driver touch its ports again. *)
let test_privctl_revokes_devio () =
  let engine, kernel = make_kernel () in
  set_io kernel (fun _ -> Ok 0xAB);
  let io_priv =
    {
      Privilege.none with
      Privilege.ipc_to = Privilege.All;
      kcalls = Privilege.Only [ "devio"; "alarm" ];
      io_ports = [ (0x300, 0x30F) ];
    }
  in
  let results = ref [] in
  Kernel.register_program kernel "drv" (fun () ->
      for _ = 1 to 3 do
        results := Api.devio_in 0x300 :: !results;
        Api.sleep 1000
      done);
  let drv =
    match Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv:io_priv ~mem_kb:64 with
    | Ok e -> e
    | Error _ -> Alcotest.fail "spawn"
  in
  ignore
    (spawn kernel "rs" (fun () ->
         Api.sleep 500;
         ignore (Api.privctl drv { io_priv with Privilege.kcalls = Privilege.Only [ "alarm" ] });
         Api.sleep 1000;
         ignore (Api.privctl drv io_priv)));
  Engine.run engine;
  Alcotest.(check (list (result int errno)))
    "allowed, revoked, restored"
    [ Ok 0xAB; Error Errno.E_no_perm; Ok 0xAB ]
    (List.rev !results)

(* Each privilege-checked kernel call, by the name a [kcalls] list
   names it, with a call whose outcome is [E_no_perm] only when the
   kernel denies it.  The process starts with every kernel call, makes
   a hardware grant, then drops to the privileges under test; an exit
   is queued for [reap_exit] to collect. *)
let kcall_probes ~hw_grant =
  let bad = Endpoint.make ~slot:999 ~gen:1 in
  let perm = function Error Errno.E_no_perm -> true | Ok _ | Error _ -> false in
  [
    ( "safecopy",
      fun () ->
        perm (Api.safecopy_from ~owner:bad ~grant:1 ~grant_off:0 ~local_addr:0 ~len:1) );
    ( "grant_create",
      fun () -> perm (Api.grant_create ~for_:bad ~base:0 ~len:8 ~access:Sysif.Read_only) );
    ("grant_revoke", fun () -> perm (Api.grant_revoke 99));
    ("devio", fun () -> perm (Api.devio_in 0x300));
    ("devio", fun () -> perm (Api.devio_out 0x300 1));
    ("irqctl", fun () -> perm (Api.irq_register 5));
    ("alarm", fun () -> perm (Api.alarm 0));
    ("iommu_map", fun () -> perm (Api.iommu_map hw_grant));
    ("iommu_map", fun () -> perm (Api.iommu_unmap 99));
    ( "proc_create",
      fun () ->
        perm
          (Api.proc_create ~name:"x" ~program:"no-such-program" ~args:[] ~priv:Privilege.none
             ~mem_kb:4) );
    ("proc_kill", fun () -> perm (Api.proc_kill bad Signal.Sig_kill));
    ("reap_exit", fun () -> Api.reap_exit () = None);
    ("privctl", fun () -> perm (Api.privctl bad Privilege.none));
  ]

(* [All], or a random subset of the table's names plus one name the
   kernel does not check. *)
let kcalls_arb =
  let names = Array.to_list Sysif.kcall_names in
  QCheck.make ~print:Privilege.show_allow
    QCheck.Gen.(
      frequency
        [
          (1, return Privilege.All);
          ( 5,
            map
              (fun keep ->
                Privilege.Only ("times" :: List.filteri (fun i _ -> keep land (1 lsl i) <> 0) names))
              (int_bound ((1 lsl List.length names) - 1)) );
        ])

let prop_kcall_mask_matches_names =
  QCheck.Test.make ~name:"kernel denies a kernel call exactly when its name is not allowed"
    ~count:60 kcalls_arb (fun kcalls ->
      let engine, kernel = make_kernel () in
      set_io kernel (fun _ -> Ok 0);
      let priv = { all_priv with Privilege.kcalls } in
      ignore (spawn kernel "transient" (fun () -> ()));
      let verdicts = ref [] in
      ignore
        (spawn kernel "probe" (fun () ->
             Api.sleep 100;
             let hw_grant =
               match
                 Api.grant_create ~for_:Wellknown.hardware ~base:0 ~len:64 ~access:Sysif.Read_write
               with
               | Ok g -> g
               | Error _ -> Api.panic "grant failed"
             in
             ignore (Api.privctl (Api.self ()) priv);
             verdicts :=
               List.map (fun (name, denied) -> (name, denied ())) (kcall_probes ~hw_grant)));
      Engine.run engine;
      List.length !verdicts = 13
      && List.for_all
           (fun (name, denied) -> denied = not (Privilege.allows kcalls name))
           !verdicts)

(* Minor words one mediated [Devio_in] plus one [Devio_out] allocate,
   averaged over [n] pairs that resume in place.  The handlers return
   constants, so every word counted is the kernel's. *)
let devio_pair_words ~n =
  let engine, kernel = make_kernel () in
  Kernel.set_io_handlers kernel ~io_in:(fun _ -> Ok 0xAB) ~io_out:(fun _ _ -> Ok ());
  let words = ref nan in
  ignore
    (spawn kernel "drv" (fun () ->
         let pair () =
           ignore (Api.devio_in 0x300);
           ignore (Api.devio_out 0x301 7)
         in
         for _ = 1 to 100 do
           pair ()
         done;
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           pair ()
         done;
         words := (Gc.minor_words () -. w0) /. float_of_int n));
  Engine.run engine;
  !words

(* The I/O backend is two plain functions: a port access builds no
   request variant and no re-wrapped result (42.0 words per pair with a
   variant-taking handler, 33.0 now). *)
let test_devio_allocation () =
  let w = devio_pair_words ~n:10_000 in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per devio in+out <= 37" w) true (w <= 37.)

let tests =
  [
    Alcotest.test_case "rendezvous send/receive" `Quick test_rendezvous_send_receive;
    QCheck_alcotest.to_alcotest prop_grant_bounds;
    Alcotest.test_case "sender blocks until receive" `Quick test_sender_blocks_until_receive;
    Alcotest.test_case "sendrec round trip" `Quick test_sendrec_reply;
    Alcotest.test_case "receive-from filter" `Quick test_receive_from_filters;
    Alcotest.test_case "notify queued and deduped" `Quick test_notify_queued_and_deduped;
    Alcotest.test_case "async send does not block" `Quick test_async_send_does_not_block;
    Alcotest.test_case "send to dead process" `Quick test_dead_destination;
    Alcotest.test_case "kill aborts rendezvous (sendrec)" `Quick test_kill_aborts_rendezvous;
    Alcotest.test_case "stale endpoint after restart" `Quick test_stale_endpoint_after_restart;
    Alcotest.test_case "grant + safecopy" `Quick test_grant_safecopy;
    Alcotest.test_case "safecopy wrong grantee rejected" `Quick test_grant_wrong_grantee_rejected;
    Alcotest.test_case "safecopy bounds checked" `Quick test_grant_bounds_checked;
    Alcotest.test_case "IPC destination privilege" `Quick test_ipc_privilege_enforced;
    Alcotest.test_case "kernel call privilege" `Quick test_kcall_privilege_enforced;
    Alcotest.test_case "I/O port privilege" `Quick test_io_port_privilege;
    Alcotest.test_case "MMU fault kills process" `Quick test_mmu_fault_kills;
    Alcotest.test_case "panic exit status" `Quick test_exit_status_panic;
    Alcotest.test_case "alarm notification" `Quick test_alarm_notification;
    Alcotest.test_case "IRQ routing" `Quick test_irq_routing;
    Alcotest.test_case "DMA through IOMMU" `Quick test_dma_through_iommu;
    Alcotest.test_case "DMA stale after driver death" `Quick test_dma_stale_after_death;
    Alcotest.test_case "sendrec to self rejected" `Quick test_sendrec_to_self_rejected;
    Alcotest.test_case "receive from dead source" `Quick test_receive_from_dead_source_fails;
    Alcotest.test_case "receive aborted when source dies" `Quick test_receive_aborted_when_source_dies;
    Alcotest.test_case "SIGTERM as notification" `Quick test_sigterm_is_notification;
    Alcotest.test_case "exit recorded" `Quick test_exit_queue_for_pm;
    Alcotest.test_case "devio cost contract" `Quick test_devio_cost_contract;
    QCheck_alcotest.to_alcotest prop_many_processes_all_messages_delivered;
    Alcotest.test_case "idle spin resumes in place" `Quick test_spin_resumes_in_place;
    Alcotest.test_case "same-instant competitor is a choice" `Quick test_same_instant_competitor;
    Alcotest.test_case "kill during devio unwinds there" `Quick test_kill_during_devio;
    Alcotest.test_case "run ~until bounds a spin (pinned)" `Quick test_run_until_spin_pinned;
    Alcotest.test_case "2M-yield chain" `Quick test_long_yield_chain;
    Alcotest.test_case "kill at every wait unwinds once" `Quick test_kill_at_every_wait;
    Alcotest.test_case "sendrec allocation bound" `Quick test_sendrec_allocation;
    Alcotest.test_case "one kill counts once" `Quick test_kill_counts_once;
    Alcotest.test_case "safecopy length cannot wrap" `Quick test_safecopy_length_overflow;
    Alcotest.test_case "grant_create length cannot wrap" `Quick test_grant_create_length_overflow;
    Alcotest.test_case "privctl revokes and restores devio" `Quick test_privctl_revokes_devio;
    QCheck_alcotest.to_alcotest prop_kcall_mask_matches_names;
    Alcotest.test_case "devio allocation bound" `Quick test_devio_allocation;
  ]
