(* Tests for the hardware models: bus routing, link timing, block
   store determinism, device FIFOs and failure modes (wedging, burn
   gaps, underruns). *)

module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel
module Bus = Resilix_hw.Bus
module Link = Resilix_hw.Link
module Blockstore = Resilix_hw.Blockstore
module Audio_dev = Resilix_hw.Audio_dev
module Printer_dev = Resilix_hw.Printer_dev
module Cd_dev = Resilix_hw.Cd_dev
module Nic8139 = Resilix_hw.Nic8139

let make_kernel () =
  let engine = Engine.create () in
  let kernel = Kernel.create ~engine ~trace:(Trace.create ()) ~rng:(Rng.create ~seed:2) () in
  (engine, kernel)

(* --- bus --- *)

let test_bus_routing () =
  let bus = Bus.create () in
  let log = ref [] in
  Bus.register bus ~base:0x100 ~len:4 (fun ~reg access ->
      match access with
      | Bus.Read ->
          log := ("read", reg) :: !log;
          Ok (0x40 + reg)
      | Bus.Write v ->
          log := ("write", v) :: !log;
          Ok 0);
  Alcotest.(check (result int Alcotest.reject)) "read routes with relative reg" (Ok 0x42)
    (Bus.io_in bus 0x102);
  ignore (Bus.io_out bus 0x103 99);
  Alcotest.(check (list (pair string int))) "accesses seen" [ ("write", 99); ("read", 2) ] !log

let test_bus_unclaimed_floats () =
  let bus = Bus.create () in
  Alcotest.(check (result int Alcotest.reject)) "unclaimed port reads all-ones" (Ok 0xFFFF_FFFF)
    (Bus.io_in bus 0x999);
  Alcotest.(check (result unit Alcotest.reject)) "unclaimed write swallowed" (Ok ())
    (Bus.io_out bus 0x999 1)

let test_bus_overlap_rejected () =
  let bus = Bus.create () in
  Bus.register bus ~base:0x100 ~len:8 (fun ~reg:_ _ -> Ok 0);
  Alcotest.check_raises "overlapping claim" (Invalid_argument "Bus.register: overlapping port range")
    (fun () -> Bus.register bus ~base:0x104 ~len:2 (fun ~reg:_ _ -> Ok 0))

(* --- link --- *)

let test_link_timing () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) ~latency:200 ~bytes_per_us:12 () in
  let arrived_at = ref (-1) in
  Link.attach link Link.B (fun _ -> arrived_at := Engine.now engine);
  Link.send link Link.A (Bytes.make 1200 'x');
  Engine.run engine;
  (* 1200 bytes at 12 B/us = 100 us serialization + 200 us latency. *)
  Alcotest.(check int) "serialization + propagation" 300 !arrived_at

let test_link_serializes_bursts () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) ~latency:0 ~bytes_per_us:10 () in
  let times = ref [] in
  Link.attach link Link.B (fun _ -> times := Engine.now engine :: !times);
  for _ = 1 to 3 do
    Link.send link Link.A (Bytes.make 100 'x')
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "back-to-back frames queue behind each other" [ 10; 20; 30 ]
    (List.rev !times)

let test_link_drops () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) ~drop_prob:1.0 () in
  let got = ref 0 in
  Link.attach link Link.B (fun _ -> incr got);
  for _ = 1 to 10 do
    Link.send link Link.A (Bytes.make 10 'x')
  done;
  Engine.run engine;
  Alcotest.(check int) "all frames dropped" 0 !got;
  Alcotest.(check int) "drops counted" 10 (Link.frames_dropped link)

(* --- block store --- *)

let test_blockstore_determinism () =
  let a = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  let b = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  Alcotest.(check bool) "same seed, same content" true
    (Bytes.equal (Blockstore.read a ~lba:5 ~count:3) (Blockstore.read b ~lba:5 ~count:3));
  let c = Blockstore.create ~seed:8 ~sectors:128 ~sector_size:512 in
  Alcotest.(check bool) "different seed differs" false
    (Bytes.equal (Blockstore.read a ~lba:5 ~count:3) (Blockstore.read c ~lba:5 ~count:3))

let test_blockstore_write_persists () =
  let s = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  let data = Bytes.make 1024 'Z' in
  Blockstore.write s ~lba:10 data;
  Alcotest.(check bool) "written content read back" true
    (Bytes.equal data (Blockstore.read s ~lba:10 ~count:2));
  (* Neighbours keep their generated content. *)
  let before = Blockstore.read s ~lba:12 ~count:1 in
  Alcotest.(check bool) "neighbour unchanged" true
    (Bytes.equal before (Blockstore.read s ~lba:12 ~count:1))

let prop_blockstore_reads_stable =
  QCheck.Test.make ~name:"blockstore reads are stable" ~count:100
    QCheck.(pair (int_bound 100) (int_range 1 8))
    (fun (lba, count) ->
      let s = Blockstore.create ~seed:99 ~sectors:256 ~sector_size:512 in
      let one = Blockstore.read s ~lba ~count in
      let two = Blockstore.read s ~lba ~count in
      Bytes.equal one two)

(* Reference copy of the earlier per-sector generator: a never-written
   sector is splitmix64 over (seed, lba, word index), built in its own
   buffer one boxed word at a time. *)
let ref_mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let ref_sector ~seed lba =
  let buf = Bytes.create 512 in
  let key = Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (lba + 1))) in
  for w = 0 to 63 do
    Bytes.set_int64_le buf (w * 8) (ref_mix (Int64.add key (Int64.of_int w)))
  done;
  buf

let prop_blockstore_matches_reference =
  QCheck.Test.make ~name:"blockstore read = reference over written and unwritten sectors"
    ~count:100
    QCheck.(
      quad (int_bound 1_000_000) (small_list (pair (int_bound 63) printable_char)) (int_bound 63)
        (int_range 0 16))
    (fun (seed, writes, lba, count) ->
      let count = min count (64 - lba) in
      let s = Blockstore.create ~seed ~sectors:64 ~sector_size:512 in
      let written = Hashtbl.create 8 in
      List.iter
        (fun (at, c) ->
          let data = Bytes.make 512 c in
          Blockstore.write s ~lba:at data;
          Hashtbl.replace written at data)
        writes;
      let expected =
        Bytes.concat Bytes.empty
          (List.init count (fun i ->
               match Hashtbl.find_opt written (lba + i) with
               | Some d -> d
               | None -> ref_sector ~seed (lba + i)))
      in
      Bytes.equal expected (Blockstore.read s ~lba ~count))

(* Unwritten sectors are generated straight into the output buffer, so
   a read allocates nothing on the minor heap beyond a small constant
   (the output buffer itself is a major-heap block at these sizes).  A
   per-word call into a splitmix64 kept in another library boxes every
   word and breaks this bound by orders of magnitude. *)
let blockstore_read_words_bound = 4.

let test_blockstore_read_allocation () =
  let s = Blockstore.create ~seed:3 ~sectors:4096 ~sector_size:512 in
  let words count =
    ignore (Blockstore.read s ~lba:100 ~count);
    let reps = 100 in
    let w0 = Gc.minor_words () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (Blockstore.read s ~lba:100 ~count))
    done;
    (Gc.minor_words () -. w0) /. float_of_int reps
  in
  List.iter
    (fun count ->
      let w = words count in
      Printf.printf "Blockstore.read of %d unwritten sectors: %.2f minor words\n" count w;
      Alcotest.(check bool)
        (Printf.sprintf "%d sectors: %.2f words <= %.0f" count w blockstore_read_words_bound)
        true
        (w <= blockstore_read_words_bound))
    [ 8; 64 ]

(* --- devices, driven through raw bus I/O --- *)

let test_audio_underruns () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let audio =
    Audio_dev.create ~kernel ~bus ~base:0x380 ~irq:5 ~rng:(Rng.create ~seed:1)
      ~byte_rate:100_000 ()
  in
  (* Feed 4 KB of samples and start playback: at 100 KB/s the FIFO
     drains in ~40 ms and the device underruns afterwards. *)
  for _ = 1 to 1024 do
    ignore (Bus.io_out bus 0x382 0xABCD)
  done;
  ignore (Bus.io_out bus 0x381 1);
  Engine.run engine ~until:500_000;
  Alcotest.(check int) "all samples played" 4096 (Audio_dev.bytes_played audio);
  Alcotest.(check bool) "underruns counted after starvation" true (Audio_dev.underruns audio > 0)

let test_printer_prints_in_order () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let printer =
    Printer_dev.create ~kernel ~bus ~base:0x390 ~irq:6 ~rng:(Rng.create ~seed:1) ()
  in
  ignore (Bus.io_out bus 0x391 1);
  String.iter (fun c -> ignore (Bus.io_out bus 0x392 (Char.code c))) "hello paper";
  Engine.run engine ~until:2_000_000;
  Alcotest.(check string) "bytes printed in order" "hello paper" (Printer_dev.printed printer)

let test_cd_gap_ruins_disc () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let cd =
    Cd_dev.create ~kernel ~bus ~base:0x3A0 ~irq:7 ~rng:(Rng.create ~seed:1) ~gap_timeout:100_000 ()
  in
  ignore (Bus.io_out bus 0x3A1 0x01) (* start session *);
  (match Cd_dev.disc cd with
  | Cd_dev.In_session -> ()
  | _ -> Alcotest.fail "session should be open");
  (* ... and then the driver dies: no blocks arrive for > gap. *)
  Engine.run engine ~until:500_000;
  match Cd_dev.disc cd with
  | Cd_dev.Ruined -> ()
  | _ -> Alcotest.fail "unattended session must ruin the disc"

let test_nic_wedges_on_garbage_and_master_reset () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) () in
  let nic =
    Nic8139.create ~kernel ~bus ~base:0x300 ~irq:11 ~link ~side:Link.A ~mac:1
      ~rng:(Rng.create ~seed:1) ~wedge_prob:1.0 ~has_master_reset:false ()
  in
  (* Garbage CMD bits wedge the chip (wedge_prob = 1). *)
  ignore (Bus.io_out bus 0x301 0xE0);
  Alcotest.(check bool) "nic wedged" true (Nic8139.wedged nic);
  (* Software reset is ignored when there is no master reset... *)
  ignore (Bus.io_out bus 0x301 0x10);
  Alcotest.(check bool) "still wedged after reset" true (Nic8139.wedged nic);
  Alcotest.(check (result int Alcotest.reject)) "registers read all-ones" (Ok 0xFFFF_FFFF)
    (Bus.io_in bus 0x300);
  (* ... only the out-of-band BIOS reset clears it (Sec. 7.2). *)
  Nic8139.bios_reset nic;
  Alcotest.(check bool) "bios reset clears the wedge" false (Nic8139.wedged nic)

let tests =
  [
    Alcotest.test_case "bus routing" `Quick test_bus_routing;
    Alcotest.test_case "bus unclaimed ports float" `Quick test_bus_unclaimed_floats;
    Alcotest.test_case "bus overlap rejected" `Quick test_bus_overlap_rejected;
    Alcotest.test_case "link timing" `Quick test_link_timing;
    Alcotest.test_case "link serializes bursts" `Quick test_link_serializes_bursts;
    Alcotest.test_case "link drops" `Quick test_link_drops;
    Alcotest.test_case "blockstore determinism" `Quick test_blockstore_determinism;
    Alcotest.test_case "blockstore writes persist" `Quick test_blockstore_write_persists;
    QCheck_alcotest.to_alcotest prop_blockstore_reads_stable;
    Alcotest.test_case "audio underruns counted" `Quick test_audio_underruns;
    Alcotest.test_case "printer prints in order" `Quick test_printer_prints_in_order;
    Alcotest.test_case "cd burn gap ruins disc" `Quick test_cd_gap_ruins_disc;
    Alcotest.test_case "nic wedge + bios reset" `Quick test_nic_wedges_on_garbage_and_master_reset;
    QCheck_alcotest.to_alcotest prop_blockstore_matches_reference;
    Alcotest.test_case "blockstore read allocation bound" `Quick test_blockstore_read_allocation;
  ]
