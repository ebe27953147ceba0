(* Tests for the network stack below the INET server: wire codecs and
   the TCP engine driven over a simulated (lossy, reordering-free)
   pipe. *)

module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng
module Wire = Resilix_net.Wire
module Tcp = Resilix_net.Tcp
module Filegen = Resilix_net.Filegen
module Fnv = Resilix_checksum.Fnv
module Md5 = Resilix_checksum.Md5

(* --- wire codec --- *)

let seg ?(payload = "") ?(syn = false) ?(ack = false) ?(fin = false) ?(rst = false) () =
  {
    Wire.src_port = 1234;
    dst_port = 80;
    seq = 0x89ABCDEF;
    ack_no = 0x01020304;
    syn;
    ack;
    fin;
    rst;
    window = 65535;
    payload = Bytes.of_string payload;
  }

let frame body =
  { Wire.dst_mac = 0x0000_0000_0002; src_mac = 0x0000_0000_0001; packet = { Wire.src_ip = Wire.ip 10 0 0 1; dst_ip = Wire.ip 10 0 0 2; body } }

let test_tcp_roundtrip () =
  let f = frame (Wire.Tcp (seg ~payload:"hello tcp" ~ack:true ())) in
  match Wire.decode (Wire.encode f) with
  | Error e -> Alcotest.fail e
  | Ok f' -> (
      Alcotest.(check bool) "macs preserved" true (f'.Wire.dst_mac = f.Wire.dst_mac);
      match f'.Wire.packet.body with
      | Wire.Tcp s ->
          Alcotest.(check string) "payload" "hello tcp" (Bytes.to_string s.Wire.payload);
          Alcotest.(check int) "seq" 0x89ABCDEF s.Wire.seq;
          Alcotest.(check bool) "ack flag" true s.Wire.ack
      | Wire.Udp _ -> Alcotest.fail "wrong protocol")

let test_udp_roundtrip () =
  let f = frame (Wire.Udp { Wire.src_port = 53; dst_port = 5353; payload = Bytes.of_string "dns?" }) in
  match Wire.decode (Wire.encode f) with
  | Error e -> Alcotest.fail e
  | Ok f' -> (
      match f'.Wire.packet.body with
      | Wire.Udp d -> Alcotest.(check string) "payload" "dns?" (Bytes.to_string d.Wire.payload)
      | Wire.Tcp _ -> Alcotest.fail "wrong protocol")

let test_corruption_detected () =
  let f = frame (Wire.Tcp (seg ~payload:"integrity matters" ~ack:true ())) in
  let b = Wire.encode f in
  (* Flip one payload bit. *)
  let i = Bytes.length b - 3 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  match Wire.decode b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted frame must not decode"

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip for arbitrary payloads" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 1460))
    (fun payload ->
      let f = frame (Wire.Tcp (seg ~payload ~ack:true ())) in
      match Wire.decode (Wire.encode f) with
      | Ok { Wire.packet = { body = Wire.Tcp s; _ }; _ } ->
          Bytes.to_string s.Wire.payload = payload
      | _ -> false)

(* Frames pinned byte for byte as the earlier Buffer-based encoder
   wrote them: the in-place codec must put the same bytes on the wire. *)
let golden_tcp =
  {
    Wire.dst_mac = 0x0200_0000_0001;
    src_mac = 0x0200_0000_0002;
    packet =
      {
        Wire.src_ip = Wire.ip 10 0 0 2;
        dst_ip = Wire.ip 10 0 0 1;
        body =
          Wire.Tcp
            {
              Wire.src_port = 80;
              dst_port = 40000;
              seq = 0xDEADBEEF;
              ack_no = 0x12345678;
              syn = false;
              ack = true;
              fin = true;
              rst = false;
              window = 65535;
              payload = Bytes.of_string "GET /index.html HTTP/1.0\r\n\r\n";
            };
      };
  }

let golden_tcp_hex =
  "02000000000102000000000208000a0000020a0000010600509c40deadbeef12345678060000ffff001cf0af945d"
  ^ "474554202f696e6465782e68746d6c20485454502f312e300d0a0d0a"

let golden_udp =
  {
    Wire.dst_mac = 0xFFFF_FFFF_FFFF;
    src_mac = 0x0200_0000_0003;
    packet =
      {
        Wire.src_ip = Wire.ip 192 168 1 7;
        dst_ip = Wire.ip 192 168 1 255;
        body =
          Wire.Udp
            { Wire.src_port = 5353; dst_port = 53; payload = Bytes.of_string "resilix udp payload\x00\xff" };
      };
  }

let golden_udp_hex =
  "ffffffffffff0200000000030800c0a80107c0a801ff1114e9003500152200b3af"
  ^ "726573696c697820756470207061796c6f616400ff"

let to_hex b = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

let test_wire_golden_frames () =
  Alcotest.(check string) "tcp frame bytes" golden_tcp_hex (to_hex (Wire.encode golden_tcp));
  Alcotest.(check string) "udp frame bytes" golden_udp_hex (to_hex (Wire.encode golden_udp));
  List.iter
    (fun f ->
      match Wire.decode (Wire.encode f) with
      | Ok f' -> Alcotest.(check bool) "golden frame decodes to itself" true (f' = f)
      | Error e -> Alcotest.fail e)
    [ golden_tcp; golden_udp ]

(* Every byte from the transport header on is covered by the CRC (the
   CRC field itself included): changing any one of them must make the
   frame undecodable. *)
let test_wire_single_byte_flips () =
  List.iter
    (fun (name, f) ->
      let clean = Wire.encode f in
      for i = 23 to Bytes.length clean - 1 do
        List.iter
          (fun mask ->
            let b = Bytes.copy clean in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
            match Wire.decode b with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s: flipping byte %d with %02x still decodes" name i mask)
          [ 0x01; 0x80; 0xFF ]
      done)
    [ ("tcp", golden_tcp); ("udp", golden_udp) ]

(* The length field is 16 bits wide; a longer payload used to wrap it
   and surface only as a checksum mismatch at the receiver. *)
let test_wire_rejects_oversized_payload () =
  let with_payload n = frame (Wire.Udp { Wire.src_port = 1; dst_port = 2; payload = Bytes.make n 'p' }) in
  (match Wire.encode (with_payload 0x10000) with
  | _ -> Alcotest.fail "a 65,536-byte payload must be rejected"
  | exception Invalid_argument _ -> ());
  (match Wire.encode (frame (Wire.Tcp (seg ~payload:(String.make 0x10000 'p') ()))) with
  | _ -> Alcotest.fail "a 65,536-byte TCP payload must be rejected"
  | exception Invalid_argument _ -> ());
  match Wire.decode (Wire.encode (with_payload 0xFFFF)) with
  | Ok { Wire.packet = { body = Wire.Udp d; _ }; _ } ->
      Alcotest.(check int) "65,535 bytes round-trip" 0xFFFF (Bytes.length d.Wire.payload)
  | _ -> Alcotest.fail "a 65,535-byte payload must round-trip"

(* An MSS frame costs one frame buffer in [encode] and one payload copy
   in [decode], plus the decoded records.  Measured 397 minor words on
   amd64; the Buffer-based codec this replaced measured 810. *)
let wire_mss_words_bound = 400.

let test_wire_mss_allocation () =
  let f = frame (Wire.Tcp (seg ~payload:(String.make Wire.max_payload 'x') ~ack:true ())) in
  let roundtrip () =
    match Wire.decode (Wire.encode f) with Ok f -> ignore (Sys.opaque_identity f) | Error e -> failwith e
  in
  roundtrip ();
  let reps = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    roundtrip ()
  done;
  let w = (Gc.minor_words () -. w0) /. float_of_int reps in
  Printf.printf "MSS Wire.encode + decode: %.1f minor words\n" w;
  Alcotest.(check bool) (Printf.sprintf "%.1f words <= %.0f" w wire_mss_words_bound) true (w <= wire_mss_words_bound)

(* --- generated file content --- *)

(* Reference copy of the earlier generator: byte [i] of the file is byte
   [i mod 8] of splitmix64 word [i / 8], built one byte at a time. *)
let ref_mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let ref_read ~seed ~off ~len =
  Bytes.init len (fun j ->
      let abs = off + j in
      let w = ref_mix (Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int ((abs / 8) + 1)))) in
      Char.chr (Int64.to_int (Int64.shift_right_logical w (8 * (abs mod 8))) land 0xFF))

let prop_filegen_read_matches_reference =
  QCheck.Test.make ~name:"filegen read = reference across word edges" ~count:300
    QCheck.(triple (int_bound 1_000_000) (pair (int_bound 3) (int_bound 300)) (int_bound 100))
    (fun (seed, (scale, off), len) ->
      let off = off + [| 0; 4093; 1 lsl 20; 1 lsl 40 |].(scale) in
      Bytes.equal (ref_read ~seed ~off ~len) (Filegen.read ~seed ~off ~len))

let test_filegen_digests_match_read () =
  List.iter
    (fun size ->
      let whole = Filegen.read ~seed:11 ~off:0 ~len:size in
      Alcotest.(check string) (Printf.sprintf "fnv of %d bytes" size)
        (Fnv.to_hex (Fnv.update Fnv.start whole ~off:0 ~len:size))
        (Filegen.fnv_digest ~seed:11 ~size);
      let ctx = Md5.init () in
      Md5.update ctx whole ~off:0 ~len:size;
      Alcotest.(check string) (Printf.sprintf "md5 of %d bytes" size)
        (Md5.hex (Md5.finalize ctx))
        (Filegen.md5_digest ~seed:11 ~size))
    [ 0; 1; 7; 9; 1001; 65_535; 65_537; 131_075 ];
  (* Pinned as the earlier whole-chunk generator computed them. *)
  Alcotest.(check string) "pinned fnv" "4b80c641c42e778f" (Filegen.fnv_digest ~seed:11 ~size:100_003);
  Alcotest.(check string) "pinned md5" "41cd000acd8c40b76a6e0c4ccd2c2c04"
    (Filegen.md5_digest ~seed:11 ~size:100_003)

(* The digest generates the file into one reused scratch buffer, so
   its minor-heap allocation is a small constant however large the
   file (the scratch itself is a major-heap block).  A per-word call
   into a splitmix64 kept in another library boxes every word. *)
let fnv_digest_words_bound = 128.

let test_filegen_digest_allocation () =
  List.iter
    (fun size ->
      ignore (Filegen.fnv_digest ~seed:5 ~size);
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Filegen.fnv_digest ~seed:5 ~size));
      let w = Gc.minor_words () -. w0 in
      Printf.printf "Filegen.fnv_digest ~size:%d: %.0f minor words\n" size w;
      Alcotest.(check bool)
        (Printf.sprintf "%d bytes: %.0f words <= %.0f" size w fnv_digest_words_bound)
        true
        (w <= fnv_digest_words_bound))
    [ 131_072; 1_048_576 ]

(* --- TCP over a simulated pipe --- *)

(* Wire two TCP engines together through the engine with latency,
   optional loss, and per-connection timers. *)
type pipe_end = {
  mutable conn : Tcp.t option;
  mutable timer : Engine.handle option;
  mutable events : Tcp.event list;
}

let make_pair ?(latency = 500) ?(drop_prob = 0.) ?(seed = 7) ?(rx_window = 262_144) engine =
  let rng = Rng.create ~seed in
  let a = { conn = None; timer = None; events = [] } in
  let b = { conn = None; timer = None; events = [] } in
  let deliver_to dst seg =
    if not (Rng.bool rng drop_prob) then
      ignore
        (Engine.schedule engine ~after:latency (fun () ->
             match dst.conn with
             | Some c -> Tcp.handle_segment c ~now:(Engine.now engine) seg
             | None -> ()))
  in
  let callbacks this other =
    {
      Tcp.emit = (fun seg -> deliver_to other seg);
      set_timer =
        (fun delay ->
          (match this.timer with Some h -> Engine.cancel h | None -> ());
          this.timer <- None;
          match delay with
          | Some d ->
              this.timer <-
                Some
                  (Engine.schedule engine ~after:d (fun () ->
                       this.timer <- None;
                       match this.conn with
                       | Some c -> Tcp.handle_timer c ~now:(Engine.now engine)
                       | None -> ()))
          | None -> ());
      notify = (fun ev -> this.events <- ev :: this.events);
    }
  in
  let cfg_a = Tcp.default_config ~local_port:1000 ~remote_port:2000 ~isn:111 in
  let cfg_b =
    { (Tcp.default_config ~local_port:2000 ~remote_port:1000 ~isn:999_222) with Tcp.rx_window }
  in
  b.conn <- Some (Tcp.create_passive cfg_b ~now:0 (callbacks b a));
  a.conn <- Some (Tcp.create_active cfg_a ~now:0 (callbacks a b));
  (a, b)

let test_handshake () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  Engine.run engine ~until:1_000_000;
  Alcotest.(check bool) "A established" true (Tcp.is_established (Option.get a.conn));
  Alcotest.(check bool) "B established" true (Tcp.is_established (Option.get b.conn))

(* Pump [total] bytes from A to B through app-level send/recv loops. *)
let transfer ?(max = 65536) engine a b ~total ~chunk =
  let sent = ref 0 and received = Buffer.create total in
  let conn_a = Option.get a.conn and conn_b = Option.get b.conn in
  let src_byte i = Char.chr (((i * 131) + (i / 251)) land 0xFF) in
  let rec feeder () =
    if !sent < total && not (Tcp.is_closed conn_a) then begin
      let want = min chunk (total - !sent) in
      let data = Bytes.init want (fun i -> src_byte (!sent + i)) in
      let accepted = Tcp.send conn_a ~now:(Engine.now engine) data ~off:0 ~len:want in
      sent := !sent + accepted;
      if !sent >= total then Tcp.close conn_a ~now:(Engine.now engine);
      ignore (Engine.schedule engine ~after:2_000 feeder)
    end
  in
  let rec drainer () =
    let available = Tcp.rx_available conn_b in
    let data = Tcp.recv conn_b ~max in
    if Bytes.length data <> min max available then
      failwith (Printf.sprintf "recv ~max:%d took %d of %d" max (Bytes.length data) available);
    Buffer.add_bytes received data;
    if not (Tcp.peer_closed conn_b && Tcp.rx_available conn_b = 0) then
      ignore (Engine.schedule engine ~after:2_000 drainer)
  in
  feeder ();
  drainer ();
  Engine.run engine ~until:600_000_000;
  let got = Buffer.contents received in
  let expected = String.init total src_byte in
  (got, expected)

let test_bulk_transfer_clean () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let got, expected = transfer engine a b ~total:200_000 ~chunk:8192 in
  Alcotest.(check int) "all bytes arrive" (String.length expected) (String.length got);
  Alcotest.(check bool) "content identical" true (String.equal got expected)

let test_bulk_transfer_lossy () =
  let engine = Engine.create () in
  let a, b = make_pair ~drop_prob:0.05 ~seed:21 engine in
  let got, expected = transfer engine a b ~total:120_000 ~chunk:4096 in
  Alcotest.(check int) "all bytes arrive despite 5% loss" (String.length expected)
    (String.length got);
  Alcotest.(check bool) "content identical" true (String.equal got expected);
  Alcotest.(check bool) "losses caused retransmissions" true
    (Tcp.retransmissions (Option.get a.conn) > 0)

let test_transfer_across_blackout () =
  (* Model a driver crash: 100% loss for a window in the middle of the
     transfer; TCP must recover afterwards (Sec. 6.1). *)
  let engine = Engine.create () in
  let dropping = ref false in
  let rng = Rng.create ~seed:5 in
  let a = { conn = None; timer = None; events = [] } in
  let b = { conn = None; timer = None; events = [] } in
  let deliver_to dst seg =
    ignore rng;
    if not !dropping then
      ignore
        (Engine.schedule engine ~after:500 (fun () ->
             match dst.conn with
             | Some c -> Tcp.handle_segment c ~now:(Engine.now engine) seg
             | None -> ()))
  in
  let callbacks this other =
    {
      Tcp.emit = (fun seg -> deliver_to other seg);
      set_timer =
        (fun delay ->
          (match this.timer with Some h -> Engine.cancel h | None -> ());
          this.timer <- None;
          match delay with
          | Some d ->
              this.timer <-
                Some
                  (Engine.schedule engine ~after:d (fun () ->
                       this.timer <- None;
                       match this.conn with
                       | Some c -> Tcp.handle_timer c ~now:(Engine.now engine)
                       | None -> ()))
          | None -> ());
      notify = (fun ev -> this.events <- ev :: this.events);
    }
  in
  let cfg_a = Tcp.default_config ~local_port:1000 ~remote_port:2000 ~isn:77 in
  let cfg_b = Tcp.default_config ~local_port:2000 ~remote_port:1000 ~isn:88 in
  b.conn <- Some (Tcp.create_passive cfg_b ~now:0 (callbacks b a));
  a.conn <- Some (Tcp.create_active cfg_a ~now:0 (callbacks a b));
  (* Blackout between t=1s and t=1.5s. *)
  ignore (Engine.schedule engine ~after:1_000_000 (fun () -> dropping := true));
  ignore (Engine.schedule engine ~after:1_500_000 (fun () -> dropping := false));
  let got, expected = transfer engine a b ~total:400_000 ~chunk:8192 in
  Alcotest.(check int) "all bytes arrive across the blackout" (String.length expected)
    (String.length got);
  Alcotest.(check bool) "content identical" true (String.equal got expected)

let test_clean_close () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let conn_a = Option.get a.conn and conn_b = Option.get b.conn in
  ignore
    (Engine.schedule engine ~after:10_000 (fun () ->
         let data = Bytes.of_string "bye" in
         ignore (Tcp.send conn_a ~now:(Engine.now engine) data ~off:0 ~len:3);
         Tcp.close conn_a ~now:(Engine.now engine)));
  ignore
    (Engine.schedule engine ~after:200_000 (fun () ->
         ignore (Tcp.recv conn_b ~max:100);
         Tcp.close conn_b ~now:(Engine.now engine)));
  Engine.run engine ~until:30_000_000;
  Alcotest.(check bool) "A fully closed" true (Tcp.is_closed conn_a);
  Alcotest.(check bool) "B saw peer close" true (Tcp.peer_closed conn_b)

(* Reads smaller than what is buffered take a prefix and keep the rest
   in order.  The small window makes the taken prefix pass a window's
   worth while data is still buffered, which compacts the buffer. *)
let test_recv_prefix_keeps_rest () =
  let engine = Engine.create () in
  let a, b = make_pair ~rx_window:4096 engine in
  let got, expected = transfer ~max:777 engine a b ~total:60_000 ~chunk:5000 in
  Alcotest.(check int) "all bytes arrive" (String.length expected) (String.length got);
  Alcotest.(check bool) "content identical, in order" true (String.equal got expected)

let prop_lossy_transfer_delivers_exactly =
  QCheck.Test.make ~name:"tcp delivers the exact stream under random loss" ~count:15
    QCheck.(pair (int_range 1 40_000) (int_range 0 15))
    (fun (total, loss_pct) ->
      let engine = Engine.create () in
      let a, b = make_pair ~drop_prob:(float_of_int loss_pct /. 100.) ~seed:(total + loss_pct) engine in
      let got, expected = transfer engine a b ~total ~chunk:3000 in
      String.equal got expected)

let tests =
  [
    Alcotest.test_case "wire tcp roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "wire udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "wire corruption detected" `Quick test_corruption_detected;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "tcp handshake" `Quick test_handshake;
    Alcotest.test_case "tcp bulk transfer (clean)" `Quick test_bulk_transfer_clean;
    Alcotest.test_case "tcp bulk transfer (5% loss)" `Quick test_bulk_transfer_lossy;
    Alcotest.test_case "tcp across 0.5s blackout" `Quick test_transfer_across_blackout;
    Alcotest.test_case "tcp clean close" `Quick test_clean_close;
    QCheck_alcotest.to_alcotest prop_lossy_transfer_delivers_exactly;
    Alcotest.test_case "wire golden frames" `Quick test_wire_golden_frames;
    Alcotest.test_case "wire single-byte flips are caught" `Quick test_wire_single_byte_flips;
    Alcotest.test_case "wire rejects oversized payload" `Quick test_wire_rejects_oversized_payload;
    Alcotest.test_case "wire MSS allocation bound" `Quick test_wire_mss_allocation;
    QCheck_alcotest.to_alcotest prop_filegen_read_matches_reference;
    Alcotest.test_case "filegen digests = digest of read" `Quick test_filegen_digests_match_read;
    Alcotest.test_case "filegen fnv_digest allocation bound" `Quick test_filegen_digest_allocation;
    Alcotest.test_case "tcp recv prefix keeps the rest" `Quick test_recv_prefix_keeps_rest;
  ]
