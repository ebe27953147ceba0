module Crc32 = Resilix_checksum.Crc32

type tcp_segment = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_no : int;
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  window : int;
  payload : bytes;
}

type udp_datagram = { src_port : int; dst_port : int; payload : bytes }
type ip_payload = Tcp of tcp_segment | Udp of udp_datagram
type packet = { src_ip : int; dst_ip : int; body : ip_payload }
type frame = { dst_mac : int; src_mac : int; packet : packet }

let max_payload = 1460

let ip a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

(* --- low-level byte helpers --- *)

let set_u32 b i v = Bytes.set_int32_be b i (Int32.of_int v)

let set_u48 b i v =
  Bytes.set_uint16_be b i (v lsr 32);
  set_u32 b (i + 2) v

let get_u8 = Bytes.get_uint8
let get_u16 = Bytes.get_uint16_be
let get_u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xFFFF_FFFF
let get_u48 b i = (get_u16 b i lsl 32) lor get_u32 b (i + 2)

let flags_byte seg =
  (if seg.syn then 1 else 0)
  lor (if seg.ack then 2 else 0)
  lor (if seg.fin then 4 else 0)
  lor if seg.rst then 8 else 0

let proto_tcp = 6
let proto_udp = 17

(* Layout:
   0  dst_mac (6)
   6  src_mac (6)
   12 ethertype (2) = 0x0800
   14 src_ip (4)
   18 dst_ip (4)
   22 proto (1)
   TCP (proto 6), from 23:
     src_port(2) dst_port(2) seq(4) ack(4) flags(1) window(4) len(2) crc(4) payload
   UDP (proto 17), from 23:
     src_port(2) dst_port(2) len(2) crc(4) payload
   The CRC covers the transport header before it ([23, crc)) and then
   the payload; both are read in place, in the frame itself. *)

let tcp_crc_at = 42
let udp_crc_at = 29
let transport_at = 23

let frame_crc b ~crc_at ~len =
  let c = Crc32.update Crc32.start b ~off:transport_at ~len:(crc_at - transport_at) in
  Crc32.finish (Crc32.update c b ~off:(crc_at + 4) ~len)

let encode frame =
  let payload, crc_at =
    match frame.packet.body with
    | Tcp seg -> (seg.payload, tcp_crc_at)
    | Udp dgram -> (dgram.payload, udp_crc_at)
  in
  let len = Bytes.length payload in
  if len > 0xFFFF then invalid_arg "Wire.encode: payload longer than 65535 bytes";
  let b = Bytes.create (crc_at + 4 + len) in
  set_u48 b 0 frame.dst_mac;
  set_u48 b 6 frame.src_mac;
  Bytes.set_uint16_be b 12 0x0800;
  set_u32 b 14 frame.packet.src_ip;
  set_u32 b 18 frame.packet.dst_ip;
  (match frame.packet.body with
  | Tcp seg ->
      Bytes.set_uint8 b 22 proto_tcp;
      Bytes.set_uint16_be b 23 seg.src_port;
      Bytes.set_uint16_be b 25 seg.dst_port;
      set_u32 b 27 seg.seq;
      set_u32 b 31 seg.ack_no;
      Bytes.set_uint8 b 35 (flags_byte seg);
      set_u32 b 36 seg.window;
      Bytes.set_uint16_be b 40 len
  | Udp dgram ->
      Bytes.set_uint8 b 22 proto_udp;
      Bytes.set_uint16_be b 23 dgram.src_port;
      Bytes.set_uint16_be b 25 dgram.dst_port;
      Bytes.set_uint16_be b 27 len);
  Bytes.blit payload 0 b (crc_at + 4) len;
  set_u32 b crc_at (frame_crc b ~crc_at ~len);
  b

let decode b =
  try
    if Bytes.length b < 23 then Error "frame too short"
    else if get_u16 b 12 <> 0x0800 then Error "bad ethertype"
    else begin
      let dst_mac = get_u48 b 0 and src_mac = get_u48 b 6 in
      let src_ip = get_u32 b 14 and dst_ip = get_u32 b 18 in
      let proto = get_u8 b 22 in
      if proto = proto_tcp then begin
        if Bytes.length b < tcp_crc_at + 4 then Error "tcp header truncated"
        else begin
          let len = get_u16 b 40 in
          if Bytes.length b < tcp_crc_at + 4 + len then Error "tcp payload truncated"
          else if frame_crc b ~crc_at:tcp_crc_at ~len <> get_u32 b tcp_crc_at then
            Error "tcp checksum mismatch"
          else begin
            let flags = get_u8 b 35 in
            Ok
              {
                dst_mac;
                src_mac;
                packet =
                  {
                    src_ip;
                    dst_ip;
                    body =
                      Tcp
                        {
                          src_port = get_u16 b 23;
                          dst_port = get_u16 b 25;
                          seq = get_u32 b 27;
                          ack_no = get_u32 b 31;
                          syn = flags land 1 <> 0;
                          ack = flags land 2 <> 0;
                          fin = flags land 4 <> 0;
                          rst = flags land 8 <> 0;
                          window = get_u32 b 36;
                          payload = Bytes.sub b (tcp_crc_at + 4) len;
                        };
                  };
              }
          end
        end
      end
      else if proto = proto_udp then begin
        if Bytes.length b < udp_crc_at + 4 then Error "udp header truncated"
        else begin
          let len = get_u16 b 27 in
          if Bytes.length b < udp_crc_at + 4 + len then Error "udp payload truncated"
          else if frame_crc b ~crc_at:udp_crc_at ~len <> get_u32 b udp_crc_at then
            Error "udp checksum mismatch"
          else
            Ok
              {
                dst_mac;
                src_mac;
                packet =
                  {
                    src_ip;
                    dst_ip;
                    body =
                      Udp
                        {
                          src_port = get_u16 b 23;
                          dst_port = get_u16 b 25;
                          payload = Bytes.sub b (udp_crc_at + 4) len;
                        };
                  };
              }
        end
      end
      else Error "unknown protocol"
    end
  with Invalid_argument _ -> Error "malformed frame"
