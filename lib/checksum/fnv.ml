type t = int64

let start = 0xcbf29ce484222325L
let prime = 0x100000001b3L

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] byte h v = Int64.mul (Int64.logxor h (Int64.logand v 0xFFL)) prime

(* FNV-1a is a serial chain of one multiply per byte, so a word load
   saves only the per-byte loads and bounds checks. *)
let update h b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Fnv.update";
  let h = ref h in
  let i = ref off in
  let stop = off + len in
  while !i <= stop - 8 do
    let w = get64u b !i in
    let w = if Sys.big_endian then swap64 w else w in
    let x = byte !h w in
    let x = byte x (Int64.shift_right_logical w 8) in
    let x = byte x (Int64.shift_right_logical w 16) in
    let x = byte x (Int64.shift_right_logical w 24) in
    let x = byte x (Int64.shift_right_logical w 32) in
    let x = byte x (Int64.shift_right_logical w 40) in
    let x = byte x (Int64.shift_right_logical w 48) in
    h := byte x (Int64.shift_right_logical w 56);
    i := !i + 8
  done;
  while !i < stop do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b !i)))) prime;
    incr i
  done;
  !h

let update_string h s = update h (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
let string s = update_string start s
let to_hex h = Printf.sprintf "%016Lx" h
