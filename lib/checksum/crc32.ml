type t = int

(* Slicing-by-8: eight 256-entry tables in one array.  Entry
   [k*256 + n] is the CRC register after feeding byte [n] followed by
   [k] zero bytes, so eight input bytes fold in with eight lookups.
   Built at module initialisation (a few microseconds): campaign
   trials run on several domains, and a shared [lazy] forced by two of
   them at once raises [CamlinternalLazy.Undefined]. *)
let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let start = 0xFFFFFFFF

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get32_le b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

let update crc b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Crc32.update";
  let t = table in
  let c = ref (crc land 0xFFFFFFFF) in
  let i = ref off in
  let stop = off + len in
  while !i <= stop - 8 do
    let one = get32_le b !i lxor !c and two = get32_le b (!i + 4) in
    c :=
      Array.unsafe_get t (1792 + (one land 0xFF))
      lxor Array.unsafe_get t (1536 + ((one lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((one lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (one lsr 24))
      lxor Array.unsafe_get t (768 + (two land 0xFF))
      lxor Array.unsafe_get t (512 + ((two lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((two lsr 16) land 0xFF))
      lxor Array.unsafe_get t (two lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

let update_string crc s = update crc (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
let finish crc = crc lxor 0xFFFFFFFF
let string s = finish (update_string start s)
