module Fnv = Resilix_checksum.Fnv
module Md5 = Resilix_checksum.Md5
module Rng = Resilix_sim.Rng

(* Byte [i] of the file is byte [i mod 8] of word [i / 8], and word [k]
   is [Rng.fill]'s word at index [k + 1] with a golden-ratio stride. *)
let fill out ~pos ~seed ~first ~words =
  Rng.fill out ~pos ~words ~seed ~index:(first + 1) ~stride:0x9E3779B97F4A7C15L

let read ~seed ~off ~len =
  if off < 0 || len < 0 || off > max_int - len then invalid_arg "Filegen.read";
  let out = Bytes.create len in
  let stop = off + len in
  (* Whole words [first, last) are generated in place; a word cut by
     either end is generated aside and its bytes copied. *)
  let first = (off / 8) + if off mod 8 = 0 then 0 else 1 and last = stop / 8 in
  let edge index lo hi =
    if lo < hi then begin
      let w = Bytes.create 8 in
      fill w ~pos:0 ~seed ~first:index ~words:1;
      Bytes.blit w (lo - (8 * index)) out (lo - off) (hi - lo)
    end
  in
  if first > last then edge last off stop
  else begin
    fill out ~pos:((8 * first) - off) ~seed ~first ~words:(last - first);
    edge (off / 8) off (8 * first);
    edge last (8 * last) stop
  end;
  out

(* Folds [f] over the file in word-aligned chunks generated into one
   scratch buffer, so the file is never materialised. *)
let fold ~seed ~size ~init ~f =
  let chunk = min size 65536 in
  let buf = Bytes.create ((chunk + 7) land lnot 7) in
  let acc = ref init in
  let off = ref 0 in
  while !off < size do
    let len = min chunk (size - !off) in
    fill buf ~pos:0 ~seed ~first:(!off / 8) ~words:((len + 7) / 8);
    acc := f !acc buf len;
    off := !off + len
  done;
  !acc

let fnv_digest ~seed ~size =
  Fnv.to_hex (fold ~seed ~size ~init:Fnv.start ~f:(fun h b len -> Fnv.update h b ~off:0 ~len))

let md5_digest ~seed ~size =
  let ctx = Md5.init () in
  fold ~seed ~size ~init:() ~f:(fun () b len -> Md5.update ctx b ~off:0 ~len);
  Md5.hex (Md5.finalize ctx)
