module Rng = Resilix_sim.Rng

type t = {
  seed : int;
  sectors : int;
  sector_size : int;
  written : (int, bytes) Hashtbl.t;
}

let create ~seed ~sectors ~sector_size = { seed; sectors; sector_size; written = Hashtbl.create 1024 }
let sector_size t = t.sector_size
let sectors t = t.sectors

(* Never-written sector [lba] holds the [Rng.fill] words at index
   [lba + 1], stride 1, generated straight into the output buffer;
   bytes past the last whole word are zero. *)
let read t ~lba ~count =
  if lba < 0 || count < 0 || lba > t.sectors - count then invalid_arg "Blockstore.read";
  let ss = t.sector_size in
  let words = ss / 8 in
  let out = Bytes.create (count * ss) in
  for i = 0 to count - 1 do
    let pos = i * ss in
    match Hashtbl.find_opt t.written (lba + i) with
    | Some b -> Bytes.blit b 0 out pos ss
    | None ->
        Rng.fill out ~pos ~words ~seed:t.seed ~index:(lba + i + 1) ~stride:1L;
        Bytes.fill out (pos + (8 * words)) (ss - (8 * words)) '\000'
  done;
  out

let write t ~lba data =
  let len = Bytes.length data in
  if len mod t.sector_size <> 0 then invalid_arg "Blockstore.write: partial sector";
  let count = len / t.sector_size in
  if lba < 0 || lba + count > t.sectors then invalid_arg "Blockstore.write: out of range";
  for i = 0 to count - 1 do
    Hashtbl.replace t.written (lba + i) (Bytes.sub data (i * t.sector_size) t.sector_size)
  done
