exception Fault of { addr : int; len : int }

type t = { data : Bytes.t }

let create ~size = { data = Bytes.make size '\000' }
let size t = Bytes.length t.data

let check t ~addr ~len =
  if addr < 0 || len < 0 || addr > Bytes.length t.data - len then raise (Fault { addr; len })

let read t ~addr ~len =
  check t ~addr ~len;
  Bytes.sub t.data addr len

let write t ~addr src =
  let len = Bytes.length src in
  check t ~addr ~len;
  Bytes.blit src 0 t.data addr len

let copy ~src ~src_addr ~dst ~dst_addr ~len =
  check src ~addr:src_addr ~len;
  check dst ~addr:dst_addr ~len;
  Bytes.blit src.data src_addr dst.data dst_addr len

let get_u8 t addr =
  check t ~addr ~len:1;
  Char.code (Bytes.get t.data addr)

let set_u8 t addr v =
  check t ~addr ~len:1;
  Bytes.set t.data addr (Char.chr (v land 0xFF))

let get_u32 t addr =
  check t ~addr ~len:4;
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFF_FFFF

let set_u32 t addr v =
  check t ~addr ~len:4;
  Bytes.set t.data addr (Char.chr (v land 0xFF));
  Bytes.set t.data (addr + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set t.data (addr + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set t.data (addr + 3) (Char.chr ((v lsr 24) land 0xFF))
