module Memory = Resilix_kernel.Memory
module Sysif = Resilix_kernel.Sysif
module Api = Resilix_kernel.Sysif.Api
module Status = Resilix_proto.Status
module Signal = Resilix_proto.Signal

exception Check_failed of { index : int; detail : string }
exception Io_failed of { port : int }

type program = {
  mem : Memory.t;
  base : int;
  insn_count : int;
  decoded : Isa.decoded array;
  words : int array;
}

(* [-1] is no 32-bit word, so a fresh slot misses on its first fetch. *)
let make ~mem ~base ~insn_count =
  {
    mem;
    base;
    insn_count;
    decoded = Array.make insn_count Isa.D_nop;
    words = Array.make (2 * insn_count) (-1);
  }

let load ~base image =
  let mem = Api.memory () in
  Memory.write mem ~addr:base image;
  make ~mem ~base ~insn_count:(Bytes.length image / Isa.instr_size)

let mask32 v = v land 0xFFFF_FFFF
let sigill = Sysif.Killed_exn (Status.Killed Signal.Sig_ill)

(* Fetch instruction [index] from the process's memory.  The two code
   words are always read and compared with the slot's shadow copy, so
   the cached decode is reused only while the bytes it came from are
   unchanged: a fault injected into the image, a wild [Store] over
   code or a safecopy into it shows on the very next fetch, and no
   write path needs to know the cache exists.  Illegal opcodes are
   never cached, so they trap on every fetch. *)
let fetch mem program index =
  (* Out-of-image program counters are treated like executing
     unmapped memory: an illegal-instruction CPU exception. *)
  if index < 0 || index >= program.insn_count then raise sigill;
  let addr = program.base + (index * Isa.instr_size) in
  let lo = Memory.get_u32 mem addr in
  let hi = Memory.get_u32 mem (addr + 4) in
  let w = 2 * index in
  if Array.unsafe_get program.words w = lo && Array.unsafe_get program.words (w + 1) = hi then
    Array.unsafe_get program.decoded index
  else
    match Isa.decode_words ~lo ~hi ~index with
    | d ->
        Array.unsafe_set program.decoded index d;
        Array.unsafe_set program.words w lo;
        Array.unsafe_set program.words (w + 1) hi;
        d
    | exception Isa.Illegal_instruction _ -> raise sigill

let run ?(fuel_slice = 32) program ~regs =
  if Array.length regs <> 8 then invalid_arg "Interp.run: want 8 registers";
  let mem = program.mem in
  let pc = ref 0 in
  let fuel = ref fuel_slice in
  let running = ref true in
  while !running do
    decr fuel;
    if !fuel <= 0 then begin
      fuel := fuel_slice;
      Api.yield ~cost:1 ()
    end;
    let index = !pc in
    incr pc;
    match fetch mem program index with
    | Isa.D_nop -> ()
    | Isa.D_movi (rd, imm) -> regs.(rd) <- mask32 imm
    | Isa.D_mov (rd, rs) -> regs.(rd) <- regs.(rs)
    | Isa.D_add (rd, rs) -> regs.(rd) <- mask32 (regs.(rd) + regs.(rs))
    | Isa.D_addi (rd, imm) -> regs.(rd) <- mask32 (regs.(rd) + imm)
    | Isa.D_sub (rd, rs) -> regs.(rd) <- mask32 (regs.(rd) - regs.(rs))
    | Isa.D_andi (rd, imm) -> regs.(rd) <- regs.(rd) land mask32 imm
    | Isa.D_shr (rd, n) -> regs.(rd) <- regs.(rd) lsr n
    | Isa.D_shl (rd, n) -> regs.(rd) <- mask32 (regs.(rd) lsl n)
    | Isa.D_load (rd, rs, imm) -> regs.(rd) <- Memory.get_u32 mem (regs.(rs) + imm)
    | Isa.D_store (rd, imm, rs) -> Memory.set_u32 mem (regs.(rd) + imm) regs.(rs)
    | Isa.D_loadb (rd, rs, imm) -> regs.(rd) <- Memory.get_u8 mem (regs.(rs) + imm)
    | Isa.D_storeb (rd, imm, rs) -> Memory.set_u8 mem (regs.(rd) + imm) regs.(rs)
    | Isa.D_in (rd, port) -> begin
        match Api.devio_in port with
        | Ok v -> regs.(rd) <- mask32 v
        | Error _ -> raise (Io_failed { port })
      end
    | Isa.D_out (port, rs) -> begin
        match Api.devio_out port regs.(rs) with
        | Ok () -> ()
        | Error _ -> raise (Io_failed { port })
      end
    | Isa.D_jmp target -> pc := target
    | Isa.D_jz (rd, target) -> if regs.(rd) = 0 then pc := target
    | Isa.D_jnz (rd, target) -> if regs.(rd) <> 0 then pc := target
    | Isa.D_chkeq (rd, imm) ->
        if regs.(rd) <> mask32 imm then
          raise
            (Check_failed
               { index; detail = Printf.sprintf "r%d = %d, expected %d" rd regs.(rd) (mask32 imm) })
    | Isa.D_chklt (rd, imm) ->
        if regs.(rd) >= mask32 imm then
          raise
            (Check_failed
               { index; detail = Printf.sprintf "r%d = %d, expected < %d" rd regs.(rd) (mask32 imm) })
    | Isa.D_chknz rd ->
        if regs.(rd) = 0 then
          raise (Check_failed { index; detail = Printf.sprintf "r%d is zero" rd })
    | Isa.D_ret -> running := false
    | Isa.D_fail -> raise (Check_failed { index; detail = "explicit fail" })
  done;
  regs.(0)
