(** The I/O port bus.

    Device models claim port ranges; the kernel's mediated [Devio_*]
    kernel calls are routed here after the per-driver privilege check
    (Sec. 4: drivers may only touch the ports they were granted). *)

type t
(** A bus instance. *)

type access = Read | Write of int
(** One port access; [Write v] carries the 32-bit value. *)

val create : unit -> t
(** An empty bus. *)

val register : t -> base:int -> len:int -> (reg:int -> access -> (int, Resilix_proto.Errno.t) result) -> unit
(** [register t ~base ~len handler] claims ports [base..base+len-1];
    the handler receives the register offset relative to [base].
    @raise Invalid_argument on overlapping claims. *)

val attach : t -> Resilix_kernel.Kernel.t -> unit
(** Install this bus as the kernel's I/O handler. *)

val io_in : t -> int -> (int, Resilix_proto.Errno.t) result
(** Raw port read (what the kernel calls).  Unclaimed ports float:
    reads return [0xFFFFFFFF] — like real ISA buses, and deliberately
    forgiving to corrupted drivers whose port arithmetic went wrong
    inside their own range. *)

val io_out : t -> int -> int -> (unit, Resilix_proto.Errno.t) result
(** Raw port write; writes to unclaimed ports are dropped. *)
