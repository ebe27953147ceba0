(** Interpreter for driver-VM programs.

    Programs execute *inside a driver process's fiber*: instruction
    fetches read the process's own memory (so injected faults in the
    loaded image take effect immediately), loads/stores go to the same
    address space (wild pointers raise real MMU faults that kill the
    process with SIGSEGV), and [In]/[Out] instructions are mediated
    I/O-port kernel calls subject to the driver's privileges.

    Failure surface, mapped to the paper's defect classes (Sec. 5.1):
    - {!Check_failed} and {!Io_failed} are caught by the driver
      library, which panics — class 1 (exit/panic).
    - Illegal opcodes raise SIGILL and MMU faults raise SIGSEGV via
      the kernel — class 2 (CPU/MMU exception).
    - Runaway loops never return to the driver's message loop, so
      heartbeats go unanswered — class 4. *)

module Memory := Resilix_kernel.Memory

exception Check_failed of { index : int; detail : string }
(** A [Chk*] consistency check failed: the driver detected an
    internal inconsistency. *)

exception Io_failed of { port : int }
(** A mediated port access was rejected (e.g. a corrupted port number
    outside the driver's privilege range). *)

type program = private {
  mem : Memory.t;
      (** the address space the program was loaded into: the calling
          process's own, fixed for the life of that process *)
  base : int;  (** address of the loaded image in [mem] *)
  insn_count : int;  (** number of encoded instructions *)
  decoded : Isa.decoded array;  (** decode cache, one slot per instruction *)
  words : int array;
      (** the two 32-bit code words each cached decode came from
          (slot [i] at [2i] and [2i+1]); a fetch reuses a decode only
          while memory still holds exactly these words *)
}
(** A loaded program.  Fetches always read the code from the process's
    memory and check it against [words], so the cache needs no
    invalidation: any write to the image — fault injection, a wild
    store, a copy into code — is seen on the next fetch. *)

val make : mem:Memory.t -> base:int -> insn_count:int -> program
(** Describe [insn_count] instructions already in [mem] at [base],
    with an empty decode cache.  The only constructor.
    @raise Invalid_argument if [insn_count] is negative. *)

val load : base:int -> bytes -> program
(** Copy an assembled image into the *calling process's* memory at
    [base] and describe it.  Must be performed from inside a fiber. *)

val run : ?fuel_slice:int -> program -> regs:int array -> int
(** Execute from instruction 0 until [Ret], returning r0.  Fetches,
    loads and stores use the program's [mem]; the only effects it
    performs are [Yield] and the [Devio_*] kernel calls.  [regs] is
    the 8-register file (mutated in place; index 0 = r0), which is how
    the OCaml part of a driver passes parameters in and reads results
    out.  Every [fuel_slice] instructions (default 32) the interpreter
    yields ~1 microsecond of simulated CPU time, so runaway loops
    advance virtual time instead of hanging the simulator.

    @raise Check_failed / Io_failed as documented above; illegal
    instructions and MMU faults terminate the process directly. *)
