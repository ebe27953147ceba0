module Errno = Resilix_proto.Errno

type access = Read | Write of int

type claim = {
  base : int;
  len : int;
  handler : reg:int -> access -> (int, Errno.t) result;
}

type t = { mutable claims : claim list }

let create () = { claims = [] }

let overlaps a b = a.base < b.base + b.len && b.base < a.base + a.len

let register t ~base ~len handler =
  let claim = { base; len; handler } in
  if List.exists (overlaps claim) t.claims then invalid_arg "Bus.register: overlapping port range";
  t.claims <- claim :: t.claims

(* Returned by [find] when no device claims the port, so the per-access
   lookup allocates no option. *)
let unclaimed = { base = 0; len = 0; handler = (fun ~reg:_ _ -> Ok 0) }

let rec find port = function
  | [] -> unclaimed
  | c :: rest -> if port >= c.base && port < c.base + c.len then c else find port rest

let io_in t port =
  let c = find port t.claims in
  if c == unclaimed then Ok 0xFFFF_FFFF else c.handler ~reg:(port - c.base) Read

let io_out t port value =
  let c = find port t.claims in
  if c == unclaimed then Ok ()
  else match c.handler ~reg:(port - c.base) (Write value) with Ok _ -> Ok () | Error e -> Error e

let attach t kernel = Resilix_kernel.Kernel.set_io_handlers kernel ~io_in:(io_in t) ~io_out:(io_out t)
