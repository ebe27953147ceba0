type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* [mix] is inlined into this loop, so the words stay unboxed.  A
   per-word call to [mix] from another library could not be: dune's
   dev profile compiles with [-opaque], and every [int64] crossing such
   a call is boxed. *)
let fill b ~pos ~words ~seed ~index ~stride =
  if pos < 0 || words < 0 || pos > Bytes.length b || words > (Bytes.length b - pos) / 8 then
    invalid_arg "Rng.fill";
  let z = ref (Int64.add (Int64.of_int seed) (Int64.mul golden_gamma (Int64.of_int index))) in
  for i = 0 to words - 1 do
    let v = mix !z in
    set64u b (pos + (8 * i)) (if Sys.big_endian then swap64 v else v);
    z := Int64.add !z stride
  done

(* Hierarchical seeding: the child seed is a pure function of
   (seed, index) — no generator state is involved, so siblings are
   the same no matter how many there are or in which order they are
   derived.  Two mix rounds keep child streams decorrelated from the
   parent stream (which also walks gamma-spaced states but mixes only
   once per draw). *)
let derive ~seed ~index =
  if index < 0 then invalid_arg "Rng.derive: negative index";
  let z =
    mix
      (Int64.add
         (mix (Int64.of_int seed))
         (Int64.mul golden_gamma (Int64.of_int (index + 1))))
  in
  Int64.to_int z land max_int

let int t n =
  assert (n > 0);
  (* [to_int] keeps the low 63 bits as a signed value; mask to stay
     non-negative. *)
  let v = Int64.to_int (bits64 t) land max_int in
  v mod n

let int_in t ~min ~max =
  assert (max >= min);
  min + int t (max - min + 1)

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (v /. 9007199254740992.0)

let bool t p = float t 1.0 < p

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
