(* Tests for lib/checksum: known-answer vectors plus streaming/one-shot
   equivalence properties. *)

module Md5 = Resilix_checksum.Md5
module Sha1 = Resilix_checksum.Sha1
module Crc32 = Resilix_checksum.Crc32
module Fnv = Resilix_checksum.Fnv

let check_md5 input expected () = Alcotest.(check string) input expected (Md5.digest_string input)

let check_sha1 input expected () =
  Alcotest.(check string) input expected (Sha1.digest_string input)

let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let sha1_vectors =
  [
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
  ]

let test_sha1_million () =
  (* FIPS 180-1 appendix: one million 'a's. *)
  let ctx = Sha1.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha1.update ctx chunk ~off:0 ~len:1000
  done;
  Alcotest.(check string)
    "sha1 of 1M a's" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (Sha1.finalize ctx))

let test_crc32_vectors () =
  Alcotest.(check int) "crc32 of empty" 0 (Crc32.string "");
  Alcotest.(check int) "crc32 of '123456789'" 0xCBF43926 (Crc32.string "123456789")

let test_fnv_vectors () =
  (* Published FNV-1a 64-bit values. *)
  Alcotest.(check string) "fnv of empty" "cbf29ce484222325" (Fnv.to_hex (Fnv.string ""));
  Alcotest.(check string) "fnv of 'a'" "af63dc4c8601ec8c" (Fnv.to_hex (Fnv.string "a"));
  Alcotest.(check string) "fnv of 'foobar'" "85944171f73967e8" (Fnv.to_hex (Fnv.string "foobar"))

(* Property: splitting the input into arbitrary chunks does not change
   any digest — this is exactly how the dd/wget examples stream data. *)

let random_chunks =
  QCheck.Gen.(
    let* body = string_size (int_bound 600) in
    let* cuts = list_size (int_bound 8) (int_bound (max 1 (String.length body))) in
    QCheck.Gen.return (body, List.sort_uniq compare cuts))

let split_at_cuts body cuts =
  let n = String.length body in
  let points = List.filter (fun c -> c > 0 && c < n) cuts in
  let rec pieces start = function
    | [] -> [ String.sub body start (n - start) ]
    | c :: rest -> String.sub body start (c - start) :: pieces c rest
  in
  pieces 0 points

let prop_streaming_md5 =
  QCheck.Test.make ~name:"md5 streaming = one-shot" ~count:200
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let ctx = Md5.init () in
      List.iter (Md5.update_string ctx) (split_at_cuts body cuts);
      Md5.hex (Md5.finalize ctx) = Md5.digest_string body)

let prop_streaming_sha1 =
  QCheck.Test.make ~name:"sha1 streaming = one-shot" ~count:200
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let ctx = Sha1.init () in
      List.iter (Sha1.update_string ctx) (split_at_cuts body cuts);
      Sha1.hex (Sha1.finalize ctx) = Sha1.digest_string body)

let prop_streaming_crc =
  QCheck.Test.make ~name:"crc32 streaming = one-shot" ~count:200
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let c =
        List.fold_left (fun acc s -> Crc32.update_string acc s) Crc32.start
          (split_at_cuts body cuts)
      in
      Crc32.finish c = Crc32.string body)

let prop_streaming_fnv =
  QCheck.Test.make ~name:"fnv streaming = one-shot" ~count:200
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let h =
        List.fold_left (fun acc s -> Fnv.update_string acc s) Fnv.start (split_at_cuts body cuts)
      in
      h = Fnv.string body)

let prop_md5_injective_smoke =
  QCheck.Test.make ~name:"md5 distinguishes distinct short strings" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 40)) (string_of_size (QCheck.Gen.int_bound 40)))
    (fun (a, b) -> a = b || Md5.digest_string a <> Md5.digest_string b)

(* Byte-at-a-time reference copies of the earlier CRC-32 and FNV-1a
   kernels: the word-at-a-time kernels must agree with them on every
   offset and length, aligned or not. *)

let ref_crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let ref_crc32 crc b ~off ~len =
  let c = ref crc in
  for i = off to off + len - 1 do
    c := ref_crc_table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let ref_fnv h b ~off ~len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)))) 0x100000001b3L
  done;
  !h

let random_buffer = QCheck.(pair (string_of_size (QCheck.Gen.return 130)) (int_bound 0xFFFF_FFFF))

let every_range f =
  let ok = ref true in
  for off = 0 to 64 do
    for len = 0 to 64 do
      if not (f ~off ~len) then ok := false
    done
  done;
  !ok

let prop_crc32_oracle =
  QCheck.Test.make ~name:"crc32 = byte-at-a-time reference on every off/len in 0..64"
    ~count:30 random_buffer (fun (s, crc) ->
      let b = Bytes.of_string s in
      every_range (fun ~off ~len ->
          Crc32.update crc b ~off ~len = ref_crc32 crc b ~off ~len
          && Crc32.update Crc32.start b ~off ~len = ref_crc32 Crc32.start b ~off ~len))

let prop_fnv_oracle =
  QCheck.Test.make ~name:"fnv = byte-at-a-time reference on every off/len in 0..64" ~count:30
    random_buffer (fun (s, h) ->
      let b = Bytes.of_string s in
      let h = Int64.of_int h in
      every_range (fun ~off ~len ->
          Fnv.update h b ~off ~len = ref_fnv h b ~off ~len
          && Fnv.update Fnv.start b ~off ~len = ref_fnv Fnv.start b ~off ~len))

(* [off + len] overflows for these arguments; the range check must
   still reject them before any unchecked load. *)
let test_range_checks_cannot_overflow () =
  let b = Bytes.make 16 'x' in
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted an out-of-range slice" name
    | exception Invalid_argument _ -> ()
  in
  rejects "Crc32.update ~off:1 ~len:max_int" (fun () -> Crc32.update Crc32.start b ~off:1 ~len:max_int);
  rejects "Fnv.update ~off:1 ~len:max_int" (fun () -> Fnv.update Fnv.start b ~off:1 ~len:max_int);
  rejects "Crc32.update ~off:17" (fun () -> Crc32.update Crc32.start b ~off:17 ~len:0);
  rejects "Fnv.update ~len:17" (fun () -> Fnv.update Fnv.start b ~off:0 ~len:17);
  rejects "Crc32.update ~off:-1" (fun () -> Crc32.update Crc32.start b ~off:(-1) ~len:1);
  rejects "Fnv.update ~len:-1" (fun () -> Fnv.update Fnv.start b ~off:0 ~len:(-1));
  Alcotest.(check int) "empty slice at the end is fine" Crc32.start
    (Crc32.update Crc32.start b ~off:16 ~len:0)

let tests =
  List.mapi
    (fun i (input, expected) ->
      Alcotest.test_case (Printf.sprintf "md5 vector %d" i) `Quick (check_md5 input expected))
    md5_vectors
  @ List.mapi
      (fun i (input, expected) ->
        Alcotest.test_case (Printf.sprintf "sha1 vector %d" i) `Quick (check_sha1 input expected))
      sha1_vectors
  @ [
      Alcotest.test_case "sha1 one million a's" `Slow test_sha1_million;
      Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
      Alcotest.test_case "fnv-1a vectors" `Quick test_fnv_vectors;
      QCheck_alcotest.to_alcotest prop_streaming_md5;
      QCheck_alcotest.to_alcotest prop_streaming_sha1;
      QCheck_alcotest.to_alcotest prop_streaming_crc;
      QCheck_alcotest.to_alcotest prop_streaming_fnv;
      QCheck_alcotest.to_alcotest prop_md5_injective_smoke;
      QCheck_alcotest.to_alcotest prop_crc32_oracle;
      QCheck_alcotest.to_alcotest prop_fnv_oracle;
      Alcotest.test_case "range checks cannot overflow" `Quick test_range_checks_cannot_overflow;
    ]
