(* Unit and property tests for the s4_util foundation library. *)

module Crc32 = S4_util.Crc32
module Sha256 = S4_util.Sha256
module Rng = S4_util.Rng
module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Units = S4_util.Units
module Histogram = S4_util.Histogram

let check = Alcotest.check
let qtest = Qseed.qtest

(* --- Reference oracles ---------------------------------------------- *)

(* Textbook references: a byte-at-a-time CRC-32 over int32 and a
   one-shot SHA-256 with the plain round loop. The properties below
   compare the library's sliced CRC and unrolled SHA-256 against them;
   the known-answer vectors pin the references themselves. *)

module Ref_crc32 = struct
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)

  let sub b ~pos ~len =
    let acc = ref 0xFFFFFFFFl in
    for i = pos to pos + len - 1 do
      let idx = Int32.to_int (Int32.logand (Int32.logxor !acc (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl) in
      acc := Int32.logxor table.(idx) (Int32.shift_right_logical !acc 8)
    done;
    Int32.to_int (Int32.logxor !acc 0xFFFFFFFFl) land 0xFFFFFFFF
end

module Ref_sha256 = struct
  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
      0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
      0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
      0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
      0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
      0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
      0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
      0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
      0xc67178f2;
    |]

  let mask = 0xFFFFFFFF
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  (* One message, padded up front and compressed block by block. *)
  let digest (msg : string) =
    let h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
    in
    let n = String.length msg in
    let padded = Bytes.make ((n + 9 + 63) / 64 * 64) '\x00' in
    Bytes.blit_string msg 0 padded 0 n;
    Bytes.set padded n '\x80';
    let bits = n * 8 and plen = Bytes.length padded in
    for i = 0 to 7 do
      Bytes.set padded (plen - 1 - i) (Char.chr ((bits lsr (8 * i)) land 0xff))
    done;
    let w = Array.make 64 0 in
    for blk = 0 to (plen / 64) - 1 do
      for i = 0 to 15 do
        let at j = Char.code (Bytes.get padded ((64 * blk) + (4 * i) + j)) in
        w.(i) <- (at 0 lsl 24) lor (at 1 lsl 16) lor (at 2 lsl 8) lor at 3
      done;
      for i = 16 to 63 do
        let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
        let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
        w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
      done;
      let v = Array.copy h in
      for i = 0 to 63 do
        let a = v.(0) and b = v.(1) and c = v.(2) and d = v.(3) in
        let e = v.(4) and f = v.(5) and g = v.(6) and hh = v.(7) in
        let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
        let ch = e land f lxor (lnot e land g) in
        let t1 = (hh + s1 + ch + k.(i) + w.(i)) land mask in
        let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
        let maj = a land b lxor (a land c) lxor (b land c) in
        let t2 = (s0 + maj) land mask in
        Array.blit [| (t1 + t2) land mask; a; b; c; (d + t1) land mask; e; f; g |] 0 v 0 8
      done;
      Array.iteri (fun i x -> h.(i) <- (h.(i) + x) land mask) v
    done;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))
end

(* --- CRC32 --------------------------------------------------------- *)

let test_crc_known_vectors () =
  (* Standard test vector: CRC-32("123456789") = 0xCBF43926. *)
  check Alcotest.int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check Alcotest.int "empty" 0 (Crc32.string "");
  check Alcotest.int "a" 0xE8B7BE43 (Crc32.string "a");
  (* The zero-padded metadata block every journal, summary and audit
     write checksums. *)
  check Alcotest.int "4092 zero bytes" 0x603B0489 (Crc32.bytes (Bytes.make 4092 '\000'));
  (* Lengths either side of the 8-byte stride and its double. *)
  let fox = "The quick brown fox jumps over the lazy dog" in
  List.iter
    (fun (n, want) ->
      check Alcotest.int (Printf.sprintf "fox prefix %d" n) want (Crc32.string (String.sub fox 0 n)))
    [ (7, 0x6CA49EC6); (8, 0x74D21C74); (9, 0x5F7E3064); (15, 0xC3118C34); (16, 0xC81B2A7C); (17, 0x2FA80DDD) ]

let test_crc_incremental () =
  let whole = Crc32.string "hello world" in
  let b = Bytes.of_string "hello world" in
  let acc = Crc32.update Crc32.init b ~pos:0 ~len:5 in
  let acc = Crc32.update acc b ~pos:5 ~len:6 in
  check Alcotest.int "incremental = one-shot" whole (Crc32.finish acc)

let test_crc_sub () =
  let b = Bytes.of_string "xxhelloxx" in
  check Alcotest.int "sub range" (Crc32.string "hello") (Crc32.sub b ~pos:2 ~len:5)

let test_crc_bad_range () =
  Alcotest.check_raises "out of range" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.update Crc32.init (Bytes.create 4) ~pos:2 ~len:4))

let prop_crc_detects_single_bit_flip =
  QCheck.Test.make ~name:"crc32 detects any single-bit flip" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (pair small_nat small_nat))
    (fun (s, (i, bit)) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      Crc32.bytes b <> Crc32.string s)

(* Random bytes of length 0-64 or one 4092-byte metadata block, with a
   random range inside them. *)
let arb_range =
  QCheck.make
    ~print:(fun (s, pos, len) -> Printf.sprintf "<%d bytes> pos=%d len=%d" (String.length s) pos len)
    QCheck.Gen.(
      let* n = frequency [ (4, int_bound 64); (1, return 4092) ] in
      let* s = string_size (return n) in
      let* pos = int_bound n in
      let* len = int_bound (n - pos) in
      return (s, pos, len))

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"crc32 sub = byte-at-a-time reference" ~count:300 arb_range
    (fun (s, pos, len) ->
      let b = Bytes.of_string s in
      Crc32.sub b ~pos ~len = Ref_crc32.sub b ~pos ~len)

(* The same content at every offset 0-15 of a larger buffer, so the
   8-byte reads start at every alignment. *)
let prop_crc_unaligned =
  QCheck.Test.make ~name:"crc32 independent of buffer offset" ~count:100
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s ->
      let want = Ref_crc32.sub (Bytes.of_string s) ~pos:0 ~len:(String.length s) in
      List.for_all
        (fun off ->
          let b = Bytes.make (off + String.length s + 7) '\xA5' in
          Bytes.blit_string s 0 b off (String.length s);
          Crc32.sub b ~pos:off ~len:(String.length s) = want)
        (List.init 16 Fun.id))

let arb_split =
  QCheck.make
    ~print:(fun (s, cuts) ->
      Printf.sprintf "<%d bytes> cuts=[%s]" (String.length s)
        (String.concat ";" (List.map string_of_int cuts)))
    QCheck.Gen.(
      let* n = frequency [ (3, int_bound 200); (1, return 4092) ] in
      let* s = string_size (return n) in
      let* cuts = list_size (int_bound 5) (int_bound n) in
      return (s, List.sort compare cuts))

(* The pieces of [s] cut at [cuts], as (pos, len) ranges. *)
let pieces s cuts =
  let rec go from = function
    | [] -> [ (from, String.length s - from) ]
    | cut :: rest -> (from, cut - from) :: go cut rest
  in
  go 0 cuts

let prop_crc_split =
  QCheck.Test.make ~name:"crc32 update split at random points = reference" ~count:200 arb_split
    (fun (s, cuts) ->
      let b = Bytes.of_string s in
      let acc = List.fold_left (fun acc (pos, len) -> Crc32.update acc b ~pos ~len) Crc32.init (pieces s cuts) in
      Crc32.finish acc = Ref_crc32.sub b ~pos:0 ~len:(String.length s))

(* [Crc32.zeros] against the reference run over real zero bytes: a
   random prefix sets the register, then 0 to 64 KB of zeros. *)
let prop_crc_zeros =
  QCheck.Test.make ~name:"crc32 zeros = byte-at-a-time reference over [0, 64 KB]" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 40)) (make ~print:string_of_int Gen.(0 -- 65536)))
    (fun (s, n) ->
      let b = Bytes.make (String.length s + n) '\000' in
      Bytes.blit_string s 0 b 0 (String.length s);
      let acc = Crc32.update Crc32.init b ~pos:0 ~len:(String.length s) in
      Crc32.finish (Crc32.zeros acc n) = Ref_crc32.sub b ~pos:0 ~len:(Bytes.length b))

let test_crc_zeros_edges () =
  List.iter
    (fun n ->
      let b = Bytes.make n '\000' in
      check Alcotest.int (Printf.sprintf "%d zeros" n) (Ref_crc32.sub b ~pos:0 ~len:n)
        (Crc32.finish (Crc32.zeros Crc32.init n)))
    [ 0; 1; 7; 8; 9; 4092; 65535; 65536 ];
  Alcotest.check_raises "negative" (Invalid_argument "Crc32.zeros") (fun () ->
      ignore (Crc32.zeros Crc32.init (-1)))

(* --- SHA-256 ------------------------------------------------------- *)

(* FIPS 180-4 / NIST CSRC example vectors. *)
let test_sha256_fips_vectors () =
  let cases =
    [
      ("empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "448-bit",
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "one million 'a'",
        String.make 1_000_000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (name, msg, hex) ->
      check Alcotest.string name hex (Sha256.to_hex (Sha256.digest_string msg));
      check Alcotest.string (name ^ " (reference)") hex (Sha256.to_hex (Ref_sha256.digest msg)))
    cases

let test_sha256_bad_range () =
  Alcotest.check_raises "out of range" (Invalid_argument "Sha256.feed_sub") (fun () ->
      Sha256.feed_sub (Sha256.init ()) (Bytes.create 4) 2 4)

let prop_sha256_matches_reference =
  QCheck.Test.make ~name:"sha256 feed_sub range = reference" ~count:200 arb_range
    (fun (s, pos, len) ->
      let ctx = Sha256.init () in
      Sha256.feed_sub ctx (Bytes.of_string s) pos len;
      Sha256.finish ctx = Ref_sha256.digest (String.sub s pos len))

let prop_sha256_split =
  QCheck.Test.make ~name:"sha256 feed_sub split at random points = reference" ~count:200 arb_split
    (fun (s, cuts) ->
      let b = Bytes.of_string s and ctx = Sha256.init () in
      List.iter (fun (pos, len) -> Sha256.feed_sub ctx b pos len) (pieces s cuts);
      Sha256.finish ctx = Ref_sha256.digest s)

(* --- RNG ----------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.copy a in
  check Alcotest.int64 "copies agree" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check Alcotest.bool "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let r = Rng.create ~seed:4 in
  let seen_min = ref false and seen_max = ref false in
  for _ = 1 to 2000 do
    let v = Rng.int_in r ~min:5 ~max:9 in
    check Alcotest.bool "in range" true (v >= 5 && v <= 9);
    if v = 5 then seen_min := true;
    if v = 9 then seen_max := true
  done;
  check Alcotest.bool "covers endpoints" true (!seen_min && !seen_max)

let test_rng_float_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    check Alcotest.bool "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:6 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean close to 3" true (abs_float (mean -. 3.0) < 0.2)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:8 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_zipf_skew () =
  let r = Rng.create ~seed:9 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let v = Rng.zipf r ~n:100 ~theta:0.8 in
    counts.(v) <- counts.(v) + 1
  done;
  check Alcotest.bool "rank 0 beats rank 50" true (counts.(0) > counts.(50))

let test_rng_invalid_args () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int") (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "bad range" (Invalid_argument "Rng.int_in") (fun () ->
      ignore (Rng.int_in r ~min:3 ~max:2))

(* --- Bcodec -------------------------------------------------------- *)

let test_bcodec_scalars () =
  let w = Bcodec.writer () in
  Bcodec.w_u8 w 0xAB;
  Bcodec.w_u16 w 0xBEEF;
  Bcodec.w_u32 w 0xDEADBEEF;
  Bcodec.w_i64 w (-1L);
  let r = Bcodec.reader (Bcodec.contents w) in
  check Alcotest.int "u8" 0xAB (Bcodec.r_u8 r);
  check Alcotest.int "u16" 0xBEEF (Bcodec.r_u16 r);
  check Alcotest.int "u32" 0xDEADBEEF (Bcodec.r_u32 r);
  check Alcotest.int64 "i64" (-1L) (Bcodec.r_i64 r);
  check Alcotest.int "consumed" 0 (Bcodec.remaining r)

let test_bcodec_varint_edge () =
  List.iter
    (fun v ->
      let w = Bcodec.writer () in
      Bcodec.w_int w v;
      let r = Bcodec.reader (Bcodec.contents w) in
      check Alcotest.int (Printf.sprintf "varint %d" v) v (Bcodec.r_int r))
    [ 0; 1; 127; 128; 255; 16_383; 16_384; 1 lsl 30; (1 lsl 62) - 1 ]

let test_bcodec_truncation () =
  let w = Bcodec.writer () in
  Bcodec.w_u32 w 42;
  let short = Bytes.sub (Bcodec.contents w) 0 2 in
  let r = Bcodec.reader short in
  check Alcotest.bool "raises Decode_error" true
    (try
       ignore (Bcodec.r_u32 r);
       false
     with Bcodec.Decode_error _ -> true)

let test_bcodec_negative_varint_rejected () =
  let w = Bcodec.writer () in
  Alcotest.check_raises "negative" (Invalid_argument "Bcodec.w_int: negative") (fun () ->
      Bcodec.w_int w (-1))

(* Every padded metadata block was written by hand as: body blitted
   into a zeroed block, then the CRC of all but the 4-byte trailer. *)
let pad_then_crc ~block_size body =
  let out = Bytes.make block_size '\000' in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Bcodec.set_u32 out (block_size - 4) (Ref_crc32.sub out ~pos:0 ~len:(block_size - 4));
  out

let prop_bcodec_block_matches_pad_then_crc =
  QCheck.Test.make ~name:"bcodec block = pad-then-CRC" ~count:200
    QCheck.(pair (oneofl [ 512; 4096 ]) (string_of_size Gen.(0 -- 508)))
    (fun (block_size, body) ->
      let w = Bcodec.writer () in
      Bcodec.w_raw w (Bytes.of_string body);
      Bcodec.block w ~block_size = pad_then_crc ~block_size (Bytes.of_string body))

let test_bcodec_block_checks () =
  let w = Bcodec.writer () in
  Bcodec.w_u16 w 0x4242;
  Bcodec.w_string w "body";
  let b = Bcodec.block w ~block_size:512 in
  let read b ~magic = Bcodec.read_block b ~magic Bcodec.r_string in
  check Alcotest.(option string) "roundtrip" (Some "body") (read b ~magic:0x4242);
  check Alcotest.(option string) "wrong magic" None (read b ~magic:0x4243);
  (* A flipped bit in the zero tail is caught: decoders CRC it all. *)
  let torn = Bytes.copy b in
  Bytes.set torn 300 '\001';
  check Alcotest.(option string) "tail bit flip" None (read torn ~magic:0x4242);
  check Alcotest.(option string) "truncated body" None
    (Bcodec.read_block b ~magic:0x4242 (fun r -> Bytes.to_string (Bcodec.r_raw r 600)));
  check Alcotest.(option string) "short" None (read (Bytes.create 5) ~magic:0x4242);
  let full = Bcodec.writer () in
  Bcodec.w_raw full (Bytes.make 509 'x');
  Alcotest.check_raises "overflow" (Invalid_argument "Bcodec.block: body does not fit") (fun () ->
      ignore (Bcodec.block full ~block_size:512))

(* A random program of scalar writes must read back verbatim and
   consume the buffer exactly. *)
let prop_bcodec_program_roundtrip =
  let gen_op =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> `U8 n) (int_bound 0xFF);
          map (fun n -> `U16 n) (int_bound 0xFFFF);
          map (fun n -> `U32 n) (int_bound 0xFFFFFFFF);
          map (fun n -> `I64 (Int64.of_int n)) int;
          oneofl [ `I64 Int64.min_int; `I64 Int64.max_int; `I64 0L; `I64 (-1L) ];
          map (fun n -> `Int (n land max_int)) int;
          map (fun s -> `Str s) (string_size (int_bound 64));
        ])
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> Printf.sprintf "<%d scalar ops>" (List.length ops))
      QCheck.Gen.(list_size (int_bound 50) gen_op)
  in
  QCheck.Test.make ~name:"bcodec random scalar program roundtrip" ~count:300 arb (fun ops ->
      let w = Bcodec.writer () in
      List.iter
        (function
          | `U8 n -> Bcodec.w_u8 w n
          | `U16 n -> Bcodec.w_u16 w n
          | `U32 n -> Bcodec.w_u32 w n
          | `I64 n -> Bcodec.w_i64 w n
          | `Int n -> Bcodec.w_int w n
          | `Str s -> Bcodec.w_string w s)
        ops;
      let r = Bcodec.reader (Bcodec.contents w) in
      let ok =
        List.for_all
          (function
            | `U8 n -> Bcodec.r_u8 r = n
            | `U16 n -> Bcodec.r_u16 r = n
            | `U32 n -> Bcodec.r_u32 r = n
            | `I64 n -> Bcodec.r_i64 r = n
            | `Int n -> Bcodec.r_int r = n
            | `Str s -> Bcodec.r_string r = s)
          ops
      in
      ok && Bcodec.remaining r = 0)

let prop_bcodec_roundtrip =
  QCheck.Test.make ~name:"bcodec bytes/string/varint roundtrip" ~count:200
    QCheck.(triple (string_of_size Gen.(0 -- 200)) small_nat (list small_nat))
    (fun (s, n, ints) ->
      let w = Bcodec.writer () in
      Bcodec.w_string w s;
      Bcodec.w_int w n;
      List.iter (Bcodec.w_int w) ints;
      Bcodec.w_bytes w (Bytes.of_string s);
      let r = Bcodec.reader (Bcodec.contents w) in
      let s' = Bcodec.r_string r in
      let n' = Bcodec.r_int r in
      let ints' = List.map (fun _ -> Bcodec.r_int r) ints in
      let b' = Bcodec.r_bytes r in
      s' = s && n' = n && ints' = ints && Bytes.to_string b' = s)

(* --- Simclock ------------------------------------------------------ *)

let test_clock_advance () =
  let c = Simclock.create () in
  check Alcotest.int64 "starts at 0" 0L (Simclock.now c);
  Simclock.advance c 1500L;
  Simclock.advance_s c 0.5;
  check Alcotest.int64 "1500ns + 0.5s" 500_001_500L (Simclock.now c)

let test_clock_no_backward () =
  let c = Simclock.create () in
  Simclock.advance c 100L;
  Alcotest.check_raises "backward set" (Invalid_argument "Simclock.set: backward") (fun () ->
      Simclock.set c 50L);
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Simclock.advance: negative") (fun () -> Simclock.advance c (-1L))

let test_clock_conversions () =
  check Alcotest.int64 "1ms" 1_000_000L (Simclock.of_ms 1.0);
  check Alcotest.int64 "2us" 2_000L (Simclock.of_us 2.0);
  check (Alcotest.float 1e-9) "roundtrip" 1.5 (Simclock.to_seconds (Simclock.of_seconds 1.5))

(* --- Units --------------------------------------------------------- *)

let test_units_pp () =
  check Alcotest.string "bytes" "512 B" (Format.asprintf "%a" Units.pp_bytes 512);
  check Alcotest.string "kib" "4.0 KiB" (Format.asprintf "%a" Units.pp_bytes 4096);
  check Alcotest.string "gib" "2.00 GiB" (Format.asprintf "%a" Units.pp_bytes (2 * Units.gib))

let test_units_stats () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Units.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "stddev" 1.0 (Units.stddev [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "percent" 25.0 (Units.percent 1.0 4.0);
  check (Alcotest.float 1e-9) "percent of zero" 0.0 (Units.percent 1.0 0.0)

(* --- Histogram ----------------------------------------------------- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1.0; 2.0; 4.0; 8.0 ];
  check Alcotest.int "count" 4 (Histogram.count h);
  check (Alcotest.float 1e-9) "total" 15.0 (Histogram.total h);
  check (Alcotest.float 1e-9) "mean" 3.75 (Histogram.mean h);
  check (Alcotest.float 1e-9) "max" 8.0 (Histogram.max_value h);
  check (Alcotest.float 1e-9) "min" 1.0 (Histogram.min_value h)

let test_histogram_percentile_monotone () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  let p50 = Histogram.percentile h 50.0 and p99 = Histogram.percentile h 99.0 in
  check Alcotest.bool "p50 <= p99" true (p50 <= p99);
  check Alcotest.bool "p99 within 2x of true value" true (p99 >= 990.0 /. 2.0 && p99 <= 990.0 *. 2.0)

let test_histogram_empty () =
  let h = Histogram.create () in
  check (Alcotest.float 1e-9) "empty percentile" 0.0 (Histogram.percentile h 99.0);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Histogram.mean h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1.0;
  Histogram.add b 5.0;
  let m = Histogram.merge a b in
  check Alcotest.int "merged count" 2 (Histogram.count m);
  check (Alcotest.float 1e-9) "merged total" 6.0 (Histogram.total m)

(* --- LRU (lives in s4_store but is generic) ------------------------ *)

module Lru = S4_store.Lru

let test_lru_basic () =
  let c = Lru.create ~budget:3 () in
  Lru.insert c "a" 1 ~cost:1;
  Lru.insert c "b" 2 ~cost:1;
  Lru.insert c "c" 3 ~cost:1;
  check (Alcotest.option Alcotest.int) "find a" (Some 1) (Lru.find c "a");
  Lru.insert c "d" 4 ~cost:1;
  (* "b" was least recently used ("a" was touched by find). *)
  check (Alcotest.option Alcotest.int) "b evicted" None (Lru.peek c "b");
  check (Alcotest.option Alcotest.int) "a kept" (Some 1) (Lru.peek c "a")

let test_lru_eviction_callback () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~budget:2 () in
  Lru.insert c 1 "one" ~cost:1;
  Lru.insert c 2 "two" ~cost:1;
  Lru.insert c 3 "three" ~cost:1;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string)) "evicted 1" [ (1, "one") ] !evicted

let test_lru_cost_accounting () =
  let c = Lru.create ~budget:10 () in
  Lru.insert c "x" 0 ~cost:4;
  Lru.insert c "y" 0 ~cost:4;
  check Alcotest.int "cost" 8 (Lru.cost c);
  Lru.insert c "x" 0 ~cost:6;
  (* replacing x with cost 6: total 10, fits *)
  check Alcotest.int "replaced cost" 10 (Lru.cost c);
  Lru.insert c "z" 0 ~cost:5;
  check Alcotest.bool "evicted to fit" true (Lru.cost c <= 10)

let test_lru_oversized_entry_tolerated () =
  let c = Lru.create ~budget:4 () in
  Lru.insert c "big" 0 ~cost:100;
  check Alcotest.int "still resident" 1 (Lru.length c);
  Lru.insert c "small" 0 ~cost:1;
  check Alcotest.bool "big evicted for small" true (Lru.peek c "big" = None)

let test_lru_remove_and_clear () =
  let evictions = ref 0 in
  let c = Lru.create ~on_evict:(fun _ _ -> incr evictions) ~budget:10 () in
  Lru.insert c 1 () ~cost:1;
  Lru.insert c 2 () ~cost:1;
  Lru.remove c 1;
  check Alcotest.int "remove silent" 0 !evictions;
  Lru.flush c;
  check Alcotest.int "flush evicts" 1 !evictions;
  check Alcotest.int "empty" 0 (Lru.length c)

let test_lru_hits_misses () =
  let c = Lru.create ~budget:10 () in
  Lru.insert c 1 () ~cost:1;
  ignore (Lru.find c 1);
  ignore (Lru.find c 2);
  check Alcotest.int "hits" 1 (Lru.hits c);
  check Alcotest.int "misses" 1 (Lru.misses c)

let prop_lru_never_exceeds_budget_with_unit_costs =
  QCheck.Test.make ~name:"lru respects budget" ~count:100
    QCheck.(list (pair small_nat bool))
    (fun ops ->
      let c = Lru.create ~budget:8 () in
      List.iter
        (fun (k, ins) -> if ins then Lru.insert c k () ~cost:1 else ignore (Lru.find c k))
        ops;
      Lru.cost c <= 8)

(* Model-based check: the cache must behave exactly like a naive
   MRU-first assoc list with the same eviction rule (evict the tail
   while over budget, but never down to zero entries). Recency order
   is observed through the eviction callback sequence. *)
let prop_lru_matches_model =
  let budget = 6 in
  let arb =
    QCheck.(
      list
        (triple (int_bound 3) (* 0=insert 1=find 2=peek 3=remove *)
           (int_bound 7) (* key *)
           (int_bound 4) (* cost, inserts only *)))
  in
  QCheck.Test.make ~name:"lru matches assoc-list model" ~count:300 arb (fun ops ->
      let evicted = ref [] in
      let c = Lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~budget () in
      let model = ref [] in
      (* MRU-first: (key, (value, cost)) *)
      let m_evicted = ref [] in
      let m_hits = ref 0 and m_misses = ref 0 in
      let m_cost () = List.fold_left (fun a (_, (_, c)) -> a + c) 0 !model in
      let m_evict () =
        while m_cost () > budget && List.length !model > 1 do
          let rec split = function
            | [ last ] -> ([], last)
            | x :: rest ->
              let pre, l = split rest in
              (x :: pre, l)
            | [] -> assert false
          in
          let pre, (k, (v, _)) = split !model in
          model := pre;
          m_evicted := (k, v) :: !m_evicted
        done
      in
      let ok = ref true in
      let vcounter = ref 0 in
      List.iter
        (fun (op, k, cost) ->
          match op with
          | 0 ->
            incr vcounter;
            let v = !vcounter in
            Lru.insert c k v ~cost;
            model := (k, (v, cost)) :: List.remove_assoc k !model;
            m_evict ()
          | 1 -> (
            let r = Lru.find c k in
            match List.assoc_opt k !model with
            | Some (v, cost) ->
              incr m_hits;
              model := (k, (v, cost)) :: List.remove_assoc k !model;
              if r <> Some v then ok := false
            | None ->
              incr m_misses;
              if r <> None then ok := false)
          | 2 -> if Lru.peek c k <> Option.map fst (List.assoc_opt k !model) then ok := false
          | _ ->
            Lru.remove c k;
            model := List.remove_assoc k !model)
        ops;
      !ok
      && Lru.cost c = m_cost ()
      && Lru.length c = List.length !model
      && Lru.hits c = !m_hits
      && Lru.misses c = !m_misses
      && !evicted = !m_evicted
      && List.for_all (fun (k, (v, _)) -> Lru.peek c k = Some v) !model)

let () =
  Alcotest.run "s4_util"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
          Alcotest.test_case "sub range" `Quick test_crc_sub;
          Alcotest.test_case "bad range" `Quick test_crc_bad_range;
          qtest prop_crc_detects_single_bit_flip;
          qtest prop_crc_matches_reference;
          qtest prop_crc_unaligned;
          qtest prop_crc_split;
          Alcotest.test_case "zeros edges" `Quick test_crc_zeros_edges;
          qtest prop_crc_zeros;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS 180-4 vectors" `Quick test_sha256_fips_vectors;
          Alcotest.test_case "bad range" `Quick test_sha256_bad_range;
          qtest prop_sha256_matches_reference;
          qtest prop_sha256_split;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
        ] );
      ( "bcodec",
        [
          Alcotest.test_case "scalars" `Quick test_bcodec_scalars;
          Alcotest.test_case "varint edges" `Quick test_bcodec_varint_edge;
          Alcotest.test_case "truncation" `Quick test_bcodec_truncation;
          Alcotest.test_case "negative varint" `Quick test_bcodec_negative_varint_rejected;
          qtest prop_bcodec_roundtrip;
          qtest prop_bcodec_program_roundtrip;
          Alcotest.test_case "block checks" `Quick test_bcodec_block_checks;
          qtest prop_bcodec_block_matches_pad_then_crc;
        ] );
      ( "simclock",
        [
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "no backward" `Quick test_clock_no_backward;
          Alcotest.test_case "conversions" `Quick test_clock_conversions;
        ] );
      ( "units",
        [
          Alcotest.test_case "pp" `Quick test_units_pp;
          Alcotest.test_case "stats" `Quick test_units_stats;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "percentile monotone" `Quick test_histogram_percentile_monotone;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction callback" `Quick test_lru_eviction_callback;
          Alcotest.test_case "cost accounting" `Quick test_lru_cost_accounting;
          Alcotest.test_case "oversized entry" `Quick test_lru_oversized_entry_tolerated;
          Alcotest.test_case "remove and clear" `Quick test_lru_remove_and_clear;
          Alcotest.test_case "hits and misses" `Quick test_lru_hits_misses;
          qtest prop_lru_never_exceeds_budget_with_unit_costs;
          qtest prop_lru_matches_model;
        ] );
    ]
