(* Pure-OCaml SHA-256 (FIPS 180-4). The audit chain needs a real
   cryptographic hash — CRC-32 is trivially forgeable — and the
   toolchain carries no crypto library, so the compression function
   lives here. It sits on the audit hot path (one chain extension per
   request), so [feed_sub] checks its range once and then compresses
   whole 64-byte blocks straight from the caller's buffer, the rounds
   run on local variables, eight per unrolled step with rotating roles,
   and [finish] pads inside the context's own block. All 32-bit word
   arithmetic is done in native ints masked to 32 bits (OCaml ints are
   63-bit on every platform we target). *)

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

type ctx = {
  h : int array;  (* 8 state words *)
  block : Bytes.t;  (* partial 64-byte input block; also the padding buffer *)
  mutable fill : int;  (* bytes of [block] in use *)
  mutable total : int;  (* total message bytes so far *)
  w : int array;  (* 64-entry message schedule, reused per block *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
        0x5be0cd19;
      |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
  }

(* For a 32-bit [x], [x lor (x lsl 32)] holds two copies of it (the
   top bit of the upper copy falls off a 63-bit int, but no rotation
   by at most 31 reads it), so a right rotation by [n] is that value
   shifted by [n] and masked: one mask serves three rotations. *)
let[@inline] big_sigma0 x =
  let x = x lor (x lsl 32) in
  ((x lsr 2) lxor (x lsr 13) lxor (x lsr 22)) land mask

let[@inline] big_sigma1 x =
  let x = x lor (x lsl 32) in
  ((x lsr 6) lxor (x lsr 11) lxor (x lsr 25)) land mask

let[@inline] small_sigma0 x =
  let x2 = x lor (x lsl 32) in
  ((x2 lsr 7) lxor (x2 lsr 18)) land mask lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let x2 = x lor (x lsl 32) in
  ((x2 lsr 17) lxor (x2 lsr 19)) land mask lxor (x lsr 10)

(* The two halves of one round: [t1] feeds both the new [e] (through
   [d]) and the new [a]; [t2] only the new [a]. *)
let[@inline] t1 e f g h i w =
  h + big_sigma1 e + (g lxor (e land (f lxor g))) + Array.unsafe_get k i + Array.unsafe_get w i

let[@inline] t2 a b c = big_sigma0 a + ((a land b) lor (c land (a lor b)))

(* Compresses the 64 bytes of [buf] at [pos]; the caller has checked
   the range. *)
let compress ctx buf pos =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be buf (pos + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((small_sigma1 (Array.unsafe_get w (i - 2))
       + Array.unsafe_get w (i - 7)
       + small_sigma0 (Array.unsafe_get w (i - 15))
       + Array.unsafe_get w (i - 16))
      land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  (* Eight rounds per iteration: instead of shifting a..h down one
     place per round, each round writes the two words that change
     ([d + t1] becomes the new e, [t1 + t2] the new a) and the next
     round reads every role one variable further along. *)
  for j = 0 to 7 do
    let i = 8 * j in
    let t = t1 !e !f !g !hh i w in
    d := (!d + t) land mask;
    hh := (t + t2 !a !b !c) land mask;
    let t = t1 !d !e !f !g (i + 1) w in
    c := (!c + t) land mask;
    g := (t + t2 !hh !a !b) land mask;
    let t = t1 !c !d !e !f (i + 2) w in
    b := (!b + t) land mask;
    f := (t + t2 !g !hh !a) land mask;
    let t = t1 !b !c !d !e (i + 3) w in
    a := (!a + t) land mask;
    e := (t + t2 !f !g !hh) land mask;
    let t = t1 !a !b !c !d (i + 4) w in
    hh := (!hh + t) land mask;
    d := (t + t2 !e !f !g) land mask;
    let t = t1 !hh !a !b !c (i + 5) w in
    g := (!g + t) land mask;
    c := (t + t2 !d !e !f) land mask;
    let t = t1 !g !hh !a !b (i + 6) w in
    f := (!f + t) land mask;
    b := (t + t2 !c !d !e) land mask;
    let t = t1 !f !g !hh !a (i + 7) w in
    e := (!e + t) land mask;
    a := (t + t2 !b !c !d) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_sub ctx buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Sha256.feed_sub";
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  if ctx.fill > 0 then begin
    let n = Int.min !len (64 - ctx.fill) in
    Bytes.blit buf !pos ctx.block ctx.fill n;
    ctx.fill <- ctx.fill + n;
    pos := !pos + n;
    len := !len - n;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !len >= 64 do
    compress ctx buf !pos;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit buf !pos ctx.block 0 !len;
    ctx.fill <- !len
  end

let feed ctx buf = feed_sub ctx buf 0 (Bytes.length buf)
let feed_string ctx s = feed ctx (Bytes.unsafe_of_string s)

let finish ctx =
  (* Padding: 0x80, zeros to 56 mod 64, 64-bit big-endian bit length. *)
  let b = ctx.block in
  Bytes.set b ctx.fill '\x80';
  let fill = ctx.fill + 1 in
  if fill > 56 then begin
    Bytes.fill b fill (64 - fill) '\x00';
    compress ctx b 0;
    Bytes.fill b 0 56 '\x00'
  end
  else Bytes.fill b fill (56 - fill) '\x00';
  Bytes.set_int64_be b 56 (Int64.of_int (ctx.total * 8));
  compress ctx b 0;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) ctx.h;
  Bytes.unsafe_to_string out

let digest_bytes b =
  let ctx = init () in
  feed ctx b;
  finish ctx

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let to_hex d =
  let buf = Buffer.create (2 * String.length d) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
