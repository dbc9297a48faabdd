exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF))

let get_u32 b off = get_u16 b off lor (get_u16 b (off + 2) lsl 16)

let set_u32 b off v =
  set_u16 b off (v land 0xFFFF);
  set_u16 b (off + 2) ((v lsr 16) land 0xFFFF)

let get_i64 b off = Bytes.get_int64_le b off
let set_i64 b off v = Bytes.set_int64_le b off v

type writer = Buffer.t

let writer ?(capacity = 64) () = Buffer.create capacity
let w_u8 w v = Buffer.add_char w (Char.chr (v land 0xFF))

let w_u16 w v =
  w_u8 w v;
  w_u8 w (v lsr 8)

let w_u32 w v =
  w_u16 w (v land 0xFFFF);
  w_u16 w ((v lsr 16) land 0xFFFF)

let w_i64 w v = Buffer.add_int64_le w v

let rec w_int w v =
  if v < 0 then invalid_arg "Bcodec.w_int: negative";
  if v < 0x80 then w_u8 w v
  else begin
    w_u8 w (0x80 lor (v land 0x7F));
    w_int w (v lsr 7)
  end

let w_raw w b = Buffer.add_bytes w b

let w_bytes w b =
  w_int w (Bytes.length b);
  w_raw w b

let w_string w s =
  w_int w (String.length s);
  Buffer.add_string w s

let length = Buffer.length
let contents w = Buffer.to_bytes w

let block w ~block_size =
  let n = Buffer.length w in
  if n + 4 > block_size then invalid_arg "Bcodec.block: body does not fit";
  let out = Bytes.make block_size '\000' in
  Buffer.blit w 0 out 0 n;
  let crc = Crc32.update Crc32.init out ~pos:0 ~len:n in
  set_u32 out (block_size - 4) (Crc32.finish (Crc32.zeros crc (block_size - 4 - n)));
  out

type reader = { buf : Bytes.t; mutable pos : int }

let reader ?(pos = 0) buf = { buf; pos }

let need r n = if r.pos + n > Bytes.length r.buf then fail "truncated: need %d at %d/%d" n r.pos (Bytes.length r.buf)

let r_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  need r 2;
  let v = get_u16 r.buf r.pos in
  r.pos <- r.pos + 2;
  v

let r_u32 r =
  need r 4;
  let v = get_u32 r.buf r.pos in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8;
  let v = get_i64 r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r =
  let rec loop shift acc =
    if shift > 62 then fail "varint too long";
    let b = r_u8 r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let r_raw r n =
  if n < 0 then fail "negative length";
  need r n;
  let b = Bytes.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  b

let r_bytes r =
  let n = r_int r in
  r_raw r n

let r_string r = Bytes.unsafe_to_string (r_bytes r)
let remaining r = Bytes.length r.buf - r.pos

let read_block b ~magic f =
  let n = Bytes.length b in
  if n < 6 || get_u16 b 0 <> magic || get_u32 b (n - 4) <> Crc32.sub b ~pos:0 ~len:(n - 4) then None
  else try Some (f (reader ~pos:2 b)) with Decode_error _ -> None
