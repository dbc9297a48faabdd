module Bcodec = S4_util.Bcodec
module Crc32 = S4_util.Crc32

type instruction =
  | Copy of { src_off : int; len : int }
  | Insert of Bytes.t

let magic = 0x4C44 (* "DL" *)
let block = 16
let max_candidates = 8

let hash_block b i =
  (* FNV-1a over [block] bytes (62-bit truncated offset basis). *)
  let h = ref 0x2bf29ce484222325 in
  for k = i to i + block - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b k)) * 0x100000001b3
  done;
  !h land max_int

(* Index the source at block-aligned offsets. *)
let index_source source =
  let n = Bytes.length source in
  let idx : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let off = ref 0 in
  while !off + block <= n do
    let h = hash_block source !off in
    let existing = Option.value ~default:[] (Hashtbl.find_opt idx h) in
    if List.length existing < max_candidates then Hashtbl.replace idx h (!off :: existing);
    off := !off + block
  done;
  idx

let extend_forward source target soff toff =
  let smax = Bytes.length source and tmax = Bytes.length target in
  let n = ref 0 in
  while
    soff + !n < smax
    && toff + !n < tmax
    && Bytes.unsafe_get source (soff + !n) = Bytes.unsafe_get target (toff + !n)
  do
    incr n
  done;
  !n

let extend_backward source target soff toff limit =
  let n = ref 0 in
  while
    !n < limit
    && soff - !n > 0
    && toff - !n > 0
    && Bytes.unsafe_get source (soff - !n - 1) = Bytes.unsafe_get target (toff - !n - 1)
  do
    incr n
  done;
  !n

let emit_insert w target ~from ~until =
  if until > from then begin
    Bcodec.w_u8 w 0;
    Bcodec.w_int w (until - from);
    Bcodec.w_raw w (Bytes.sub target from (until - from))
  end

let encode ~source ~target =
  let w = Bcodec.writer ~capacity:(Bytes.length target / 4 + 32) () in
  Bcodec.w_u16 w magic;
  Bcodec.w_int w (Bytes.length source);
  Bcodec.w_int w (Bytes.length target);
  Bcodec.w_u32 w (Crc32.bytes target);
  let idx = index_source source in
  let n = Bytes.length target in
  let lit_start = ref 0 in
  let pos = ref 0 in
  while !pos + block <= n do
    let h = hash_block target !pos in
    let best = ref None in
    (match Hashtbl.find_opt idx h with
     | None -> ()
     | Some candidates ->
       let consider soff =
         if Bytes.sub source soff block = Bytes.sub target !pos block then begin
           let fwd = extend_forward source target soff !pos in
           let bwd = extend_backward source target soff !pos (!pos - !lit_start) in
           let total = fwd + bwd in
           match !best with
           | Some (_, _, best_total) when best_total >= total -> ()
           | _ -> best := Some (soff - bwd, !pos - bwd, total)
         end
       in
       List.iter consider candidates);
    (match !best with
     | Some (soff, toff, len) when len >= block ->
       emit_insert w target ~from:!lit_start ~until:toff;
       Bcodec.w_u8 w 1;
       Bcodec.w_int w soff;
       Bcodec.w_int w len;
       pos := toff + len;
       lit_start := !pos
     | Some _ | None -> incr pos)
  done;
  emit_insert w target ~from:!lit_start ~until:n;
  Bcodec.contents w

let read_header r =
  let m = Bcodec.r_u16 r in
  if m <> magic then raise (Bcodec.Decode_error "Delta: bad magic");
  let src_len = Bcodec.r_int r in
  let tgt_len = Bcodec.r_int r in
  let crc = Bcodec.r_u32 r in
  (src_len, tgt_len, crc)

let apply ~source ~delta =
  let r = Bcodec.reader delta in
  let src_len, tgt_len, crc = read_header r in
  if Bytes.length source <> src_len then
    raise (Bcodec.Decode_error "Delta: source length mismatch");
  let out = Bytes.create tgt_len in
  let opos = ref 0 in
  while !opos < tgt_len do
    match Bcodec.r_u8 r with
    | 0 ->
      let len = Bcodec.r_int r in
      if !opos + len > tgt_len then raise (Bcodec.Decode_error "Delta: insert overflow");
      let lit = Bcodec.r_raw r len in
      Bytes.blit lit 0 out !opos len;
      opos := !opos + len
    | 1 ->
      let soff = Bcodec.r_int r in
      let len = Bcodec.r_int r in
      if soff + len > src_len || !opos + len > tgt_len then
        raise (Bcodec.Decode_error "Delta: copy out of range");
      Bytes.blit source soff out !opos len;
      opos := !opos + len
    | op -> raise (Bcodec.Decode_error (Printf.sprintf "Delta: bad opcode %d" op))
  done;
  if Crc32.bytes out <> crc then
    raise (Bcodec.Decode_error "Delta: target CRC mismatch");
  out

let instructions ~delta =
  let r = Bcodec.reader delta in
  let _, tgt_len, _ = read_header r in
  let rec loop acc produced =
    if produced >= tgt_len then List.rev acc
    else
      match Bcodec.r_u8 r with
      | 0 ->
        let len = Bcodec.r_int r in
        let lit = Bcodec.r_raw r len in
        loop (Insert lit :: acc) (produced + len)
      | 1 ->
        let src_off = Bcodec.r_int r in
        let len = Bcodec.r_int r in
        loop (Copy { src_off; len } :: acc) (produced + len)
      | op -> raise (Bcodec.Decode_error (Printf.sprintf "Delta: bad opcode %d" op))
  in
  loop [] 0

let saved ~source ~target =
  let n = Bytes.length target in
  if n = 0 then 0.0
  else begin
    let d = encode ~source ~target in
    1.0 -. (float_of_int (Bytes.length d) /. float_of_int n)
  end
