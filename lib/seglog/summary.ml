module Bcodec = S4_util.Bcodec
module Crc32 = S4_util.Crc32

type t = { epoch : int; tags : Tag.t array }

let magic = 0x5353 (* "SS" *)

let encode ~block_size t =
  let w = Bcodec.writer ~capacity:block_size () in
  Bcodec.w_u16 w magic;
  Bcodec.w_int w t.epoch;
  Bcodec.w_int w (Array.length t.tags);
  Array.iter (Tag.encode w) t.tags;
  if Bcodec.length w + 4 > block_size then invalid_arg "Summary.encode: does not fit";
  let out = Bytes.make block_size '\000' in
  let body = Bcodec.contents w in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Bcodec.set_u32 out (block_size - 4) (Crc32.sub out ~pos:0 ~len:(block_size - 4));
  out

let decode b =
  let n = Bytes.length b in
  if n < 10 then None
  else if Bcodec.get_u16 b 0 <> magic then None
  else begin
    if Bcodec.get_u32 b (n - 4) <> Crc32.sub b ~pos:0 ~len:(n - 4) then None
    else begin
      try
        let r = Bcodec.reader ~pos:2 b in
        let epoch = Bcodec.r_int r in
        let count = Bcodec.r_int r in
        let tags = Array.init count (fun _ -> Tag.decode r) in
        Some { epoch; tags }
      with Bcodec.Decode_error _ -> None
    end
  end
