module Bcodec = S4_util.Bcodec

type t = { epoch : int; tags : Tag.t array }

let magic = 0x5353 (* "SS" *)

let encode ~block_size t =
  let w = Bcodec.writer ~capacity:block_size () in
  Bcodec.w_u16 w magic;
  Bcodec.w_int w t.epoch;
  Bcodec.w_int w (Array.length t.tags);
  Array.iter (Tag.encode w) t.tags;
  Bcodec.block w ~block_size

let decode b =
  Bcodec.read_block b ~magic (fun r ->
      let epoch = Bcodec.r_int r in
      let count = Bcodec.r_int r in
      let tags = Array.init count (fun _ -> Tag.decode r) in
      { epoch; tags })
