module Bcodec = S4_util.Bcodec

type entry = { oid : int64; seq : int; time : int64; kind : int; payload : Bytes.t }

let magic = 0x424A (* "JB" *)

let varint_size v =
  let rec loop v n = if v < 0x80 then n else loop (v lsr 7) (n + 1) in
  loop v 1

let entry_size e = 8 + varint_size e.seq + 8 + 1 + varint_size (Bytes.length e.payload) + Bytes.length e.payload

(* magic(2) + prev(8) + count(up to 3) + crc(4) *)
let header_size = 2 + 8 + 3 + 4

let fits ~block_size ~current e = header_size + current + entry_size e <= block_size

let encode ~block_size ~prev entries =
  let w = Bcodec.writer ~capacity:block_size () in
  Bcodec.w_u16 w magic;
  Bcodec.w_i64 w (Int64.of_int prev);
  Bcodec.w_int w (List.length entries);
  let emit e =
    Bcodec.w_i64 w e.oid;
    Bcodec.w_int w e.seq;
    Bcodec.w_i64 w e.time;
    Bcodec.w_u8 w e.kind;
    Bcodec.w_bytes w e.payload
  in
  List.iter emit entries;
  Bcodec.block w ~block_size

let decode b =
  Bcodec.read_block b ~magic (fun r ->
      let prev = Int64.to_int (Bcodec.r_i64 r) in
      let count = Bcodec.r_int r in
      let read_entry () =
        let oid = Bcodec.r_i64 r in
        let seq = Bcodec.r_int r in
        let time = Bcodec.r_i64 r in
        let kind = Bcodec.r_u8 r in
        let payload = Bcodec.r_bytes r in
        { oid; seq; time; kind; payload }
      in
      (prev, List.init count (fun _ -> read_entry ())))
