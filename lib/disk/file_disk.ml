(* File-backed sector store: real durability under a simulated drive.

   One host file holds a checksummed format header followed by the raw
   sector array, so a `kill -9` of the owning process (or daemon)
   loses nothing that was pwritten before the kill, and nothing that
   was acknowledged after an fsync barrier survives even a host crash.
   Sim_disk dispatches its sector contents here when constructed with
   [Sim_disk.of_file]; the timing model, fault layer and every layer
   above run unchanged. *)

module Bcodec = S4_util.Bcodec
module Crc32 = S4_util.Crc32
module Chain = S4_integrity.Chain

let magic = "S4FDSK1\n"
let header_bytes = 4096

type t = {
  fd : Unix.file_descr;
  geometry : Geometry.t;
  mutable clock_ns : int64;  (* as of the last completed barrier *)
  mutable head : Chain.head option;  (* sealed audit-chain head, ditto *)
  mutable syncs : int;
  mutable closed : bool;
  lock : Mutex.t;
}

let corrupt path fmt =
  Printf.ksprintf (fun s -> failwith (path ^ ": corrupt store (" ^ s ^ ")")) fmt

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let check_open t = if t.closed then invalid_arg "File_disk: store is closed"

(* pread/pwrite built from lseek + read/write under the store's lock
   (the Unix module exposes no positional I/O). A short read means the
   range lies past EOF of a truncated file; the tail reads back as
   zeros, matching the never-written-sector contract, and fsck judges
   the contents. *)

let really_pread fd ~off buf =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let len = Bytes.length buf in
  let rec go pos =
    if pos < len then begin
      let n = Unix.read fd buf pos (len - pos) in
      if n > 0 then go (pos + n)
    end
  in
  go 0

let really_pwrite fd ~off buf =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let len = Bytes.length buf in
  let rec go pos =
    if pos < len then begin
      let n = Unix.write fd buf pos (len - pos) in
      go (pos + n)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Format header: magic | u32 payload length | u32 CRC-32 of payload |
   payload (geometry + barrier clock + head flag + optional sealed chain
   head), zero-padded to [header_bytes]. The decoder accepts exactly
   this layout: a payload that ends early is corrupt. *)

let encode_header ~geometry ~clock_ns ~head =
  let w = Bcodec.writer () in
  Geometry.encode w geometry;
  Bcodec.w_i64 w clock_ns;
  (match head with
   | None -> Bcodec.w_u8 w 0
   | Some h ->
     Bcodec.w_u8 w 1;
     Chain.write_head w h);
  let payload = Bcodec.contents w in
  let plen = Bytes.length payload in
  if String.length magic + 8 + plen > header_bytes then invalid_arg "File_disk: header overflow";
  let out = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic 0 out 0 (String.length magic);
  Bcodec.set_u32 out 8 plen;
  Bcodec.set_u32 out 12 (Crc32.bytes payload);
  Bytes.blit payload 0 out 16 plen;
  out

let decode_header path b =
  if Bytes.length b < 16 then corrupt path "truncated header";
  if Bytes.sub_string b 0 (String.length magic) <> magic then
    failwith (path ^ ": not an S4 file-backed store");
  let plen = Bcodec.get_u32 b 8 in
  if plen < 0 || 16 + plen > Bytes.length b then corrupt path "bad header length %d" plen;
  let payload = Bytes.sub b 16 plen in
  let stored = Bcodec.get_u32 b 12 in
  let crc = Crc32.bytes payload in
  if stored <> crc then corrupt path "header CRC mismatch (stored %08x, computed %08x)" stored crc;
  match
    let r = Bcodec.reader payload in
    let geometry = Geometry.decode r in
    let clock_ns = Bcodec.r_i64 r in
    let head = if Bcodec.r_u8 r = 0 then None else Some (Chain.read_head r) in
    (geometry, clock_ns, head)
  with
  | (_, clock_ns, _) when Int64.compare clock_ns 0L < 0 -> corrupt path "negative clock"
  | parsed -> parsed
  | exception Bcodec.Decode_error m -> corrupt path "bad header payload: %s" m

let write_header t =
  really_pwrite t.fd ~off:0 (encode_header ~geometry:t.geometry ~clock_ns:t.clock_ns ~head:t.head)

(* ------------------------------------------------------------------ *)

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let full_size geometry = header_bytes + Geometry.capacity_bytes geometry

let create ~path geometry =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t =
    { fd; geometry; clock_ns = 0L; head = None; syncs = 0; closed = false;
      lock = Mutex.create () }
  in
  (try
     (* Reserve the full logical extent (the file stays sparse) so
        later preads never hit EOF, then make the format itself
        durable: header + length, and the directory entry. *)
     Unix.ftruncate fd (full_size geometry);
     write_header t;
     Unix.fsync fd
   with e ->
     Unix.close fd;
     raise e);
  fsync_dir path;
  t

let open_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  match
    let b = Bytes.make header_bytes '\000' in
    really_pread fd ~off:0 b;
    decode_header path b
  with
  | geometry, clock_ns, head ->
    (* Heal a short file (e.g. a crash between create's ftruncate and
       the first barrier): missing tail sectors read back as zeros,
       exactly as if never written. *)
    if (Unix.fstat fd).Unix.st_size < full_size geometry then
      Unix.ftruncate fd (full_size geometry);
    { fd; geometry; clock_ns; head; syncs = 0; closed = false;
      lock = Mutex.create () }
  | exception e ->
    Unix.close fd;
    raise e

let geometry t = t.geometry
let clock_ns t = t.clock_ns
let head t = t.head
let set_head t h = t.head <- h
let syncs t = t.syncs

let off_of t lba = header_bytes + (lba * t.geometry.Geometry.sector_size)

let check_range t ~lba ~sectors =
  if lba < 0 || sectors <= 0 || lba + sectors > t.geometry.Geometry.sectors then
    invalid_arg
      (Printf.sprintf "File_disk: range [%d, %d) outside [0, %d)" lba (lba + sectors)
         t.geometry.Geometry.sectors)

let read t ~lba ~sectors =
  check_open t;
  check_range t ~lba ~sectors;
  let out = Bytes.make (sectors * t.geometry.Geometry.sector_size) '\000' in
  with_lock t (fun () -> really_pread t.fd ~off:(off_of t lba) out);
  out

let write t ~lba data =
  check_open t;
  let ss = t.geometry.Geometry.sector_size in
  if Bytes.length data = 0 || Bytes.length data mod ss <> 0 then
    invalid_arg "File_disk.write: not sector aligned";
  check_range t ~lba ~sectors:(Bytes.length data / ss);
  with_lock t (fun () -> really_pwrite t.fd ~off:(off_of t lba) data)

let erase t ~lba ~sectors =
  check_open t;
  check_range t ~lba ~sectors;
  let zeros = Bytes.make (sectors * t.geometry.Geometry.sector_size) '\000' in
  with_lock t (fun () -> really_pwrite t.fd ~off:(off_of t lba) zeros)

let sync t ~clock_ns =
  check_open t;
  with_lock t (fun () ->
      t.clock_ns <- clock_ns;
      write_header t;
      Unix.fsync t.fd;
      t.syncs <- t.syncs + 1)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end
