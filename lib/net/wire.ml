module Bcodec = S4_util.Bcodec
module Crc32 = S4_util.Crc32
module Rpc = S4.Rpc
module Acl = S4.Acl
module Audit = S4.Audit
module Metrics = S4_obs.Metrics
module Chain = S4_integrity.Chain

type frame =
  | Hello of { claim : int }
  | Hello_ack of { identity : int; now : int64 }
  | Proto_error of { xid : int64; message : string }
  | Stat of { xid : int64 }
  | Stat_ack of { xid : int64; total : int; free : int; now : int64; batch : int }
  | Goodbye
  | Batch of { xid : int64; cred : Rpc.credential; sync : bool; reqs : Rpc.req array }
  | Batch_reply of { xid : int64; resps : Rpc.resp array; now : int64; leases : int64 array }

(* Every peer is built from this tree and no on-disk format stores
   frames, so exactly one version is spoken; the header byte is the
   only version check. *)
let version = 4
let magic = "S4WP"
let header_len = 20
let overhead = header_len + 4
let max_frame_default = 4 * 1024 * 1024

let frame_name = function
  | Hello _ -> "hello"
  | Hello_ack _ -> "hello_ack"
  | Proto_error _ -> "proto_error"
  | Stat _ -> "stat"
  | Stat_ack _ -> "stat_ack"
  | Goodbye -> "goodbye"
  | Batch _ -> "batch"
  | Batch_reply _ -> "batch_reply"

let ensure_metrics () =
  Metrics.incr ~by:0 "net/decode_reject";
  Metrics.incr ~by:0 "net/retry";
  Metrics.incr ~by:0 "net/reconnect"

(* ------------------------------------------------------------------ *)
(* Payload encoding. Principals (user/client ids) are written as i64:
   ACL wildcards are negative and varints are unsigned.               *)

exception Reject of string

let fail msg = raise (Reject msg)

let w_bool w b = Bcodec.w_u8 w (if b then 1 else 0)

let r_bool r =
  match Bcodec.r_u8 r with 0 -> false | 1 -> true | n -> fail (Printf.sprintf "bad bool %d" n)

let w_id w v = Bcodec.w_i64 w (Int64.of_int v)
let r_id r = Int64.to_int (Bcodec.r_i64 r)

let w_opt_at w = function
  | None -> Bcodec.w_u8 w 0
  | Some at ->
    Bcodec.w_u8 w 1;
    Bcodec.w_i64 w at

let r_opt_at r =
  match Bcodec.r_u8 r with
  | 0 -> None
  | 1 -> Some (Bcodec.r_i64 r)
  | n -> fail (Printf.sprintf "bad option tag %d" n)

let w_opt_bytes w = function
  | None -> Bcodec.w_u8 w 0
  | Some b ->
    Bcodec.w_u8 w 1;
    Bcodec.w_bytes w b

let r_opt_bytes r =
  match Bcodec.r_u8 r with
  | 0 -> None
  | 1 -> Some (Bcodec.r_bytes r)
  | n -> fail (Printf.sprintf "bad option tag %d" n)

let perm_bit = function
  | Acl.Read -> 1
  | Acl.Write -> 2
  | Acl.Delete -> 4
  | Acl.Set_attr -> 8
  | Acl.Set_acl -> 16

let all_perms = [ Acl.Read; Acl.Write; Acl.Delete; Acl.Set_attr; Acl.Set_acl ]

let w_entry w (e : Acl.entry) =
  w_id w e.Acl.user;
  w_id w e.Acl.client;
  Bcodec.w_u8 w (List.fold_left (fun acc p -> acc lor perm_bit p) 0 e.Acl.perms);
  w_bool w e.Acl.recovery

let r_entry r =
  let user = r_id r in
  let client = r_id r in
  let bits = Bcodec.r_u8 r in
  if bits land lnot 0x1f <> 0 then fail "bad perm bits";
  let perms = List.filter (fun p -> bits land perm_bit p <> 0) all_perms in
  let recovery = r_bool r in
  { Acl.user; client; perms; recovery }

(* Chain heads and verify results cross the wire through the same
   strict bounded decoder as everything else: [Chain.read_head] and
   [Chain.read_result] raise [Bcodec.Decode_error], which the framing
   layer already maps to a protocol failure. *)
let r_chain_head r =
  try Chain.read_head r with Bcodec.Decode_error m -> fail m

let r_verify_result r =
  try Chain.read_result ~max_errors:(Bcodec.remaining r) r
  with Bcodec.Decode_error m -> fail m

let w_cred w (c : Rpc.credential) =
  w_id w c.Rpc.user;
  w_id w c.Rpc.client;
  w_bool w c.Rpc.admin

let r_cred r =
  let user = r_id r in
  let client = r_id r in
  let admin = r_bool r in
  { Rpc.user; client; admin }

let w_req w (req : Rpc.req) =
  match req with
  | Rpc.Create { acl } ->
    Bcodec.w_u8 w 0;
    Bcodec.w_bytes w (Acl.encode acl)
  | Rpc.Delete { oid } ->
    Bcodec.w_u8 w 1;
    Bcodec.w_i64 w oid
  | Rpc.Read { oid; off; len; at } ->
    Bcodec.w_u8 w 2;
    Bcodec.w_i64 w oid;
    Bcodec.w_int w off;
    Bcodec.w_int w len;
    w_opt_at w at
  | Rpc.Write { oid; off; len; data } ->
    Bcodec.w_u8 w 3;
    Bcodec.w_i64 w oid;
    Bcodec.w_int w off;
    Bcodec.w_int w len;
    w_opt_bytes w data
  | Rpc.Append { oid; len; data } ->
    Bcodec.w_u8 w 4;
    Bcodec.w_i64 w oid;
    Bcodec.w_int w len;
    w_opt_bytes w data
  | Rpc.Truncate { oid; size } ->
    Bcodec.w_u8 w 5;
    Bcodec.w_i64 w oid;
    Bcodec.w_int w size
  | Rpc.Get_attr { oid; at } ->
    Bcodec.w_u8 w 6;
    Bcodec.w_i64 w oid;
    w_opt_at w at
  | Rpc.Set_attr { oid; attr } ->
    Bcodec.w_u8 w 7;
    Bcodec.w_i64 w oid;
    Bcodec.w_bytes w attr
  | Rpc.Get_acl_by_user { oid; acl_user; at } ->
    Bcodec.w_u8 w 8;
    Bcodec.w_i64 w oid;
    w_id w acl_user;
    w_opt_at w at
  | Rpc.Get_acl_by_index { oid; index; at } ->
    Bcodec.w_u8 w 9;
    Bcodec.w_i64 w oid;
    Bcodec.w_int w index;
    w_opt_at w at
  | Rpc.Set_acl { oid; index; entry } ->
    Bcodec.w_u8 w 10;
    Bcodec.w_i64 w oid;
    Bcodec.w_int w index;
    w_entry w entry
  | Rpc.P_create { name; oid } ->
    Bcodec.w_u8 w 11;
    Bcodec.w_string w name;
    Bcodec.w_i64 w oid
  | Rpc.P_delete { name } ->
    Bcodec.w_u8 w 12;
    Bcodec.w_string w name
  | Rpc.P_list { at } ->
    Bcodec.w_u8 w 13;
    w_opt_at w at
  | Rpc.P_mount { name; at } ->
    Bcodec.w_u8 w 14;
    Bcodec.w_string w name;
    w_opt_at w at
  | Rpc.Sync -> Bcodec.w_u8 w 15
  | Rpc.Flush { until } ->
    Bcodec.w_u8 w 16;
    Bcodec.w_i64 w until
  | Rpc.Flush_object { oid; until } ->
    Bcodec.w_u8 w 17;
    Bcodec.w_i64 w oid;
    Bcodec.w_i64 w until
  | Rpc.Set_window { window } ->
    Bcodec.w_u8 w 18;
    Bcodec.w_i64 w window
  | Rpc.Read_audit { since; until } ->
    Bcodec.w_u8 w 19;
    Bcodec.w_i64 w since;
    Bcodec.w_i64 w until
  | Rpc.Verify_log { from } -> (
    Bcodec.w_u8 w 20;
    match from with
    | None -> Bcodec.w_u8 w 0
    | Some h ->
      Bcodec.w_u8 w 1;
      Chain.write_head w h)

let r_req r : Rpc.req =
  match Bcodec.r_u8 r with
  | 0 -> Rpc.Create { acl = Acl.decode (Bcodec.r_bytes r) }
  | 1 -> Rpc.Delete { oid = Bcodec.r_i64 r }
  | 2 ->
    let oid = Bcodec.r_i64 r in
    let off = Bcodec.r_int r in
    let len = Bcodec.r_int r in
    Rpc.Read { oid; off; len; at = r_opt_at r }
  | 3 ->
    let oid = Bcodec.r_i64 r in
    let off = Bcodec.r_int r in
    let len = Bcodec.r_int r in
    Rpc.Write { oid; off; len; data = r_opt_bytes r }
  | 4 ->
    let oid = Bcodec.r_i64 r in
    let len = Bcodec.r_int r in
    Rpc.Append { oid; len; data = r_opt_bytes r }
  | 5 ->
    let oid = Bcodec.r_i64 r in
    Rpc.Truncate { oid; size = Bcodec.r_int r }
  | 6 ->
    let oid = Bcodec.r_i64 r in
    Rpc.Get_attr { oid; at = r_opt_at r }
  | 7 ->
    let oid = Bcodec.r_i64 r in
    Rpc.Set_attr { oid; attr = Bcodec.r_bytes r }
  | 8 ->
    let oid = Bcodec.r_i64 r in
    let acl_user = r_id r in
    Rpc.Get_acl_by_user { oid; acl_user; at = r_opt_at r }
  | 9 ->
    let oid = Bcodec.r_i64 r in
    let index = Bcodec.r_int r in
    Rpc.Get_acl_by_index { oid; index; at = r_opt_at r }
  | 10 ->
    let oid = Bcodec.r_i64 r in
    let index = Bcodec.r_int r in
    Rpc.Set_acl { oid; index; entry = r_entry r }
  | 11 ->
    let name = Bcodec.r_string r in
    Rpc.P_create { name; oid = Bcodec.r_i64 r }
  | 12 -> Rpc.P_delete { name = Bcodec.r_string r }
  | 13 -> Rpc.P_list { at = r_opt_at r }
  | 14 ->
    let name = Bcodec.r_string r in
    Rpc.P_mount { name; at = r_opt_at r }
  | 15 -> Rpc.Sync
  | 16 -> Rpc.Flush { until = Bcodec.r_i64 r }
  | 17 ->
    let oid = Bcodec.r_i64 r in
    Rpc.Flush_object { oid; until = Bcodec.r_i64 r }
  | 18 -> Rpc.Set_window { window = Bcodec.r_i64 r }
  | 19 ->
    let since = Bcodec.r_i64 r in
    Rpc.Read_audit { since; until = Bcodec.r_i64 r }
  | 20 ->
    let from = match Bcodec.r_u8 r with 0 -> None | _ -> Some (r_chain_head r) in
    Rpc.Verify_log { from }
  | op -> fail (Printf.sprintf "bad opcode %d" op)

let w_error w (e : Rpc.error) =
  match e with
  | Rpc.Not_found -> Bcodec.w_u8 w 0
  | Rpc.Permission_denied -> Bcodec.w_u8 w 1
  | Rpc.Object_deleted -> Bcodec.w_u8 w 2
  | Rpc.No_space -> Bcodec.w_u8 w 3
  | Rpc.Bad_request m ->
    Bcodec.w_u8 w 4;
    Bcodec.w_string w m
  | Rpc.Io_error m ->
    Bcodec.w_u8 w 5;
    Bcodec.w_string w m

let r_error r : Rpc.error =
  match Bcodec.r_u8 r with
  | 0 -> Rpc.Not_found
  | 1 -> Rpc.Permission_denied
  | 2 -> Rpc.Object_deleted
  | 3 -> Rpc.No_space
  | 4 -> Rpc.Bad_request (Bcodec.r_string r)
  | 5 -> Rpc.Io_error (Bcodec.r_string r)
  | n -> fail (Printf.sprintf "bad error tag %d" n)

(* A decoded element count can never exceed the bytes left in the
   payload (every element is at least one byte), so checking it first
   bounds the List.init allocation by the frame size. *)
let checked_count r n =
  if n < 0 || n > Bcodec.remaining r then fail (Printf.sprintf "count %d exceeds payload" n)

let w_audit_record w (a : Audit.record) =
  Bcodec.w_i64 w a.Audit.at;
  w_id w a.Audit.user;
  w_id w a.Audit.client;
  Bcodec.w_string w a.Audit.op;
  Bcodec.w_i64 w a.Audit.oid;
  Bcodec.w_string w a.Audit.info;
  w_bool w a.Audit.ok

let r_audit_record r : Audit.record =
  let at = Bcodec.r_i64 r in
  let user = r_id r in
  let client = r_id r in
  let op = Bcodec.r_string r in
  let oid = Bcodec.r_i64 r in
  let info = Bcodec.r_string r in
  let ok = r_bool r in
  { Audit.at; user; client; op; oid; info; ok }

let w_resp w (resp : Rpc.resp) =
  match resp with
  | Rpc.R_unit -> Bcodec.w_u8 w 0
  | Rpc.R_oid oid ->
    Bcodec.w_u8 w 1;
    Bcodec.w_i64 w oid
  | Rpc.R_data b ->
    Bcodec.w_u8 w 2;
    Bcodec.w_bytes w b
  | Rpc.R_size n ->
    Bcodec.w_u8 w 3;
    Bcodec.w_int w n
  | Rpc.R_attr b ->
    Bcodec.w_u8 w 4;
    Bcodec.w_bytes w b
  | Rpc.R_acl e ->
    Bcodec.w_u8 w 5;
    w_entry w e
  | Rpc.R_names names ->
    Bcodec.w_u8 w 6;
    Bcodec.w_int w (List.length names);
    List.iter (Bcodec.w_string w) names
  | Rpc.R_audit records ->
    Bcodec.w_u8 w 7;
    Bcodec.w_int w (List.length records);
    List.iter (w_audit_record w) records
  | Rpc.R_verify res ->
    Bcodec.w_u8 w 9;
    Chain.write_result w res
  | Rpc.R_error e ->
    Bcodec.w_u8 w 8;
    w_error w e

let r_resp r : Rpc.resp =
  match Bcodec.r_u8 r with
  | 0 -> Rpc.R_unit
  | 1 -> Rpc.R_oid (Bcodec.r_i64 r)
  | 2 -> Rpc.R_data (Bcodec.r_bytes r)
  | 3 -> Rpc.R_size (Bcodec.r_int r)
  | 4 -> Rpc.R_attr (Bcodec.r_bytes r)
  | 5 -> Rpc.R_acl (r_entry r)
  | 6 ->
    let n = Bcodec.r_int r in
    checked_count r n;
    Rpc.R_names (List.init n (fun _ -> Bcodec.r_string r))
  | 7 ->
    let n = Bcodec.r_int r in
    checked_count r n;
    Rpc.R_audit (List.init n (fun _ -> r_audit_record r))
  | 8 -> Rpc.R_error (r_error r)
  | 9 -> Rpc.R_verify (r_verify_result r)
  | n -> fail (Printf.sprintf "bad response tag %d" n)

(* ------------------------------------------------------------------ *)
(* Frame encoding                                                      *)

let kind_code = function
  | Hello _ -> 0
  | Hello_ack _ -> 1
  | Proto_error _ -> 4
  | Stat _ -> 5
  | Stat_ack _ -> 6
  | Goodbye -> 7
  | Batch _ -> 8
  | Batch_reply _ -> 9

let frame_xid = function
  | Hello _ | Hello_ack _ | Goodbye -> 0L
  | Proto_error { xid; _ } | Stat { xid } | Stat_ack { xid; _ } | Batch { xid; _ }
  | Batch_reply { xid; _ } ->
    xid

let payload_of = function
  | Hello { claim } ->
    let w = Bcodec.writer () in
    w_id w claim;
    Bcodec.contents w
  | Hello_ack { identity; now } ->
    let w = Bcodec.writer () in
    w_id w identity;
    Bcodec.w_i64 w now;
    Bcodec.contents w
  | Proto_error { xid = _; message } ->
    let w = Bcodec.writer () in
    Bcodec.w_string w message;
    Bcodec.contents w
  | Stat _ -> Bytes.empty
  | Stat_ack { xid = _; total; free; now; batch } ->
    let w = Bcodec.writer () in
    Bcodec.w_int w total;
    Bcodec.w_int w free;
    Bcodec.w_i64 w now;
    Bcodec.w_int w batch;
    Bcodec.contents w
  | Goodbye -> Bytes.empty
  | Batch { xid = _; cred; sync; reqs } ->
    let w = Bcodec.writer () in
    w_cred w cred;
    w_bool w sync;
    Bcodec.w_int w (Array.length reqs);
    Array.iter (w_req w) reqs;
    Bcodec.contents w
  | Batch_reply { xid = _; resps; now; leases } ->
    let w = Bcodec.writer () in
    Bcodec.w_int w (Array.length resps);
    Array.iter (w_resp w) resps;
    Bcodec.w_i64 w now;
    (* One lease per response, in order; a short array pads with 0
       (not cacheable) so the frame shape is always n leases. *)
    Array.iteri
      (fun i _ -> Bcodec.w_i64 w (if i < Array.length leases then leases.(i) else 0L))
      resps;
    Bcodec.contents w

let encode frame =
  let payload = payload_of frame in
  let plen = Bytes.length payload in
  let b = Bytes.create (overhead + plen) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_uint8 b 5 (kind_code frame);
  Bcodec.set_u16 b 6 0;
  Bcodec.set_i64 b 8 (frame_xid frame);
  Bcodec.set_u32 b 16 plen;
  Bytes.blit payload 0 b header_len plen;
  Bcodec.set_u32 b (header_len + plen) (Crc32.sub b ~pos:0 ~len:(header_len + plen));
  b

(* ------------------------------------------------------------------ *)
(* Frame decoding                                                      *)

type decoded = Frame of frame * int | Need_more of int | Corrupt of string

let parse_payload kind xid payload : frame =
  let r = Bcodec.reader payload in
  let f =
    match kind with
    | 0 -> Hello { claim = r_id r }
    | 1 ->
      let identity = r_id r in
      Hello_ack { identity; now = Bcodec.r_i64 r }
    | 4 -> Proto_error { xid; message = Bcodec.r_string r }
    | 5 -> Stat { xid }
    | 6 ->
      let total = Bcodec.r_int r in
      let free = Bcodec.r_int r in
      let now = Bcodec.r_i64 r in
      let batch = Bcodec.r_int r in
      Stat_ack { xid; total; free; now; batch }
    | 7 -> Goodbye
    | 8 ->
      let cred = r_cred r in
      let sync = r_bool r in
      let n = Bcodec.r_int r in
      checked_count r n;
      Batch { xid; cred; sync; reqs = Array.init n (fun _ -> r_req r) }
    | 9 ->
      let n = Bcodec.r_int r in
      checked_count r n;
      let resps = Array.init n (fun _ -> r_resp r) in
      let now = Bcodec.r_i64 r in
      let leases = Array.init n (fun _ -> Bcodec.r_i64 r) in
      Batch_reply { xid; resps; now; leases }
    | k -> fail (Printf.sprintf "bad frame kind %d" k)
  in
  if Bcodec.remaining r <> 0 then
    fail (Printf.sprintf "%d trailing bytes after payload" (Bcodec.remaining r));
  f

let decode ?(max_frame = max_frame_default) buf ~pos ~avail =
  let reject fmt = Printf.ksprintf (fun m -> Corrupt m) fmt in
  if pos < 0 || avail < 0 || pos + avail > Bytes.length buf then Corrupt "bad decode range"
  else begin
    (* Validate the magic on whatever prefix is present so garbage is
       rejected immediately rather than buffered while "waiting". *)
    let prefix = min avail 4 in
    let rec magic_ok i =
      i >= prefix || (Bytes.get buf (pos + i) = magic.[i] && magic_ok (i + 1))
    in
    if not (magic_ok 0) then reject "bad magic"
    else if avail < header_len then Need_more (header_len - avail)
    else begin
      let v = Bytes.get_uint8 buf (pos + 4) in
      let kind = Bytes.get_uint8 buf (pos + 5) in
      let reserved = Bcodec.get_u16 buf (pos + 6) in
      let xid = Bcodec.get_i64 buf (pos + 8) in
      let plen = Bcodec.get_u32 buf (pos + 16) in
      (* Kinds 2/3 were the retired single-request frames. *)
      if v <> version then reject "unsupported version %d" v
      else if kind > 9 || kind = 2 || kind = 3 then reject "bad frame kind %d" kind
      else if reserved <> 0 then reject "nonzero reserved field"
      else if plen > max_frame then reject "frame payload %d exceeds limit %d" plen max_frame
      else begin
        let total = overhead + plen in
        if avail < total then Need_more (total - avail)
        else begin
          let stored = Bcodec.get_u32 buf (pos + header_len + plen) in
          if Crc32.sub buf ~pos ~len:(header_len + plen) <> stored then reject "crc mismatch"
          else begin
            let payload = Bytes.sub buf (pos + header_len) plen in
            match parse_payload kind xid payload with
            | f -> Frame (f, total)
            | exception Reject m -> Corrupt m
            | exception Bcodec.Decode_error m -> Corrupt m
          end
        end
      end
    end
  end
