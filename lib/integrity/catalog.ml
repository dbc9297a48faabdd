module Bcodec = S4_util.Bcodec

(* The cross-shard integrity catalog: the meta shard of an array keeps
   every member drive's sealed chain head, refreshed at each array-wide
   barrier. A compromised shard can rewrite its own log, but the copy
   of its head living on the meta shard (mirrored when the meta shard
   is) still pins the history it must reproduce — forging it needs a
   SHA-256 preimage. Catalog entries are a floor, not an exact match:
   a member may legitimately run ahead of the catalog (the catalog
   write for barrier N lands inside barrier N itself), so the check is
   "the catalog head must still lie on the member's chain". *)

type entry = { shard : int; replica : int; head : Chain.head; at : int64 }

let magic = 0x5343 (* "CS" *)
let version = 2

let encode entries =
  let w = Bcodec.writer () in
  Bcodec.w_u16 w magic;
  Bcodec.w_u8 w version;
  Bcodec.w_int w (List.length entries);
  List.iter
    (fun e ->
      Bcodec.w_int w e.shard;
      Bcodec.w_int w e.replica;
      Bcodec.w_i64 w e.at;
      Chain.write_head w e.head)
    entries;
  Bcodec.contents w

let decode b =
  if Bytes.length b < 4 then None
  else
    try
      let r = Bcodec.reader b in
      if Bcodec.r_u16 r <> magic || Bcodec.r_u8 r <> version then None
      else begin
        let n = Bcodec.r_int r in
        if n < 0 || n > Bcodec.remaining r then None
        else
          Some
            (List.init n (fun _ ->
                 let shard = Bcodec.r_int r in
                 let replica = Bcodec.r_int r in
                 let at = Bcodec.r_i64 r in
                 let head = Chain.read_head r in
                 { shard; replica; head; at }))
      end
    with Bcodec.Decode_error _ -> None

let find entries ~shard ~replica =
  List.find_map
    (fun e -> if e.shard = shard && e.replica = replica then Some e.head else None)
    entries

let find_entry entries ~shard ~replica =
  List.find_opt (fun e -> e.shard = shard && e.replica = replica) entries

let set entries ~shard ~replica ~at head =
  { shard; replica; head; at }
  :: List.filter (fun e -> not (e.shard = shard && e.replica = replica)) entries

let prune entries ~now ~window ~live =
  let floor = Int64.sub now window in
  List.filter
    (fun e -> live ~shard:e.shard ~replica:e.replica || Int64.compare e.at floor >= 0)
    entries

(* Head-level comparison of a member against its catalog entry. The
   full ancestry proof ([Chain.verify ~from:catalog_head] over the
   member's log) is run by the verify-log path; this quick check
   classifies what attach/fsck can see from the heads alone. *)
type status =
  | Consistent  (** member at or ahead of the catalog floor *)
  | Stale_catalog  (** member ahead: catalog needs refresh (benign) *)
  | Rolled_back  (** member behind the catalog floor: history lost *)
  | Forked  (** same epoch, different hash: history rewritten *)

let check ~catalog ~member =
  let open Chain in
  if member.epoch = catalog.epoch then
    if String.equal member.hash catalog.hash && member.records = catalog.records then Consistent
    else Forked
  else if member.epoch < catalog.epoch || member.records < catalog.records then Rolled_back
  else Stale_catalog
