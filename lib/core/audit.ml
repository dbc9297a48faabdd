module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Chain = S4_integrity.Chain
module Log = S4_seglog.Log
module Tag = S4_seglog.Tag

type record = {
  at : int64;
  user : int;
  client : int;
  op : string;
  oid : int64;
  info : string;
  ok : bool;
}

let magic = 0x5542 (* "BU": chained blocks carrying start index + prior head *)
let seal_magic = 0x5345 (* "ES": epoch seal *)

type t = {
  log : Log.t;
  mutable enabled : bool;
  mutable buffer : record list;  (* newest first *)
  mutable buffer_bytes : int;
  mutable blocks : (int * int64) list;  (* (addr, newest record time), newest first *)
  mutable nrecords : int;
  (* Hash chain state over flushed records. Buffered records are not
     yet chained: they join the chain in flush order, so the chain is
     exactly the persisted record sequence. *)
  mutable chain_head : string;  (* head after the last flushed record *)
  mutable chained : int;  (* global index: flushed records since format *)
  mutable seals : (int * Chain.seal) list;  (* (addr, seal), newest first *)
  mutable last_seal : Chain.head;
}

let create ?(enabled = true) log =
  {
    log;
    enabled;
    buffer = [];
    buffer_bytes = 0;
    blocks = [];
    nrecords = 0;
    chain_head = Chain.genesis_hash;
    chained = 0;
    seals = [];
    last_seal = Chain.genesis;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

(* Compact wire encoding, so an audit block holds hundreds of records
   (the paper reports roughly one audit write per 750 operations):
   - op names from the fixed RPC vocabulary become a single byte;
   - times are varint deltas against the first record of the block;
   - the argument summary is stored as a short string (it is already
     terse, e.g. "oid=5 off=0 len=64"). *)

let op_codes =
  [|
    "create"; "delete"; "read"; "write"; "append"; "truncate"; "getattr"; "setattr";
    "getacl_user"; "getacl_index"; "setacl"; "pcreate"; "pdelete"; "plist"; "pmount";
    "sync"; "flush"; "flusho"; "setwindow"; "readaudit"; "verifylog";
  |]

let code_of_op op =
  let rec find i = if i >= Array.length op_codes then None else if op_codes.(i) = op then Some i else find (i + 1) in
  find 0

let w_record w ~base r =
  (match code_of_op r.op with
   | Some c -> Bcodec.w_u8 w ((c lsl 1) lor if r.ok then 1 else 0)
   | None ->
     Bcodec.w_u8 w ((0xFF lsl 1) land 0xFF lor if r.ok then 1 else 0);
     Bcodec.w_string w r.op);
  Bcodec.w_int w (Int64.to_int (Int64.sub r.at base));
  Bcodec.w_int w (r.user + 1);
  Bcodec.w_int w (r.client + 1);
  Bcodec.w_int w (Int64.to_int r.oid);
  Bcodec.w_string w r.info

let r_record rd ~base =
  let tagbyte = Bcodec.r_u8 rd in
  let ok = tagbyte land 1 = 1 in
  let code = tagbyte lsr 1 in
  let op = if code < Array.length op_codes then op_codes.(code) else Bcodec.r_string rd in
  let at = Int64.add base (Int64.of_int (Bcodec.r_int rd)) in
  let user = Bcodec.r_int rd - 1 in
  let client = Bcodec.r_int rd - 1 in
  let oid = Int64.of_int (Bcodec.r_int rd) in
  let info = Bcodec.r_string rd in
  { at; user; client; op; oid; info; ok }

let record_wire_bytes r =
  let w = Bcodec.writer () in
  w_record w ~base:r.at r;
  (* Slack for the varint time delta against the block base (up to 9
     bytes for multi-hour gaps) and unknown-op strings. *)
  Bcodec.length w + 10

(* The canonical encoding the hash chain runs over. Deliberately
   self-delimiting and independent of the block-level delta encoding,
   so the chain can be recomputed from decoded records alone. *)
let canonical r =
  let w = Bcodec.writer ~capacity:64 () in
  Bcodec.w_i64 w r.at;
  Bcodec.w_int w (r.user + 1);
  Bcodec.w_int w (r.client + 1);
  Bcodec.w_string w r.op;
  Bcodec.w_i64 w r.oid;
  Bcodec.w_string w r.info;
  Bcodec.w_u8 w (if r.ok then 1 else 0);
  Bcodec.contents w

(* Block layout: magic, base time, chain start index, prior head, count,
   records..., zero pad, crc in the last 4 bytes — self-identifying
   like journal blocks. The start index and prior head let verification
   resume at any block boundary (incremental verify, pruned logs). *)
let encode_block block_size ~start ~prior records_chrono =
  let base = match records_chrono with r :: _ -> r.at | [] -> 0L in
  let w = Bcodec.writer ~capacity:block_size () in
  Bcodec.w_u16 w magic;
  Bcodec.w_i64 w base;
  Bcodec.w_int w start;
  Bcodec.w_raw w (Bytes.of_string prior);
  Bcodec.w_int w (List.length records_chrono);
  List.iter (fun r -> w_record w ~base r) records_chrono;
  Bcodec.block w ~block_size

(* Decodes exactly the layout [encode_block] writes: records plus the
   block's chain position (start index, prior head). *)
let decode_block_chained b =
  Bcodec.read_block b ~magic (fun rd ->
      let base = Bcodec.r_i64 rd in
      let start = Bcodec.r_int rd in
      let prior = Bytes.to_string (Bcodec.r_raw rd Chain.hash_len) in
      let count = Bcodec.r_int rd in
      (List.init count (fun _ -> r_record rd ~base), (start, prior)))

let decode_block b = Option.map fst (decode_block_chained b)

(* Seal layout: magic, epoch, records, seal time, head hash, pad, crc. *)
let encode_seal block_size (s : Chain.seal) =
  let w = Bcodec.writer ~capacity:64 () in
  Bcodec.w_u16 w seal_magic;
  Bcodec.w_int w s.Chain.s_head.Chain.epoch;
  Bcodec.w_int w s.Chain.s_head.Chain.records;
  Bcodec.w_i64 w s.Chain.s_at;
  Bcodec.w_raw w (Bytes.of_string s.Chain.s_head.Chain.hash);
  Bcodec.block w ~block_size

let decode_seal b : Chain.seal option =
  Bcodec.read_block b ~magic:seal_magic (fun rd ->
      let epoch = Bcodec.r_int rd in
      let records = Bcodec.r_int rd in
      let s_at = Bcodec.r_i64 rd in
      let hash = Bytes.to_string (Bcodec.r_raw rd Chain.hash_len) in
      { Chain.s_head = { Chain.epoch; records; hash }; s_at })

let flush_block t =
  match t.buffer with
  | [] -> ()
  | newest_first ->
    let block_size = Log.block_size t.log in
    let chrono = List.rev newest_first in
    t.buffer <- [];
    t.buffer_bytes <- 0;
    (* Pack greedily by actual encoded size (time deltas vary); each
       emitted block records where it sits on the chain, then extends
       the running head with its records. *)
    let emit group_rev =
      match group_rev with
      | [] -> ()
      | newest :: _ as group_rev ->
        let group = List.rev group_rev in
        let data = encode_block block_size ~start:t.chained ~prior:t.chain_head group in
        let addr = Log.append t.log Tag.Audit ~data () in
        t.blocks <- (addr, newest.at) :: t.blocks;
        List.iter
          (fun r ->
            t.chain_head <- Chain.extend t.chain_head (canonical r);
            t.chained <- t.chained + 1)
          group
    in
    let base = ref (match chrono with r :: _ -> r.at | [] -> 0L) in
    let group = ref [] in
    let used = ref 0 in
    List.iter
      (fun r ->
        let w = Bcodec.writer () in
        w_record w ~base:!base r;
        let sz = Bcodec.length w in
        if !used + sz + 17 + 10 + Chain.hash_len > block_size && !group <> [] then begin
          emit !group;
          group := [];
          used := 0;
          base := r.at
        end;
        group := r :: !group;
        used := !used + sz)
      chrono;
    emit !group

let append t r =
  if t.enabled then begin
    let sz = record_wire_bytes r in
    (* header (2) + base (8) + start (10) + prior (32) + count varint
       (3) + crc (4) *)
    if t.buffer_bytes + sz + 27 + Chain.hash_len > Log.block_size t.log then flush_block t;
    t.buffer <- r :: t.buffer;
    t.buffer_bytes <- t.buffer_bytes + sz;
    t.nrecords <- t.nrecords + 1
  end

let flush t = flush_block t
let block_count t = List.length t.blocks
let block_addrs t = List.map fst t.blocks
let record_count t = t.nrecords

(* ------------------------------------------------------------------ *)
(* Chain state and sealing                                             *)

let chain_head t = t.chain_head
let chained t = t.chained
let sealed_head t = t.last_seal
let seal_count t = List.length t.seals

let prospective_head t =
  if t.chained > t.last_seal.Chain.records then
    { Chain.epoch = t.last_seal.Chain.epoch + 1; records = t.chained; hash = t.chain_head }
  else t.last_seal

(* Seal the chain at a durability barrier: called after [flush], before
   the log sync, so the seal travels in the same flush as the records
   it covers. A crash between the record blocks and the seal reaching
   the platter therefore loses the seal first — verification sees an
   unsealed tail (legitimate truncation), never a sealed region with
   missing records. Barriers with nothing new to seal write nothing. *)
let seal t =
  if t.enabled && t.chained > t.last_seal.Chain.records then begin
    let head = prospective_head t in
    let s = { Chain.s_head = head; s_at = Simclock.now (Log.clock t.log) } in
    let data = encode_seal (Log.block_size t.log) s in
    let addr = Log.append t.log Tag.Audit ~data () in
    t.seals <- (addr, s) :: t.seals;
    t.last_seal <- head
  end

let live_addrs t = List.map fst t.blocks @ List.map fst t.seals

let records t ?(since = 0L) ?(until = Int64.max_int) () =
  let in_range r = Int64.compare r.at since >= 0 && Int64.compare r.at until <= 0 in
  let from_blocks =
    List.concat_map
      (fun (addr, _) ->
        match decode_block (Log.read t.log addr) with
        | Some rs -> List.filter in_range rs
        | None -> [])
      (List.rev t.blocks)
  in
  from_blocks @ List.filter in_range (List.rev t.buffer)

let expire t ~cutoff =
  let expired, kept =
    List.partition (fun (_, newest) -> Int64.compare newest cutoff < 0) t.blocks
  in
  List.iter (fun (addr, _) -> Log.kill t.log addr) expired;
  t.blocks <- kept;
  (* Old seals go with their records, but the newest seal is always
     kept: it anchors the surviving suffix of the chain. *)
  let newest_epoch = t.last_seal.Chain.epoch in
  let dead_seals, kept_seals =
    List.partition
      (fun (_, (s : Chain.seal)) ->
        s.Chain.s_head.Chain.epoch <> newest_epoch && Int64.compare s.Chain.s_at cutoff < 0)
      t.seals
  in
  List.iter (fun (addr, _) -> Log.kill t.log addr) dead_seals;
  t.seals <- kept_seals;
  List.length expired + List.length dead_seals

let on_move t ~old_addr ~new_addr =
  t.blocks <-
    List.map (fun (a, newest) -> if a = old_addr then (new_addr, newest) else (a, newest)) t.blocks;
  t.seals <- List.map (fun (a, s) -> if a = old_addr then (new_addr, s) else (a, s)) t.seals

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

(* Assemble chain items from the persisted log. Forensic [Log.peek]
   (uncharged) — verification is an offline examination, not workload
   I/O. Only live blocks count: an expired block stays tagged until the
   cleaner reclaims its segment, and walking it would make the expired
   region look like records missing from the middle of the chain. A
   block the drive believes is live but no longer decodes is reported
   as Bad; seal-magic and record-magic blocks route to their item
   kinds. *)
let chain_items t =
  List.filter_map
    (fun (addr, tag) ->
      match tag with
      | Tag.Audit when Log.is_live t.log addr -> (
        let b = Log.peek t.log addr in
        match decode_seal b with
        | Some s -> Some (Chain.Seal s)
        | None -> (
          match decode_block_chained b with
          | Some (rs, (start, prior)) ->
            Some
              (Chain.Block
                 { Chain.b_start = start; b_prior = prior; b_canons = List.map canonical rs })
          | None ->
            Some (Chain.Bad (Printf.sprintf "undecodable audit block at addr %d" addr))))
      | _ -> None)
    (Log.all_tagged t.log)

let verify ?from ?lenient_tail t = Chain.verify ?from ?lenient_tail (chain_items t)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let recover t ~cutoff =
  (* The cleaner leaves the old copy of a block it moved tagged until
     its segment is reclaimed: keep one copy per chain start (per epoch
     for seals), the one in the newest segment. *)
  let segs = Log.segments t.log in
  let seg_epoch addr = segs.(Log.seg_of t.log addr).Log.seg_epoch in
  let keep_newest tbl key addr v =
    match Hashtbl.find_opt tbl key with
    | Some (a, _) when seg_epoch a > seg_epoch addr -> ()
    | _ -> Hashtbl.replace tbl key (addr, v)
  in
  let blocks = Hashtbl.create 64 and seals = Hashtbl.create 16 in
  List.iter
    (fun (addr, tag) ->
      match tag with
      | Tag.Audit | Tag.Unknown -> (
        let b = Log.peek t.log addr in
        match decode_seal b with
        | Some s -> keep_newest seals s.Chain.s_head.Chain.epoch addr s
        | None -> (
          match decode_block_chained b with
          | Some ([], _) | None -> ()
          | Some (rs, (start, prior)) -> keep_newest blocks start addr (rs, prior)))
      | _ -> ())
    (Log.all_tagged t.log);
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.iter
    (fun (_, (addr, s)) ->
      Log.mark_live t.log addr Tag.Audit;
      t.seals <- (addr, s) :: t.seals;
      t.last_seal <- s.Chain.s_head)
    (sorted seals);
  (* Rebuild the running head by replaying the chained blocks in index
     order. Anomalies (gaps, mismatched priors — verification's job to
     report) resync on each block's self-declared prior so the drive
     keeps a usable head for new records. With no block left the head
     resumes from the newest seal. *)
  let idx = ref (-1) and hash = ref t.last_seal.Chain.hash in
  List.iter
    (fun (start, (addr, (rs, prior))) ->
      Log.mark_live t.log addr Tag.Audit;
      t.nrecords <- t.nrecords + List.length rs;
      t.blocks <- (addr, List.fold_left (fun acc r -> max acc r.at) 0L rs) :: t.blocks;
      if start <> !idx then begin
        idx := start;
        hash := prior
      end;
      List.iter
        (fun r ->
          hash := Chain.extend !hash (canonical r);
          incr idx)
        rs)
    (sorted blocks);
  t.chain_head <- !hash;
  (* A sealed count ahead of the recovered blocks (sealed-region
     truncation: verification will flag it) must not make the next seal
     claim fewer records than the last. *)
  t.chained <- max !idx t.last_seal.Chain.records;
  (* Same monotonicity guard as Obj_store.recover: recovered audit
     records may postdate the barrier clock a file-backed restart
     resumed from. *)
  let tmax = List.fold_left (fun acc (_, newest) -> max acc newest) Int64.min_int t.blocks in
  let tmax =
    List.fold_left (fun acc (_, (s : Chain.seal)) -> max acc s.Chain.s_at) tmax t.seals
  in
  let clock = Log.clock t.log in
  if Int64.compare tmax (Simclock.now clock) >= 0 then
    Simclock.set clock (Int64.add tmax 1L);
  (* What [expire] killed before the crash is dead again. *)
  ignore (expire t ~cutoff)
