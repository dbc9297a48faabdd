module Sim_disk = S4_disk.Sim_disk
module Geometry = S4_disk.Geometry
module Fault = S4_disk.Fault
module Simclock = S4_util.Simclock
module Trace = S4_obs.Trace

type addr = int

let none = -1

exception Log_full

type seg_state = Free | Open | Closed

type seg_info = {
  seg_index : int;
  seg_state : seg_state;
  seg_epoch : int;
  seg_live : int;
  seg_written : int;
}

type stats = {
  mutable appends : int;
  mutable flush_ops : int;
  mutable blocks_flushed : int;
  mutable summaries_written : int;
  mutable blocks_read : int;
  mutable segments_opened : int;
  mutable segments_reclaimed : int;
  mutable io_retries : int;
}

type seg = {
  index : int;
  mutable state : seg_state;
  mutable epoch : int;
  mutable live : int;
  mutable written : int;  (* slots consumed, 0..usable *)
  mutable tags : Tag.t option array;  (* length usable; None = never written *)
  mutable live_bits : Bytes.t;  (* 1 bit per usable slot *)
}

type t = {
  disk : Sim_disk.t;
  block_size : int;
  spb : int;  (* sectors per block *)
  bps : int;  (* blocks per segment, incl. summary slot *)
  usable : int;  (* data slots per segment = bps - 1 *)
  nsegs : int;  (* segments usable for data (excludes reserved) *)
  reserved_blocks : int;  (* blocks before segment 0 of the log area *)
  segs : seg array;
  auto_reclaim : bool;
  mutable charge : bool;
  mutable current : int;  (* index into segs of the open segment *)
  mutable frontier : int;  (* next slot in current *)
  mutable flushed : int;  (* slots of current already on disk *)
  pending : (addr, Bytes.t option) Hashtbl.t;  (* buffered contents *)
  mutable epoch_counter : int;
  mutable rotor : int;  (* next segment index to try *)
  mutable live_total : int;
  mutable retry_limit : int;  (* transient-fault re-issues per I/O *)
  mutable retry_backoff_ms : float;
  s : stats;
}

let fresh_stats () =
  {
    appends = 0;
    flush_ops = 0;
    blocks_flushed = 0;
    summaries_written = 0;
    blocks_read = 0;
    segments_opened = 0;
    segments_reclaimed = 0;
    io_retries = 0;
  }

let fresh_seg ~usable index =
  {
    index;
    state = Free;
    epoch = 0;
    live = 0;
    written = 0;
    tags = Array.make usable None;
    live_bits = Bytes.make ((usable + 7) / 8) '\000';
  }

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i v =
  let byte = Char.code (Bytes.get b (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set b (i lsr 3) (Char.chr byte)

let open_segment_exn t =
  let n = t.nsegs in
  let rec find tried =
    if tried >= n then begin
      if t.auto_reclaim then begin
        let freed = ref 0 in
        Array.iter
          (fun sg ->
            if sg.state = Closed && sg.live = 0 then begin
              sg.state <- Free;
              sg.written <- 0;
              sg.epoch <- 0;
              Array.fill sg.tags 0 (Array.length sg.tags) None;
              Bytes.fill sg.live_bits 0 (Bytes.length sg.live_bits) '\000';
              incr freed
            end)
          t.segs;
        t.s.segments_reclaimed <- t.s.segments_reclaimed + !freed;
        if !freed = 0 then raise Log_full else find_again ()
      end
      else raise Log_full
    end
    else begin
      let i = (t.rotor + tried) mod n in
      if t.segs.(i).state = Free then begin
        t.rotor <- (i + 1) mod n;
        i
      end
      else find (tried + 1)
    end
  and find_again () =
    let rec loop tried =
      if tried >= n then raise Log_full
      else begin
        let i = (t.rotor + tried) mod n in
        if t.segs.(i).state = Free then begin
          t.rotor <- (i + 1) mod n;
          i
        end
        else loop (tried + 1)
      end
    in
    loop 0
  in
  let i = find 0 in
  let sg = t.segs.(i) in
  t.epoch_counter <- t.epoch_counter + 1;
  sg.state <- Open;
  sg.epoch <- t.epoch_counter;
  sg.written <- 0;
  t.current <- i;
  t.frontier <- 0;
  t.flushed <- 0;
  t.s.segments_opened <- t.s.segments_opened + 1

let create ?(block_size = 4096) ?(blocks_per_segment = 128) ?(auto_reclaim = true) disk =
  let g = Sim_disk.geometry disk in
  let spb = block_size / g.Geometry.sector_size in
  if spb * g.Geometry.sector_size <> block_size then invalid_arg "Log.create: block size";
  let total_blocks = Sim_disk.capacity_sectors disk / spb in
  let reserved_blocks = blocks_per_segment (* one reserved segment for the superblock *) in
  let nsegs = (total_blocks - reserved_blocks) / blocks_per_segment in
  if nsegs < 2 then invalid_arg "Log.create: disk too small";
  let usable = blocks_per_segment - 1 in
  let t =
    {
      disk;
      block_size;
      spb;
      bps = blocks_per_segment;
      usable;
      nsegs;
      reserved_blocks;
      segs = Array.init nsegs (fresh_seg ~usable);
      auto_reclaim;
      charge = true;
      current = 0;
      frontier = 0;
      flushed = 0;
      pending = Hashtbl.create 256;
      epoch_counter = 0;
      rotor = 0;
      live_total = 0;
      retry_limit = 0;
      retry_backoff_ms = 1.0;
      s = fresh_stats ();
    }
  in
  open_segment_exn t;
  t

let block_size t = t.block_size
let blocks_per_segment t = t.bps
let disk t = t.disk
let clock t = Sim_disk.clock t.disk
let total_segments t = t.nsegs
let usable_blocks t = t.nsegs * t.usable
let live_blocks t = t.live_total

let free_segments t =
  Array.fold_left (fun acc sg -> if sg.state = Free then acc + 1 else acc) 0 t.segs

let utilization t = float_of_int t.live_total /. float_of_int (usable_blocks t)
let charge_io t v = t.charge <- v
let stats t = t.s

(* Address arithmetic. Block address = reserved + seg*bps + slot. *)
let addr_of t ~seg ~slot = t.reserved_blocks + (seg * t.bps) + slot
let seg_of t addr = (addr - t.reserved_blocks) / t.bps
let slot_of t addr = (addr - t.reserved_blocks) mod t.bps
let lba_of t addr = addr * t.spb

let check_addr t addr =
  if addr < t.reserved_blocks || seg_of t addr >= t.nsegs then
    invalid_arg (Printf.sprintf "Log: bad address %d" addr)

let set_io_retry t ~limit ~backoff_ms =
  if limit < 0 || backoff_ms < 0.0 then invalid_arg "Log.set_io_retry";
  t.retry_limit <- limit;
  t.retry_backoff_ms <- backoff_ms

(* Re-issue an I/O that faulted transiently, paying exponential
   backoff on the simulated clock. Sound at this level because the
   retried request targets the exact same sectors — unlike replaying
   a whole store operation, which is not idempotent. Permanent faults
   (and exhausted retries) propagate to the drive's RPC perimeter. *)
let with_retry t f =
  let rec go attempt =
    try f () with
    | (Fault.Read_fault { transient = true; _ } | Fault.Write_fault { transient = true; _ })
      when attempt < t.retry_limit ->
      Simclock.advance (Sim_disk.clock t.disk)
        (Simclock.of_ms (t.retry_backoff_ms *. float_of_int (1 lsl attempt)));
      t.s.io_retries <- t.s.io_retries + 1;
      go (attempt + 1)
  in
  go 0

let disk_write t ~addr ?data () =
  if t.charge then
    with_retry t (fun () ->
        Sim_disk.write t.disk ?data ~lba:(lba_of t addr) ~sectors:t.spb ())
  else
    match data with
    | Some d -> Sim_disk.poke t.disk ~lba:(lba_of t addr) ~data:d
    | None -> ()

let disk_read t ~addr ~blocks =
  if t.charge then
    with_retry t (fun () ->
        Sim_disk.read t.disk ~lba:(lba_of t addr) ~sectors:(blocks * t.spb));
  t.s.blocks_read <- t.s.blocks_read + blocks

(* Flush buffered slots [flushed, frontier) of the open segment.
   [flushed] advances slot by slot: if a write faults mid-flush, a
   retried flush resumes at the first unwritten slot rather than
   re-flushing slots whose pending entries are already gone (which
   would store [None] over their persisted contents). *)
let flush_buffered t =
  if t.frontier > t.flushed then begin
    let sg = t.segs.(t.current) in
    for slot = t.flushed to t.frontier - 1 do
      let addr = addr_of t ~seg:sg.index ~slot in
      let data = Option.join (Hashtbl.find_opt t.pending addr) in
      disk_write t ~addr ?data ();
      Hashtbl.remove t.pending addr;
      t.flushed <- slot + 1;
      t.s.blocks_flushed <- t.s.blocks_flushed + 1
    done;
    t.s.flush_ops <- t.s.flush_ops + 1
  end

let close_segment t =
  flush_buffered t;
  let sg = t.segs.(t.current) in
  let tags =
    Array.map (function Some tg -> tg | None -> Tag.Summary (* unreachable *)) sg.tags
  in
  let summary = Summary.encode ~block_size:t.block_size { Summary.epoch = sg.epoch; tags } in
  let saddr = addr_of t ~seg:sg.index ~slot:t.usable in
  disk_write t ~addr:saddr ~data:summary ();
  t.s.summaries_written <- t.s.summaries_written + 1;
  sg.state <- Closed;
  open_segment_exn t

(* Span wrapper for the log's public entry points. Guarded on
   [Trace.on] so the untraced path allocates nothing; retries absorbed
   by [with_retry] during the op are charged to the span. *)
let traced t kind ~bytes f =
  if not (Trace.on ()) then f ()
  else begin
    let r0 = t.s.io_retries in
    let tok = Trace.enter Trace.Seglog ~kind ~now:(Simclock.now (clock t)) in
    Trace.set_bytes tok bytes;
    match f () with
    | v ->
      Trace.add_retries tok (t.s.io_retries - r0);
      Trace.finish tok ~now:(Simclock.now (clock t));
      v
    | exception e ->
      Trace.add_retries tok (t.s.io_retries - r0);
      Trace.abort tok ~now:(Simclock.now (clock t));
      raise e
  end

let append_inner t tag ?data () =
  (match data with
   | Some d when Bytes.length d <> t.block_size -> invalid_arg "Log.append: data size"
   | Some _ | None -> ());
  (* A faulted close_segment can leave the segment full but still
     open; complete the close before placing the new block, or the
     append would land in the summary slot. *)
  if t.frontier = t.usable then close_segment t;
  let sg = t.segs.(t.current) in
  let slot = t.frontier in
  let addr = addr_of t ~seg:sg.index ~slot in
  sg.tags.(slot) <- Some tag;
  bit_set sg.live_bits slot true;
  sg.live <- sg.live + 1;
  sg.written <- sg.written + 1;
  t.live_total <- t.live_total + 1;
  Hashtbl.replace t.pending addr data;
  t.frontier <- t.frontier + 1;
  t.s.appends <- t.s.appends + 1;
  if t.frontier = t.usable then close_segment t;
  addr

let append t tag ?data () =
  traced t "append" ~bytes:t.block_size (fun () -> append_inner t tag ?data ())

let sync t =
  traced t "sync" ~bytes:0 (fun () ->
      flush_buffered t;
      (* On a file-backed disk this is the real durability point: fsync
         after the buffered blocks reach the backing file. Memory
         backings ignore it. *)
      Sim_disk.barrier t.disk)

let write_superblock t payload =
  if Bytes.length payload > t.block_size then invalid_arg "Log.write_superblock: too big";
  let block = Bytes.make t.block_size '\000' in
  Bytes.blit payload 0 block 0 (Bytes.length payload);
  disk_write t ~addr:0 ~data:block ()

let read_superblock t =
  disk_read t ~addr:0 ~blocks:1;
  Sim_disk.peek t.disk ~lba:0 ~sectors:t.spb

let peek t addr =
  check_addr t addr;
  match Hashtbl.find_opt t.pending addr with
  | Some (Some data) -> Bytes.copy data
  | Some None -> Bytes.make t.block_size '\000'
  | None -> Sim_disk.peek t.disk ~lba:(lba_of t addr) ~sectors:t.spb

let read_inner t addr =
  check_addr t addr;
  match Hashtbl.find_opt t.pending addr with
  | Some (Some data) -> Bytes.copy data
  | Some None -> Bytes.make t.block_size '\000'
  | None ->
    disk_read t ~addr ~blocks:1;
    Sim_disk.peek t.disk ~lba:(lba_of t addr) ~sectors:t.spb

let read t addr = traced t "read" ~bytes:t.block_size (fun () -> read_inner t addr)

let written_extent t seg =
  let sg = t.segs.(seg) in
  if sg.state = Open && seg = t.segs.(t.current).index then t.flushed else sg.written

let read_run_inner t addr n =
  check_addr t addr;
  if n <= 0 then invalid_arg "Log.read_run";
  let seg = seg_of t addr in
  let slot = slot_of t addr in
  let extent = written_extent t seg in
  if slot >= extent then [ (addr, read t addr) ]
  else begin
    let count = min n (extent - slot) in
    disk_read t ~addr ~blocks:count;
    List.init count (fun i ->
        let a = addr + i in
        (a, Sim_disk.peek t.disk ~lba:(lba_of t a) ~sectors:t.spb))
  end

let read_run t addr n =
  traced t "read_run" ~bytes:(n * t.block_size) (fun () -> read_run_inner t addr n)

let kill t addr =
  check_addr t addr;
  let sg = t.segs.(seg_of t addr) in
  let slot = slot_of t addr in
  if slot < t.usable && bit_get sg.live_bits slot then begin
    bit_set sg.live_bits slot false;
    sg.live <- sg.live - 1;
    t.live_total <- t.live_total - 1
  end

let is_live t addr =
  check_addr t addr;
  let slot = slot_of t addr in
  slot < t.usable && bit_get t.segs.(seg_of t addr).live_bits slot

let tag_of t addr =
  check_addr t addr;
  let slot = slot_of t addr in
  if slot >= t.usable then None else t.segs.(seg_of t addr).tags.(slot)

let seg_of t addr =
  check_addr t addr;
  seg_of t addr

let info_of_seg sg =
  {
    seg_index = sg.index;
    seg_state = sg.state;
    seg_epoch = sg.epoch;
    seg_live = sg.live;
    seg_written = sg.written;
  }

let segments t = Array.map info_of_seg t.segs

let seg_live_addrs t seg =
  let sg = t.segs.(seg) in
  let acc = ref [] in
  for slot = t.usable - 1 downto 0 do
    if bit_get sg.live_bits slot then begin
      match sg.tags.(slot) with
      | Some tag -> acc := (addr_of t ~seg ~slot, tag) :: !acc
      | None -> ()
    end
  done;
  !acc

let all_tagged t =
  let acc = ref [] in
  for seg = t.nsegs - 1 downto 0 do
    let sg = t.segs.(seg) in
    if sg.state <> Free then
      for slot = t.usable - 1 downto 0 do
        match sg.tags.(slot) with
        | Some tag -> acc := (addr_of t ~seg ~slot, tag) :: !acc
        | None -> ()
      done
  done;
  !acc

let reclaim_dead_segments t =
  let freed = ref 0 in
  Array.iter
    (fun sg ->
      if sg.state = Closed && sg.live = 0 then begin
        sg.state <- Free;
        sg.written <- 0;
        sg.epoch <- 0;
        Array.fill sg.tags 0 (Array.length sg.tags) None;
        Bytes.fill sg.live_bits 0 (Bytes.length sg.live_bits) '\000';
        incr freed
      end)
    t.segs;
  t.s.segments_reclaimed <- t.s.segments_reclaimed + !freed;
  !freed

let reattach disk =
  let t = create disk in
  (* create opened a fresh segment; undo its accounting and rebuild
     from on-disk summaries instead. *)
  t.epoch_counter <- 0;
  Array.iter
    (fun sg ->
      sg.state <- Free;
      sg.epoch <- 0;
      sg.live <- 0;
      sg.written <- 0;
      Array.fill sg.tags 0 (Array.length sg.tags) None;
      Bytes.fill sg.live_bits 0 (Bytes.length sg.live_bits) '\000')
    t.segs;
  t.live_total <- 0;
  let crashed = ref [] in
  for seg = 0 to t.nsegs - 1 do
    let sg = t.segs.(seg) in
    let saddr = addr_of t ~seg ~slot:t.usable in
    let sblock = Sim_disk.peek disk ~lba:(lba_of t saddr) ~sectors:t.spb in
    disk_read t ~addr:saddr ~blocks:1;
    match Summary.decode sblock with
    | Some { Summary.epoch; tags } ->
      sg.state <- Closed;
      sg.epoch <- epoch;
      sg.written <- t.usable;
      Array.iteri (fun slot tag -> if slot < t.usable then sg.tags.(slot) <- Some tag) tags;
      if epoch > t.epoch_counter then t.epoch_counter <- epoch
    | None ->
      (* Possibly an open (crashed) segment: probe slots for
         self-identifying journal blocks; treat any such segment as
         consumed up to its last decodable block. *)
      let last = ref (-1) in
      let tmax = ref Int64.min_int in
      let nonzero b =
        let n = Bytes.length b in
        let rec go i = i < n && (Bytes.unsafe_get b i <> '\000' || go (i + 1)) in
        go 0
      in
      for slot = 0 to t.usable - 1 do
        let a = addr_of t ~seg ~slot in
        let b = Sim_disk.peek disk ~lba:(lba_of t a) ~sectors:t.spb in
        match Jblock.decode b with
        | Some (_, entries) ->
          sg.tags.(slot) <- Some Tag.Journal;
          last := slot;
          List.iter
            (fun e -> if e.Jblock.time > !tmax then tmax := e.Jblock.time)
            entries
        | None ->
          (* Blocks we cannot identify (data, audit, checkpoints) are
             kept as Unknown; their owners re-tag them during
             recovery. *)
          if nonzero b then begin
            sg.tags.(slot) <- Some Tag.Unknown;
            last := slot
          end
      done;
      if !last >= 0 then begin
        sg.state <- Closed;
        sg.written <- !last + 1;
        crashed := (seg, !tmax) :: !crashed
      end
  done;
  (* Crashed-open segments are newer than every summarized one. Order
     them by the latest journal-entry time they hold (simulated time
     is monotonic, so it reflects write order; physical index breaks
     ties for segments with no decodable journal blocks) and hand out
     fresh epochs above [epoch_counter], advancing it past them so the
     segment opened next — and everything after — sorts later still. *)
  List.sort
    (fun (sa, ta) (sb, tb) ->
      if ta <> tb then Int64.compare ta tb else compare sa sb)
    !crashed
  |> List.iter (fun (seg, _) ->
         t.epoch_counter <- t.epoch_counter + 1;
         t.segs.(seg).epoch <- t.epoch_counter);
  (* Every block is still dead here (the owners re-mark them after this
     returns), so a full log must not reclaim now: that would free every
     segment and lose the whole store. Park on the newest summarised
     segment instead, the state a log that fills at run time is left
     in; the first append retries the close and reclaims then. *)
  if free_segments t > 0 then open_segment_exn t
  else begin
    let segs = Array.to_list t.segs in
    let candidates =
      match List.filter (fun sg -> not (List.mem_assoc sg.index !crashed)) segs with
      | [] -> segs
      | summarised -> summarised
    in
    let newer a b = if b.epoch > a.epoch then b else a in
    let parked = List.fold_left newer (List.hd candidates) candidates in
    t.current <- parked.index;
    t.frontier <- t.usable;
    t.flushed <- t.usable
  end;
  t

let mark_live t addr tag =
  check_addr t addr;
  let sg = t.segs.(Stdlib.( / ) (addr - t.reserved_blocks) t.bps) in
  let slot = slot_of t addr in
  if slot < t.usable && not (bit_get sg.live_bits slot) then begin
    bit_set sg.live_bits slot true;
    sg.live <- sg.live + 1;
    sg.tags.(slot) <- Some tag;
    t.live_total <- t.live_total + 1
  end

let journal_blocks t =
  let segs =
    Array.to_list t.segs
    |> List.filter (fun sg -> sg.state <> Free && sg.written > 0)
    |> List.sort (fun a b -> compare a.epoch b.epoch)
  in
  let of_seg sg =
    let extent = written_extent t sg.index in
    if extent > 0 then disk_read t ~addr:(addr_of t ~seg:sg.index ~slot:0) ~blocks:extent;
    let acc = ref [] in
    for slot = extent - 1 downto 0 do
      match sg.tags.(slot) with
      | Some Tag.Journal ->
        let addr = addr_of t ~seg:sg.index ~slot in
        (match Jblock.decode (peek t addr) with
         | Some (prev, entries) -> acc := (addr, prev, entries) :: !acc
         | None -> ())
      | Some _ | None -> ()
    done;
    !acc
  in
  List.concat_map of_seg segs

let pp_stats ppf t =
  let s = t.s in
  Format.fprintf ppf
    "log: %d appends, %d flushes (%d blocks), %d summaries, %d reads, %d segs opened, %d reclaimed, %d io retries, util %.1f%%"
    s.appends s.flush_ops s.blocks_flushed s.summaries_written s.blocks_read
    s.segments_opened s.segments_reclaimed s.io_retries
    (100.0 *. utilization t)
