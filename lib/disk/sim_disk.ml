module Simclock = S4_util.Simclock
module Histogram = S4_util.Histogram
module Trace = S4_obs.Trace

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable seeks : int;
  mutable sequential : int;
  mutable busy_ns : int64;
  read_latency : Histogram.t;
  write_latency : Histogram.t;
}

let fresh_stats () =
  {
    reads = 0;
    writes = 0;
    sectors_read = 0;
    sectors_written = 0;
    seeks = 0;
    sequential = 0;
    busy_ns = 0L;
    read_latency = Histogram.create ();
    write_latency = Histogram.create ();
  }

(* Where sector contents live: 4 KB pages in 1 MB directories, both
   allocated on the first write that carries data and read as zeros
   while absent ([||], [Bytes.empty]), or a real host file. Timing,
   stats, fault injection and the stack above are identical over both. *)
type backing =
  | Mem of Bytes.t array array  (* directory -> page *)
  | File of File_disk.t

let page_bytes = 4096
let dir_pages = 256

let page dirs p =
  let dir = dirs.(p / dir_pages) in
  if Array.length dir = 0 then Bytes.empty else dir.(p mod dir_pages)

let alloc_page dirs p =
  let d = p / dir_pages and i = p mod dir_pages in
  if Array.length dirs.(d) = 0 then dirs.(d) <- Array.make dir_pages Bytes.empty;
  if Bytes.length dirs.(d).(i) = 0 then dirs.(d).(i) <- Bytes.make page_bytes '\000';
  dirs.(d).(i)

(* [f page page_off buf_off len] for each page piece of the byte range
   [off, off + len), in order. *)
let iter_pages ~off ~len f =
  for p = off / page_bytes to (off + len - 1) / page_bytes do
    let lo = Int.max off (p * page_bytes) and hi = Int.min (off + len) ((p + 1) * page_bytes) in
    f p (lo - (p * page_bytes)) (lo - off) (hi - lo)
  done

type t = {
  geometry : Geometry.t;
  clock : Simclock.t;
  backing : backing;
  mutable head : int;  (* lba just past the last request *)
  mutable stats : stats;
  mutable phantom : bool;
  mutable phantom_ns : int64;
  mutable fault : Fault.t option;
  mutable head_provider : (unit -> S4_integrity.Chain.head option) option;
      (* the drive above registers this; barriers snapshot its result *)
  mutable saved_head : S4_integrity.Chain.head option;
      (* device-held anchor as of the last barrier (or file open) *)
}

let create ?(geometry = Geometry.cheetah_9gb) clock =
  {
    geometry;
    clock;
    backing =
      Mem (Array.make (1 + ((Geometry.capacity_bytes geometry - 1) / (page_bytes * dir_pages))) [||]);
    head = 0;
    stats = fresh_stats ();
    phantom = false;
    phantom_ns = 0L;
    fault = None;
    head_provider = None;
    saved_head = None;
  }

let of_file file =
  let clock = Simclock.create () in
  Simclock.set clock (File_disk.clock_ns file);
  {
    geometry = File_disk.geometry file;
    clock;
    backing = File file;
    head = 0;
    stats = fresh_stats ();
    phantom = false;
    phantom_ns = 0L;
    fault = None;
    head_provider = None;
    saved_head = File_disk.head file;
  }

let file_backing t = match t.backing with File f -> Some f | Mem _ -> None

let set_head_provider t f = t.head_provider <- Some f
let saved_head t = t.saved_head

let barrier t =
  (match t.head_provider with Some f -> t.saved_head <- f () | None -> ());
  match t.backing with
  | Mem _ -> ()
  | File f ->
    File_disk.set_head f t.saved_head;
    File_disk.sync f ~clock_ns:(Simclock.now t.clock)

let close t = match t.backing with Mem _ -> () | File f -> File_disk.close f

let set_fault t policy = t.fault <- policy
let fault t = t.fault

let geometry t = t.geometry
let clock t = t.clock
let capacity_sectors t = t.geometry.Geometry.sectors
let capacity_bytes t = Geometry.capacity_bytes t.geometry
let stats t = t.stats
let reset_stats t = t.stats <- fresh_stats ()
let busy_seconds t = Int64.to_float t.stats.busy_ns /. 1e9

let check_range t ~lba ~sectors =
  if lba < 0 || sectors <= 0 || lba + sectors > capacity_sectors t then
    invalid_arg
      (Printf.sprintf "Sim_disk: range [%d, %d) outside [0, %d)" lba (lba + sectors)
         (capacity_sectors t))

(* Service time in ms for a request at [lba] of [sectors], given the
   current head position. Sequential continuation pays transfer only;
   everything else pays seek (distance-dependent) plus average
   rotational latency (half a revolution) plus transfer. *)
let service_ms t ~tcq ~lba ~sectors =
  let g = t.geometry in
  let bytes = sectors * g.Geometry.sector_size in
  let transfer = Geometry.transfer_ms g ~bytes in
  if lba = t.head then (transfer, true)
  else begin
    let distance = abs (lba - t.head) in
    let seek = Geometry.seek_ms g ~distance_sectors:distance in
    let rotation = Geometry.rotation_ms g /. 2.0 in
    let rotation = if tcq then rotation /. 2.0 else rotation in
    (seek +. rotation +. transfer, false)
  end

let account t ?(tcq = false) ~lba ~sectors ~is_read () =
  let ms, sequential = service_ms t ~tcq ~lba ~sectors in
  let ns = Simclock.of_ms ms in
  let t0 = if Trace.on () then Simclock.now t.clock else 0L in
  (if t.phantom then begin
     t.phantom_ns <- Int64.add t.phantom_ns ns;
     t.head <- lba + sectors
   end
   else begin
     Simclock.advance t.clock ns;
     let s = t.stats in
     s.busy_ns <- Int64.add s.busy_ns ns;
     if sequential then s.sequential <- s.sequential + 1 else s.seeks <- s.seeks + 1;
     if is_read then begin
       s.reads <- s.reads + 1;
       s.sectors_read <- s.sectors_read + sectors;
       Histogram.add s.read_latency ms
     end
     else begin
       s.writes <- s.writes + 1;
       s.sectors_written <- s.sectors_written + sectors;
       Histogram.add s.write_latency ms
     end;
     t.head <- lba + sectors
   end);
  if Trace.on () then
    (* Phantom-mode transfers leave the shared clock alone, so the
       span is instantaneous; the service time rides in [disk_ns]. *)
    Trace.emit Trace.Disk
      ~kind:(if is_read then "read" else "write")
      ~start_ns:t0 ~stop_ns:(Simclock.now t.clock)
      ~bytes:(sectors * t.geometry.Geometry.sector_size)
      ~disk_ns:ns ()

let read t ~lba ~sectors =
  check_range t ~lba ~sectors;
  (match t.fault with
   | None -> ()
   | Some f ->
     (match Fault.on_read f ~sectors with
      | Fault.R_ok -> ()
      | Fault.R_fail transient ->
        (* The failed attempt still spent positioning time. *)
        account t ~lba ~sectors ~is_read:true ();
        raise (Fault.Read_fault { lba; transient })));
  account t ~lba ~sectors ~is_read:true ()

let store_data t ~lba ~sectors data =
  let ss = t.geometry.Geometry.sector_size in
  (match data with
   | Some b when Bytes.length b <> sectors * ss ->
     invalid_arg "Sim_disk.write: data length mismatch"
   | _ -> ());
  match t.backing with
  | Mem dirs ->
    iter_pages ~off:(lba * ss) ~len:(sectors * ss) (fun p page_off buf_off n ->
        match data with
        | Some b -> Bytes.blit b buf_off (alloc_page dirs p) page_off n
        | None ->
          let pg = page dirs p in
          if Bytes.length pg > 0 then Bytes.fill pg page_off n '\000')
  | File f ->
    (match data with
     | None -> File_disk.erase f ~lba ~sectors
     | Some b -> File_disk.write f ~lba b)

(* Persist only the first [k] sectors of the request, leaving the tail
   untouched on the platter (torn write / crash mid-transfer). *)
let store_prefix t ~lba ~k data =
  if k > 0 then begin
    let ss = t.geometry.Geometry.sector_size in
    let data = Option.map (fun b -> Bytes.sub b 0 (k * ss)) data in
    store_data t ~lba ~sectors:k data
  end

let write t ?tcq ?data ~lba ~sectors () =
  check_range t ~lba ~sectors;
  (match t.fault with
   | None -> store_data t ~lba ~sectors data
   | Some f ->
     (match Fault.on_write f ~sectors with
      | Fault.W_ok -> store_data t ~lba ~sectors data
      | Fault.W_torn k -> store_prefix t ~lba ~k data
      | Fault.W_corrupt ->
        (* Flip one bit of the payload before it reaches the platter;
           nothing above the disk notices until a CRC check does. *)
        let data =
          Option.map
            (fun b ->
              let b = Bytes.copy b in
              Fault.corrupt_bit f b;
              b)
            data
        in
        store_data t ~lba ~sectors data
      | Fault.W_fail transient ->
        account t ?tcq ~lba ~sectors ~is_read:false ();
        raise (Fault.Write_fault { lba; transient })
      | Fault.W_crash k ->
        store_prefix t ~lba ~k data;
        raise Fault.Crashed));
  account t ?tcq ~lba ~sectors ~is_read:false ()

let peek t ~lba ~sectors =
  check_range t ~lba ~sectors;
  match t.backing with
  | Mem dirs ->
    let ss = t.geometry.Geometry.sector_size in
    let out = Bytes.create (sectors * ss) in
    iter_pages ~off:(lba * ss) ~len:(sectors * ss) (fun p page_off buf_off n ->
        let pg = page dirs p in
        if Bytes.length pg = 0 then Bytes.fill out buf_off n '\000'
        else Bytes.blit pg page_off out buf_off n);
    out
  | File f -> File_disk.read f ~lba ~sectors

let poke t ~lba ~data =
  let ss = t.geometry.Geometry.sector_size in
  if Bytes.length data mod ss <> 0 then invalid_arg "Sim_disk.poke: not sector aligned";
  let sectors = Bytes.length data / ss in
  check_range t ~lba ~sectors;
  store_data t ~lba ~sectors (Some data)

let read_bytes t ~lba ~sectors =
  read t ~lba ~sectors;
  peek t ~lba ~sectors

let set_phantom t v = t.phantom <- v
let phantom_ns t = t.phantom_ns
let reset_phantom t = t.phantom_ns <- 0L

let pp_stats ppf t =
  let s = t.stats in
  Format.fprintf ppf
    "disk: %d reads (%d sect), %d writes (%d sect), %d seeks, %d seq, busy %.3f s"
    s.reads s.sectors_read s.writes s.sectors_written s.seeks s.sequential
    (busy_seconds t)
