type t = {
  name : string;
  sector_size : int;
  sectors : int;
  rpm : int;
  track_sectors : int;
  min_seek_ms : float;
  avg_seek_ms : float;
  max_seek_ms : float;
  transfer_mb_s : float;
}

let cheetah_9gb =
  {
    name = "Seagate Cheetah 9LP (9GB, 10kRPM)";
    sector_size = 512;
    sectors = 17_783_240;
    rpm = 10_000;
    track_sectors = 334;
    min_seek_ms = 0.6;
    avg_seek_ms = 5.4;
    max_seek_ms = 10.5;
    transfer_mb_s = 21.0;
  }

let with_capacity t ~bytes =
  { t with sectors = (bytes + t.sector_size - 1) / t.sector_size }

let cheetah_2gb =
  { (with_capacity cheetah_9gb ~bytes:(2 * 1024 * 1024 * 1024)) with
    name = "Cheetah mechanics, 2GB address space" }

let modern_50gb =
  {
    name = "Modern 50GB (2000-era) drive";
    sector_size = 512;
    sectors = 97_656_250;
    rpm = 7200;
    track_sectors = 500;
    min_seek_ms = 0.8;
    avg_seek_ms = 8.5;
    max_seek_ms = 17.0;
    transfer_mb_s = 29.0;
  }

let capacity_bytes t = t.sectors * t.sector_size

(* On-disk codec of the geometry field in the file-backed sector store
   header (File_disk). *)

module Bcodec = S4_util.Bcodec

let encode w t =
  Bcodec.w_string w t.name;
  Bcodec.w_int w t.sector_size;
  Bcodec.w_int w t.sectors;
  Bcodec.w_int w t.rpm;
  Bcodec.w_int w t.track_sectors;
  Bcodec.w_i64 w (Int64.bits_of_float t.min_seek_ms);
  Bcodec.w_i64 w (Int64.bits_of_float t.avg_seek_ms);
  Bcodec.w_i64 w (Int64.bits_of_float t.max_seek_ms);
  Bcodec.w_i64 w (Int64.bits_of_float t.transfer_mb_s)

let decode r =
  let name = Bcodec.r_string r in
  let sector_size = Bcodec.r_int r in
  let sectors = Bcodec.r_int r in
  let rpm = Bcodec.r_int r in
  let track_sectors = Bcodec.r_int r in
  let min_seek_ms = Int64.float_of_bits (Bcodec.r_i64 r) in
  let avg_seek_ms = Int64.float_of_bits (Bcodec.r_i64 r) in
  let max_seek_ms = Int64.float_of_bits (Bcodec.r_i64 r) in
  let transfer_mb_s = Int64.float_of_bits (Bcodec.r_i64 r) in
  if sector_size <= 0 || sector_size > 1 lsl 20 || sectors <= 0 then
    raise (Bcodec.Decode_error "Geometry.decode: implausible geometry");
  { name; sector_size; sectors; rpm; track_sectors; min_seek_ms; avg_seek_ms; max_seek_ms;
    transfer_mb_s }
let rotation_ms t = 60_000.0 /. float_of_int t.rpm

let seek_ms t ~distance_sectors =
  if distance_sectors = 0 then 0.0
  else begin
    let frac = float_of_int distance_sectors /. float_of_int t.sectors in
    let frac = if frac > 1.0 then 1.0 else frac in
    t.min_seek_ms +. ((t.max_seek_ms -. t.min_seek_ms) *. sqrt frac)
  end

let transfer_ms t ~bytes = float_of_int bytes /. (t.transfer_mb_s *. 1_000_000.0) *. 1000.0

let pp ppf t =
  Format.fprintf ppf "%s: %d sectors x %dB, %d RPM, seek %.1f/%.1f/%.1f ms, %.0f MB/s"
    t.name t.sectors t.sector_size t.rpm t.min_seek_ms t.avg_seek_ms t.max_seek_ms
    t.transfer_mb_s
