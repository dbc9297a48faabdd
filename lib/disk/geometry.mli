(** Disk geometry and mechanical service-time parameters.

    The simulator needs only enough geometry to reproduce the relative
    cost of sequential vs. random access: seek as a function of
    distance, rotational latency, and media transfer rate. *)

type t = {
  name : string;
  sector_size : int;  (** bytes per sector (512 throughout) *)
  sectors : int;  (** total capacity in sectors *)
  rpm : int;  (** spindle speed *)
  track_sectors : int;  (** sectors per track (averaged over zones) *)
  min_seek_ms : float;  (** track-to-track *)
  avg_seek_ms : float;
  max_seek_ms : float;  (** full stroke *)
  transfer_mb_s : float;  (** sustained media rate, MB/s *)
}

val cheetah_9gb : t
(** Seagate Cheetah 9LP-class drive: the 9 GB 10 000 RPM Ultra2 SCSI
    disk used in the paper's experimental setup. *)

val cheetah_2gb : t
(** The same mechanics restricted to a 2 GB address space; used for the
    Figure 5 cleaner experiment, which the paper ran on a 2 GB disk. *)

val modern_50gb : t
(** A 2000-era 50 GB drive for the Figure 7 capacity analysis. *)

val with_capacity : t -> bytes:int -> t
(** Same mechanics, different capacity. *)

val capacity_bytes : t -> int

val encode : S4_util.Bcodec.writer -> t -> unit
(** Append the full geometry to a writer; the codec of the geometry
    field in the {!File_disk} header. *)

val decode : S4_util.Bcodec.reader -> t
(** @raise S4_util.Bcodec.Decode_error on truncation or an implausible
    geometry (non-positive sector size or count). *)

val rotation_ms : t -> float
(** Time of one full revolution in milliseconds. *)

val seek_ms : t -> distance_sectors:int -> float
(** Seek time for a head movement spanning the given LBA distance,
    using the standard [min + (max-min) * sqrt(d/D)] model; 0 for
    distance 0. *)

val transfer_ms : t -> bytes:int -> float
val pp : Format.formatter -> t -> unit
