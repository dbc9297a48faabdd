(** Sector-addressed simulated disk.

    The simulator models service time (seek + rotation + transfer) and
    advances the shared {!S4_util.Simclock} on every request. Requests
    that continue exactly where the previous one ended are recognised
    as sequential and pay transfer cost only.

    Sector *contents* live either in memory or in a {!File_disk.t},
    which is the only way a drive persists across processes. Memory
    holds the disk image as 4 KB pages, indexed by byte offset through
    1 MB directories of 256 pages. A directory and a page are
    allocated, zeroed, on the first write that carries data; a write is
    one blit per page it touches, and a read one blit per page into the
    result. A write without data zeroes the pages that already exist
    and allocates none, so timing-only experiments on large disks stay
    sparse and read back zeroed sectors. *)

type t

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable seeks : int;
  mutable sequential : int;  (** requests that paid no positioning cost *)
  mutable busy_ns : int64;  (** total mechanical service time *)
  read_latency : S4_util.Histogram.t;  (** per-request service time, ms *)
  write_latency : S4_util.Histogram.t;
}

val create : ?geometry:Geometry.t -> S4_util.Simclock.t -> t
(** A fresh disk (default geometry {!Geometry.cheetah_9gb}) with the
    head parked at sector 0. *)

(** {1 File backing}

    A disk constructed over a {!File_disk.t} keeps its sector contents
    in a real host file instead of the in-memory table: every content
    write goes straight to [pwrite] and {!barrier} flushes the file, so
    acknowledged data survives [kill -9] (and, after a barrier, a host
    crash). Timing, stats and fault injection behave identically. *)

val of_file : File_disk.t -> t
(** Wrap an open file-backed store. Geometry comes from the store's
    header and a fresh clock resumes from the last barrier's
    [clock_ns]; recovery then advances it past any newer replayed
    journal entries. *)

val file_backing : t -> File_disk.t option
val barrier : t -> unit
(** Durability barrier: snapshot the registered chain head into the
    device anchor, then flush a file backing ({!File_disk.sync} at the
    current clock); contents flushing is a no-op for memory-backed
    disks. *)

(** {1 Chain-head anchor}

    The drive above registers a provider for its sealed audit-chain
    head; every {!barrier} snapshots the provider's current value as
    the device-held anchor (persisted in the {!File_disk} header). On
    reattach the anchor cross-checks the recovered chain: a log rewound
    or rewritten behind the device's back can no longer reproduce
    it. *)

val set_head_provider : t -> (unit -> S4_integrity.Chain.head option) -> unit
val saved_head : t -> S4_integrity.Chain.head option
(** Anchor as of the last barrier (or file open). *)

val close : t -> unit
(** Release the file backing's descriptor (no-op for memory). Not a
    barrier. *)

val geometry : t -> Geometry.t
val clock : t -> S4_util.Simclock.t
val capacity_sectors : t -> int
val capacity_bytes : t -> int

val read : t -> lba:int -> sectors:int -> unit
(** Timed read of a sector run; contents are not returned (use
    {!read_bytes}). Raises [Invalid_argument] if out of range. *)

val write : t -> ?tcq:bool -> ?data:Bytes.t -> lba:int -> sectors:int -> unit -> unit
(** Timed write. When [data] is given it must be exactly
    [sectors * sector_size] bytes and is retained for later
    {!read_bytes}. Without [data] any previously stored contents for
    the range are dropped (the range reads back as zeros). [?tcq]
    models SCSI tagged command queuing on a busy server: the drive
    reorders queued writes, halving the expected rotational latency. *)

val read_bytes : t -> lba:int -> sectors:int -> Bytes.t
(** Timed read returning stored contents; unwritten sectors are zeros. *)

val peek : t -> lba:int -> sectors:int -> Bytes.t
(** Contents without advancing time (used by integrity checkers and by
    crash-recovery scans whose cost is modelled separately). *)

val poke : t -> lba:int -> data:Bytes.t -> unit
(** Store contents without advancing time or stats; used when I/O cost
    is accounted separately (e.g. the uncharged-cleaner baseline). *)

val stats : t -> stats
val reset_stats : t -> unit

(** {1 Fault injection}

    With a {!Fault.t} policy attached, every {!read}, {!write} and
    {!read_bytes} consults it first: requests may raise
    {!Fault.Read_fault} / {!Fault.Write_fault}, persist only a torn
    sector prefix, flip a stored bit, or raise {!Fault.Crashed} (after
    which all further timed I/O raises {!Fault.Crashed} until the
    policy is detached). {!peek} and {!poke} bypass the policy — they
    model post-mortem platter access, not in-band I/O. *)

val set_fault : t -> Fault.t option -> unit
val fault : t -> Fault.t option

(** {1 Phantom accounting}

    In phantom mode, requests update the head position and accumulate
    their would-be service time in a separate counter instead of
    advancing the clock — used to model background work (the cleaner)
    that overlaps with foreground idle disk time. *)

val set_phantom : t -> bool -> unit
val phantom_ns : t -> int64
val reset_phantom : t -> unit

val busy_seconds : t -> float
val pp_stats : Format.formatter -> t -> unit
