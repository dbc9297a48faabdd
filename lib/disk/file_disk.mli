(** File-backed sector store: the only way a drive persists.

    One host file holds a checksummed format header (geometry, the
    simulated clock and the sealed audit-chain head as of the last
    barrier) followed by the raw sector array at fixed offsets. Sector
    contents go straight to [pwrite], so a [kill -9] of the owning
    process loses at most writes that were still buffered {e above}
    the disk (the log's pending slots). {!sync} is the durability
    barrier: it rewrites the header with the current clock and
    [fsync]s, after which the contents survive a host crash too.

    Constructed stores plug into {!Sim_disk} via [Sim_disk.of_file];
    nothing else in the stack needs to know sectors live in a file. *)

type t

val create : path:string -> Geometry.t -> t
(** Create (or truncate) the file at [path] for the given geometry:
    reserve the full logical extent (sparse), write the header, and
    fsync file and directory so the empty store itself is durable. *)

val open_file : string -> t
(** Open an existing store, validating magic, header CRC and the
    header layout {!create} and {!sync} write (nothing else decodes).
    @raise Failure if the file is not a store ("<path>: not an S4
    file-backed store") or the header is corrupt ("<path>: corrupt
    store (...)");
    @raise Unix.Unix_error on I/O problems. *)

val geometry : t -> Geometry.t
val clock_ns : t -> int64
(** Simulated clock stored by the last completed barrier (what a
    restart resumes from; recovery advances past any newer journal
    entries it replays). *)

val head : t -> S4_integrity.Chain.head option
(** Sealed audit-chain head as of the last completed barrier ([None]
    before the first sealed barrier, or when sealing is disabled). A
    second, device-held trust anchor: rewriting the log file cannot
    update it without also passing the header CRC and forging
    SHA-256. *)

val set_head : t -> S4_integrity.Chain.head option -> unit
(** Stage the head the next {!sync} will persist (it is not written
    until the barrier). *)


val read : t -> lba:int -> sectors:int -> Bytes.t
(** pread of a sector run; sectors never written (or past the end of a
    truncated file) read back as zeros. *)

val write : t -> lba:int -> Bytes.t -> unit
(** pwrite of a sector-aligned run starting at [lba]. *)

val erase : t -> lba:int -> sectors:int -> unit
(** Store zeros over the run (a dropped-contents write). *)

val sync : t -> clock_ns:int64 -> unit
(** The durability barrier: persist [clock_ns] into the header and
    flush everything written so far. *)

val syncs : t -> int
(** Barriers completed since this handle was opened. *)

val close : t -> unit
(** Close the fd; idempotent. Does NOT imply a barrier. *)
