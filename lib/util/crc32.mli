(** CRC-32 (IEEE 802.3 polynomial, reflected) used to protect on-disk
    structures and wire frames: segment summaries, journal and audit
    blocks, checkpoints, the file-disk header and every protocol frame.

    The implementation is slicing-by-8 over native ints: eight 256-entry
    tables built once at module initialisation, eight input bytes folded
    per step, a byte-at-a-time loop for the tail. It matches the output
    of POSIX [cksum -o 3] / zlib [crc32]. Values are native ints in
    [0, 2^32), so they go straight into {!Bcodec.set_u32} and compare
    directly with {!Bcodec.get_u32}. *)

type t = int

val init : t
(** Initial accumulator (all ones, pre-inverted). *)

val update : t -> Bytes.t -> pos:int -> len:int -> t
(** [update acc b ~pos ~len] folds [len] bytes of [b] starting at [pos]
    into the accumulator. Raises [Invalid_argument] on bad ranges. *)

val zeros : t -> int -> t
(** [zeros acc n] is [acc] extended over [n] zero bytes, equal to
    [update acc (Bytes.make n '\000') ~pos:0 ~len:n] but in O(log n)
    time without touching memory (zlib's [crc32_combine] method:
    multiplication by x^(8n) modulo the polynomial). Raises
    [Invalid_argument] if [n < 0]. *)

val finish : t -> t
(** Final inversion. *)

val bytes : Bytes.t -> t
(** [bytes b] is the CRC-32 of all of [b]. *)

val string : string -> t
(** [string s] is the CRC-32 of all of [s]. *)

val sub : Bytes.t -> pos:int -> len:int -> t
(** CRC-32 of a byte range. *)
