(** Little-endian byte codecs for on-disk structures.

    All on-disk integers in this code base are little-endian. A
    [writer] appends into a growable buffer; a [reader] consumes a byte
    string with bounds checking, raising {!Decode_error} on truncation
    or corruption so callers can treat bad sectors uniformly. *)

exception Decode_error of string

(** {1 Raw accessors} *)

val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
(** 32-bit value returned as a non-negative OCaml int. *)

val set_u32 : Bytes.t -> int -> int -> unit
val get_i64 : Bytes.t -> int -> int64
val set_i64 : Bytes.t -> int -> int64 -> unit

(** {1 Growable writer} *)

type writer

val writer : ?capacity:int -> unit -> writer
val w_u8 : writer -> int -> unit
val w_u16 : writer -> int -> unit
val w_u32 : writer -> int -> unit
val w_i64 : writer -> int64 -> unit
val w_int : writer -> int -> unit
(** Varint (LEB128) encoding of a non-negative int. *)

val w_bytes : writer -> Bytes.t -> unit
(** Length-prefixed (varint) byte string. *)

val w_string : writer -> string -> unit
val w_raw : writer -> Bytes.t -> unit
(** Raw append without a length prefix. *)

val length : writer -> int
val contents : writer -> Bytes.t

val block : writer -> block_size:int -> Bytes.t
(** [block w ~block_size] is the self-checking block layout shared by
    every on-disk metadata block: the writer's body, zero padding, and
    the CRC-32 of the first [block_size - 4] bytes in the last 4. The
    CRC reads only the body and extends over the zero tail with
    {!Crc32.zeros}, so a mostly empty block costs about its body, not
    its size. Decoders still check the CRC over the whole block, which
    catches a flipped bit in the tail. Raises [Invalid_argument] if the
    body and trailer do not fit in [block_size]. *)

(** {1 Reader} *)

type reader

val reader : ?pos:int -> Bytes.t -> reader
val r_u8 : reader -> int
val r_u16 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int64
val r_int : reader -> int
val r_bytes : reader -> Bytes.t
val r_string : reader -> string
val r_raw : reader -> int -> Bytes.t
val remaining : reader -> int

val read_block : Bytes.t -> magic:int -> (reader -> 'a) -> 'a option
(** [read_block b ~magic f] checks a {!block} whose body starts with
    the u16 [magic]: the magic, then the CRC over all of [b] but the
    trailer, zero tail included. It runs [f] on a reader just past the
    magic. [None] if a check fails or [f] raises {!Decode_error}. *)
