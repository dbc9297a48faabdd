(** Checkable file contents.

    Every byte the benchmark writes comes from one seeded pattern: byte
    [o] of a stream with base [b] is [pattern.((b + o) mod length)].
    Writing a stream's bytes at their own offsets (creates, overwrites,
    appends) keeps every file a prefix of its stream, so a read is
    checked by regenerating the expected bytes from [(base, off)]. *)

type t

val create : Random.State.t -> t
val base : Random.State.t -> int
(** A fresh stream base. *)

val bytes : t -> base:int -> off:int -> len:int -> Bytes.t
val matches : t -> base:int -> off:int -> Bytes.t -> bool
