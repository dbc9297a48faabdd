(** Client-side RPC stub.

    Connects a client machine to a network-attached S4 drive
    (Figure 1a): each request pays the modelled network round trip for
    its request and response sizes, then executes inside the drive's
    security perimeter. For the combined-server configuration
    (Figure 1b), bypass this module and use {!Drive.backend}
    directly. *)

type t

val connect : S4_disk.Net.t -> Drive.t -> t

val submit : t -> Rpc.credential -> ?sync:bool -> Rpc.req array -> Rpc.resp array
(** Batched submission: one network exchange carrying the whole batch
    (each request still pays its transfer size), group-committed by
    the drive ({!Drive.submit}). *)

val backend : t -> Backend.t
(** This client stub as the uniform {!Backend.t} surface. *)

val rpc_count : t -> int
