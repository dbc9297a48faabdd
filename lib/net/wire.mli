(** Length-prefixed binary wire protocol for S4 RPC.

    This is the drive's real security boundary: everything that
    arrives on a connection is hostile until this codec has accepted
    it. Each frame is

    {v
      offset size  field
      0      4     magic "S4WP"
      4      1     protocol version (always {!version})
      5      1     frame kind
      6      2     reserved (must be zero)
      8      8     xid (request id; 0 for control frames)
      16     4     payload length (bytes)
      20     len   payload (kind-specific)
      20+len 4     CRC-32 of bytes [0, 20+len)
    v}

    {b One version, one request frame.} Every peer is built from the
    same tree and no on-disk format stores frames, so there is no
    negotiation: the header's version byte must equal {!version} or
    the frame is {!Corrupt}. Every request travels in a [Batch] (one
    request is a one-element batch) and is answered by a
    [Batch_reply] that piggybacks the server clock and one
    client-cache lease per response. Kind codes 2 and 3 belonged to
    retired single-request frames and decode as a bad frame kind.

    Decoding is strict and bounded: a declared payload longer than the
    decoder's [max_frame] is rejected {e before} any payload arrives
    (so a hostile peer cannot make the server buffer unbounded input),
    the CRC must match, every payload must parse completely with no
    trailing bytes, and embedded counts are validated against the
    bytes actually present before any list is allocated. Malformed
    input yields {!Corrupt}, never an exception. *)

type frame =
  | Hello of { claim : int }
      (** client handshake; [claim] is the client id the host {e
          claims} — the server derives the real identity from the
          connection and echoes it in {!Hello_ack} *)
  | Hello_ack of { identity : int; now : int64 }
  | Proto_error of { xid : int64; message : string }
      (** protocol-level rejection (bad frame, limit exceeded); the
          sender closes the connection after emitting one *)
  | Stat of { xid : int64 }
  | Stat_ack of { xid : int64; total : int; free : int; now : int64; batch : int }
      (** [batch] is the server's max accepted batch size *)
  | Goodbye  (** graceful close: the peer drains in-flight requests *)
  | Batch of
      { xid : int64; cred : S4.Rpc.credential; sync : bool; reqs : S4.Rpc.req array }
      (** one vectored submission; [sync] asks for a single
          group-commit barrier after the last request *)
  | Batch_reply of
      { xid : int64; resps : S4.Rpc.resp array; now : int64; leases : int64 array }
      (** positional responses to a [Batch]. [now] is the server's
          clock when the reply was made; [leases.(i)] is the absolute
          server-time instant until which the client may serve
          [resps.(i)] from its cache ([0L] = not cacheable). *)

val version : int
(** The one protocol version this build speaks (4). *)

val header_len : int
(** Fixed frame header size (before the payload). *)

val overhead : int
(** Header plus CRC trailer: bytes a frame occupies beyond its payload. *)

val max_frame_default : int
(** Default payload-size cap (4 MiB). *)

val encode : frame -> Bytes.t
(** A complete frame, CRC included. *)

type decoded =
  | Frame of frame * int  (** a whole frame and the bytes it consumed *)
  | Need_more of int  (** incomplete: at least this many more bytes *)
  | Corrupt of string  (** unrecoverable: reject and close the stream *)

val decode : ?max_frame:int -> Bytes.t -> pos:int -> avail:int -> decoded
(** Decode one frame from [avail] bytes starting at [pos]. Never
    raises and never allocates more than [avail + O(1)] bytes. *)

val frame_name : frame -> string

val ensure_metrics : unit -> unit
(** Register the net layer's error-path counters
    ([net/decode_reject], [net/retry], [net/reconnect]) at zero so
    they are visible in a metrics dump even before any failure. *)
