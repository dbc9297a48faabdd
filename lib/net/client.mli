(** Resilient networked client presenting the vectored
    {!S4.Backend.t} surface.

    One logical connection to an S4 server over any {!Transport.t}.
    Connects lazily, handshakes ({!Wire.Hello} → {!Wire.Hello_ack}),
    and reconnects transparently after a drop. Every request reaches
    the wire through {!submit} as one [Batch] frame; {!handle} is a
    one-element {!submit}, so the lease cache and the retry policy
    have a single code path. Submissions that time out or lose their
    connection are retried — with exponential backoff and
    deterministic jitter — only when idempotent (no
    [Rpc.is_mutation] request); mutations surface [Io_error]
    immediately rather than risk double execution. Retries and
    reconnects are counted under [net/retry] and [net/reconnect]. *)

type config = {
  req_timeout_s : float;  (** per-request receive timeout *)
  max_retries : int;  (** for idempotent requests *)
  backoff_ms : float;  (** base backoff, doubled per retry *)
  jitter : float;  (** multiplicative jitter fraction, e.g. 0.25 *)
  seed : int;  (** jitter rng seed (deterministic) *)
  claim_client : int;  (** client id claimed in the handshake *)
  max_batch : int;  (** largest [Batch] frame sent; bigger submissions are sliced *)
  cache_budget : int;
      (** lease-cache LRU budget in bytes; 0 (the default) disables
          the client cache. A server with no lease term grants no
          leases, leaving the cache permanently empty. *)
  cache_journal : bool;
      (** record the cache's grant/hit/invalidate journal so
          {!Cache.check} can prove no stale reply was ever served *)
}

val default_config : config

type t

val connect : ?config:config -> Transport.t -> t
(** Lazy: no io happens until the first request. *)

val submit :
  t -> S4.Rpc.credential -> ?sync:bool -> S4.Rpc.req array -> S4.Rpc.resp array
(** Vectored submission with group commit: the batch crosses the wire
    as ONE [Batch] frame and the server pays a single durability
    barrier after the last request. Submissions larger than the batch
    limit (the server's [Stat_ack] advertisement once known, else
    [config.max_batch]) are sliced, the barrier still only on the
    final slice. With a cache configured, reads covered by an
    unexpired lease (and not preceded in the batch by a mutation) are
    answered locally without touching the wire; a mutation drops the
    cached entries it could supersede before its response is
    returned. Retried (bounded backoff) only when the whole submission
    is idempotent; a failure mid-way yields [Io_error] for the
    unexecuted tail. Never raises. *)

val handle : t -> S4.Rpc.credential -> ?sync:bool -> S4.Rpc.req -> S4.Rpc.resp
(** [(submit t cred ~sync [| req |]).(0)] — the same shape as
    [S4.Backend.handle]. *)

val backend : clock:S4_util.Simclock.t -> keep_data:bool -> t -> S4.Backend.t
(** This connection as the uniform {!S4.Backend.t} surface. [clock]
    and [keep_data] describe the server-side stack (the wire carries
    no clock). [Backend.close] sends [Goodbye]. *)

val capacity : t -> int * int
(** (total_bytes, free_bytes) via [Stat]; (0, 0) if unreachable. Also
    learns the server's batch limit. *)

val server_batch_limit : t -> int
(** Max batch the server advertised in [Stat_ack]; 0 until a [Stat]
    has been answered. *)

val identity : t -> int
(** Connection identity the server assigned (from {!Wire.Hello_ack});
    0 before the first successful handshake. *)

val server_now : t -> int64
(** Freshest server simulated-clock value observed on any reply frame
    (every [Batch_reply] piggybacks it). *)

val cache : t -> Cache.t option
(** The lease cache, when [config.cache_budget > 0] — for hit/miss
    stats and the {!Cache.check} safety rule. *)

val retries : t -> int
val reconnects : t -> int

val close : t -> unit
(** Best-effort [Goodbye], then drop the connection. The client may be
    used again afterwards (it will reconnect). *)
