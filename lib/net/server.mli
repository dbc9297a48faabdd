(** Concurrent wire-protocol server for any {!S4.Backend.t}.

    The protocol engine is sans-IO: a {!Session.t} consumes raw bytes,
    parses frames, queues requests and produces response bytes, with no
    socket in sight. The deterministic loopback transport and the
    threaded TCP daemon both drive the exact same session code, so
    every protocol decision exercised over TCP is also exercised — byte
    for byte — in the deterministic test suite.

    {b Identity is connection-derived.} Whatever [client] id a request
    frame carries, the session overwrites it with the identity bound to
    the connection before the backend sees it. A compromised client
    host can therefore neither dodge the drive's growth throttle nor
    frame another machine in the audit trail — the self-securing
    boundary of the paper, applied to the network edge.

    {b Hostile input.} A frame {!Wire.decode} rejects — including any
    frame, [Hello] or otherwise, whose header names a version other
    than {!Wire.version} — is answered with one [Proto_error], counted
    under [net/decode_reject], reported to the backend's garbage-audit
    hook, and the connection is closed. Nothing a peer sends can make
    the server raise or allocate beyond the configured frame cap.

    {b One request path.} Every request arrives in a [Batch] frame (a
    single request is a one-element batch) and is executed as one
    vectored backend submission answered by one [Batch_reply]. *)

type audit_garbage = client:int -> info:string -> unit
(** Record a protocol-level rejection in the audit trail. *)

type config = {
  max_frame : int;  (** largest accepted frame payload, bytes *)
  max_inflight : int;
      (** queued-but-unexecuted requests per connection (a batch of
          [n] counts as [n]) *)
  max_io : int;  (** largest single read/write/append/truncate, bytes *)
  allow_admin : bool;
      (** accept frames whose credential claims [admin]; refuse with
          [Permission_denied] when false (admin stays console-only) *)
  max_batch : int;
      (** largest accepted [Batch] frame (requests per batch);
          advertised in [Stat_ack] *)
  lease_ns : int64;
      (** client-cache lease term: every successful [Read]/[Get_attr]
          reply carries an absolute expiry of
          [now + lease_ns], authorizing the client to serve that
          answer from its cache until then. The server honours the
          classic lease discipline in return: a mutation that could
          change what another client's live lease observes is delayed
          (the clock advances, counted under [net/lease_wait]) until
          that lease expires, so a cached read is never superseded
          while servable — which also bounds mutation latency by
          [lease_ns]; keep the term small. 0 grants no leases. *)
  qos : bool;
      (** serve queued work in weighted-fair order across {e every}
          session instead of per-session FIFO, so one flooding client
          cannot starve the rest (the paper's DoS stance, upgraded
          for multi-tenancy) *)
}

val default_config : config
(** 4 MiB frames, 64 in-flight, 16 MiB io, admin allowed, 256-request
    batches, no leases, FIFO scheduling. *)

type t

val create :
  ?config:config ->
  ?audit_garbage:audit_garbage ->
  ?weight_of:(int -> float) ->
  S4.Backend.t ->
  t
(** Serve any backend — a drive, a shard router, a mirrored pair.

    {b Threading model.} A {!S4.Backend.Serial} backend (a bare drive)
    is guarded by an internal server lock, so one server safely
    carries many concurrent connections to a single (single-owner)
    drive stack. When the backend declares itself
    {!S4.Backend.Domain_safe} (the shard router) and neither [qos] nor
    leases ([lease_ns = 0]) are enabled, that lock is bypassed:
    connections call straight into the backend, which handles its own
    synchronization — per-session request order is unchanged (each
    session drains its own FIFO), but independent sessions stop
    serializing at the server. Enabling [qos] or leases reinstates the
    lock, which then also guards the shared fair queue and the lease
    registry.

    [weight_of] is the per-client weight source sampled by the [qos]
    scheduler (default: everyone weighs 1.0). *)

val of_drive : ?config:config -> ?weight_of:(int -> float) -> S4.Drive.t -> t
(** [create] over {!S4.Drive.backend} with the drive's garbage-audit
    hook wired: garbage frames land in its audit log under op
    ["net_reject"]. When the drive runs a {!S4.Throttle} and no
    explicit [weight_of] is given, QoS weights come from
    {!S4.Throttle.weight}: a client with an active history-pool
    penalty is served proportionally less often. *)

val config : t -> config

val scheduler : t -> (unit -> unit) S4_qos.Wfq.t option
(** The shared weighted-fair queue, when [config.qos] is set — for
    observability ([Wfq.served], [Wfq.virtual_time]) in tests and
    benchmarks. *)

(** {1 Protocol sessions (sans-IO)} *)

module Session : sig
  type s

  val create : ?identity:int -> ?trace:bool -> t -> s
  (** A connection bound to [identity] (default 1, the translator's
      default credential client). [trace] (default false) wraps each
      executed request in a [net] span — only safe where the session
      runs on the tracer's thread, i.e. the loopback transport. *)

  val feed : s -> Bytes.t -> int -> int -> unit
  (** Consume raw bytes from the peer. Parses as many complete frames
      as are present; control frames are answered immediately, batches
      are queued for {!step}. Input after close is discarded. *)

  val step : s -> bool
  (** Execute one queued batch, as ONE vectored backend submission
      with a single group-commit barrier, under the server lock (or
      lock-free against a [Domain_safe] backend, see {!create}), and
      queue its response bytes. False if nothing was pending. *)

  val run : s -> unit
  (** {!step} until the pending queue is empty. In [qos] mode this
      drains the {e shared} weighted-fair queue: a session's [run] may
      execute other sessions' work (and emit into their buffers) in
      fair order. *)

  val output : s -> Bytes.t
  (** Drain the bytes owed to the peer (empty when none). *)

  val closing : s -> bool
  (** No further input will be accepted (goodbye, EOF or protocol
      error); pending requests are still executed and flushed. *)

  val finished : s -> bool
  (** Closing, nothing pending, nothing buffered: drop the connection. *)

  val identity : s -> int
end

(** {1 TCP daemon} *)

type listener

val serve_tcp : ?host:string -> ?port:int -> t -> listener
(** Listen on [host:port] (default 127.0.0.1, port 0 = ephemeral) with
    one thread per connection. Connection identity is interned from the
    peer address: every distinct peer IP gets a distinct id, stable for
    the listener's lifetime. *)

val port : listener -> int
val connections : listener -> int
(** Connections accepted so far. *)

val shutdown : listener -> unit
(** Graceful: stop accepting, let every live connection drain its
    queued requests and flush responses, then join all threads. *)
