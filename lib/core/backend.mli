(** The one backend call surface.

    Every S4 request producer in the repo — the in-process drive, a
    mirrored pair behind a shard router, the sharded array itself, the
    wire-protocol client, the modelled-network client stub — exposes
    this single record, and every consumer (NFS translator, s4cli,
    crashtest, the benches) speaks it.

    The surface is {e vectored}: {!submit} takes an array of requests
    and returns the positionally matching array of responses. Requests
    execute in array order with full per-request semantics (throttle,
    ACL check, audit record, trace span), but the durability barrier
    — when [sync:true] — is paid {e once}, after the last request
    (group commit). Atomicity is per-request: a failed request yields
    its [R_error] in its slot and the rest of the batch still runs.
    If the end-of-batch barrier itself fails, every response that
    reported success is rewritten to the barrier's [Io_error] — the
    caller must not believe un-persisted mutations are stable. The
    drive, the mirror and the shard router all end their [submit]
    with {!group_commit}, the one implementation of that rule.

    {2 Threading model}

    Concurrency is part of the contract, not a comment. Every backend
    declares a {!concurrency} capability:

    - [Serial] — the producer's state is confined to one domain (or
      one systhread at a time). Callers that share the backend across
      threads or domains must serialize every {!submit} (which
      {!handle} is) and [close] themselves; {!Net.Server} does this
      with its global backend lock. The bare drive stack ([Drive], [Mirror], the
      modelled and wire clients) is [Serial].
    - [Domain_safe] — concurrent {!submit} calls from different
      domains are safe. The producer provides its own internal
      synchronization and may execute independent work in parallel
      (the sharded array dispatches disjoint shards onto per-shard
      worker domains; see [Shard_domain] and the DESIGN threading
      section). Two guarantees survive the concurrency: requests of a
      {e single} [submit] batch still execute in array order with one
      end-of-batch barrier, and per-object state transitions remain
      linearizable because each object lives on exactly one shard,
      owned by exactly one domain. Ordering {e between} concurrent
      batches from different callers is whatever the interleaving
      gives — per-session ordering is the caller's job (the server
      keeps it by pinning a session's batches to one thread at a
      time).

    Whatever the capability, [clock], [keep_data] and [capacity] are
    safe to read from any domain; [close] must be called exactly once,
    after all in-flight submits have returned. *)

type concurrency =
  | Serial  (** caller must serialize all access *)
  | Domain_safe  (** concurrent [submit] from multiple domains is safe *)

type t = {
  clock : S4_util.Simclock.t;  (** the clock every request charges *)
  keep_data : bool;
      (** whether the backing store retains object contents (content
          systems) or only sizes (timing-only benchmark config) *)
  capacity : unit -> int * int;
      (** (total bytes, free bytes) of the backing store *)
  concurrency : concurrency;
      (** the producer's threading contract; see the module docs *)
  submit : Rpc.credential -> ?sync:bool -> Rpc.req array -> Rpc.resp array;
      (** Execute a batch in order; one durability barrier at batch
          end when [sync]. Response [i] answers request [i]. An empty
          batch with [sync:true] is a pure barrier (no audit records). *)
  close : unit -> unit;
      (** Release transport resources (sockets, threads). In-process
          backends make this a no-op. *)
}

val handle : t -> Rpc.credential -> ?sync:bool -> Rpc.req -> Rpc.resp
(** [submit] of a one-element batch: the one-request call for any
    producer. *)

val group_commit :
  sync:bool -> barrier:(unit -> Rpc.error option) -> Rpc.resp array -> Rpc.resp array
(** The end-of-batch durability rule, given the batch's responses.
    When [sync] and the batch is empty or has at least one successful
    slot, pay [barrier] exactly once; if it fails, rewrite every
    successful slot to the barrier's error (failed slots keep their
    own). Otherwise return the responses untouched without a barrier —
    an all-failed batch mutated nothing worth persisting. *)

val make :
  clock:S4_util.Simclock.t ->
  keep_data:bool ->
  capacity:(unit -> int * int) ->
  ?concurrency:concurrency ->
  ?close:(unit -> unit) ->
  (Rpc.credential -> ?sync:bool -> Rpc.req array -> Rpc.resp array) ->
  t
(** Build a backend. [concurrency] defaults to [Serial]; only declare
    [Domain_safe] when every entry point really is. *)
