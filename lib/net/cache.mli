(** Lease-based client-side read cache.

    Holds attribute and data read replies keyed by (credential, oid,
    version instant, range), each guarded by a server-granted lease:
    an absolute server-clock instant piggybacked on reply frames
    until which the client may answer the same read locally. The
    credential (user + admin flag) is part of the key because the
    server ACL-checks every request per credential: a reply earned by
    one principal is never replayed to another, so a user the object's
    ACL denies still gets [Permission_denied] from the server — the
    cache cannot be used to launder access across principals sharing
    one connection. A cached reply is dropped the moment the client
    sends any mutation touching its oid (the client's own writes are
    the only coherence events it can cause; other clients' writes are
    fenced by the server, which delays a conflicting mutation until
    every other client's lease on the object has expired), and the
    whole cache is dropped on history-pruning operations
    ([Flush]/[Set_window]) whose effect is not per-oid.

    The drive never trusts this cache: it is a client-local
    optimization, invisible to the server's audit and access-control
    path. A compromised client can at worst serve itself stale data.

    With [journal:true] every grant, hit and invalidation is recorded;
    {!check} replays the journal and proves the safety rule: {e no
    reply was served from cache after its lease expired or was
    invalidated}. *)

module Rpc := S4.Rpc

type key =
  | K_data of {
      user : int;
      admin : bool;
      oid : int64;
      at : int64 option;
      off : int;
      len : int;
    }
  | K_attr of { user : int; admin : bool; oid : int64; at : int64 option }

type event =
  | Grant of { key : key; expiry : int64; now : int64 }
  | Hit of { key : key; now : int64 }
  | Invalidate of { oid : int64; now : int64 }
  | Clear of { now : int64 }

type t

val create : ?journal:bool -> budget:int -> unit -> t
(** [budget] is the LRU cost budget in bytes. [journal] (default
    false) records the event stream for {!check}. *)

val observe_now : t -> int64 -> unit
(** Feed an observed server clock value (from any reply frame); the
    cache keeps the maximum. Lease expiry is judged against this. *)

val now : t -> int64

val key_of_req : Rpc.credential -> Rpc.req -> key option
(** The cache key for a cacheable read ([Read]/[Get_attr]) issued
    under [cred], [None] for everything else. The credential's [user]
    and [admin] fields key the entry; [client] does not — the server
    overwrites it with the connection identity, which is constant for
    all requests through one client. *)

val find : t -> Rpc.credential -> Rpc.req -> Rpc.resp option
(** Serve [req] locally if a fresh, unexpired entry exists {e for this
    credential}. An entry whose lease has expired (against the
    observed server clock) is discarded, never returned. Counts
    hits/misses. *)

val store : t -> Rpc.credential -> Rpc.req -> Rpc.resp -> lease:int64 -> unit
(** Remember a server reply under its lease ([lease] is the absolute
    expiry instant; 0 or an already-past instant stores nothing).
    Error responses are never cached. *)

val invalidate_req : t -> Rpc.req -> unit
(** The client is about to apply [req] at the server: drop every entry
    the mutation could supersede (entries for its oid; everything for
    [Flush]/[Set_window]). Non-mutations invalidate nothing. *)

val hits : t -> int
(** Reads actually served from cache. An entry found but discarded as
    lease-expired counts as a miss, not a hit — hits are exactly the
    requests that never reached the wire. *)

val misses : t -> int
val length : t -> int

val events : t -> event list
(** The journal, oldest first (empty unless [journal:true]). *)

val check : t -> (unit, string) result
(** Replay the journal: every {!Hit} must name a key with a live grant
    — granted, not superseded by an invalidation or clear, and with
    [expiry > now] at the moment of the hit. *)
