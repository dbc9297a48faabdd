(** What the administrative tools operate on: a single self-securing
    drive or a whole sharded array behind a {!S4_shard.Router}.

    Both expose the same request surface ({!backend}), so {!History},
    {!Recovery}, {!Diagnosis} and {!Landmark} are written once against
    this type and work unchanged at array scale.
    The device-side accessors ([store_of], [members], [audit_records])
    are the administrator's physical-access privilege from the paper's
    model: the tools run {e on} the storage side of the security
    perimeter, not through a possibly-compromised client. *)

type t = Drive of S4.Drive.t | Array of S4_shard.Router.t

val backend : t -> S4.Backend.t
(** The target's request surface ({!S4.Drive.backend} or
    {!S4_shard.Router.backend}). A tool builds it once and reuses it:
    single requests go through [Backend.handle]; runs of independent
    requests (ACL slot rewrites, a file's restore sequence) go down as
    one [submit], which — when [sync] — pays a single group-commit
    barrier. *)

val clock : t -> S4_util.Simclock.t
val ops_handled : t -> int
val fsck : t -> string list
val barrier : t -> S4.Rpc.error option

val members : t -> (int * int * S4.Drive.t) list
(** Member drives as [(shard, replica, drive)]; a bare drive is
    [(0, 0, d)]. *)

val store_of : t -> int64 -> S4_store.Obj_store.t
(** The authoritative store holding an oid (for an array: the holder
    shard's live replica). *)

val landmark_barrier :
  t -> ((int * int * S4_integrity.Chain.head) list, string) result
(** One consistent durability barrier over every member, returning the
    sealed audit-chain head per [(shard, replica)] — the raw material
    of a {!Landmark} mark. See {!S4_shard.Router.landmark_barrier}. *)

val audit_records :
  ?since:int64 -> ?until:int64 -> t -> S4.Audit.record list
(** Device-side audit trail, merged across shards in time order
    (primary replicas only — both mirror replicas log identically). *)
