(** Sharded S4 array: N self-securing drives behind one drive-shaped
    request surface.

    The router exposes exactly {!S4.Drive.submit}'s contract
    (credential + request batch → response batch, one barrier per
    synced batch), so clients, the NFS translator and every workload
    generator run over the array unchanged ({!backend}). Placement
    is consistent hashing over oids ({!Ring}); the partition
    (named-object) table lives on a designated {e meta shard} with
    cached [PMount] lookups; administrative commands and audit reads
    fan out to every shard and merge. All member drives share one
    [Simclock] and run their disks in phantom mode: a fan-out costs
    the slowest member's service time, not the sum (parallel devices).

    {b Online rebalancing:} {!add_shard} plans a move for every object
    whose ring owner changed and installs read-forwarding for each;
    {!rebalance_step} then copies one object's {e entire retained
    version chain} (journal history and base state, not just current
    data) to its new home, makes it durable, verifies every in-window
    version answers identically, cuts over, and purges the old copy —
    the detection-window guarantee survives membership change.
    {!attach} repairs placement after a crash: partial copies are
    dropped, duplicate copies deduplicated to one authoritative home,
    interrupted migrations re-queued. *)

type member = Single of S4.Drive.t | Mirrored of S4_multi.Mirror.t

type t

val create : ?vnodes:int -> (int * member) list -> t
(** Assemble an array over freshly formatted members. The first listed
    member is the meta shard (stable across {!attach}!); all drives
    must share one [Simclock]. Installs the array's global oid
    allocator on every member store and puts every disk in phantom
    mode. *)

val attach : ?vnodes:int -> (int * member) list -> t
(** Reassemble after a crash from individually recovered drives
    ([Drive.attach] each first). Repairs placement — deduplicates
    double-held objects (longer history wins, ring owner breaks ties),
    re-queues interrupted migrations with read-forwarding. *)

val submit :
  t -> S4.Rpc.credential -> ?sync:bool -> S4.Rpc.req array -> S4.Rpc.resp array
(** Route a batch with group commit. Requests execute in arrival
    order, each routed on its own: per-object ops to the holding
    shard, partition ops to the meta shard, [Sync]/[Flush]/
    [SetWindow]/[ReadAudit] fan-out-and-merge. Members always run
    unsynced, so a batched run is bit-identical to a sequence of
    one-request batches. When [sync], ONE durability {!barrier} then
    fans out across every member, charged as parallel work (slowest
    member), after pinning every member's chain head into the
    integrity catalog ({!S4.Backend.group_commit}). With
    {!set_read_overlap} on, maximal runs of consecutive oid-routed
    reads in a batch are charged as one parallel fan-out instead. *)

val set_read_overlap : t -> bool -> unit
(** Charge batch read runs as concurrent work across the distinct
    shards (and mirror replicas) they land on, instead of summing
    their service times. Responses are unchanged — versions are
    immutable and the reads still execute in order — only the clock
    accounting differs, so the mode is opt-in (default off) to keep
    batched and sequential runs bit-identical, clock included. *)

val read_overlap : t -> bool

val set_domains : t -> int -> unit
(** Set the worker-domain knob. Above 1, {!submit} partitions maximal
    runs of consecutive oid-routed requests — mutations included — by
    holder shard and executes the sub-batches on per-shard OCaml
    domains (at most [min knob shards] workers, spawned lazily; shard
    [id] is pinned to worker [id mod workers], so each shard's drive
    stack stays owned by exactly one domain). The shared clock
    advances by the slowest shard's domain-local time lane, the same
    slowest-member rule {!set_read_overlap} applies to disks.
    Responses are positionally identical to serial execution and a
    given knob value is fully deterministic, but time accounting (and
    thus attribute timestamps) differs from serial; at 1 — the
    default — dispatch is bit-identical to the serial implementation,
    clock included. Tracing forces the serial path. Changing the knob
    tears the old pool down; {!close_domains} does so explicitly. *)

val domains : t -> int
val close_domains : t -> unit
(** Stop and join the worker domains, if any were spawned. The knob is
    unchanged; a later {!submit} rebuilds the pool on demand. *)

val barrier : t -> S4.Rpc.error option
(** One durability barrier on every member ([Drive.barrier] /
    [Mirror.barrier]), charged slowest-member. A member whose barrier
    surfaces [Io_error] marks its shard degraded. *)

val landmark_barrier :
  t -> ((int * int * S4_integrity.Chain.head) list, string) result
(** A consistent array-wide rollback point: quiesce (request routing
    is synchronous, so the array is idle between calls), pin every
    member's chain head into the integrity catalog, fan one durability
    barrier out to all members (sealing each audit chain), and collect
    the sealed [(shard, replica, head)] triples. Every operation
    acknowledged before the call is covered by some returned head and
    none after it is, so the triples form one consistent landmark
    record for {!S4_tools}' [Landmark]/[Recovery] to persist and later
    verify the chains from. [Error] if any member's barrier failed —
    no landmark must be trusted over an unflushed member. *)

val members : t -> (int * int * S4.Drive.t) list
(** Every member drive as [(shard, replica, drive)], mirror
    secondaries included (replica 0 is the primary). Device-side
    administrative access for forensics tools. *)

val store_of : t -> int64 -> S4_store.Obj_store.t
(** The authoritative store currently holding an oid (the mirror's
    live up-to-date replica for a mirrored shard) — device-side access
    for tools that need raw version chains or ACL history. *)

val backend : t -> S4.Backend.t
(** The array as the uniform {!S4.Backend.t} surface. *)

val clock : t -> S4_util.Simclock.t
val shard_ids : t -> int list
val meta_shard : t -> int
val member : t -> int -> member
val shard_of : t -> int64 -> int
(** Current holder of an oid: forwarding entry if mid-migration, ring
    owner otherwise. *)

val ops_handled : t -> int
val all_drives : t -> S4.Drive.t list

(** {1 Online rebalancing} *)

val add_shard : t -> int -> member -> int
(** Add a member to the live array: joins the ring, plans migrations
    for every object the new placement reassigns (each with a
    read-forwarding entry so it keeps being served from its old home),
    and returns how many moves were queued. Call {!rebalance} or
    {!rebalance_step} to actually move data. Calling it again while
    moves are still queued is safe: the old queue is superseded by a
    fresh plan against the new ring (and destinations are recomputed
    from the ring at execution time regardless). *)

val pending_migrations : t -> int

val rebalance_step : t -> ((int64 * int * int) option, string) result
(** Migrate the next queued object. [Ok (Some (oid, src, dst))] moved
    one; [Ok None] means the queue is empty; [Error _] re-queues the
    failed move at the back. The whole chain is copied (off the
    mirror's authoritative replica for a mirrored source), synced,
    verified at every retained timestamp, then cut over and purged
    from the source. A move touching a mirrored shard whose missed-op
    journal is non-empty is refused ([Error]) until [Mirror.resync]
    has drained it: while a replica lags, migrating the object away
    would race the pending repair. *)

val rebalance : t -> int * string list
(** Drain the migration queue (bounded; persistent failures are
    reported, not retried forever). Returns (objects moved, errors). *)

type migration_stats = { objects : int; entries : int; bytes : int }

val migration_stats : t -> migration_stats

(** {1 Degraded-mode reporting} *)

val degraded_shards : t -> int list
(** Shards that surfaced [Io_error] (for a mirrored shard: after
    failover inside the mirror was exhausted). *)

val degraded : t -> bool
val io_errors : t -> int

(** {1 Maintenance} *)

val run_cleaners : t -> unit
(** One cleaner pass per member drive, charged as parallel work. Do
    not use the [Overlapped] cleaner mode under a router — the router
    owns the phantom accounting; overlapped-mode phantom juggling is
    reverted after each pass. *)

val sync_all : t -> unit

val fsck : t -> string list
(** Every member drive's {!S4.Drive.fsck} plus array placement
    invariants (each object held exactly where routing points). *)

val pp_stats : Format.formatter -> t -> unit
