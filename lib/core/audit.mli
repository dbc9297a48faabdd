(** Drive-internal audit log.

    Every RPC handled by the drive — reads, writes and administrative
    commands alike — is recorded with its originating user and client.
    The log lives behind the security perimeter as a reserved,
    append-only stream that only the drive front end can write: records
    are packed into blocks that enter the same segment stream as data
    (which is what perturbs read locality in the paper's Figure 6
    microbenchmark). The audit log is not versioned; it is pruned only
    by aging.

    Records are buffered in memory and written out when a full block
    accumulates — the paper's "one disk write roughly every 750
    operations" behaviour — so a crash can lose the tail of the audit
    log, as in the prototype.

    The persisted log is additionally tamper-evident: each flushed
    record extends a SHA-256 hash chain ({!S4_integrity.Chain}), every
    block records its chain position and prior head, and {!seal} pins
    the head into an epoch record at each durability barrier. {!verify}
    re-walks the persisted chain and pinpoints any rewrite, drop,
    reorder or fork of sealed history. *)

type record = {
  at : int64;  (** simulated time of the request *)
  user : int;
  client : int;
  op : string;  (** RPC name, e.g. "write" *)
  oid : int64;  (** object concerned, 0 when not applicable *)
  info : string;  (** argument summary, e.g. "off=0 len=4096" *)
  ok : bool;  (** whether the drive accepted the request *)
}

type t

val create : ?enabled:bool -> S4_seglog.Log.t -> t
val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabling stops recording (used for the Figure 6 comparison);
    already-recorded history remains. *)

val append : t -> record -> unit
val flush : t -> unit
(** Force the partial buffer into a block (e.g. at shutdown). *)

val block_count : t -> int
val record_count : t -> int

val block_addrs : t -> int list
(** Addresses of flushed audit blocks, newest first (for cross-layer
    liveness checks). *)

val records : t -> ?since:int64 -> ?until:int64 -> unit -> record list
(** Chronological records in the given (inclusive) time range; reads
    audit blocks through the log (charged). *)

val expire : t -> cutoff:int64 -> int
(** Free audit blocks whose newest record is older than the cutoff;
    returns blocks freed. *)

val on_move : t -> old_addr:int -> new_addr:int -> unit
(** Cleaner relocation callback. *)

val recover : t -> cutoff:int64 -> unit
(** After a crash ({!S4_seglog.Log.reattach} + store recovery), re-find
    audit blocks from segment summaries and re-mark them live. Of
    several copies of one block (the cleaner's stale originals) only
    the one in the newest segment counts, and blocks and seals that
    {!expire} would drop at [cutoff] stay dead. *)

val record_wire_bytes : record -> int
(** Encoded size of one record (compact encoding: op-code byte,
    varint principals, time delta against the block base). *)

val decode_block : Bytes.t -> record list option
(** Exposed for tests and forensic tools. *)

(** {1 Hash chain} *)

val canonical : record -> Bytes.t
(** The canonical encoding the hash chain runs over (independent of
    the block-level delta encoding). *)

val chain_head : t -> string
(** Running SHA-256 head after the last flushed record. *)

val chained : t -> int
(** Global index of the next record to be chained (flushed records
    since format). *)

val sealed_head : t -> S4_integrity.Chain.head
(** Head pinned by the newest seal; {!S4_integrity.Chain.genesis} if
    nothing is sealed yet. *)

val seal_count : t -> int

val prospective_head : t -> S4_integrity.Chain.head
(** The head the next {!seal} would write (equals {!sealed_head} when
    nothing new has been flushed). The shard router records these in
    the integrity catalog before fanning out member barriers. *)

val seal : t -> unit
(** Seal the chain at a durability barrier: call after {!flush} and
    before the log sync so the epoch record travels in the same flush
    as the records it covers. No-op when nothing new was flushed. *)

val live_addrs : t -> int list
(** Record blocks plus seals (for cross-layer liveness checks). *)

val verify :
  ?from:S4_integrity.Chain.head ->
  ?lenient_tail:bool ->
  t ->
  S4_integrity.Chain.verify_result
(** Re-walk the persisted chain from the log (forensic reads,
    uncharged). [from] resumes from a trusted head; [lenient_tail]
    accepts a torn unsealed tail (crash recovery). *)
