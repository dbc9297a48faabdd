(** Mirrored self-securing drives (the paper's Section 6 multi-device
    coordination).

    Two S4 drives process the same mutation stream, so both hold the
    full current state {e and} the full history pool — recovery
    operations coordinate old versions simply because both devices have
    them. Because drive-assigned ObjectIDs are a deterministic function
    of the mutation history, identical streams yield identical ids and
    either replica can serve any request, including time-based reads.

    When a replica fails, the mirror keeps running on the survivor and
    journals the missed mutations; {!resync} replays them when the
    replica returns. Divergence (e.g. after injected faults) is
    detectable with {!divergence}.

    The secondary's disk runs in phantom mode: mirrored writes proceed
    in parallel on real hardware, so only the primary's service time
    advances the simulated clock. *)

type t

type replica = Primary | Secondary

type read_policy =
  | Primary_only  (** reads always hit the primary (legacy behaviour) *)
  | Balanced
      (** reads alternate across live replicas — safe because versions
          are immutable once written — except that a read routes to the
          authoritative replica whenever the missed-op journal holds a
          mutation that could change what it observes: a journalled op
          on the same oid, a journalled namespace op for [P_list]/
          [P_mount], or any journalled [Sync]/[Flush]/[Set_window].
          The rule survives faults: a read failing over from a faulted
          replica re-checks it against the survivor, and reads whose
          only live replica lags answer with an error rather than
          stale data.

          Audit-trail reads are served by the authoritative replica,
          but since each replica audits only the reads it itself
          served, a [Read_audit] answer merges the peer's read-class
          records into the authoritative log — the forensic trail is
          complete even though reads were split. [Verify_log] stays
          strictly per-replica: each replica's hash chain covers its
          own log, so verifying the pair means verifying each
          replica's drive directly. *)

val create : S4.Drive.t -> S4.Drive.t -> t
(** Both drives must be freshly formatted with identical
    configurations (identical mutation history so far). Read policy
    starts as [Primary_only]. *)

val set_read_policy : t -> read_policy -> unit
val read_policy : t -> read_policy

val read_counts : t -> int * int
(** Reads served by (primary, secondary) since creation — how balanced
    the balancing actually is. *)

val submit :
  t -> S4.Rpc.credential -> ?sync:bool -> S4.Rpc.req array -> S4.Rpc.resp array
(** Run a batch in order. Mutations are applied to every live replica
    (responses must agree — a mismatch is reported as a [Bad_request]
    error and the secondary is dropped as failed); reads are served
    per the {!read_policy} (default: the first live replica). Replicas
    run each request unsynced; when [sync], one {!barrier} then makes
    the whole batch durable ({!S4.Backend.group_commit}). *)

val barrier : t -> S4.Rpc.error option
(** Durability barrier on every live replica. A replica whose barrier
    fails is failed over (like an [Io_error] response); the result is
    [None] as long as one replica persisted the batch. *)

val set_failed : t -> replica -> bool -> unit
(** Fault injection / repair. While a replica is failed its missed
    mutations are journalled for {!resync}. *)

val is_failed : t -> replica -> bool

val lagging : t -> replica option
(** The replica the journalled mutations are destined for ([None] when
    the replicas are in sync). While a replica lags, the other one is
    the authoritative copy. *)

val lag : t -> int
(** Journalled mutations awaiting resync. *)

val resync : t -> (int, string) result
(** Replay missed mutations to the (repaired) lagging replica; returns
    how many were replayed. Fails if both replicas were failed or a
    replayed response diverges. *)

val divergence : t -> string list
(** Compare the replicas' object stores (existence, size, content
    digest of every object, current and audit record counts); empty
    means the replicas agree. *)

val drive : t -> replica -> S4.Drive.t
