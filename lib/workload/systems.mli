(** Factory for the four experimental systems of the paper's
    evaluation (Section 5.1.1):

    + {b S4-remote} (Fig. 1a): S4 drive as a network-attached object
      store; the translator runs client-side and S4 RPCs cross the
      network.
    + {b S4-NFS} (Fig. 1b): translator combined with the drive into an
      S4-enhanced NFS server; NFS crosses the network.
    + {b BSD-FFS}: FreeBSD-style FFS NFS server (synchronous metadata).
    + {b Linux-ext2}: ext2 with the sync-mount metadata-coalescing
      flaw.

    All four run over identical simulated disks and networks, and are
    driven through the common {!S4_nfs.Server.t} interface.

    Every constructor takes one {!Config.t} record (default:
    {!Config.default}) instead of the old per-constructor optional
    arguments; build variations with record update syntax:
    [{ Config.default with disk_mb = Some 64; mirrored = true }]. *)

type t = {
  name : string;
  server : S4_nfs.Server.t;
  clock : S4_util.Simclock.t;
  disk : S4_disk.Sim_disk.t;
  drive : S4.Drive.t option;  (** the S4 systems expose their drive *)
  translator : S4_nfs.Translator.t option;
  router : S4_shard.Router.t option;  (** the sharded array exposes its router *)
}

(** One configuration record for every system constructor. Fields a
    given system does not use are ignored (e.g. [mirrored] outside
    {!s4_array}, [server_config] outside the wire-protocol systems). *)
module Config : sig
  type sys = t

  type t = {
    disk_mb : int option;
        (** member-disk capacity in MiB; [None] = the paper's 9 GB
            Cheetah *)
    drive_config : S4.Drive.config;  (** default {!benchmark_drive_config} *)
    mirrored : bool;  (** each array shard is a two-drive mirror *)
    balanced : bool;  (** mirrored reads served from either replica *)
    read_overlap : bool;
        (** charge batch read runs as concurrent cross-shard work *)
    domains : int;
        (** array worker-domain knob ([Router.set_domains]); 1 =
            serial *)
    server_config : S4_net.Server.config option;  (** leases / QoS *)
    client_config : S4_net.Client.config option;  (** client cache *)
  }

  val default : t
  (** 9 GB disks, {!benchmark_drive_config}, single drives, serial
      charging, [domains] from the [S4_DOMAINS] environment variable
      (1 when unset or unparsable). *)

  val serial : t
  (** {!default} with [domains = 1] regardless of [S4_DOMAINS] — for
      tests that assert the serial bit-identity contract. *)

  val content : t
  (** {!default} with {!content_drive_config} (object contents
      retained), for correctness-checking workloads. *)

  val domains_from_env : unit -> int
  (** The [S4_DOMAINS] knob as {!default} reads it. *)
end

val s4_remote : ?config:Config.t -> unit -> t

val s4_nfs_server : ?config:Config.t -> unit -> t

val s4_array : ?config:Config.t -> shards:int -> unit -> t
(** A sharded scale-out array: [shards] drives (each [disk_mb] big)
    behind an {!S4_shard.Router}, mounted through the translator's
    [Backend] transport so it is driven exactly like the
    single-drive systems. All member disks share one clock and run in
    phantom mode (parallel-device accounting). [config.mirrored] makes
    every shard a two-drive {!S4_multi.Mirror}; [config.balanced]
    additionally serves mirrored reads from either replica;
    [config.read_overlap] charges batch read runs as concurrent
    cross-shard work; [config.domains] > 1 executes disjoint shard
    sub-batches on per-shard OCaml domains
    ([Router.set_domains]). *)

val s4_direct : ?config:Config.t -> unit -> t
(** Translator linked directly to the drive (in-process [Local]
    transport, no modeled network): the reference point for the
    networked-equivalence tests and the net bench. *)

val s4_loopback : ?config:Config.t -> unit -> t
(** Like {!s4_direct} but every S4 RPC is encoded through the
    {!S4_net.Wire} codec and executed by a {!S4_net.Server.Session}
    over the deterministic in-memory loopback transport. Adds no
    simulated time, so it must produce a bit-identical disk image.
    [config.server_config] turns on leases/QoS; [config.client_config]
    sizes the lease-backed client cache. *)

val s4_tcp : ?config:Config.t -> unit -> t * (unit -> unit)
(** Like {!s4_loopback} but over a real TCP socket to an in-process
    {!S4_net.Server.serve_tcp} daemon on 127.0.0.1. Returns the system
    and a [stop] thunk that closes the client and shuts the daemon
    down (call it; threads otherwise linger). *)

val bsd_ffs : ?config:Config.t -> unit -> t
val linux_ext2 : ?config:Config.t -> unit -> t

val all_four : ?config:Config.t -> unit -> t list
(** Fresh instances of all four systems sharing one config. *)

val content_drive_config : S4.Drive.config
(** Like {!benchmark_drive_config} but retaining data contents, for
    correctness-checking workloads. *)

val benchmark_drive_config : S4.Drive.config
(** Drive configuration for timing experiments: contents not retained
    ([keep_data:false]), paper cache sizes, throttle off. *)

val elapsed_seconds : t -> (unit -> 'a) -> float * 'a
(** Run a thunk and report the simulated seconds it consumed. *)

val drop_all_caches : t -> unit
(** Cold caches: translator/client caches and, for S4 systems, the
    drive's block and object caches. *)

val run_cleaner : t -> unit
(** No-op for non-S4 systems. *)

val ensure_space : t -> min_free_segments:int -> unit
(** Run the drive cleaner repeatedly while log free space is below the
    threshold and progress is being made (models the cleaner waking
    under space pressure). No-op for non-S4 systems. *)
