(* One pass of a workload: a freshly assembled stack, a fixed
   seed-derived input, every call into the stack bracketed on both
   clocks, every response checked. *)

module Simclock = S4_util.Simclock
module Trace = S4_obs.Trace
module Sim_disk = S4_disk.Sim_disk
module Log = S4_seglog.Log
module Store = S4_store.Obj_store
module Cleaner = S4_store.Cleaner
module Drive = S4.Drive
module Audit = S4.Audit
module Chain = S4_integrity.Chain

type kind = Op | Cleaner | History_read | Restore

type bracket = {
  kind : kind;
  w0 : int64;  (** host ns *)
  w1 : int64;
  s0 : int64;  (** simulated ns *)
  s1 : int64;
  sp0 : int;  (** {!Wallspan} index range recorded inside *)
  sp1 : int;
  tr0 : int;  (** [Obs.Trace] index range recorded inside; empty untraced *)
  tr1 : int;
}

type t = {
  clock : Simclock.t;
  mutable brackets : bracket list;  (* newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;  (* newest first *)
}

let create clock = { clock; brackets = []; attempted = 0; failed = 0; violations = [] }
let trace_count () = if Trace.on () then Trace.count () else 0

let measure t kind f =
  let sp0 = Wallspan.count () and tr0 = trace_count () in
  let s0 = Simclock.now t.clock in
  let w0 = Wallspan.now () in
  let v = f () in
  let w1 = Wallspan.now () in
  let s1 = Simclock.now t.clock in
  t.brackets <-
    { kind; w0; w1; s0; s1; sp0; sp1 = Wallspan.count (); tr0; tr1 = trace_count () }
    :: t.brackets;
  v

let violation t msg =
  if List.length t.violations < 20 then t.violations <- msg :: t.violations

(* One checked response: counted against [attempted], and against
   [failed] with a message when wrong. *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    violation t what
  end

(* Device-side checks every workload ends with: the audit hash chain
   re-verifies and the cross-layer fsck is clean. *)
let check_drives t drives =
  List.iteri
    (fun i d ->
      let v = Audit.verify (Drive.audit d) in
      if not (Chain.clean v) then
        violation t
          (Printf.sprintf "drive %d: audit chain: %s" i (String.concat "; " v.Chain.v_errors));
      List.iter
        (fun issue -> violation t (Printf.sprintf "drive %d: fsck: %s" i issue))
        (Drive.fsck d))
    drives

let check_trace t ?audit ?complete () =
  let r = S4_obs.Check.run ?audit ?complete (Trace.spans ()) in
  List.iter (fun v -> violation t ("trace check: " ^ v)) r.S4_obs.Check.violations

let audit_view drive =
  List.map
    (fun (r : Audit.record) ->
      { S4_obs.Check.a_at = r.Audit.at; a_op = r.Audit.op; a_oid = r.Audit.oid; a_ok = r.Audit.ok })
    (Audit.records (Drive.audit drive) ())

(* Traced passes record the whole stack from before it is assembled,
   so every audit record has its span. *)
let with_tracing traced f =
  if not traced then f ()
  else begin
    Trace.clear ();
    Trace.enable ();
    Fun.protect ~finally:Trace.disable f
  end

(* Cumulative device-side counters, summed over the given drives. *)
let drive_counters drives =
  let sum f = float_of_int (List.fold_left (fun acc d -> acc + f d) 0 drives) in
  let st d = Store.stats (Drive.store d) and ls d = Log.stats (Drive.log d) in
  let ds d = Sim_disk.stats (Log.disk (Drive.log d)) in
  let cl d = Cleaner.totals (Drive.cleaner d) in
  [
    ("drive.ops", sum Drive.ops_handled);
    ("drive.io_errors", sum Drive.io_errors);
    ("audit.records", sum (fun d -> Audit.chained (Drive.audit d)));
    ("store.journal_bytes", sum (fun d -> (st d).Store.journal_bytes));
    ("store.cache_hits", sum (fun d -> fst (Store.cache_stats (Drive.store d))));
    ("store.cache_misses", sum (fun d -> snd (Store.cache_stats (Drive.store d))));
    ("seglog.blocks_flushed", sum (fun d -> (ls d).Log.blocks_flushed));
    ("seglog.flush_ops", sum (fun d -> (ls d).Log.flush_ops));
    ("seglog.blocks_read", sum (fun d -> (ls d).Log.blocks_read));
    ("disk.busy_ns", sum (fun d -> Int64.to_int (ds d).Sim_disk.busy_ns));
    ("disk.seeks", sum (fun d -> (ds d).Sim_disk.seeks));
    ("disk.sequential", sum (fun d -> (ds d).Sim_disk.sequential));
    ("disk.requests", sum (fun d -> (ds d).Sim_disk.reads + (ds d).Sim_disk.writes));
    ("cleaner.expired_entries", sum (fun d -> (cl d).Cleaner.expired_entries));
    ("cleaner.blocks_moved", sum (fun d -> (cl d).Cleaner.blocks_moved));
    ("cleaner.segments_reclaimed", sum (fun d -> (cl d).Cleaner.segments_reclaimed));
  ]

let seals drives = List.fold_left (fun a d -> a + Audit.seal_count (Drive.audit d)) 0 drives

let net_counters () =
  let c name = float_of_int (S4_obs.Metrics.counter name) in
  [
    ("net.bytes", c "net/bytes_out");
    ("net.frames", c "net/frames_out");
    ("net.retries", c "net/retry");
    ("net.decode_rejects", c "net/decode_reject");
  ]

let nfs_counters tr =
  let hits, misses = S4_nfs.Translator.attr_cache_stats tr in
  [
    ("nfs.rpcs", float_of_int (S4_nfs.Translator.rpc_count tr));
    ("nfs.attr_hits", float_of_int hits);
    ("nfs.attr_misses", float_of_int misses);
  ]

let delta before after =
  List.map (fun (k, v) -> (k, v -. Option.value ~default:0.0 (List.assoc_opt k before))) after

(* Bytes the drives occupy on their logs. *)
let occupied_bytes drives =
  List.fold_left
    (fun acc d ->
      let log = Drive.log d in
      acc + (Log.live_blocks log * Log.block_size log))
    0 drives

(* What a workload hands back from one pass. *)
type result = {
  setup_s : float;  (** host seconds to assemble the stack and its initial data *)
  ops : int;  (** client operations acknowledged in the measured phase *)
  meter : t;
  counters : (string * float) list;
      (** measured-phase deltas of the layer counters, plus
          workload-computed figures *)
  sim : (string * float) list;
      (** figures that depend only on the seed; must repeat exactly *)
  n_disks : int;
}
