(* Crash-consistency and fault-injection tests: the Fault policy
   layer, drive-level retry/degraded mode, log recovery under crashes
   at every write boundary, the crash-recovery harness, and the mirror
   resync partial-failure paths. *)

module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Fault = S4_disk.Fault
module Tag = S4_seglog.Tag
module Jblock = S4_seglog.Jblock
module Log = S4_seglog.Log
module Drive = S4.Drive
module Rpc = S4.Rpc
module Throttle = S4.Throttle
module Crashtest = S4_tools.Crashtest

let check = Alcotest.check
let handle d = S4.Backend.handle (Drive.backend d)
let small_geom = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(16 * 1024 * 1024)

let mk_disk () =
  let clock = Simclock.create () in
  Sim_disk.create ~geometry:small_geom clock

let admin = Rpc.admin_cred

let jb ~time =
  Jblock.encode ~block_size:4096 ~prev:(-1)
    [ { Jblock.oid = 1L; seq = 1; time = Int64.of_int time; kind = 0; payload = Bytes.empty } ]

let jtimes log =
  Log.journal_blocks log
  |> List.concat_map (fun (_, _, entries) ->
         List.map (fun e -> Int64.to_int e.Jblock.time) entries)

(* --- Fault policy + drive-level handling ----------------------------- *)

let expect_oid = function
  | Rpc.R_oid oid -> oid
  | r -> Alcotest.failf "expected oid, got %a" Rpc.pp_resp r

let expect_unit = function
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "expected unit, got %a" Rpc.pp_resp r

let mk_drive () =
  let disk = mk_disk () in
  (disk, Drive.format disk)

let write_req oid s =
  Rpc.Write { oid; off = 0; len = String.length s; data = Some (Bytes.of_string s) }

let test_scheduled_crash () =
  let disk = mk_disk () in
  let pol = Fault.create (Rng.create ~seed:3) in
  Sim_disk.set_fault disk (Some pol);
  Fault.schedule_crash pol ~after_writes:3;
  let data = Bytes.make 512 'x' in
  Sim_disk.write disk ~data ~lba:0 ~sectors:1 ();
  Sim_disk.write disk ~data ~lba:1 ~sectors:1 ();
  (try
     Sim_disk.write disk ~data ~lba:2 ~sectors:1 ();
     Alcotest.fail "third write should crash"
   with Fault.Crashed -> ());
  check Alcotest.bool "crashed" true (Fault.crashed pol);
  (* the device stays dead until the policy is detached *)
  (try
     Sim_disk.read disk ~lba:0 ~sectors:1;
     Alcotest.fail "post-crash read should raise"
   with Fault.Crashed -> ());
  Sim_disk.set_fault disk None;
  Sim_disk.read disk ~lba:0 ~sectors:1

let test_drive_retries_transient () =
  let disk, d = mk_drive () in
  let pol = Fault.create (Rng.create ~seed:1) in
  Sim_disk.set_fault disk (Some pol);
  let oid = expect_oid (handle d admin (Rpc.Create { acl = [] })) in
  expect_unit (handle d admin (write_req oid "survives transient faults"));
  Fault.fail_next pol ~writes:2 ~transient:true;
  expect_unit (handle d admin Rpc.Sync);
  check Alcotest.bool "retried" true ((Log.stats (Drive.log d)).Log.io_retries >= 2);
  check Alcotest.int "no io errors" 0 (Drive.io_errors d);
  check Alcotest.bool "not degraded" false (Drive.degraded d)

let test_drive_surfaces_permanent () =
  let disk, d = mk_drive () in
  let pol = Fault.create (Rng.create ~seed:2) in
  Sim_disk.set_fault disk (Some pol);
  let oid = expect_oid (handle d admin (Rpc.Create { acl = [] })) in
  expect_unit (handle d admin (write_req oid "at risk"));
  Fault.fail_next pol ~writes:1 ~transient:false;
  (match handle d admin Rpc.Sync with
   | Rpc.R_error (Rpc.Io_error _) -> ()
   | r -> Alcotest.failf "expected Io_error, got %a" Rpc.pp_resp r);
  check Alcotest.bool "degraded" true (Drive.degraded d);
  check Alcotest.int "one io error" 1 (Drive.io_errors d);
  (* The fault was one-shot: the retried sync must resume the flush
     without erasing the blocks that made it to disk before the fault
     (regression: the seed flush restarted from scratch and stored
     empty contents over already-flushed slots). *)
  expect_unit (handle d admin Rpc.Sync);
  (match handle d admin (Rpc.Read { oid; off = 0; len = 7; at = None }) with
   | Rpc.R_data b -> check Alcotest.string "data intact" "at risk" (Bytes.to_string b)
   | r -> Alcotest.failf "read: %a" Rpc.pp_resp r)

let test_torn_and_corrupt_rejected () =
  (* With every multi-sector write torn, flushed journal blocks fail
     their CRC on recovery: torn writes are detected, not trusted. *)
  let torn_disk = mk_disk () in
  let torn = Fault.create ~config:{ Fault.quiet with torn_write_rate = 1.0 } (Rng.create ~seed:4) in
  let log = Log.create torn_disk in
  Sim_disk.set_fault torn_disk (Some torn);
  ignore (Log.append log Tag.Journal ~data:(jb ~time:10) ());
  Log.sync log;
  Sim_disk.set_fault torn_disk None;
  check (Alcotest.list Alcotest.int) "torn block rejected" [] (jtimes (Log.reattach torn_disk));
  check Alcotest.bool "torn counted" true ((Fault.stats torn).Fault.torn_writes >= 1);
  (* Same for a silently flipped bit. *)
  let cor_disk = mk_disk () in
  let cor = Fault.create ~config:{ Fault.quiet with corrupt_rate = 1.0 } (Rng.create ~seed:5) in
  let log = Log.create cor_disk in
  Sim_disk.set_fault cor_disk (Some cor);
  ignore (Log.append log Tag.Journal ~data:(jb ~time:20) ());
  Log.sync log;
  Sim_disk.set_fault cor_disk None;
  check (Alcotest.list Alcotest.int) "corrupt block rejected" [] (jtimes (Log.reattach cor_disk));
  check Alcotest.bool "corruption counted" true ((Fault.stats cor).Fault.corruptions >= 1)

(* --- Log recovery ----------------------------------------------------- *)

(* Regression: the seed assigned crashed-open segments synthetic
   epochs by physical index. Two crashed segments where the lower
   index holds the NEWER data (segment reuse after cleaning) came back
   in the wrong order. *)
let poke_jb disk ~seg ~slot ~time =
  (* default log layout: 128 blocks/segment, one reserved segment,
     8 sectors/block *)
  let addr = 128 + (seg * 128) + slot in
  Sim_disk.poke disk ~lba:(addr * 8) ~data:(jb ~time)

let test_reattach_crashed_segments_in_write_order () =
  let disk = mk_disk () in
  (* Segment 1 was written first; segment 0 was reclaimed and reused
     later, so it holds the newest entries. Neither summary made it to
     disk. *)
  List.iteri (fun i time -> poke_jb disk ~seg:1 ~slot:i ~time) [ 1000; 1010; 1020 ];
  List.iteri (fun i time -> poke_jb disk ~seg:0 ~slot:i ~time) [ 3000; 3010; 3020 ];
  let log = Log.reattach disk in
  check (Alcotest.list Alcotest.int) "journal in write order"
    [ 1000; 1010; 1020; 3000; 3010; 3020 ]
    (jtimes log)

let test_reattach_epoch_counter_advances_past_crashed () =
  let disk = mk_disk () in
  List.iteri (fun i time -> poke_jb disk ~seg:0 ~slot:i ~time) [ 1000; 1010; 1020 ];
  let log = Log.reattach disk in
  (* Post-recovery appends must sort AFTER the crashed segment's
     entries (regression: the fresh segment's epoch restarted below
     the crashed segments' synthetic max_int epochs). *)
  ignore (Log.append log Tag.Journal ~data:(jb ~time:5000) ());
  Log.sync log;
  check (Alcotest.list Alcotest.int) "new appends sort last" [ 1000; 1010; 1020; 5000 ]
    (jtimes log);
  let epochs =
    Log.segments log |> Array.to_list
    |> List.filter (fun s -> s.Log.seg_state <> Log.Free)
    |> List.map (fun s -> s.Log.seg_epoch)
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  check Alcotest.bool "epochs distinct and ordered" true
    (strictly_increasing (List.sort compare epochs) && List.length epochs = 2)

(* Property: crash the log at EVERY write boundary of a small workload
   and recover. The recovered journal must be a prefix of the append
   order and must include everything covered by the last completed
   sync. *)
let test_log_crash_every_boundary () =
  let appends = 36 in
  let workload log ~on_append ~on_sync =
    for i = 0 to appends - 1 do
      let time = (i + 1) * 10 in
      ignore (Log.append log Tag.Journal ~data:(jb ~time) ());
      on_append time;
      if i mod 3 = 2 then begin
        Log.sync log;
        on_sync ()
      end
    done
  in
  let dry_disk = mk_disk () in
  let dry_log = Log.create dry_disk in
  let base = (Sim_disk.stats dry_disk).Sim_disk.writes in
  workload dry_log ~on_append:(fun _ -> ()) ~on_sync:(fun () -> ());
  let span = (Sim_disk.stats dry_disk).Sim_disk.writes - base in
  check Alcotest.bool "workload writes" true (span >= appends);
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
    | _ :: _, [] -> false
  in
  for k = 1 to span do
    let disk = mk_disk () in
    let log = Log.create disk in
    let pol = Fault.create (Rng.create ~seed:k) in
    Sim_disk.set_fault disk (Some pol);
    Fault.schedule_crash pol ~after_writes:k;
    let appended = ref [] in
    let synced = ref 0 in
    (try
       workload log
         ~on_append:(fun time -> appended := time :: !appended)
         ~on_sync:(fun () -> synced := List.length !appended)
     with Fault.Crashed -> ());
    Sim_disk.set_fault disk None;
    let got = jtimes (Log.reattach disk) in
    if not (is_prefix got (List.rev !appended)) then
      Alcotest.failf "crash@%d: recovered journal is not a prefix of the append order" k;
    if List.length got < !synced then
      Alcotest.failf "crash@%d: synced blocks lost (%d recovered < %d synced)" k
        (List.length got) !synced
  done

(* --- Crash-recovery harness ------------------------------------------ *)

let fail_first what = function
  | [] -> ()
  | r :: _ as failed ->
    Alcotest.failf "%s: %d crash points violated invariants; first: %a" what (List.length failed)
      Crashtest.pp_report r

let test_crash_harness_sweeps () =
  (* Every crash point of one workload, plus randomized (seed, crash
     point) pairs: at least 100 distinct crash-recovery cycles. *)
  let boundary = Crashtest.boundary_sweep ~seed:42 () in
  let runs = max 40 (105 - List.length boundary) in
  let random = Crashtest.sweep ~seed:7 ~runs () in
  let all = boundary @ random in
  check Alcotest.bool "at least 100 crash points" true (List.length all >= 100);
  check Alcotest.bool "every run crashed" true
    (List.for_all (fun r -> r.Crashtest.crashed) all);
  check Alcotest.bool "window-survival exercised" true
    (List.exists (fun r -> r.Crashtest.snapshots > 0) all);
  check Alcotest.bool "audit continuity exercised" true
    (List.exists (fun r -> r.Crashtest.audit_checked > 0) all);
  fail_first "sweep" (Crashtest.failed_reports all)

let test_crash_harness_no_crash_control () =
  (* Control: with the crash disabled the workload's own in-flight
     read checks must pass. *)
  let r = Crashtest.run ~seed:42 ~crash_after:0 () in
  check Alcotest.bool "did not crash" false r.Crashtest.crashed;
  check (Alcotest.list Alcotest.string) "no violations" [] r.Crashtest.violations

(* --- Sharded array: crash mid-rebalance ------------------------------ *)

let test_rebalance_crash_no_crash_control () =
  (* Control: with the crash disabled, the migration drains fully and
     the workload's own in-flight checks pass. *)
  let r = Crashtest.rebalance_run ~seed:19 ~crash_after:0 () in
  check Alcotest.bool "did not crash" false r.Crashtest.crashed;
  check (Alcotest.list Alcotest.string) "no violations" [] r.Crashtest.violations

let test_rebalance_crash_boundaries () =
  (* Crash the array at the first and last write the migration issues
     on the new drive — the two extreme recovery states (nothing
     durable on the new shard vs. cutover nearly complete). *)
  let seed = 19 in
  let span = Crashtest.rebalance_writes ~seed () in
  check Alcotest.bool "migration writes the new drive" true (span > 0);
  List.iter
    (fun crash_after ->
      let r = Crashtest.rebalance_run ~seed ~crash_after () in
      check Alcotest.bool "crashed" true r.Crashtest.crashed;
      check Alcotest.bool "window survival exercised" true (r.Crashtest.snapshots > 0);
      if r.Crashtest.violations <> [] then
        Alcotest.failf "rebalance crash@%d: %a" crash_after Crashtest.pp_report r)
    [ 1; span ]

let test_rebalance_crash_sweep () =
  let rs = Crashtest.rebalance_sweep ~seed:31 ~runs:6 () in
  check Alcotest.bool "every run crashed" true
    (List.for_all (fun r -> r.Crashtest.crashed) rs);
  check Alcotest.bool "window-survival exercised" true
    (List.exists (fun r -> r.Crashtest.snapshots > 0) rs);
  fail_first "rebalance sweep" (Crashtest.failed_reports rs)

(* --- Mirror resync under partial failure ----------------------------- *)

let test_resync_partial_failure_regression () =
  (* The secondary's first disk write during replay fails permanently,
     aborting the resync partway. Retrying must converge: the seed
     code replayed the already-applied prefix again (double-applying
     the Appends) and diverged the replicas. *)
  let r = Crashtest.resync_run ~seed:5 ~fail_writes:1 () in
  check Alcotest.bool "first resync failed" true r.Crashtest.first_error;
  check Alcotest.bool "needed more than one attempt" true (r.Crashtest.attempts > 1);
  check (Alcotest.list Alcotest.string) "converged with no divergence" []
    r.Crashtest.r_violations

let test_resync_sweep () =
  let rs = Crashtest.resync_sweep ~seed:11 ~runs:12 () in
  List.iter
    (fun r ->
      if r.Crashtest.r_violations <> [] then
        Alcotest.failf "resync seed=%d fail_writes=%d: %s" r.Crashtest.r_seed
          r.Crashtest.fail_writes
          (String.concat "; " r.Crashtest.r_violations))
    rs;
  check Alcotest.bool "failure path exercised" true
    (List.exists (fun r -> r.Crashtest.first_error) rs)

(* --- Trace checker over crash-recovery ------------------------------- *)

module Trace = S4_obs.Trace

let test_trace_checker_crash_recovery () =
  (* The span tracer stays on across crash, recovery and verification;
     the crashtest report then folds Check.run violations (prefixed
     "trace:") into its own invariant list. *)
  Trace.clear ();
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      let r = Crashtest.run ~seed:42 ~crash_after:5 () in
      check Alcotest.bool "scenario crashed" true r.Crashtest.crashed;
      check Alcotest.bool "spans recorded" true (Trace.count () > 0);
      check (Alcotest.list Alcotest.string) "no violations (incl. trace checker)" []
        r.Crashtest.violations);
  Trace.clear ()

(* --- Throttle fixes ---------------------------------------------------- *)

let test_throttle_zero_penalty_at_threshold () =
  let clock = Simclock.create () in
  let th = Throttle.create clock in
  Throttle.note_write th ~client:1 ~bytes:1_000_000;
  Throttle.set_pool_pressure th 0.8 (* exactly default pressure_threshold *);
  check Alcotest.bool "throttled" true (Throttle.is_throttled th ~client:1);
  check Alcotest.int64 "no penalty exactly at threshold" 0L (Throttle.penalty th ~client:1);
  Throttle.set_pool_pressure th 1.0;
  check Alcotest.bool "full pressure penalises" true
    (Int64.compare (Throttle.penalty th ~client:1) 0L > 0)

let test_throttle_prunes_decayed_counters () =
  let clock = Simclock.create () in
  let th = Throttle.create clock in
  for c = 1 to 1500 do
    Throttle.note_write th ~client:c ~bytes:4096
  done;
  check Alcotest.bool "tracks active clients" true (Throttle.tracked_clients th >= 1500);
  (* 100 half-lives: every counter decays to nothing. *)
  Simclock.advance clock (Int64.mul 100L 10_000_000_000L);
  for _ = 1 to 1100 do
    Throttle.note_write th ~client:9999 ~bytes:4096
  done;
  check Alcotest.bool "decayed counters pruned" true (Throttle.tracked_clients th <= 2)

let () =
  Alcotest.run "s4_crash"
    [
      ( "fault",
        [
          Alcotest.test_case "scheduled crash" `Quick test_scheduled_crash;
          Alcotest.test_case "transient faults retried" `Quick test_drive_retries_transient;
          Alcotest.test_case "permanent faults surfaced" `Quick test_drive_surfaces_permanent;
          Alcotest.test_case "torn + corrupt rejected" `Quick test_torn_and_corrupt_rejected;
        ] );
      ( "log-recovery",
        [
          Alcotest.test_case "crashed segments in write order" `Quick
            test_reattach_crashed_segments_in_write_order;
          Alcotest.test_case "epoch counter advances past crashed" `Quick
            test_reattach_epoch_counter_advances_past_crashed;
          Alcotest.test_case "crash at every write boundary" `Quick
            test_log_crash_every_boundary;
        ] );
      ( "crash-harness",
        [
          Alcotest.test_case "100+ randomized crash points" `Quick test_crash_harness_sweeps;
          Alcotest.test_case "no-crash control" `Quick test_crash_harness_no_crash_control;
          Alcotest.test_case "trace checker over crash recovery" `Quick
            test_trace_checker_crash_recovery;
        ] );
      ( "rebalance-crash",
        [
          Alcotest.test_case "no-crash control" `Quick test_rebalance_crash_no_crash_control;
          Alcotest.test_case "first and last write boundaries" `Quick
            test_rebalance_crash_boundaries;
          Alcotest.test_case "randomized crash points" `Quick test_rebalance_crash_sweep;
        ] );
      ( "mirror-resync",
        [
          Alcotest.test_case "partial failure regression" `Quick
            test_resync_partial_failure_regression;
          Alcotest.test_case "randomized partial failures" `Quick test_resync_sweep;
        ] );
      ( "throttle",
        [
          Alcotest.test_case "zero penalty at threshold" `Quick
            test_throttle_zero_penalty_at_threshold;
          Alcotest.test_case "prunes decayed counters" `Quick
            test_throttle_prunes_decayed_counters;
        ] );
    ]
