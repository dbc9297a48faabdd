(* Tests for mirrored self-securing drives and the snapshot-vs-
   versioning analysis. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Rpc = S4.Rpc
module Mirror = S4_multi.Mirror
module Snapshots = S4_analysis.Snapshots

let check = Alcotest.check

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let mk_mirror ?(mb = 64) () =
  let clock = Simclock.create () in
  let mk () = Drive.format (Sim_disk.create ~geometry:(geom mb) clock) in
  let primary = mk () in
  let secondary = mk () in
  (clock, Mirror.create primary secondary)

let alice = Rpc.user_cred ~user:1 ~client:1
let tick clock = Simclock.advance clock 1_000_000L

let expect_oid = function
  | Rpc.R_oid oid -> oid
  | r -> Alcotest.failf "expected oid, got %a" Rpc.pp_resp r

let expect_unit = function
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "expected unit, got %a" Rpc.pp_resp r

let handle m cred req = (Mirror.submit m cred [| req |]).(0)

let read_str ?at m oid =
  match handle m alice (Rpc.Read { oid; off = 0; len = 1 lsl 16; at }) with
  | Rpc.R_data b -> Bytes.to_string b
  | r -> Alcotest.failf "read: %a" Rpc.pp_resp r

let write m oid s =
  expect_unit
    (handle m alice (Rpc.Write { oid; off = 0; len = String.length s; data = Some (Bytes.of_string s) }))

(* --- Mirror ----------------------------------------------------------- *)

let test_mirror_basic () =
  let _, m = mk_mirror () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "mirrored data";
  check Alcotest.string "read" "mirrored data" (read_str m oid);
  check (Alcotest.list Alcotest.string) "replicas agree" [] (Mirror.divergence m);
  (* Both replicas really hold the data. *)
  List.iter
    (fun r ->
      match S4.Backend.handle (Drive.backend (Mirror.drive m r)) alice (Rpc.Read { oid; off = 0; len = 13; at = None }) with
      | Rpc.R_data b -> check Alcotest.string "replica copy" "mirrored data" (Bytes.to_string b)
      | resp -> Alcotest.failf "replica read: %a" Rpc.pp_resp resp)
    [ Mirror.Primary; Mirror.Secondary ]

let test_mirror_identical_oids () =
  let _, m = mk_mirror () in
  let a = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  let b = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  check Alcotest.bool "distinct" true (a <> b);
  check (Alcotest.list Alcotest.string) "agree" [] (Mirror.divergence m)

let test_mirror_secondary_failure_and_resync () =
  let _, m = mk_mirror () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "before failure";
  Mirror.set_failed m Mirror.Secondary true;
  write m oid "during failure!";
  check Alcotest.bool "mutations journalled" true (Mirror.lag m > 0);
  check Alcotest.string "primary serves" "during failure!" (read_str m oid);
  Mirror.set_failed m Mirror.Secondary false;
  (match Mirror.resync m with
   | Ok n -> check Alcotest.bool "replayed" true (n > 0)
   | Error e -> Alcotest.fail e);
  check Alcotest.int "lag cleared" 0 (Mirror.lag m);
  check (Alcotest.list Alcotest.string) "replicas re-converged" [] (Mirror.divergence m)

let test_mirror_primary_failover () =
  let clock, m = mk_mirror () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "v1";
  let t1 = Simclock.now clock in
  tick clock;
  write m oid "v2";
  Mirror.set_failed m Mirror.Primary true;
  (* Reads — including time-based history reads — keep working off the
     secondary, which holds the full history pool too. *)
  check Alcotest.string "current from secondary" "v2" (read_str m oid);
  check Alcotest.string "history from secondary" "v1"
    (match handle m Rpc.admin_cred (Rpc.Read { oid; off = 0; len = 2; at = Some t1 }) with
     | Rpc.R_data b -> Bytes.to_string b
     | r -> Alcotest.failf "history read: %a" Rpc.pp_resp r);
  (* Writes continue; the primary catches up on repair. *)
  write m oid "v3";
  Mirror.set_failed m Mirror.Primary false;
  (match Mirror.resync m with Ok _ -> () | Error e -> Alcotest.fail e);
  check (Alcotest.list Alcotest.string) "converged" [] (Mirror.divergence m)

let test_mirror_create_during_failure_resync () =
  let _, m = mk_mirror () in
  Mirror.set_failed m Mirror.Secondary true;
  (* The journal records the oid the live replica resolved, so the
     replay recreates the object under the same id instead of asking
     the target's allocator for a fresh one. *)
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "born degraded";
  Mirror.set_failed m Mirror.Secondary false;
  (match Mirror.resync m with
   | Ok n -> check Alcotest.bool "create + write replayed" true (n >= 2)
   | Error e -> Alcotest.fail e);
  check (Alcotest.list Alcotest.string) "converged" [] (Mirror.divergence m);
  match
    S4.Backend.handle (Drive.backend (Mirror.drive m Mirror.Secondary)) alice
      (Rpc.Read { oid; off = 0; len = 13; at = None })
  with
  | Rpc.R_data b -> check Alcotest.string "secondary copy under same oid" "born degraded" (Bytes.to_string b)
  | r -> Alcotest.failf "secondary read: %a" Rpc.pp_resp r

let test_mirror_both_failed () =
  let _, m = mk_mirror () in
  Mirror.set_failed m Mirror.Primary true;
  Mirror.set_failed m Mirror.Secondary true;
  (match handle m alice (Rpc.Create { acl = [] }) with
   | Rpc.R_error (Rpc.Bad_request _) -> ()
   | r -> Alcotest.failf "expected failure, got %a" Rpc.pp_resp r);
  match Mirror.resync m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resync with no live replica"

let test_mirror_divergence_detected () =
  let _, m = mk_mirror () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "same";
  (* Corrupt the secondary behind the mirror's back. *)
  let rogue = Drive.store (Mirror.drive m Mirror.Secondary) in
  S4_store.Obj_store.write rogue oid ~off:0 ~data:(Bytes.of_string "DIFF") ~len:4 ();
  check Alcotest.bool "divergence reported" true (Mirror.divergence m <> [])

let test_mirror_parallel_write_cost () =
  (* The mirrored write costs (simulated) time like a single-drive
     write: the secondary overlaps. *)
  let clock, m = mk_mirror () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  let t0 = Simclock.now clock in
  write m oid (String.make 8192 'p');
  expect_unit (handle m alice Rpc.Sync);
  let mirrored = Int64.sub (Simclock.now clock) t0 in
  let clock2 = Simclock.create () in
  let single = Drive.format (Sim_disk.create ~geometry:(geom 64) clock2) in
  let oid2 = expect_oid (S4.Backend.handle (Drive.backend single) alice (Rpc.Create { acl = [] })) in
  let t0 = Simclock.now clock2 in
  expect_unit
    (S4.Backend.handle (Drive.backend single) alice (Rpc.Write { oid = oid2; off = 0; len = 8192; data = Some (Bytes.make 8192 'p') }));
  expect_unit (S4.Backend.handle (Drive.backend single) alice Rpc.Sync);
  let solo = Int64.sub (Simclock.now clock2) t0 in
  (* Within 2.5x: the mirror pays double CPU but not double disk. *)
  check Alcotest.bool "no double disk charge" true
    (Int64.to_float mirrored < 2.5 *. Int64.to_float solo)

(* --- Balanced read routing --------------------------------------------- *)

module Fault = S4_disk.Fault
module Rng = S4_util.Rng
module Store = S4_store.Obj_store
module Audit = S4.Audit

let mk_balanced ?mb () =
  let clock, m = mk_mirror ?mb () in
  Mirror.set_read_policy m Mirror.Balanced;
  (clock, m)

let test_balanced_alternates () =
  let _, m = mk_balanced () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "either replica";
  for _ = 1 to 4 do
    check Alcotest.string "balanced read" "either replica" (read_str m oid)
  done;
  let p, s = Mirror.read_counts m in
  check Alcotest.int "primary served half" 2 p;
  check Alcotest.int "secondary served half" 2 s

let test_balanced_freshness_mid_resync () =
  (* While the missed-op journal is non-empty, a read that a journalled
     mutation could change must route to the authoritative replica;
     reads the journal cannot affect keep balancing. *)
  let _, m = mk_balanced () in
  let stable = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m stable "stable";
  let fresh = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m fresh "fresh-v1";
  Mirror.set_failed m Mirror.Secondary true;
  write m fresh "fresh-v2";
  (* Replica repaired but NOT yet resynced: both live, journal pending. *)
  Mirror.set_failed m Mirror.Secondary false;
  check Alcotest.bool "journal pending" true (Mirror.lag m > 0);
  let _, s0 = Mirror.read_counts m in
  for _ = 1 to 3 do
    check Alcotest.string "stale oid served fresh" "fresh-v2" (read_str m fresh)
  done;
  let _, s1 = Mirror.read_counts m in
  check Alcotest.int "journalled oid never hits the lagging replica" s0 s1;
  (* An oid the journal does not touch still balances. *)
  check Alcotest.string "untouched oid" "stable" (read_str m stable);
  check Alcotest.string "untouched oid" "stable" (read_str m stable);
  let _, s2 = Mirror.read_counts m in
  check Alcotest.bool "untouched oid reached the lagging replica" true (s2 > s1);
  (* After resync the stale oid balances again — and serves v2 from
     both replicas. *)
  (match Mirror.resync m with Ok n -> check Alcotest.bool "replayed" true (n > 0) | Error e -> Alcotest.fail e);
  let _, s3 = Mirror.read_counts m in
  check Alcotest.string "post-resync" "fresh-v2" (read_str m fresh);
  check Alcotest.string "post-resync" "fresh-v2" (read_str m fresh);
  let _, s4 = Mirror.read_counts m in
  check Alcotest.bool "stale oid balances after resync" true (s4 > s3)

let test_balanced_read_born_degraded () =
  (* An object created while a replica was down exists only on the
     authoritative copy until resync; the freshness rule must keep
     every balanced read on that copy (a misroute would Not_found). *)
  let _, m = mk_balanced () in
  Mirror.set_failed m Mirror.Secondary true;
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "born degraded";
  Mirror.set_failed m Mirror.Secondary false;
  for _ = 1 to 4 do
    check Alcotest.string "mid-resync read" "born degraded" (read_str m oid)
  done;
  let _, s = Mirror.read_counts m in
  check Alcotest.int "secondary never asked for an object it lacks" 0 s;
  (match Mirror.resync m with Ok _ -> () | Error e -> Alcotest.fail e);
  check (Alcotest.list Alcotest.string) "converged" [] (Mirror.divergence m)

let test_balanced_read_fault_failover () =
  (* A permanent media fault on the replica serving a balanced read
     fails it over and the read is answered by the survivor. *)
  let _, m = mk_balanced () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "survives faults";
  expect_unit (handle m alice Rpc.Sync);
  let sdisk = S4_seglog.Log.disk (Drive.log (Mirror.drive m Mirror.Secondary)) in
  let policy =
    Fault.create ~config:{ Fault.quiet with Fault.read_fault_rate = 1.0 } (Rng.create ~seed:11)
  in
  Sim_disk.set_fault sdisk (Some policy);
  (* Cold caches so reads actually touch the media. *)
  List.iter
    (fun r -> Store.drop_caches (Drive.store (Mirror.drive m r)))
    [ Mirror.Primary; Mirror.Secondary ];
  (* First read hits the primary, second is routed to the faulty
     secondary — and must still come back with the data. *)
  check Alcotest.string "read 1" "survives faults" (read_str m oid);
  check Alcotest.string "read across the fault" "survives faults" (read_str m oid);
  check Alcotest.bool "faulty replica failed over" true (Mirror.is_failed m Mirror.Secondary);
  Sim_disk.set_fault sdisk None;
  (* Reads keep flowing from the survivor while degraded. *)
  check Alcotest.string "degraded read" "survives faults" (read_str m oid);
  Mirror.set_failed m Mirror.Secondary false;
  (match Mirror.resync m with Ok _ -> () | Error e -> Alcotest.fail e);
  check (Alcotest.list Alcotest.string) "converged after repair" [] (Mirror.divergence m)

let test_balanced_audit_reads_authoritative () =
  (* Audit-trail reads never balance — Read_audit is served by the
     authoritative replica — but since each replica audits only the
     reads it itself served, the answer merges the peer's read-class
     records so the forensic trail covers BOTH halves of the split. *)
  let _, m = mk_balanced () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "audited";
  ignore (read_str m oid);
  ignore (read_str m oid);
  let p0, s0 = Mirror.read_counts m in
  (match handle m Rpc.admin_cred (Rpc.Read_audit { since = 0L; until = Int64.max_int }) with
  | Rpc.R_audit rs ->
    check Alcotest.bool "audit non-empty" true (rs <> []);
    (* Both balanced reads appear, even though one was served by the
       secondary and only mutations replicate to both audit logs. *)
    let reads =
      List.length (List.filter (fun r -> r.Audit.op = "read" && r.Audit.oid = oid) rs)
    in
    check Alcotest.int "merged trail holds every balanced read" 2 reads;
    (* Mutations are audited on both replicas; the merge must not
       double-count them. *)
    let writes =
      List.length (List.filter (fun r -> r.Audit.op = "write" && r.Audit.oid = oid) rs)
    in
    check Alcotest.int "mutations not double-counted" 1 writes;
    check Alcotest.bool "timestamps ordered" true
      (let rec sorted = function
         | a :: (b :: _ as tl) -> a.Audit.at <= b.Audit.at && sorted tl
         | _ -> true
       in
       sorted rs)
  | r -> Alcotest.failf "read_audit: %a" Rpc.pp_resp r);
  let p1, s1 = Mirror.read_counts m in
  check Alcotest.int "audit read went to the primary" (p0 + 1) p1;
  check Alcotest.int "audit read skipped the secondary" s0 s1

let test_balanced_failover_never_serves_stale () =
  (* A read that fails over from a faulted replica must re-check the
     freshness rule against the survivor: if the survivor is the
     lagging replica and the journal touches the oid, answering would
     silently serve pre-failure data. The mirror returns the fault's
     error instead. *)
  let _, m = mk_balanced () in
  let oid = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  let stable = expect_oid (handle m alice (Rpc.Create { acl = [] })) in
  write m oid "v1";
  write m stable "steady";
  expect_unit (handle m alice Rpc.Sync);
  (* Secondary misses the v2 write: it is now the lagging replica. *)
  Mirror.set_failed m Mirror.Secondary true;
  write m oid "v2";
  Mirror.set_failed m Mirror.Secondary false;
  (* Fault the authoritative primary's media and cool the caches so
     reads really touch the disk. *)
  let pdisk = S4_seglog.Log.disk (Drive.log (Mirror.drive m Mirror.Primary)) in
  let policy =
    Fault.create ~config:{ Fault.quiet with Fault.read_fault_rate = 1.0 } (Rng.create ~seed:7)
  in
  Sim_disk.set_fault pdisk (Some policy);
  List.iter
    (fun r -> Store.drop_caches (Drive.store (Mirror.drive m r)))
    [ Mirror.Primary; Mirror.Secondary ];
  (* The journalled oid routes to the primary (freshness rule), the
     fault fails it over — and the survivor is stale for this oid, so
     the read must error rather than answer "v1". *)
  (match handle m alice (Rpc.Read { oid; off = 0; len = 2; at = None }) with
  | Rpc.R_error _ -> ()
  | Rpc.R_data b -> Alcotest.failf "stale data served after failover: %s" (Bytes.to_string b)
  | r -> Alcotest.failf "failover read: %a" Rpc.pp_resp r);
  check Alcotest.bool "faulty primary failed over" true (Mirror.is_failed m Mirror.Primary);
  (* While degraded, the same oid keeps erroring (sole live replica
     lags on it)... *)
  (match handle m alice (Rpc.Read { oid; off = 0; len = 2; at = None }) with
  | Rpc.R_error _ -> ()
  | r -> Alcotest.failf "degraded stale read: %a" Rpc.pp_resp r);
  (* ...but an oid the journal does not touch still serves. *)
  check Alcotest.string "untouched oid serves from survivor" "steady" (read_str m stable)

(* --- Snapshots analysis ------------------------------------------------- *)

let test_capture_probability () =
  check (Alcotest.float 1e-9) "short file rarely seen" 0.01
    (Snapshots.capture_probability ~period_s:100.0 ~lifetime_s:1.0);
  check (Alcotest.float 1e-9) "long file always seen" 1.0
    (Snapshots.capture_probability ~period_s:100.0 ~lifetime_s:1000.0)

let test_simulation_matches_model () =
  let r = Snapshots.simulate ~period_s:600.0 ~mean_lifetime_s:600.0 () in
  (* Exponential lifetimes, p = mean: capture = E[min(1, L/p)]
     = 1 - (1 - e^-1) * ... ~ 0.63 analytically; allow slack. *)
  check Alcotest.bool "files captured ~0.55-0.72" true
    (r.Snapshots.files_captured > 0.55 && r.Snapshots.files_captured < 0.72)

let test_snapshots_lose_short_lived_files () =
  let hourly = Snapshots.simulate ~period_s:3600.0 () in
  check Alcotest.bool "hourly snapshots miss most exploit tools" true
    (hourly.Snapshots.short_lived_captured < 0.25);
  check Alcotest.bool "and most intermediate versions" true
    (hourly.Snapshots.versions_captured < 0.5);
  check (Alcotest.float 0.0) "comprehensive versioning misses nothing" 1.0
    Snapshots.comprehensive.Snapshots.files_captured

let test_shrinking_period_approaches_versioning () =
  let p60 = Snapshots.simulate ~period_s:60.0 () in
  let p600 = Snapshots.simulate ~period_s:600.0 () in
  let p6000 = Snapshots.simulate ~period_s:6000.0 () in
  check Alcotest.bool "monotone in period" true
    (p60.Snapshots.files_captured > p600.Snapshots.files_captured
    && p600.Snapshots.files_captured > p6000.Snapshots.files_captured);
  check Alcotest.bool "1-minute snapshots still imperfect" true
    (p60.Snapshots.versions_captured < 1.0)

let () =
  Alcotest.run "s4_multi"
    [
      ( "mirror",
        [
          Alcotest.test_case "basic" `Quick test_mirror_basic;
          Alcotest.test_case "identical oids" `Quick test_mirror_identical_oids;
          Alcotest.test_case "secondary failure + resync" `Quick test_mirror_secondary_failure_and_resync;
          Alcotest.test_case "create during failure + resync" `Quick
            test_mirror_create_during_failure_resync;
          Alcotest.test_case "primary failover" `Quick test_mirror_primary_failover;
          Alcotest.test_case "both failed" `Quick test_mirror_both_failed;
          Alcotest.test_case "divergence detected" `Quick test_mirror_divergence_detected;
          Alcotest.test_case "parallel write cost" `Quick test_mirror_parallel_write_cost;
        ] );
      ( "balanced reads",
        [
          Alcotest.test_case "reads alternate across replicas" `Quick test_balanced_alternates;
          Alcotest.test_case "freshness rule mid-resync" `Quick
            test_balanced_freshness_mid_resync;
          Alcotest.test_case "object born degraded" `Quick test_balanced_read_born_degraded;
          Alcotest.test_case "read fault fails over" `Quick test_balanced_read_fault_failover;
          Alcotest.test_case "audit reads stay authoritative" `Quick
            test_balanced_audit_reads_authoritative;
          Alcotest.test_case "failover never serves stale" `Quick
            test_balanced_failover_never_serves_stale;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "capture probability" `Quick test_capture_probability;
          Alcotest.test_case "simulation vs model" `Quick test_simulation_matches_model;
          Alcotest.test_case "short-lived files lost" `Quick test_snapshots_lose_short_lived_files;
          Alcotest.test_case "period shrinks to versioning" `Quick test_shrinking_period_approaches_versioning;
        ] );
    ]
