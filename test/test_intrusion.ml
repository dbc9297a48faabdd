(* The intrusion-campaign suite: seeded attacker scenarios against a
   live system (single drive and sharded array), cross-shard landmark
   marks, and the forensics-to-recovery pipeline — detection from the
   device-side audit trail, damage attribution, rollback to a mark,
   and ground-truth oracles over the whole story. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Rng = S4_util.Rng
module Drive = S4.Drive
module Rpc = S4.Rpc
module Acl = S4.Acl
module N = S4_nfs.Nfs_types
module Translator = S4_nfs.Translator
module Systems = S4_workload.Systems
module Target = S4_tools.Target
module History = S4_tools.History
module Recovery = S4_tools.Recovery
module Diagnosis = S4_tools.Diagnosis
module Landmark = S4_tools.Landmark
module Campaign = S4_tools.Campaign
module Store = S4_store.Obj_store

let check = Alcotest.check
let handle d = S4.Backend.handle (Drive.backend d)
let qtest = Qseed.qtest

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let mk_single ?(mb = 64) () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(geom mb) clock in
  let drive = Drive.format ~config:Systems.content_drive_config disk in
  let tr = Translator.mount (Translator.Local drive) in
  (clock, drive, Target.Drive drive, tr)

let mk_array ?(mb = 48) ?(mirrored = false) ~shards () =
  let s =
    Systems.s4_array
      ~config:
        {
          Systems.Config.content with
          Systems.Config.disk_mb = Some mb;
          mirrored;
        }
      ~shards ()
  in
  let router = Option.get s.Systems.router in
  (s.Systems.clock, Target.Array router, Option.get s.Systems.translator)

let tick clock = Simclock.advance clock 1_000_000L

let write_file tr path s =
  Translator.invalidate_caches tr;
  match Translator.write_file tr path (Bytes.of_string s) with
  | Ok fh -> fh
  | Error e -> Alcotest.failf "write %s: %a" path N.pp_error e

(* --- the full campaign ------------------------------------------------ *)

let assert_clean label o =
  (match Campaign.problems o with
   | [] -> ()
   | ps -> Alcotest.failf "%s: %s" label (String.concat "\n  " ps));
  check Alcotest.bool (label ^ ": all classes detected") true (Campaign.detected o);
  check Alcotest.bool (label ^ ": damage found") true (o.Campaign.o_damage_objects > 0);
  check Alcotest.bool (label ^ ": bytes damaged") true (o.Campaign.o_damage_bytes > 0);
  check Alcotest.bool (label ^ ": denied probes seen") true (o.Campaign.o_denied_probes > 0);
  check Alcotest.bool (label ^ ": rollback did work") true
    (o.Campaign.o_report.Recovery.files_restored > 0
    && o.Campaign.o_report.Recovery.files_removed > 0);
  List.iter
    (fun (cls, lat) ->
      check Alcotest.bool (Printf.sprintf "%s: %s latency sane" label cls) true
        (lat >= 0.0 && lat < 60.0))
    o.Campaign.o_classes

let test_campaign_single_drive () =
  assert_clean "single drive"
    (Campaign.run { Campaign.default with Campaign.trace = true })

(* The acceptance scenario: all five attack classes on a 4-shard
   mirrored array, detected, attributed, and fully rolled back. *)
let test_campaign_mirrored_array () =
  let o =
    Campaign.run
      { Campaign.default with
        Campaign.deployment = Campaign.Array { shards = 4; mirrored = true };
        disk_mb = 32 }
  in
  assert_clean "4-shard mirrored array" o;
  (* The mark covers every member chain: 4 shards x 2 replicas. *)
  check Alcotest.int "mark spans 8 member chains" 8
    (List.length o.Campaign.o_mark.Landmark.m_heads)

let test_campaign_seed_stability () =
  (* Different seed, same guarantees. *)
  assert_clean "seed 7" (Campaign.run { Campaign.default with Campaign.seed = 7 })

(* --- cross-shard marks ------------------------------------------------ *)

let test_mark_roundtrip_single () =
  let clock, drive, target, tr = mk_single () in
  ignore (write_file tr "etc/passwd" "root:x:0:0");
  tick clock;
  let lm = Landmark.of_target target in
  let m =
    match Landmark.mark lm ~name:"clean" with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  check Alcotest.int "one member chain" 1 (List.length m.Landmark.m_heads);
  (match Landmark.mark lm ~name:"clean" with
   | Ok _ -> Alcotest.fail "duplicate mark name accepted"
   | Error _ -> ());
  (* The mark survives re-opening the index, and verifies after more
     (legitimate) history is appended. *)
  tick clock;
  ignore (write_file tr "etc/passwd" "root:x:0:0:again");
  (match handle drive Rpc.admin_cred Rpc.Sync with Rpc.R_unit -> () | _ -> ());
  let lm2 = Landmark.of_target target in
  (match Landmark.find_mark lm2 "clean" with
   | None -> Alcotest.fail "mark lost across handles"
   | Some m2 ->
     check Alcotest.bool "same instant" true (m2.Landmark.m_at = m.Landmark.m_at);
     (match Landmark.verify_since lm2 m2 with
      | Ok () -> ()
      | Error es -> Alcotest.failf "verify_since: %s" (String.concat "; " es)))

let test_mark_array_heads () =
  let clock, target, tr = mk_array ~shards:3 () in
  ignore (write_file tr "a/f" "spread me across shards");
  ignore (write_file tr "b/g" "and me");
  tick clock;
  let lm = Landmark.of_target target in
  let m =
    match Landmark.mark lm ~name:"pre" with Ok m -> m | Error e -> Alcotest.fail e
  in
  check Alcotest.int "one sealed head per shard" 3 (List.length m.Landmark.m_heads);
  ignore (write_file tr "a/f" "post-mark history");
  (match Landmark.verify_since lm m with
   | Ok () -> ()
   | Error es -> Alcotest.failf "verify_since: %s" (String.concat "; " es));
  (* Rolling the array back to the mark restores the pre-mark state. *)
  let rec_ = Recovery.of_target target in
  (match Recovery.restore_tree rec_ ~at:m.Landmark.m_at ~path:"" with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  Translator.invalidate_caches tr;
  (match Translator.read_file tr "a/f" with
   | Ok b -> check Alcotest.string "rolled back" "spread me across shards" (Bytes.to_string b)
   | Error e -> Alcotest.failf "read after rollback: %a" N.pp_error e)

(* Satellite: Landmark.create must fail loudly, not return a handle
   whose every later operation fails obscurely. Poison the partition
   table: register "landmarks" naming an object, then delete it. *)
let test_landmark_create_poisoned_index () =
  let _, drive, target, _ = mk_single () in
  let oid =
    match handle drive Rpc.admin_cred (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | r -> Alcotest.failf "create: %a" Rpc.pp_resp r
  in
  (match handle drive Rpc.admin_cred (Rpc.P_create { name = "landmarks"; oid }) with
   | Rpc.R_unit -> ()
   | r -> Alcotest.failf "pcreate: %a" Rpc.pp_resp r);
  (match handle drive Rpc.admin_cred (Rpc.Delete { oid }) with
   | Rpc.R_unit -> ()
   | r -> Alcotest.failf "delete: %a" Rpc.pp_resp r);
  match Landmark.of_target target with
  | exception Failure m ->
    check Alcotest.bool "diagnostic names the tool" true
      (String.length m >= 16 && String.sub m 0 16 = "Landmark.create:")
  | _ -> Alcotest.fail "Landmark.of_target accepted a dead index object"

(* --- damage reports --------------------------------------------------- *)

(* Satellite: denied requests must appear in the report (they place
   the principal at the object) without inflating the read/write
   counts. *)
let test_denied_ops_reported () =
  let clock, drive, target, _ = mk_single () in
  let secret =
    match
      handle drive Rpc.admin_cred (Rpc.Create { acl = [ Acl.owner_entry ~user:2 ] })
    with
    | Rpc.R_oid oid -> oid
    | r -> Alcotest.failf "create: %a" Rpc.pp_resp r
  in
  tick clock;
  let since = Simclock.now clock in
  tick clock;
  let snoop = Rpc.user_cred ~user:1 ~client:5 in
  (match handle drive snoop (Rpc.Read { oid = secret; off = 0; len = 16; at = None }) with
   | Rpc.R_error Rpc.Permission_denied -> ()
   | r -> Alcotest.failf "read should be denied: %a" Rpc.pp_resp r);
  (match
     handle drive snoop
       (Rpc.Write { oid = secret; off = 0; len = 3; data = Some (Bytes.of_string "led") })
   with
   | Rpc.R_error Rpc.Permission_denied -> ()
   | r -> Alcotest.failf "write should be denied: %a" Rpc.pp_resp r);
  match Diagnosis.damage_report ~client:5 ~since ~until:Int64.max_int target with
  | [ a ] ->
    check Alcotest.bool "right object" true (a.Diagnosis.a_oid = secret);
    check Alcotest.int "two denials" 2 a.Diagnosis.a_denied;
    check Alcotest.int "no reads counted" 0 a.Diagnosis.a_reads;
    check Alcotest.int "no writes counted" 0 a.Diagnosis.a_writes;
    check Alcotest.bool "nothing deleted" false a.Diagnosis.a_deleted
  | report -> Alcotest.failf "expected one activity entry, got %d" (List.length report)

(* --- property: rollback is an exact inverse --------------------------- *)

(* A normalized snapshot of the namespace: path, kind, contents and
   mtime for files, and the ACL with inert (nothing-granting) slots
   dropped — Set_acl cannot shorten a list, so recovery blanks
   attacker-appended slots instead of removing them. *)
type snap_entry = {
  s_path : string;
  s_dir : bool;
  s_data : string;
  s_mtime : int64;
  s_acl : Acl.entry list;
}

let normalize_acl raw =
  List.filter
    (fun (e : Acl.entry) -> e.Acl.perms <> [] || e.Acl.recovery)
    (Acl.decode raw)

let snapshot target =
  let h = History.of_target target in
  let out = ref [] in
  let rec walk prefix fh =
    match History.ls h fh with
    | Error e -> Alcotest.failf "snapshot ls %s: %s" prefix e
    | Ok entries ->
      List.iter
        (fun ((e : N.dirent), (a : N.attr)) ->
          let path = if prefix = "" then e.N.name else prefix ^ "/" ^ e.N.name in
          let acl = normalize_acl (Store.current_acl_raw (Target.store_of target e.N.fh) e.N.fh) in
          match a.N.ftype with
          | N.Fdir ->
            out := { s_path = path; s_dir = true; s_data = ""; s_mtime = 0L; s_acl = acl } :: !out;
            walk path e.N.fh
          | N.Freg | N.Flnk ->
            let data =
              match History.cat h e.N.fh with
              | Ok b -> Bytes.to_string b
              | Error e -> Alcotest.failf "snapshot cat %s: %s" path e
            in
            out :=
              { s_path = path; s_dir = false; s_data = data; s_mtime = a.N.mtime; s_acl = acl }
              :: !out)
        entries
  in
  (match History.resolve h "" with
   | Ok root -> walk "" root
   | Error e -> Alcotest.failf "snapshot resolve root: %s" e);
  List.sort (fun a b -> compare a.s_path b.s_path) !out

let pp_snap s =
  Printf.sprintf "%s%s (%d bytes, %d acl entries)" s.s_path
    (if s.s_dir then "/" else "")
    (String.length s.s_data) (List.length s.s_acl)

let dirs_pool = [| "a"; "a/b"; "c" |]
let files_pool = [| "a/f0"; "a/f1"; "a/b/f2"; "c/f3"; "f4" |]

(* One scripted mutation against the live system, driving every
   namespace-changing surface recovery has to invert: writes,
   deletions (files and directories), creations, and ACL changes. *)
let apply_op clock target tr (kind, (a, b)) =
  tick clock;
  Translator.invalidate_caches tr;
  (match kind mod 6 with
   | 0 | 1 ->
     let p = files_pool.(a mod Array.length files_pool) in
     ignore (Translator.write_file tr p (Bytes.make (1 + (b mod 400)) (Char.chr (97 + (b mod 26)))))
   | 2 ->
     let p = files_pool.(a mod Array.length files_pool) in
     (match Translator.lookup_path tr (Filename.dirname p) with
      | Ok (dir, _) ->
        ignore (Translator.handle tr (N.Remove { dir; name = Filename.basename p }))
      | Error _ -> ())
   | 3 -> ignore (Translator.mkdir_p tr dirs_pool.(a mod Array.length dirs_pool))
   | 4 ->
     (* Remove a whole directory if it is empty at this point. *)
     let p = dirs_pool.(a mod Array.length dirs_pool) in
     (match Translator.lookup_path tr (Filename.dirname p) with
      | Ok (dir, _) ->
        ignore (Translator.handle tr (N.Rmdir { dir; name = Filename.basename p }))
      | Error _ -> ())
   | _ ->
     (* An ACL change through the drive surface. *)
     let p = files_pool.(a mod Array.length files_pool) in
     (match Translator.lookup_path tr p with
      | Ok (fh, _) ->
        ignore
          (S4.Backend.handle (Target.backend target) Rpc.admin_cred
             (Rpc.Set_acl
                { oid = fh; index = b mod 2; entry = Acl.owner_entry ~user:(1 + (a mod 3)) }))
      | Error _ -> ()));
  tick clock

let rollback_roundtrip mk (prefix, suffix) =
  let clock, target, tr = mk () in
  (* A base population so the prefix has something to mutate. *)
  Array.iter (fun d -> ignore (Translator.mkdir_p tr d)) dirs_pool;
  Array.iteri (fun i p -> ignore (write_file tr p (Printf.sprintf "base-%d" i))) files_pool;
  List.iter (apply_op clock target tr) prefix;
  (match Target.barrier target with None -> () | Some e -> Alcotest.failf "barrier: %a" Rpc.pp_error e);
  tick clock;
  let t = Simclock.now clock in
  let want = snapshot target in
  tick clock;
  List.iter (apply_op clock target tr) suffix;
  let rec_ = Recovery.of_target target in
  (match Recovery.restore_tree rec_ ~at:t ~path:"" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "restore_tree: %s" e);
  let got = snapshot target in
  if List.length want <> List.length got then
    Alcotest.failf "namespace differs: %d entries then, %d after rollback\nthen: %s\nafter: %s"
      (List.length want) (List.length got)
      (String.concat ", " (List.map pp_snap want))
      (String.concat ", " (List.map pp_snap got));
  List.iter2
    (fun w g ->
      if w.s_path <> g.s_path then Alcotest.failf "path %s became %s" w.s_path g.s_path;
      if w.s_dir <> g.s_dir then Alcotest.failf "%s changed kind" w.s_path;
      if w.s_data <> g.s_data then
        Alcotest.failf "%s: contents differ after rollback (%d vs %d bytes)" w.s_path
          (String.length w.s_data) (String.length g.s_data);
      if (not w.s_dir) && w.s_mtime <> g.s_mtime then
        Alcotest.failf "%s: mtime %Ld not restored (got %Ld)" w.s_path w.s_mtime g.s_mtime;
      if w.s_acl <> g.s_acl then Alcotest.failf "%s: ACL differs after rollback" w.s_path)
    want got;
  (match Target.fsck target with
   | [] -> true
   | errs -> Alcotest.failf "fsck after rollback: %s" (String.concat "; " errs))

let ops_gen =
  QCheck.(
    pair
      (list_of_size Gen.(1 -- 12) (pair (int_bound 5) (pair small_nat small_nat)))
      (list_of_size Gen.(1 -- 15) (pair (int_bound 5) (pair small_nat small_nat))))

let prop_rollback_roundtrip_drive =
  QCheck.Test.make ~count:10
    ~name:"recovery to t reproduces the namespace at t exactly (single drive)" ops_gen
    (rollback_roundtrip (fun () ->
         let clock, _, target, tr = mk_single ~mb:48 () in
         (clock, target, tr)))

let prop_rollback_roundtrip_array =
  QCheck.Test.make ~count:5
    ~name:"recovery to t reproduces the namespace at t exactly (3-shard array)" ops_gen
    (rollback_roundtrip (fun () -> mk_array ~mb:32 ~shards:3 ()))

(* --- property: attribution is exact ----------------------------------- *)

(* Two principals act on private and shared objects through raw drive
   RPCs; the damage report for each principal must list exactly the
   objects that principal touched, with denied probes kept apart from
   effective operations. *)
let prop_attribution_exact =
  QCheck.Test.make ~count:15
    ~name:"damage_report attributes exactly the principal's object set"
    QCheck.(list_of_size Gen.(1 -- 40) (triple bool (int_bound 2) small_nat))
    (fun script ->
      let clock, drive, target, _ = mk_single ~mb:32 () in
      let mk_obj acl =
        match handle drive Rpc.admin_cred (Rpc.Create { acl }) with
        | Rpc.R_oid oid -> oid
        | r -> Alcotest.failf "create: %a" Rpc.pp_resp r
      in
      let priv_a = mk_obj [ Acl.owner_entry ~user:1 ] in
      let priv_b = mk_obj [ Acl.owner_entry ~user:2 ] in
      let shared = mk_obj [ Acl.owner_entry ~user:1; Acl.owner_entry ~user:2 ] in
      tick clock;
      let since = Simclock.now clock in
      let cred_a = Rpc.user_cred ~user:1 ~client:7 in
      let cred_b = Rpc.user_cred ~user:2 ~client:8 in
      let truth = Hashtbl.create 16 in
      (* (cred, oid) -> (reads, writes, denials) *)
      let bump cred oid f =
        let k = (cred.Rpc.client, oid) in
        let r, w, d = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt truth k) in
        Hashtbl.replace truth k (f (r, w, d))
      in
      List.iter
        (fun (who, kind, pick) ->
          tick clock;
          let cred = if who then cred_a else cred_b in
          let own = if who then priv_a else priv_b in
          let other = if who then priv_b else priv_a in
          let objs = [| own; shared; other |] in
          let oid = objs.(pick mod 3) in
          let expect_denied = oid = other in
          match kind with
          | 0 ->
            (match handle drive cred (Rpc.Read { oid; off = 0; len = 8; at = None }) with
             | Rpc.R_data _ when not expect_denied ->
               bump cred oid (fun (r, w, d) -> (r + 1, w, d))
             | Rpc.R_error Rpc.Permission_denied when expect_denied ->
               bump cred oid (fun (r, w, d) -> (r, w, d + 1))
             | r -> Alcotest.failf "read: %a" Rpc.pp_resp r)
          | _ ->
            (match
               handle drive cred
                 (Rpc.Write { oid; off = 0; len = 4; data = Some (Bytes.of_string "data") })
             with
             | Rpc.R_unit when not expect_denied ->
               bump cred oid (fun (r, w, d) -> (r, w + 1, d))
             | Rpc.R_error Rpc.Permission_denied when expect_denied ->
               bump cred oid (fun (r, w, d) -> (r, w, d + 1))
             | r -> Alcotest.failf "write: %a" Rpc.pp_resp r))
        script;
      List.iter
        (fun (cred : Rpc.credential) ->
          let report =
            Diagnosis.damage_report ~user:cred.Rpc.user ~client:cred.Rpc.client ~since
              ~until:Int64.max_int target
          in
          (* No false positives: every reported object has ground truth. *)
          List.iter
            (fun (a : Diagnosis.activity) ->
              match Hashtbl.find_opt truth (cred.Rpc.client, a.Diagnosis.a_oid) with
              | None ->
                Alcotest.failf "client %d blamed for untouched oid %Ld" cred.Rpc.client
                  a.Diagnosis.a_oid
              | Some (r, w, d) ->
                check Alcotest.int "reads" r a.Diagnosis.a_reads;
                check Alcotest.int "writes" w a.Diagnosis.a_writes;
                check Alcotest.int "denials" d a.Diagnosis.a_denied)
            report;
          (* No false negatives: every touched object is reported. *)
          Hashtbl.iter
            (fun (client, oid) _ ->
              if client = cred.Rpc.client then
                match
                  List.find_opt (fun a -> a.Diagnosis.a_oid = oid) report
                with
                | Some _ -> ()
                | None -> Alcotest.failf "client %d's activity at oid %Ld unreported" client oid)
            truth)
        [ cred_a; cred_b ];
      ignore priv_b;
      true)

let () =
  Alcotest.run "s4_intrusion"
    [
      ( "campaign",
        [
          Alcotest.test_case "single drive, all classes, clean oracle" `Slow
            test_campaign_single_drive;
          Alcotest.test_case "4-shard mirrored array, clean oracle" `Slow
            test_campaign_mirrored_array;
          Alcotest.test_case "another seed, same guarantees" `Slow test_campaign_seed_stability;
        ] );
      ( "marks",
        [
          Alcotest.test_case "mark round-trips and verifies (single)" `Quick
            test_mark_roundtrip_single;
          Alcotest.test_case "mark records one head per shard" `Quick test_mark_array_heads;
          Alcotest.test_case "create fails loudly on a poisoned index" `Quick
            test_landmark_create_poisoned_index;
        ] );
      ( "forensics",
        [ Alcotest.test_case "denied ops reported separately" `Quick test_denied_ops_reported ] );
      ( "properties",
        [
          qtest prop_rollback_roundtrip_drive;
          qtest prop_rollback_roundtrip_array;
          qtest prop_attribution_exact;
        ] );
    ]
