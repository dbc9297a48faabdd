(* Tests for real persistence: the file-backed sector store, refusal
   of every retired on-disk layout, and recovery after a genuine
   kill -9 of a serving process. *)

module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module File_disk = S4_disk.File_disk
module Log = S4_seglog.Log
module Drive = S4.Drive
module Rpc = S4.Rpc
module Audit = S4.Audit
module Landmark = S4_tools.Landmark
module Bcodec = S4_util.Bcodec
module Crc32 = S4_util.Crc32
module Crashtest = S4_tools.Crashtest
module History = S4_tools.History

let check = Alcotest.check
let handle d = S4.Backend.handle (Drive.backend d)
let cred = Rpc.admin_cred

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let with_tmp f =
  let path = Filename.temp_file "s4persist" ".s4" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let oid_die = function
  | Rpc.R_oid oid -> oid
  | r -> Alcotest.failf "create: %a" Rpc.pp_resp r

let unit_die what = function
  | Rpc.R_unit -> ()
  | r -> Alcotest.failf "%s: %a" what Rpc.pp_resp r

(* --- File_disk ---------------------------------------------------------- *)

let test_file_roundtrip () =
  with_tmp (fun path ->
      let g = geom 16 in
      let f = File_disk.create ~path g in
      let data = Bytes.init (4 * 512) (fun i -> Char.chr (i land 0xff)) in
      File_disk.write f ~lba:10 data;
      check Alcotest.bool "read back" true (Bytes.equal data (File_disk.read f ~lba:10 ~sectors:4));
      check Alcotest.bool "unwritten is zeros" true
        (Bytes.equal (Bytes.make 512 '\000') (File_disk.read f ~lba:99 ~sectors:1));
      File_disk.erase f ~lba:11 ~sectors:1;
      check Alcotest.bool "erased to zeros" true
        (Bytes.equal (Bytes.make 512 '\000') (File_disk.read f ~lba:11 ~sectors:1));
      File_disk.sync f ~clock_ns:123_456_789L;
      File_disk.close f;
      (* A "new process". *)
      let f2 = File_disk.open_file path in
      check Alcotest.int64 "clock from header" 123_456_789L (File_disk.clock_ns f2);
      check Alcotest.string "geometry name" g.Geometry.name (File_disk.geometry f2).Geometry.name;
      check Alcotest.int "geometry sectors" g.Geometry.sectors
        (File_disk.geometry f2).Geometry.sectors;
      check Alcotest.bool "sector survived close" true
        (Bytes.equal (Bytes.sub data 0 512) (File_disk.read f2 ~lba:10 ~sectors:1));
      check Alcotest.bool "erase survived close" true
        (Bytes.equal (Bytes.make 512 '\000') (File_disk.read f2 ~lba:11 ~sectors:1));
      File_disk.close f2;
      File_disk.close f2 (* idempotent *))

let expect_failure what f =
  check Alcotest.bool what true (try ignore (f ()); false with Failure _ -> true)

let test_file_rejects_bad () =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not a store, but long enough to probe";
      close_out oc;
      expect_failure "foreign file rejected" (fun () -> File_disk.open_file path));
  with_tmp (fun path ->
      File_disk.close (File_disk.create ~path (geom 16));
      (* Flip a byte inside the header payload: CRC must catch it. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd 20 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
      Unix.close fd;
      expect_failure "corrupt header rejected" (fun () -> File_disk.open_file path))

(* --- retired layouts ------------------------------------------------------ *)

(* Every on-disk decoder reads exactly what this code writes. One row
   per layout an earlier version wrote; each must be refused, never
   read as an empty or default value. *)

(* A drive on a memory disk with a few flushed, sealed audit blocks. *)
let small_drive () =
  let disk = Sim_disk.create ~geometry:(geom 16) (Simclock.create ()) in
  let drive = Drive.format disk in
  let oid = oid_die (handle drive cred (Rpc.Create { acl = [] })) in
  let data = Bytes.of_string "payload" in
  unit_die "write" (handle drive cred (Rpc.Write { oid; off = 0; len = 7; data = Some data }));
  unit_die "sync" (handle drive cred Rpc.Sync);
  (disk, drive, oid)

let retired_image what =
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "S4IMG2\n";
      output_string oc (String.make 4096 '\000');
      close_out oc;
      expect_failure what (fun () -> File_disk.open_file path))

(* Store header whose payload ends after the clock (no head flag). *)
let retired_store_header what =
  with_tmp (fun path ->
      File_disk.close (File_disk.create ~path (geom 16));
      let w = Bcodec.writer () in
      Geometry.encode w (geom 16);
      Bcodec.w_i64 w 42L;
      let payload = Bcodec.contents w in
      let hdr = Bytes.make 16 '\000' in
      Bytes.blit_string "S4FDSK1\n" 0 hdr 0 8;
      Bcodec.set_u32 hdr 8 (Bytes.length payload);
      Bcodec.set_u32 hdr 12 (Crc32.bytes payload);
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.write fd (Bytes.cat hdr payload) 0 (16 + Bytes.length payload));
      Unix.close fd;
      match File_disk.open_file path with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Failure m ->
        check Alcotest.bool (what ^ ": corrupt store") true
          (String.starts_with ~prefix:(path ^ ": corrupt store") m))

(* A CRC-valid audit block in the pre-chain layout (magic 0x5541: base
   time and count, no start index or prior head). The oldest block has
   start index 0, a one-byte varint, so the prior head sits at 11..43. *)
let retired_audit_block what =
  let disk, drive, _ = small_drive () in
  let audit = Drive.audit drive in
  let addr = List.hd (List.rev (Audit.block_addrs audit)) in
  let chained = Log.peek (Drive.log drive) addr in
  let n = Bytes.length chained in
  let v1 = Bytes.make n '\000' in
  Bcodec.set_u16 v1 0 0x5541;
  Bytes.blit chained 2 v1 2 8;
  Bytes.blit chained 43 v1 10 (n - 4 - 43);
  Bcodec.set_u32 v1 (n - 4) (Crc32.sub v1 ~pos:0 ~len:(n - 4));
  let spb = Log.block_size (Drive.log drive) / (Sim_disk.geometry disk).Geometry.sector_size in
  Sim_disk.poke disk ~lba:(addr * spb) ~data:v1;
  let v = Audit.verify audit in
  check Alcotest.bool (what ^ ": verify reports it undecodable") true
    (List.exists
       (String.ends_with ~suffix:(Printf.sprintf "undecodable audit block at addr %d" addr))
       v.S4_integrity.Chain.v_errors);
  let drive2 = Drive.attach disk in
  check Alcotest.bool (what ^ ": recover indexes none of its records") false
    (List.mem addr (Audit.block_addrs (Drive.audit drive2)))

(* A landmark index that ends after the landmarks (no marks count). *)
let retired_landmark_index what =
  let _, drive, oid = small_drive () in
  let lm = Landmark.create drive in
  (match Landmark.take lm ~name:"keep" ~at:(Simclock.now (Drive.clock drive)) oid with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  let index =
    match handle drive cred (Rpc.P_mount { name = "landmarks"; at = None }) with
    | Rpc.R_oid o -> o
    | r -> Alcotest.failf "pmount: %a" Rpc.pp_resp r
  in
  let bytes =
    match handle drive cred (Rpc.Read { oid = index; off = 0; len = 65536; at = None }) with
    | Rpc.R_data b -> b
    | r -> Alcotest.failf "read index: %a" Rpc.pp_resp r
  in
  (* The current layout ends in the marks count, 0 here: one byte. *)
  let len = Bytes.length bytes - 1 in
  unit_die "truncate" (handle drive cred (Rpc.Truncate { oid = index; size = 0 }));
  unit_die "write"
    (handle drive cred (Rpc.Write { oid = index; off = 0; len; data = Some (Bytes.sub bytes 0 len) }));
  expect_failure what (fun () -> Landmark.list lm);
  check Alcotest.bool (what ^ ": take reports the corrupt index") true
    (Result.is_error (Landmark.take lm ~name:"again" ~at:(Simclock.now (Drive.clock drive)) oid))

(* The superblock version byte follows the 4-byte magic at offset 0. *)
let retired_superblock what =
  let disk, _, _ = small_drive () in
  let sector = Sim_disk.peek disk ~lba:0 ~sectors:1 in
  Bytes.set sector 4 '\002';
  Sim_disk.poke disk ~lba:0 ~data:sector;
  Alcotest.check_raises what (Invalid_argument "Drive.attach: no valid superblock") (fun () ->
      ignore (Drive.attach disk))

let test_retired_formats () =
  List.iter
    (fun (what, row) -> row what)
    [
      ("S4IMG2 image", retired_image);
      ("store header without head flag", retired_store_header);
      ("pre-chain audit block", retired_audit_block);
      ("landmark index without marks count", retired_landmark_index);
      ("superblock version 2", retired_superblock);
    ]

let sector_digest disk =
  let sectors = Sim_disk.capacity_sectors disk in
  let buf = Buffer.create 64 in
  let chunk = 1024 in
  let lba = ref 0 in
  while !lba < sectors do
    let n = min chunk (sectors - !lba) in
    Buffer.add_string buf (Digest.bytes (Sim_disk.peek disk ~lba:!lba ~sectors:n));
    lba := !lba + n
  done;
  Digest.string (Buffer.contents buf)

(* --- the durability hole itself ----------------------------------------- *)

(* The bug this PR fixes: with a file-backed store, simply exiting
   without any save step (the moral equivalent of kill -9 after the
   last barrier) must lose nothing that was synced. *)
let test_file_backed_survives_no_save () =
  with_tmp (fun path ->
      let oid =
        let disk = Sim_disk.of_file (File_disk.create ~path (geom 16)) in
        let drive = Drive.format disk in
        let oid = oid_die (handle drive cred (Rpc.Create { acl = [] })) in
        let data = Bytes.of_string "synced and acked" in
        unit_die "write"
          (handle drive cred
             (Rpc.Write { oid; off = 0; len = Bytes.length data; data = Some data }));
        unit_die "sync" (handle drive cred Rpc.Sync);
        (* No Log.sync, no close-time barrier: the process just dies. *)
        Sim_disk.close disk;
        oid
      in
      let disk2 = Sim_disk.of_file (File_disk.open_file path) in
      let drive2 = Drive.attach disk2 in
      check (Alcotest.list Alcotest.string) "fsck clean" [] (Drive.fsck drive2);
      (match handle drive2 cred (Rpc.Read { oid; off = 0; len = 16; at = None }) with
       | Rpc.R_data b -> check Alcotest.string "acked write survived" "synced and acked"
                           (Bytes.to_string b)
       | r -> Alcotest.failf "read after reopen: %a" Rpc.pp_resp r);
      Sim_disk.close disk2)

(* Identical semantics over both backings: the same seeded workload
   must leave the same simulated clock and the same sector contents. *)
let test_mem_file_equivalence () =
  with_tmp (fun path ->
      let workload disk =
        let drive = Drive.format disk in
        let rng = Rng.create ~seed:7 in
        let oids =
          Array.init 4 (fun _ -> oid_die (handle drive cred (Rpc.Create { acl = [] })))
        in
        for i = 0 to 99 do
          let oid = oids.(Rng.int rng 4) in
          let len = 1 + Rng.int rng 2048 in
          let req =
            match Rng.int rng 4 with
            | 0 -> Rpc.Append { oid; len; data = Some (Rng.bytes rng len) }
            | 1 -> Rpc.Write { oid; off = Rng.int rng 4096; len; data = Some (Rng.bytes rng len) }
            | 2 -> Rpc.Truncate { oid; size = Rng.int rng 8192 }
            | _ -> Rpc.Sync
          in
          match handle drive cred req with
          | Rpc.R_error e -> Alcotest.failf "op %d: %a" i Rpc.pp_error e
          | _ -> ()
        done;
        unit_die "final sync" (handle drive cred Rpc.Sync)
      in
      let mem = Sim_disk.create ~geometry:(geom 16) (Simclock.create ()) in
      workload mem;
      let file = Sim_disk.of_file (File_disk.create ~path (geom 16)) in
      workload file;
      check Alcotest.int64 "same simulated clock" (Simclock.now (Sim_disk.clock mem))
        (Simclock.now (Sim_disk.clock file));
      check Alcotest.string "same sector contents" (sector_digest mem) (sector_digest file);
      Sim_disk.close file)

(* Journal blocks can reach the file without a barrier (segment close);
   their entry times then postdate the header clock a restart resumes
   from. Recovery must bump the clock past them so mutation times stay
   monotone across the restart. *)
let test_recovery_clock_monotone () =
  with_tmp (fun path ->
      let oid =
        let disk = Sim_disk.of_file (File_disk.create ~path (geom 16)) in
        let drive = Drive.format disk in
        let oid = oid_die (handle drive cred (Rpc.Create { acl = [] })) in
        unit_die "sync" (handle drive cred Rpc.Sync);
        (* Enough unsynced appends to fill and close log segments: their
           journal blocks hit the file with no barrier behind them. *)
        let chunk = Bytes.make 4096 'j' in
        for _ = 1 to 300 do
          unit_die "append"
            (handle drive cred (Rpc.Append { oid; len = 4096; data = Some chunk }))
        done;
        Sim_disk.close disk;
        oid
      in
      let disk2 = Sim_disk.of_file (File_disk.open_file path) in
      let drive2 = Drive.attach disk2 in
      let clock2 = Sim_disk.clock disk2 in
      let h = History.create drive2 in
      let recovered_times = History.version_times h oid in
      check Alcotest.bool "some journal entries recovered" true (recovered_times <> []);
      List.iter
        (fun t ->
          if Int64.compare t (Simclock.now clock2) >= 0 then
            Alcotest.failf "recovered entry time %Ld not before resumed clock %Ld" t
              (Simclock.now clock2))
        recovered_times;
      (* New mutations must get strictly newer times than everything
         recovered. *)
      let before = Simclock.now clock2 in
      let oid2 = oid_die (handle drive2 cred (Rpc.Create { acl = [] })) in
      ignore oid2;
      check Alcotest.bool "clock advances" true (Simclock.now clock2 > before);
      Sim_disk.close disk2)

(* --- the real thing: kill -9 a serving process -------------------------- *)

let test_kill9_smoke () =
  let reports = Crashtest.kill9_sweep ~seed:1042 ~runs:3 () in
  List.iter
    (fun r ->
      if r.Crashtest.violations <> [] then
        Alcotest.failf "kill9 %a" Crashtest.pp_report r)
    reports;
  check Alcotest.int "three kills" 3 (List.length reports);
  List.iter
    (fun r -> check Alcotest.bool "acked ops ran" true (r.Crashtest.ops_before_crash > 0))
    reports

(* SIGKILL between the audit flush and the seal write must read back as
   a crash-truncated tail, never as tampering. *)
let test_seal_gap () =
  let report, strict = Crashtest.seal_gap_run ~seed:907 () in
  if report.Crashtest.violations <> [] then
    Alcotest.failf "seal gap %a" Crashtest.pp_report report;
  check Alcotest.bool "strict chain clean" true (S4_integrity.Chain.clean strict);
  check Alcotest.int "no record read as tampered" (-1) strict.S4_integrity.Chain.v_first_bad

(* Full PostMark through NFS + wire against a forked server killed
   mid-run: zero acked-write loss. Every audit record below a
   checkpoint instant (instant read, then acked Sync) must be recovered
   verbatim from the surviving file. *)
let test_postmark_kill9 () =
  let r = Crashtest.kill9_postmark_run ~seed:2042 () in
  if r.Crashtest.pm_violations <> [] then
    Alcotest.failf "postmark kill9 %a" Crashtest.pp_postmark_report r;
  check Alcotest.bool "checkpoints taken" true (r.Crashtest.pm_checkpoints > 0);
  check Alcotest.bool "writes were acked" true (r.Crashtest.pm_acked > 0);
  check Alcotest.bool "acked records all recovered" true
    (r.Crashtest.pm_recovered >= r.Crashtest.pm_acked)

let () =
  Alcotest.run "s4_persist"
    [
      ( "file-disk",
        [
          Alcotest.test_case "roundtrip across close" `Quick test_file_roundtrip;
          Alcotest.test_case "foreign and corrupt rejected" `Quick test_file_rejects_bad;
          Alcotest.test_case "retired layouts refused" `Quick test_retired_formats;
        ] );
      ( "durability",
        [
          Alcotest.test_case "file-backed survives exit with no save" `Quick
            test_file_backed_survives_no_save;
          Alcotest.test_case "mem and file backings are equivalent" `Quick
            test_mem_file_equivalence;
          Alcotest.test_case "recovery keeps mutation times monotone" `Quick
            test_recovery_clock_monotone;
        ] );
      ( "kill9",
        [
          Alcotest.test_case "three real kills" `Quick test_kill9_smoke;
          Alcotest.test_case "seal gap reads as truncation" `Quick test_seal_gap;
          Alcotest.test_case "postmark: zero acked-write loss" `Quick test_postmark_kill9;
        ] );
    ]
