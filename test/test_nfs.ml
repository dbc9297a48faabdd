(* Tests for the NFS overlay: types/codecs, the S4 translator in both
   Figure-1 configurations, and the server wrapper. *)

module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Net = S4_disk.Net
module Drive = S4.Drive
module Client = S4.Client
module Rpc = S4.Rpc
module N = S4_nfs.Nfs_types
module Translator = S4_nfs.Translator
module Server = S4_nfs.Server

let check = Alcotest.check
let qtest = Qseed.qtest

let geom mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

let mk_local ?(mb = 64) () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(geom mb) clock in
  let drive = Drive.format disk in
  let tr = Translator.mount (Translator.Local drive) in
  (clock, drive, tr)

let mk_remote ?(mb = 64) () =
  let clock = Simclock.create () in
  let disk = Sim_disk.create ~geometry:(geom mb) clock in
  let drive = Drive.format disk in
  let net = Net.create clock in
  let tr = Translator.mount (Translator.Remote (Client.connect net drive)) in
  (clock, drive, tr)

let fh_of = function
  | N.R_fh (fh, _) -> fh
  | r -> Alcotest.failf "expected fh, got error? %s" (match r with N.R_error e -> Format.asprintf "%a" N.pp_error e | _ -> "other")

let expect_unit = function
  | N.R_unit -> ()
  | N.R_error e -> Alcotest.failf "unexpected error %a" N.pp_error e
  | _ -> Alcotest.fail "expected unit"

let expect_err expected = function
  | N.R_error e when e = expected -> ()
  | N.R_error e -> Alcotest.failf "wrong error: %a" N.pp_error e
  | _ -> Alcotest.fail "expected an error"

(* --- Codecs ----------------------------------------------------------- *)

let test_attr_roundtrip () =
  let a =
    { N.ftype = N.Freg; mode = 0o640; nlink = 1; uid = 7; gid = 8; size = 12345;
      mtime = 111L; ctime = 222L; atime = 333L }
  in
  check Alcotest.bool "roundtrip" true (N.decode_attr (N.encode_attr a) = a)

let test_dir_slot_roundtrip () =
  let e = { N.name = "hello.txt"; fh = 42L } in
  check Alcotest.bool "some" true (N.decode_slot (N.encode_slot (Some e)) ~pos:0 = Some e);
  check Alcotest.bool "none" true (N.decode_slot (N.encode_slot None) ~pos:0 = None)

let test_dir_roundtrip () =
  let entries = List.init 20 (fun i -> { N.name = Printf.sprintf "f%d" i; fh = Int64.of_int i }) in
  check Alcotest.bool "roundtrip" true (N.decode_dir (N.encode_dir entries) = entries)

let test_dir_slots_with_holes () =
  let e0 = N.encode_slot (Some { N.name = "a"; fh = 1L }) in
  let hole = N.encode_slot None in
  let e2 = N.encode_slot (Some { N.name = "b"; fh = 2L }) in
  let data = Bytes.concat Bytes.empty [ e0; hole; e2 ] in
  let dents, nslots = N.decode_dir_slots data in
  check Alcotest.int "slots" 3 nslots;
  check Alcotest.bool "two entries at 0 and 2" true
    (List.map snd dents = [ 0; 2 ])

let test_long_name_rejected () =
  check Alcotest.bool "raises" true
    (try
       ignore (N.encode_slot (Some { N.name = String.make 60 'x'; fh = 1L }));
       false
     with Invalid_argument _ -> true)

let prop_dir_roundtrip =
  QCheck.Test.make ~name:"directory slot array roundtrip" ~count:100
    QCheck.(list_of_size Gen.(0 -- 30) (pair (string_of_size Gen.(1 -- 20)) (int_range 1 10000)))
    (fun raw ->
      let sane =
        List.filter (fun (n, _) -> String.length n > 0 && not (String.contains n '\000')) raw
      in
      let entries = List.map (fun (n, i) -> { N.name = n; fh = Int64.of_int i }) sane in
      N.decode_dir (N.encode_dir entries) = entries)

(* --- Translator file operations -------------------------------------- *)

let mkdir tr ~dir name = fh_of (Translator.handle tr (N.Mkdir { dir; name; mode = 0o755 }))
let create tr ~dir name = fh_of (Translator.handle tr (N.Create { dir; name; mode = 0o644 }))

let write tr fh off s =
  match Translator.handle tr (N.Write { fh; off; data = Bytes.of_string s }) with
  | N.R_attr a -> a
  | _ -> Alcotest.fail "write failed"

let read tr fh off len =
  match Translator.handle tr (N.Read { fh; off; len }) with
  | N.R_data b -> Bytes.to_string b
  | _ -> Alcotest.fail "read failed"

let test_create_write_read () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let fh = create tr ~dir:root "file.txt" in
  let a = write tr fh 0 "file contents" in
  check Alcotest.int "size" 13 a.N.size;
  check Alcotest.string "read back" "file contents" (read tr fh 0 100);
  check Alcotest.string "offset read" "contents" (read tr fh 5 100)

let test_lookup_and_getattr () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let d = mkdir tr ~dir:root "sub" in
  let f = create tr ~dir:d "x" in
  ignore (write tr f 0 "abc");
  (match Translator.handle tr (N.Lookup { dir = root; name = "sub" }) with
   | N.R_fh (fh, a) ->
     check Alcotest.int64 "dir fh" d fh;
     check Alcotest.bool "is dir" true (a.N.ftype = N.Fdir)
   | _ -> Alcotest.fail "lookup sub");
  (match Translator.handle tr (N.Lookup { dir = d; name = "x" }) with
   | N.R_fh (fh, _) -> check Alcotest.int64 "file fh" f fh
   | _ -> Alcotest.fail "lookup x");
  expect_err N.Enoent (Translator.handle tr (N.Lookup { dir = d; name = "missing" }));
  match Translator.handle tr (N.Getattr f) with
  | N.R_attr a -> check Alcotest.int "size" 3 a.N.size
  | _ -> Alcotest.fail "getattr"

let test_readdir () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let d = mkdir tr ~dir:root "dir" in
  List.iter (fun n -> ignore (create tr ~dir:d n)) [ "a"; "b"; "c" ];
  match Translator.handle tr (N.Readdir d) with
  | N.R_entries es ->
    check (Alcotest.list Alcotest.string) "names" [ "a"; "b"; "c" ]
      (List.sort compare (List.map (fun e -> e.N.name) es))
  | _ -> Alcotest.fail "readdir"

let test_remove_and_slot_reuse () =
  let _, drive, tr = mk_local () in
  let root = Translator.root tr in
  let d = mkdir tr ~dir:root "dir" in
  ignore (create tr ~dir:d "a");
  ignore (create tr ~dir:d "b");
  expect_unit (Translator.handle tr (N.Remove { dir = d; name = "a" }));
  ignore (create tr ~dir:d "c");
  (* "c" should have reused "a"'s slot: dir size stays at 2 slots. *)
  (match Translator.handle tr (N.Getattr d) with
   | N.R_attr a -> check Alcotest.int "2 slots" (2 * N.slot_size) a.N.size
   | _ -> Alcotest.fail "getattr dir");
  ignore drive;
  expect_err N.Enoent (Translator.handle tr (N.Remove { dir = d; name = "a" }))

let test_remove_nonempty_dir_fails () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let d = mkdir tr ~dir:root "dir" in
  ignore (create tr ~dir:d "child");
  expect_err N.Enotempty (Translator.handle tr (N.Rmdir { dir = root; name = "dir" }));
  expect_err N.Eisdir (Translator.handle tr (N.Remove { dir = root; name = "dir" }));
  expect_unit (Translator.handle tr (N.Remove { dir = d; name = "child" }));
  expect_unit (Translator.handle tr (N.Rmdir { dir = root; name = "dir" }))

let test_rename () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let d1 = mkdir tr ~dir:root "d1" in
  let d2 = mkdir tr ~dir:root "d2" in
  let f = create tr ~dir:d1 "old" in
  ignore (write tr f 0 "payload");
  expect_unit
    (Translator.handle tr (N.Rename { from_dir = d1; from_name = "old"; to_dir = d2; to_name = "new" }));
  expect_err N.Enoent (Translator.handle tr (N.Lookup { dir = d1; name = "old" }));
  (match Translator.handle tr (N.Lookup { dir = d2; name = "new" }) with
   | N.R_fh (fh, _) ->
     check Alcotest.int64 "same object" f fh;
     check Alcotest.string "contents follow" "payload" (read tr fh 0 100)
   | _ -> Alcotest.fail "lookup renamed")

let test_rename_overwrites_target () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let f1 = create tr ~dir:root "src" in
  ignore (write tr f1 0 "source");
  let f2 = create tr ~dir:root "dst" in
  ignore (write tr f2 0 "target");
  expect_unit
    (Translator.handle tr (N.Rename { from_dir = root; from_name = "src"; to_dir = root; to_name = "dst" }));
  match Translator.handle tr (N.Lookup { dir = root; name = "dst" }) with
  | N.R_fh (fh, _) ->
    check Alcotest.int64 "src object now at dst" f1 fh;
    check Alcotest.string "source content" "source" (read tr fh 0 100)
  | _ -> Alcotest.fail "lookup dst"

let test_setattr_truncate () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let f = create tr ~dir:root "t" in
  ignore (write tr f 0 "0123456789");
  (match Translator.handle tr (N.Setattr { fh = f; mode = Some 0o600; size = Some 4 }) with
   | N.R_attr a ->
     check Alcotest.int "new size" 4 a.N.size;
     check Alcotest.int "new mode" 0o600 a.N.mode
   | _ -> Alcotest.fail "setattr");
  check Alcotest.string "truncated" "0123" (read tr f 0 100)

let test_symlink_readlink () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  expect_unit (Translator.handle tr (N.Symlink { dir = root; name = "link"; target = "/some/where" }));
  match Translator.handle tr (N.Lookup { dir = root; name = "link" }) with
  | N.R_fh (fh, a) ->
    check Alcotest.bool "is symlink" true (a.N.ftype = N.Flnk);
    (match Translator.handle tr (N.Readlink fh) with
     | N.R_link s -> check Alcotest.string "target" "/some/where" s
     | _ -> Alcotest.fail "readlink")
  | _ -> Alcotest.fail "lookup link"

let test_create_exists () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  ignore (create tr ~dir:root "dup");
  expect_err N.Eexist (Translator.handle tr (N.Create { dir = root; name = "dup"; mode = 0o644 }))

let test_statfs () =
  let _, _, tr = mk_local () in
  match Translator.handle tr N.Statfs with
  | N.R_statfs { total_bytes; free_bytes } ->
    check Alcotest.bool "sane" true (total_bytes > 0 && free_bytes > 0 && free_bytes <= total_bytes)
  | _ -> Alcotest.fail "statfs"

let test_mount_persistent () =
  let _, drive, tr = mk_local () in
  let root = Translator.root tr in
  ignore (create tr ~dir:root "persist");
  (* A second mount of the same partition sees the same root. *)
  let tr2 = Translator.mount (Translator.Local drive) in
  check Alcotest.int64 "same root" root (Translator.root tr2);
  match Translator.handle tr2 (N.Lookup { dir = Translator.root tr2; name = "persist" }) with
  | N.R_fh _ -> ()
  | _ -> Alcotest.fail "file visible through second mount"

let test_remote_config_pays_network () =
  let clock_l, _, tr_l = mk_local () in
  let clock_r, _, tr_r = mk_remote () in
  let run clock tr =
    let t0 = Simclock.now clock in
    let f = create tr ~dir:(Translator.root tr) "f" in
    ignore (write tr f 0 (String.make 8192 'x'));
    Int64.sub (Simclock.now clock) t0
  in
  let local = run clock_l tr_l in
  let remote = run clock_r tr_r in
  check Alcotest.bool "remote slower (network + loopback)" true (Int64.compare remote local > 0)

let test_rpc_batching_counts () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let before = Translator.rpc_count tr in
  ignore (create tr ~dir:root "counted");
  let create_rpcs = Translator.rpc_count tr - before in
  (* Create + SetAttr + slot write + dir SetAttr: a handful, not a storm. *)
  check Alcotest.bool "several RPCs per create" true (create_rpcs >= 3 && create_rpcs <= 8)

let test_attr_cache_hits () =
  let _, _, tr = mk_local () in
  let root = Translator.root tr in
  let f = create tr ~dir:root "cached" in
  ignore (Translator.handle tr (N.Getattr f));
  ignore (Translator.handle tr (N.Getattr f));
  ignore (Translator.handle tr (N.Getattr f));
  let hits, _ = Translator.attr_cache_stats tr in
  check Alcotest.bool "cache hits" true (hits >= 2)

let test_versioning_through_nfs () =
  (* The drive keeps versions even though NFS has no notion of time. *)
  let clock, drive, tr = mk_local () in
  let root = Translator.root tr in
  let f = create tr ~dir:root "doc" in
  ignore (write tr f 0 "draft one");
  let t1 = Simclock.now clock in
  Simclock.advance clock 1_000_000L;
  ignore (write tr f 0 "draft TWO");
  (match S4.Backend.handle (Drive.backend drive) Rpc.admin_cred (Rpc.Read { oid = f; off = 0; len = 9; at = Some t1 }) with
   | Rpc.R_data b -> check Alcotest.string "old draft via S4" "draft one" (Bytes.to_string b)
   | _ -> Alcotest.fail "time-based read");
  check Alcotest.string "current via NFS" "draft TWO" (read tr f 0 9)

(* --- Path helpers ------------------------------------------------------ *)

let test_path_helpers () =
  let _, _, tr = mk_local () in
  (match Translator.mkdir_p tr "a/b/c" with Ok _ -> () | Error e -> Alcotest.failf "mkdir_p: %a" N.pp_error e);
  (match Translator.write_file tr "a/b/c/file.txt" (Bytes.of_string "deep") with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "write_file: %a" N.pp_error e);
  (match Translator.read_file tr "a/b/c/file.txt" with
   | Ok b -> check Alcotest.string "read" "deep" (Bytes.to_string b)
   | Error e -> Alcotest.failf "read_file: %a" N.pp_error e);
  (match Translator.lookup_path tr "a/b" with
   | Ok (_, a) -> check Alcotest.bool "is dir" true (a.N.ftype = N.Fdir)
   | Error e -> Alcotest.failf "lookup_path: %a" N.pp_error e);
  (match Translator.lookup_path tr "a/missing" with
   | Error N.Enoent -> ()
   | _ -> Alcotest.fail "missing path");
  (* write_file overwrites *)
  (match Translator.write_file tr "a/b/c/file.txt" (Bytes.of_string "v2") with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "overwrite: %a" N.pp_error e);
  match Translator.read_file tr "a/b/c/file.txt" with
  | Ok b -> check Alcotest.string "overwritten" "v2" (Bytes.to_string b)
  | Error e -> Alcotest.failf "re-read: %a" N.pp_error e

(* --- XDR wire codec ------------------------------------------------------ *)

module Xdr = S4_nfs.Xdr

let sample_reqs =
  [
    N.Getattr 42L;
    N.Setattr { fh = 7L; mode = Some 0o600; size = Some 1234 };
    N.Setattr { fh = 7L; mode = None; size = None };
    N.Lookup { dir = 2L; name = "a-file" };
    N.Readlink 9L;
    N.Read { fh = 3L; off = 4096; len = 8192 };
    N.Write { fh = 3L; off = 12; data = Bytes.of_string "hello xdr world" };
    N.Create { dir = 2L; name = "new"; mode = 0o644 };
    N.Remove { dir = 2L; name = "old" };
    N.Rename { from_dir = 2L; from_name = "x"; to_dir = 5L; to_name = "yy" };
    N.Mkdir { dir = 2L; name = "subdir"; mode = 0o755 };
    N.Rmdir { dir = 2L; name = "subdir" };
    N.Readdir 2L;
    N.Symlink { dir = 2L; name = "ln"; target = "/some/target" };
    N.Statfs;
  ]

let test_xdr_req_roundtrip () =
  List.iter
    (fun req ->
      let xid, back = Xdr.decode_req (Xdr.encode_req ~xid:77 req) in
      check Alcotest.int "xid" 77 xid;
      check Alcotest.bool (N.req_name req ^ " roundtrip") true (back = req))
    sample_reqs

let test_xdr_resp_roundtrip () =
  let attr = N.fresh_attr N.Freg ~uid:3 ~now:123_456_789_000L in
  let cases =
    [
      (1, N.R_attr { attr with N.size = 999 });
      (4, N.R_fh (11L, attr));
      (6, N.R_data (Bytes.of_string "payload!"));
      (5, N.R_link "/a/b");
      (10, N.R_unit);
      (16, N.R_entries [ { N.name = "one"; fh = 1L }; { N.name = "two"; fh = 2L } ]);
      (17, N.R_statfs { total_bytes = 4096 * 1000; free_bytes = 4096 * 250 });
      (6, N.R_error N.Enoent);
      (8, N.R_error N.Eacces);
    ]
  in
  List.iter
    (fun (proc, resp) ->
      let xid, back = Xdr.decode_resp ~proc (Xdr.encode_resp ~xid:5 ~proc resp) in
      check Alcotest.int "xid" 5 xid;
      check Alcotest.bool "roundtrip" true (back = resp))
    cases

let test_xdr_alignment () =
  (* Every encoded message is a whole number of 4-byte XDR words. *)
  List.iter
    (fun req -> check Alcotest.int (N.req_name req ^ " aligned") 0 (Xdr.req_wire_bytes req mod 4))
    sample_reqs

let test_xdr_rejects_garbage () =
  check Alcotest.bool "garbage" true
    (try
       ignore (Xdr.decode_req (Bytes.make 64 'Z'));
       false
     with S4_util.Bcodec.Decode_error _ -> true)

let prop_xdr_write_roundtrip =
  QCheck.Test.make ~name:"xdr write payload roundtrip" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 2000)) small_nat)
    (fun (payload, off) ->
      let req = N.Write { fh = 17L; off; data = Bytes.of_string payload } in
      snd (Xdr.decode_req (Xdr.encode_req ~xid:1 req)) = req)

(* --- Server wrapper ----------------------------------------------------- *)

let test_server_over_net () =
  let clock, _, tr = mk_local () in
  let server = Server.of_translator ~name:"t" tr in
  let net = Net.create clock in
  let wrapped = Server.over_net net server in
  let t0 = Simclock.now clock in
  ignore (wrapped.Server.handle (N.Getattr (Translator.root tr)));
  check Alcotest.bool "network charged" true (Int64.compare (Simclock.now clock) t0 > 0);
  check Alcotest.int "net stats" 1 (Net.stats net).Net.rpcs

let test_server_handle_exn () =
  let _, _, tr = mk_local () in
  let server = Server.of_translator ~name:"t" tr in
  check Alcotest.bool "raises" true
    (try
       ignore (Server.handle_exn server (N.Lookup { dir = Translator.root tr; name = "nope" }));
       false
     with Failure _ -> true)

let () =
  Alcotest.run "s4_nfs"
    [
      ( "codecs",
        [
          Alcotest.test_case "attr roundtrip" `Quick test_attr_roundtrip;
          Alcotest.test_case "slot roundtrip" `Quick test_dir_slot_roundtrip;
          Alcotest.test_case "dir roundtrip" `Quick test_dir_roundtrip;
          Alcotest.test_case "slots with holes" `Quick test_dir_slots_with_holes;
          Alcotest.test_case "long name rejected" `Quick test_long_name_rejected;
          qtest prop_dir_roundtrip;
        ] );
      ( "translator",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "lookup/getattr" `Quick test_lookup_and_getattr;
          Alcotest.test_case "readdir" `Quick test_readdir;
          Alcotest.test_case "remove and slot reuse" `Quick test_remove_and_slot_reuse;
          Alcotest.test_case "nonempty dir" `Quick test_remove_nonempty_dir_fails;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename overwrites" `Quick test_rename_overwrites_target;
          Alcotest.test_case "setattr truncate" `Quick test_setattr_truncate;
          Alcotest.test_case "symlink" `Quick test_symlink_readlink;
          Alcotest.test_case "create exists" `Quick test_create_exists;
          Alcotest.test_case "statfs" `Quick test_statfs;
          Alcotest.test_case "mount persistent" `Quick test_mount_persistent;
          Alcotest.test_case "remote pays network" `Quick test_remote_config_pays_network;
          Alcotest.test_case "rpc batching" `Quick test_rpc_batching_counts;
          Alcotest.test_case "attr cache" `Quick test_attr_cache_hits;
          Alcotest.test_case "versioning through nfs" `Quick test_versioning_through_nfs;
        ] );
      ( "paths",
        [ Alcotest.test_case "helpers" `Quick test_path_helpers ] );
      ( "xdr",
        [
          Alcotest.test_case "request roundtrip" `Quick test_xdr_req_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_xdr_resp_roundtrip;
          Alcotest.test_case "alignment" `Quick test_xdr_alignment;
          Alcotest.test_case "garbage rejected" `Quick test_xdr_rejects_garbage;
          qtest prop_xdr_write_roundtrip;
        ] );
      ( "server",
        [
          Alcotest.test_case "over net" `Quick test_server_over_net;
          Alcotest.test_case "handle_exn" `Quick test_server_handle_exn;
        ] );
    ]
