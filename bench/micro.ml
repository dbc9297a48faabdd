open Harness

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)

let micro () =
  Report.heading "Micro-benchmarks (bechamel; real host time per operation)";
  let open Bechamel in
  let mk_store () =
    let log = Log.create (sized_disk 256) in
    Store.create ~config:{ Store.default_config with keep_data = false } log
  in
  let store = mk_store () in
  let woid = Store.create_object store in
  let roid = Store.create_object store in
  Store.write store roid ~off:0 ~len:65536 ();
  let rng = Rng.create ~seed:1 in
  let payload = Rng.bytes rng 4096 in
  let payload2 =
    let b = Bytes.copy payload in
    Bytes.blit (Rng.bytes rng 256) 0 b 1024 256;
    b
  in
  let small = Bytes.sub payload 0 64 in
  (* An audit-chain extension hashes the 32-byte prior head and a
     ~64-byte canonical record. *)
  let record = Bytes.sub payload 0 96 in
  (* A one-write 1 KB Batch frame, as a client sends it. *)
  let write_1k =
    S4_net.Wire.Batch
      {
        xid = 1L;
        cred = Rpc.user_cred ~user:1 ~client:1;
        sync = false;
        reqs = [| Rpc.Write { oid = 1L; off = 0; len = 1024; data = Some (Bytes.sub payload 0 1024) } |];
      }
  in
  let write_1k_frame = S4_net.Wire.encode write_1k in
  let tests =
    [
      Test.make ~name:"store-write-4k"
        (Staged.stage (fun () -> Store.write store woid ~off:0 ~len:4096 ()));
      Test.make ~name:"store-read-64k"
        (Staged.stage (fun () -> ignore (Store.read store roid ~off:0 ~len:65536)));
      Test.make ~name:"store-sync" (Staged.stage (fun () -> Store.sync store));
      Test.make ~name:"crc32-4k" (Staged.stage (fun () -> ignore (S4_util.Crc32.bytes payload)));
      Test.make ~name:"crc32-64" (Staged.stage (fun () -> ignore (S4_util.Crc32.bytes small)));
      Test.make ~name:"sha256-record-96"
        (Staged.stage (fun () -> ignore (S4_util.Sha256.digest_bytes record)));
      Test.make ~name:"sha256-4k" (Staged.stage (fun () -> ignore (S4_util.Sha256.digest_bytes payload)));
      Test.make ~name:"wire-encode-1k" (Staged.stage (fun () -> ignore (S4_net.Wire.encode write_1k)));
      Test.make ~name:"wire-decode-1k"
        (Staged.stage (fun () ->
             ignore (S4_net.Wire.decode write_1k_frame ~pos:0 ~avail:(Bytes.length write_1k_frame))));
      Test.make ~name:"lz-compress-4k"
        (Staged.stage (fun () -> ignore (S4_compress.Lz.compress payload)));
      Test.make ~name:"delta-encode-4k"
        (Staged.stage (fun () -> ignore (S4_compress.Delta.encode ~source:payload ~target:payload2)));
      Test.make ~name:"acl-check"
        (Staged.stage (fun () ->
             ignore
               (S4.Acl.allows
                  [ S4.Acl.owner_entry ~user:1; S4.Acl.public_read ]
                  ~user:2 ~client:3 S4.Acl.Read)));
    ]
  in
  let grouped = Test.make_grouped ~name:"s4" tests in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> rows := (name, nan) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-40s %12.0f ns/op\n" name est)
    (List.sort compare !rows)
