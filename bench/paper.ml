open Harness

(* ------------------------------------------------------------------ *)
(* Table 1: the RPC interface                                          *)

let table1 () =
  Report.heading "Table 1: S4 RPC interface (time-based access support)";
  let rows =
    [
      ("Create", "no", "create an object");
      ("Delete", "no", "delete an object");
      ("Read", "yes", "read data from an object");
      ("Write", "no", "write data to an object");
      ("Append", "no", "append data to the end of an object");
      ("Truncate", "no", "truncate an object to a specified length");
      ("GetAttr", "yes", "get the attributes of an object");
      ("SetAttr", "no", "set the opaque attributes of an object");
      ("GetACLByUser", "yes", "get an ACL entry by UserID");
      ("GetACLByIndex", "yes", "get an ACL entry by table index");
      ("SetACL", "no", "set an ACL entry");
      ("PCreate", "no", "create a partition (name -> ObjectID)");
      ("PDelete", "no", "delete a partition");
      ("PList", "yes", "list the partitions");
      ("PMount", "yes", "retrieve the ObjectID given its name");
      ("Sync", "n/a", "sync the entire cache to disk");
      ("Flush", "n/a", "remove versions older than a time (admin)");
      ("FlushO", "n/a", "remove one object's old versions (admin)");
      ("SetWindow", "n/a", "adjust the guaranteed detection window (admin)");
    ]
  in
  Report.table ~header:[ "RPC"; "time-based"; "description" ]
    (List.map (fun (a, b, c) -> [ a; b; c ]) rows);
  (* Prove the matrix by exercising each RPC against a live drive. *)
  let drive = Drive.format (sized_disk 64) in
  let alice = Rpc.user_cred ~user:1 ~client:1 in
  let ok = ref 0 in
  let b = Drive.backend drive in
  let exec cred req =
    match Backend.handle b cred req with
    | Rpc.R_error e -> failwith (Format.asprintf "%a" Rpc.pp_error e)
    | _ -> incr ok
  in
  let oid =
    match Backend.handle b alice (Rpc.Create { acl = [] }) with
    | Rpc.R_oid o ->
      incr ok;
      o
    | _ -> failwith "create"
  in
  exec alice (Rpc.Write { oid; off = 0; len = 4; data = Some (Bytes.of_string "abcd") });
  exec alice (Rpc.Append { oid; len = 4; data = Some (Bytes.of_string "efgh") });
  exec alice (Rpc.Read { oid; off = 0; len = 8; at = None });
  exec alice (Rpc.Truncate { oid; size = 4 });
  exec alice (Rpc.Get_attr { oid; at = None });
  exec alice (Rpc.Set_attr { oid; attr = Bytes.of_string "attrs" });
  exec alice (Rpc.Get_acl_by_user { oid; acl_user = 1; at = None });
  exec alice (Rpc.Get_acl_by_index { oid; index = 0; at = None });
  exec alice (Rpc.Set_acl { oid; index = 1; entry = S4.Acl.public_read });
  exec alice (Rpc.P_create { name = "vol"; oid });
  exec alice (Rpc.P_list { at = None });
  exec alice (Rpc.P_mount { name = "vol"; at = None });
  exec alice Rpc.Sync;
  exec alice (Rpc.P_delete { name = "vol" });
  exec alice (Rpc.Delete { oid });
  exec Rpc.admin_cred (Rpc.Set_window { window = 1_000_000_000L });
  exec Rpc.admin_cred (Rpc.Flush_object { oid; until = 0L });
  exec Rpc.admin_cred (Rpc.Flush { until = 0L });
  Printf.printf "\nAll 19 RPC types executed successfully against a live drive (%d calls ok).\n" !ok

(* ------------------------------------------------------------------ *)
(* Figure 2: journal-based metadata vs conventional versioning         *)

let fig2 () =
  Report.heading "Figure 2: metadata cost per update (journal-based vs conventional versioning)";
  let scenario name offsets =
    let log = Log.create (sized_disk 512) in
    let store = Store.create ~config:{ Store.default_config with keep_data = false } log in
    let oid = Store.create_object store in
    (* Pre-size the file so updates land in indirect territory. *)
    let max_off = List.fold_left max 0 offsets in
    Store.write store oid ~off:0 ~len:(max_off + 4096) ();
    let nv = Nv.create () in
    Nv.write nv ~off:0 ~len:(max_off + 4096);
    let s4_meta0 = (Store.stats store).Store.journal_bytes in
    let nv_meta0 = Nv.metadata_bytes nv in
    List.iter
      (fun off ->
        Store.write store oid ~off ~len:4096 ();
        Nv.write nv ~off ~len:4096)
      offsets;
    Store.sync store;
    let s4_meta = (Store.stats store).Store.journal_bytes - s4_meta0 in
    let nv_meta = Nv.metadata_bytes nv - nv_meta0 in
    let n = List.length offsets in
    [
      name;
      string_of_int n;
      Printf.sprintf "%d B" (nv_meta / n);
      Printf.sprintf "%d B" (s4_meta / n);
      Printf.sprintf "%.0fx" (float_of_int nv_meta /. float_of_int s4_meta);
    ]
  in
  let direct = List.init 50 (fun i -> i mod 12 * 4096) in
  let single = List.init 50 (fun i -> (12 + (i mod 1000)) * 4096) in
  let double = List.init 50 (fun i -> (12 + 1024 + (i * 13)) * 4096) in
  Report.table
    ~header:
      [ "update pattern"; "updates"; "conventional meta/update"; "S4 journal meta/update"; "ratio" ]
    [
      scenario "direct blocks" direct;
      scenario "single indirect" single;
      scenario "double indirect" double;
    ];
  Report.note
    "conventional versioning copies the indirect chain + inode per update (the paper's up-to-4x growth); a journal entry is tens of bytes"

(* ------------------------------------------------------------------ *)
(* Figure 3: PostMark                                                  *)

let fig3 () =
  Report.heading "Figure 3: PostMark benchmark (four servers)";
  let config =
    pm_seeded
      (if !full_scale then Postmark.default
       else { Postmark.default with Postmark.files = 1000; transactions = 5000 })
  in
  Printf.printf "files=%d transactions=%d\n\n" config.Postmark.files config.Postmark.transactions;
  let results = List.map (fun sys -> Postmark.run ~config sys) (Systems.all_four ()) in
  List.iter
    (fun (r : Postmark.result) ->
      Report.record ~experiment:"fig3" ~label:r.Postmark.system
        [
          ("creation_seconds", r.Postmark.creation_seconds);
          ("transaction_seconds", r.Postmark.transaction_seconds);
          ("transactions_per_second", r.Postmark.transactions_per_second);
        ])
    results;
  Report.table
    ~header:[ "system"; "creation (s)"; "transactions (s)"; "txn/s" ]
    (List.map
       (fun (r : Postmark.result) ->
         [
           r.Postmark.system;
           Printf.sprintf "%.2f" r.Postmark.creation_seconds;
           Printf.sprintf "%.2f" r.Postmark.transaction_seconds;
           Printf.sprintf "%.1f" r.Postmark.transactions_per_second;
         ])
       results);
  print_newline ();
  Report.bars
    (List.map
       (fun (r : Postmark.result) -> (r.Postmark.system ^ " (txn s)", r.Postmark.transaction_seconds))
       results);
  Report.note "paper: S4 comparable to BSD/Linux NFS, slightly better due to its log-structured layout"

(* ------------------------------------------------------------------ *)
(* Figure 4: SSH-build                                                 *)

let fig4 () =
  Report.heading "Figure 4: SSH-build benchmark (unpack / configure / build)";
  let config =
    if !full_scale then Ssh_build.default
    else { Ssh_build.default with Ssh_build.source_files = 60; configure_tests = 30 }
  in
  let results = List.map (fun sys -> Ssh_build.run ~config sys) (Systems.all_four ()) in
  List.iter
    (fun (r : Ssh_build.result) ->
      Report.record ~experiment:"fig4" ~label:r.Ssh_build.system
        [
          ("unpack_seconds", r.Ssh_build.unpack_seconds);
          ("configure_seconds", r.Ssh_build.configure_seconds);
          ("build_seconds", r.Ssh_build.build_seconds);
          ("total_seconds", Ssh_build.total r);
        ])
    results;
  Report.table
    ~header:[ "system"; "unpack (s)"; "configure (s)"; "build (s)"; "total (s)" ]
    (List.map
       (fun (r : Ssh_build.result) ->
         [
           r.Ssh_build.system;
           Printf.sprintf "%.2f" r.Ssh_build.unpack_seconds;
           Printf.sprintf "%.2f" r.Ssh_build.configure_seconds;
           Printf.sprintf "%.2f" r.Ssh_build.build_seconds;
           Printf.sprintf "%.2f" (Ssh_build.total r);
         ])
       results);
  Report.note
    "paper: similar across S4 and BSD; Linux wins configure via its sync-mount write-coalescing flaw"

(* ------------------------------------------------------------------ *)
(* Figure 5: cleaner overhead vs capacity utilisation                  *)

let fig5_rows () =
  Report.heading "Figure 5: cleaner overhead vs capacity utilisation (PostMark transactions)";
  let disk_mb = if !full_scale then 2048 else 512 in
  let transactions = if !full_scale then 50_000 else 8_000 in
  let utilisations = [ 0.02; 0.10; 0.30; 0.50; 0.60; 0.80; 0.90 ] in
  Printf.printf "disk=%d MB, transactions=%d\n\n" disk_mb transactions;
  (* Utilisation is measured in occupied blocks: a PostMark file
     (uniform 512..9216 B) occupies ~1.71 4KB blocks, plus ~0.2 blocks
     of metadata (journal + packed checkpoint share). *)
  let blocks_per_file = 1.9 in
  let run ~mode util =
    (* Tiny window so overwritten data expires immediately; the
       cleaner (when enabled) competes with foreground work. *)
    let drive_config =
      {
        Systems.benchmark_drive_config with
        Drive.window = 0L;
        cleaner_live_threshold = 0.9;
        cleaner_max_segments = 16;
      }
    in
    let sys =
      Systems.s4_nfs_server
        ~config:{ Systems.Config.default with disk_mb = Some disk_mb; drive_config }
        ()
    in
    (match sys.Systems.drive with
     | Some d -> Cleaner.set_mode (Drive.cleaner d) mode
     | None -> ());
    let usable =
      match sys.Systems.drive with
      | Some d -> S4_seglog.Log.usable_blocks (Drive.log d)
      | None -> disk_mb * 256
    in
    let files = int_of_float (util *. float_of_int usable /. blocks_per_file) in
    (* The paper ran the cleaner continuously competing with foreground
       activity; a short period approximates that. *)
    let config =
      pm_seeded { Postmark.default with Postmark.files; transactions; cleaner_every = Some 50 }
    in
    let r = Postmark.run ~config sys in
    r.Postmark.transactions_per_second
  in
  let rows =
    List.map
      (fun util ->
        (* Free mode: cleaning happens (it must, to keep space) but
           costs nothing - the paper's solid "no cleaning" line. *)
        let normal = run ~mode:Cleaner.Free util in
        (* Charged: the paper's untuned continuous *foreground* cleaner
           (the dashed line / worst case). *)
        let fg = run ~mode:Cleaner.Charged util in
        (* Overlapped: the Sec 5.1.5 remedy - cleaning soaks up idle
           disk time first. *)
        let bg = run ~mode:Cleaner.Overlapped util in
        Report.record ~experiment:"fig5"
          [
            ("utilisation", util);
            ("tps_no_cleaning", normal);
            ("tps_foreground", fg);
            ("tps_overlapped", bg);
          ];
        (util, normal, fg, bg))
      utilisations
  in
  Report.table
    ~header:
      [ "utilisation"; "txn/s (no cleaning cost)"; "txn/s (foreground cleaner)"; "degradation";
        "txn/s (idle-overlapped)"; "bg degradation" ]
    (List.map
       (fun (u, n, fg, bg) ->
         [
           Printf.sprintf "%.0f%%" (100.0 *. u);
           Printf.sprintf "%.1f" n;
           Printf.sprintf "%.1f" fg;
           Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (fg /. n)));
           Printf.sprintf "%.1f" bg;
           Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (bg /. n)));
         ])
       rows);
  Report.note
    "paper: sharp drop 2%->10% as the set leaves the cache; continuous foreground cleaning costs up to ~50%; idle-time cleaning is the paper's proposed remedy (Sec 5.1.5)";
  List.map (fun (u, n, fg, _) -> (u, n, fg)) rows

let fig5 () = ignore (fig5_rows ())

let fundamental () =
  Report.heading "Section 5.1.5: fundamental cost of keeping the history pool";
  let rows = fig5_rows () in
  let find u = List.find_opt (fun (x, _, _) -> abs_float (x -. u) < 0.01) rows in
  match (find 0.60, find 0.80) with
  | Some (_, n60, c60), Some (_, n80, c80) ->
    let d60 = 1.0 -. (c60 /. n60) and d80 = 1.0 -. (c80 /. n80) in
    Report.kv
      [
        ("cleaning overhead at 60% (active set only)", Printf.sprintf "%.0f%%" (100.0 *. d60));
        ( "cleaning overhead at 80% (active set + history pool)",
          Printf.sprintf "%.0f%%" (100.0 *. d80) );
        ( "extra overhead attributable to the history pool",
          Printf.sprintf "%.0f%%" (100.0 *. (d80 -. d60)) );
      ];
    Report.note
      "paper's example: 43% at 60% utilisation vs 53% at 80% -> the history pool itself costs ~10%"
  | _ -> print_endline "fig5 points missing"

(* ------------------------------------------------------------------ *)
(* Figure 6: audit-log overhead microbenchmark                         *)

let fig6 () =
  Report.heading "Figure 6: audit-log overhead (create/read/delete 1KB files)";
  let files = if !full_scale then 10_000 else 4_000 in
  Printf.printf "files=%d in 10 directories\n\n" files;
  let run audit =
    let drive_config = { Systems.benchmark_drive_config with Drive.audit_enabled = audit } in
    let sys = Systems.s4_nfs_server ~config:{ Systems.Config.default with drive_config } () in
    Microbench.run ~config:{ Microbench.default with Microbench.files } sys
  in
  let off = run false in
  let on = run true in
  let pct a b = 100.0 *. (a -. b) /. b in
  Report.record ~experiment:"fig6"
    [
      ("create_off_s", off.Microbench.create_seconds);
      ("create_on_s", on.Microbench.create_seconds);
      ("read_off_s", off.Microbench.read_seconds);
      ("read_on_s", on.Microbench.read_seconds);
      ("delete_off_s", off.Microbench.delete_seconds);
      ("delete_on_s", on.Microbench.delete_seconds);
    ];
  Report.table
    ~header:[ "phase"; "audit off (s)"; "audit on (s)"; "penalty" ]
    [
      [
        "create";
        Printf.sprintf "%.2f" off.Microbench.create_seconds;
        Printf.sprintf "%.2f" on.Microbench.create_seconds;
        Printf.sprintf "%.1f%%" (pct on.Microbench.create_seconds off.Microbench.create_seconds);
      ];
      [
        "read";
        Printf.sprintf "%.2f" off.Microbench.read_seconds;
        Printf.sprintf "%.2f" on.Microbench.read_seconds;
        Printf.sprintf "%.1f%%" (pct on.Microbench.read_seconds off.Microbench.read_seconds);
      ];
      [
        "delete";
        Printf.sprintf "%.2f" off.Microbench.delete_seconds;
        Printf.sprintf "%.2f" on.Microbench.delete_seconds;
        Printf.sprintf "%.1f%%" (pct on.Microbench.delete_seconds off.Microbench.delete_seconds);
      ];
    ];
  Report.note
    "paper: create 2.8%, read 7.2% (audit blocks interleave with data in segments), delete 2.9%"

let audit_macro () =
  Report.heading "Section 5.1.4: audit overhead on an application benchmark (PostMark)";
  let config = pm_seeded { Postmark.default with Postmark.files = 1000; transactions = 5000 } in
  let run audit =
    let drive_config = { Systems.benchmark_drive_config with Drive.audit_enabled = audit } in
    Postmark.run ~config
      (Systems.s4_nfs_server ~config:{ Systems.Config.default with drive_config } ())
  in
  let off = run false and on = run true in
  let t r = r.Postmark.creation_seconds +. r.Postmark.transaction_seconds in
  Report.record ~experiment:"audit-macro"
    [
      ("audit_off_s", t off);
      ("audit_on_s", t on);
      ("penalty_pct", 100.0 *. ((t on /. t off) -. 1.0));
    ];
  Report.kv
    [
      ("audit off", Printf.sprintf "%.2f s" (t off));
      ("audit on", Printf.sprintf "%.2f s" (t on));
      ("penalty", Printf.sprintf "%.1f%%" (100.0 *. ((t on /. t off) -. 1.0)));
    ];
  Report.note "paper: 1-3% on the macro benchmarks"

(* ------------------------------------------------------------------ *)
(* Figure 7: projected detection window                                *)

let fig7 () =
  Report.heading "Figure 7: projected detection window (10 GB history pool)";
  print_endline "(a) with the paper's differencing/compression factors (3x / 5x):";
  let projections = Capacity.project_all () in
  Report.table
    ~header:[ "workload"; "MB/day"; "baseline (days)"; "+differencing"; "+diff+compression" ]
    (List.map
       (fun (p : Capacity.projection) ->
         [
           p.Capacity.p_study;
           Printf.sprintf "%.0f" (float_of_int p.Capacity.daily_write_bytes /. 1048576.0);
           Printf.sprintf "%.0f" p.Capacity.baseline_days;
           Printf.sprintf "%.0f" p.Capacity.differenced_days;
           Printf.sprintf "%.0f" p.Capacity.compressed_days;
         ])
       projections);
  print_newline ();
  print_endline "(b) with OUR measured differencing/compression factors (see diffstudy):";
  let d = Diffstudy.run ~files:(if !full_scale then 60 else 30) () in
  let projections =
    Capacity.project_all ~diff_factor:d.Diffstudy.diff_efficiency
      ~comp_factor:(Float.max d.Diffstudy.comp_efficiency d.Diffstudy.diff_efficiency)
      ()
  in
  Printf.printf "measured: differencing %.1fx, differencing+compression %.1fx\n"
    d.Diffstudy.diff_efficiency d.Diffstudy.comp_efficiency;
  Report.table
    ~header:[ "workload"; "baseline (days)"; "+differencing"; "+diff+compression" ]
    (List.map
       (fun (p : Capacity.projection) ->
         [
           p.Capacity.p_study;
           Printf.sprintf "%.0f" p.Capacity.baseline_days;
           Printf.sprintf "%.0f" p.Capacity.differenced_days;
           Printf.sprintf "%.0f" p.Capacity.compressed_days;
         ])
       projections);
  print_newline ();
  print_endline "(c) measured history growth, scaled replay on a live S4 drive:";
  List.iter
    (fun study ->
      let sys = Systems.s4_remote () in
      let m = Daily.replay ~scale:0.002 ~days:3 study sys in
      Format.printf "  %a@." Daily.pp_measurement m)
    Daily.all;
  Report.note
    "paper: 70+ days (AFS), 10 days (NT), 90+ days (Santry); 50-470 days with differencing+compression"

(* ------------------------------------------------------------------ *)
(* Section 5.2: differencing experiment                                *)

let diffstudy () =
  Report.heading "Section 5.2: cross-version differencing + compression (7 daily snapshots)";
  let r = Diffstudy.run ~files:(if !full_scale then 80 else 40) () in
  Report.table
    ~header:[ "day"; "tree (KB)"; "delta vs prev (KB)"; "delta+lz (KB)" ]
    (List.map
       (fun (d : Diffstudy.day) ->
         [
           string_of_int d.Diffstudy.day_index;
           Printf.sprintf "%.0f" (float_of_int d.Diffstudy.tree_bytes /. 1024.0);
           Printf.sprintf "%.0f" (float_of_int d.Diffstudy.delta_bytes /. 1024.0);
           Printf.sprintf "%.0f" (float_of_int d.Diffstudy.delta_lz_bytes /. 1024.0);
         ])
       r.Diffstudy.days);
  print_newline ();
  Report.record ~experiment:"diffstudy"
    [
      ("diff_efficiency", r.Diffstudy.diff_efficiency);
      ("comp_efficiency", r.Diffstudy.comp_efficiency);
    ];
  Report.kv
    [
      ( "space efficiency from differencing",
        Printf.sprintf "%.1fx (paper ~3x)" r.Diffstudy.diff_efficiency );
      ("with compression on top", Printf.sprintf "%.1fx (paper ~5x)" r.Diffstudy.comp_efficiency);
    ]

(* ------------------------------------------------------------------ *)
(* Section 6 discussion: versioning vs snapshots                       *)

let snapshots () =
  Report.heading "Section 6: comprehensive versioning vs periodic snapshots";
  let module Snap = S4_analysis.Snapshots in
  let periods = [ 60.0; 600.0; 3600.0; 86_400.0 ] in
  let rows = Snap.sweep ~periods_s:periods () in
  let fmt_period p =
    if p >= 86_400.0 then Printf.sprintf "%.0f d" (p /. 86_400.0)
    else if p >= 3600.0 then Printf.sprintf "%.0f h" (p /. 3600.0)
    else Printf.sprintf "%.0f min" (p /. 60.0)
  in
  Report.table
    ~header:
      [ "snapshot period"; "files captured"; "short-lived files"; "intermediate versions";
        "mean loss window" ]
    (List.map
       (fun (r : Snap.result) ->
         [
           fmt_period r.Snap.period_s;
           Printf.sprintf "%.0f%%" (100.0 *. r.Snap.files_captured);
           Printf.sprintf "%.0f%%" (100.0 *. r.Snap.short_lived_captured);
           Printf.sprintf "%.0f%%" (100.0 *. r.Snap.versions_captured);
           Printf.sprintf "%.0f s" (r.Snap.mean_loss_window_s);
         ])
       rows
     @ [ [ "every modification (S4)"; "100%"; "100%"; "100%"; "0 s" ] ]);
  Report.note
    "paper: snapshots often cannot recover short-lived files (exploit tools) or intermediate versions (scrubbed log updates); comprehensive versioning is the end-point of shrinking the period"

(* ------------------------------------------------------------------ *)
(* Ablations of S4 design choices                                      *)

let ablation () =
  Report.heading "Ablations: S4 design-parameter sensitivity (small PostMark / microbench)";
  let pm_config = pm_seeded { Postmark.default with Postmark.files = 500; transactions = 2_500 } in
  let run_pm drive_config =
    let sys = Systems.s4_nfs_server ~config:{ Systems.Config.default with drive_config } () in
    (Postmark.run ~config:pm_config sys).Postmark.transactions_per_second
  in
  print_endline "(a) block (buffer) cache size - the Figure 5 knee:";
  Report.table ~header:[ "cache"; "txn/s" ]
    (List.map
       (fun mb ->
         let dc =
           { Systems.benchmark_drive_config with
             Drive.store =
               { Systems.benchmark_drive_config.Drive.store with
                 Store.block_cache_bytes = mb * 1024 * 1024 } }
         in
         [ Printf.sprintf "%d MB" mb; Printf.sprintf "%.1f" (run_pm dc) ])
       [ 2; 8; 32; 128 ]);
  print_endline "\n(b) read-ahead (blocks per cache miss) - microbench cold reads:";
  Report.table ~header:[ "readahead"; "read phase (s)" ]
    (List.map
       (fun ra ->
         let dc =
           { Systems.benchmark_drive_config with
             Drive.store =
               { Systems.benchmark_drive_config.Drive.store with Store.readahead_blocks = ra } }
         in
         let sys =
           Systems.s4_nfs_server
             ~config:{ Systems.Config.default with drive_config = dc }
             ()
         in
         let r = Microbench.run ~config:{ Microbench.default with Microbench.files = 2000 } sys in
         [ string_of_int ra; Printf.sprintf "%.2f" r.Microbench.read_seconds ])
       [ 1; 8; 32; 64 ]);
  print_endline "\n(c) checkpoint interval (journal entries between metadata images):";
  Report.table ~header:[ "interval"; "txn/s"; "ckpt blocks written" ]
    (List.map
       (fun iv ->
         let dc =
           { Systems.benchmark_drive_config with
             Drive.store =
               { Systems.benchmark_drive_config.Drive.store with Store.checkpoint_interval = iv } }
         in
         let sys =
           Systems.s4_nfs_server
             ~config:{ Systems.Config.default with drive_config = dc }
             ()
         in
         let tps = (Postmark.run ~config:pm_config sys).Postmark.transactions_per_second in
         let ckpt =
           match sys.Systems.drive with
           | Some d -> (Store.stats (Drive.store d)).Store.checkpoint_blocks_written
           | None -> 0
         in
         [ string_of_int iv; Printf.sprintf "%.1f" tps; string_of_int ckpt ])
       [ 16; 64; 128; 512 ]);
  Report.note "journal-based metadata keeps checkpoints rare; performance is flat across sane intervals"
