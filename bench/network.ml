open Harness

(* ------------------------------------------------------------------ *)
(* Net: wire protocol — in-process vs loopback vs TCP                  *)

let net () =
  Report.heading "Net: wire-protocol overhead — in-process vs loopback vs TCP (wall-clock)";
  let ops = if !full_scale then 20_000 else 4_000 in
  let payload = Bytes.make 1024 'x' in
  let mk_drive () = format_drive Systems.content_drive_config (Simclock.create ()) in
  (* The same simulated drive work flows down every path; the wall-clock
     difference is what the codec, the session engine and the socket add. *)
  let run_path label (b : Backend.t) =
    let oid = (create_objects b.Backend.submit 1).(0) in
    let op req = ignore (Backend.handle b cred req) in
    op (Rpc.Write { oid; off = 0; len = 1024; data = Some payload });
    let t =
      measure (fun () ->
          ( b.Backend.clock,
            (fun () ->
              for _ = 1 to ops / 2 do
                op (Rpc.Write { oid; off = 0; len = 1024; data = Some payload });
                op (Rpc.Read { oid; off = 0; len = 1024; at = None })
              done),
            ignore ))
    in
    let us_per_op = t.wall_s *. 1e6 /. float_of_int ops in
    Report.record ~experiment:"net" ~label
      [
        ("ops", float_of_int ops);
        ("wall_seconds", t.wall_s);
        ("us_per_op", us_per_op);
        ("ops_per_second", float_of_int ops /. t.wall_s);
      ];
    (label, us_per_op, float_of_int ops /. t.wall_s)
  in
  let inproc = run_path "in-process" (Drive.backend (mk_drive ())) in
  let loop_row =
    let client = Netclient.connect (Nettransport.loopback (Netserver.of_drive (mk_drive ()))) in
    let row = run_path "loopback" (client_backend client) in
    Netclient.close client;
    row
  in
  let client, stop = tcp_client (mk_drive ()) in
  let tcp = client_backend client in
  let tcp_row = run_path "tcp" tcp in
  Report.table
    ~header:[ "path"; "us/op"; "ops/s" ]
    (List.map
       (fun (label, us, rate) ->
         [ label; Printf.sprintf "%.1f" us; Printf.sprintf "%.0f" rate ])
       [ inproc; loop_row; tcp_row ]);
  (* Depth sweep: a depth-d submit carries d reads in one Batch frame,
     so one round trip serves d requests; depth 1 pays a full round
     trip per op. *)
  print_newline ();
  Report.heading "Net: TCP batch-depth sweep (1KB reads, one submit per batch)";
  let sweep_reads = if !full_scale then 4096 else 1024 in
  let oid = (create_objects tcp.Backend.submit 1).(0) in
  ignore (Backend.handle tcp cred (Rpc.Write { oid; off = 0; len = 1024; data = Some payload }));
  let read = Rpc.Read { oid; off = 0; len = 1024; at = None } in
  let sweep_rows =
    List.map
      (fun depth ->
        let batches = max 1 (sweep_reads / depth) in
        let t =
          measure (fun () ->
              ( tcp.Backend.clock,
                (fun () ->
                  for _ = 1 to batches do
                    ignore (tcp.Backend.submit cred (Array.make depth read))
                  done),
                ignore ))
        in
        let n = batches * depth in
        let rate = float_of_int n /. t.wall_s in
        Report.record ~experiment:"net_pipeline" ~label:(string_of_int depth)
          [
            ("depth", float_of_int depth);
            ("reads", float_of_int n);
            ("wall_seconds", t.wall_s);
            ("reads_per_second", rate);
          ];
        [ string_of_int depth; string_of_int n; Printf.sprintf "%.0f" rate ])
      [ 1; 2; 4; 8; 16; 32 ]
  in
  Report.table ~header:[ "depth"; "reads"; "reads/s" ] sweep_rows;
  stop ();
  (* PostMark through the full stack over real TCP: translator -> net
     client -> socket -> daemon -> drive. *)
  print_newline ();
  Report.heading "Net: PostMark over TCP through the wire protocol";
  let sys, stop_sys = Systems.s4_tcp () in
  let pm_config =
    pm_seeded
      (if !full_scale then Postmark.default
       else { Postmark.default with Postmark.files = 500; transactions = 2_000 })
  in
  let t =
    measure (fun () -> (sys.Systems.clock, (fun () -> Postmark.run ~config:pm_config sys), stop_sys))
  in
  let pm = t.value in
  Printf.printf "postmark over tcp: %.1f txn/s simulated, %.2f s wall\n"
    pm.Postmark.transactions_per_second t.wall_s;
  Report.record ~experiment:"net_postmark" ~label:"tcp"
    [
      ("files", float_of_int pm_config.Postmark.files);
      ("transactions", float_of_int pm_config.Postmark.transactions);
      ("transactions_per_second", pm.Postmark.transactions_per_second);
      ("transaction_seconds", pm.Postmark.transaction_seconds);
      ("wall_seconds", t.wall_s);
    ];
  Report.record ~experiment:"net" ~label:"counters"
    [
      ("frames_in", float_of_int (Metrics.counter "net/frames_in"));
      ("frames_out", float_of_int (Metrics.counter "net/frames_out"));
      ("bytes_in", float_of_int (Metrics.counter "net/bytes_in"));
      ("bytes_out", float_of_int (Metrics.counter "net/bytes_out"));
      ("decode_reject", float_of_int (Metrics.counter "net/decode_reject"));
      ("retry", float_of_int (Metrics.counter "net/retry"));
      ("reconnect", float_of_int (Metrics.counter "net/reconnect"));
    ]
