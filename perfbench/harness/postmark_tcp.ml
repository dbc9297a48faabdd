(* postmark-tcp: PostMark's small-file mix from one NFS client whose S4
   RPCs cross a real TCP connection to a single drive (the paper's
   S4-remote deployment, Fig. 3). The loopback variant runs the same
   stack over the in-memory transport, which adds no simulated time;
   traced runs use it because the tracer cannot follow a request onto
   the TCP server's thread. *)

module N = S4_nfs.Nfs_types
module Nfs = S4_nfs.Server
module Translator = S4_nfs.Translator
module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Drive = S4.Drive
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Nettransport = S4_net.Transport

type transport = Tcp | Loopback

type scale = { files : int;  (** initial file set, created during set-up *) txns : int }

let full = { files = 300; txns = 1_200 }
let smoke = { files = 30; txns = 60 }

(* PostMark's defaults: ten subdirectories, files of 512 B to 9.3 KB. *)
let subdirectories = 10
let min_size = 512
let max_size = 9_216

(* Large enough that the cleaner never runs. *)
let disk_mb = 1024

type file = { name : string; dir : N.fh; fh : N.fh; base : int; mutable size : int }

let run ~scale ~seed ~transport ~traced =
  let rng = Random.State.make [| seed; 0x504d |] in
  let pat = Content.create rng in
  Pass.with_tracing traced @@ fun () ->
  let t_setup = Wallspan.now () in
  let clock = Simclock.create () in
  let drive =
    Drive.format ~config:S4_workload.Systems.content_drive_config
      (Sim_disk.create
         ~geometry:(Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(disk_mb lsl 20))
         clock)
  in
  let srv = Netserver.create (Wallspan.timed_backend "core" (Drive.backend drive)) in
  let link, stop_server =
    match transport with
    | Tcp ->
      let l = Netserver.serve_tcp srv in
      (Nettransport.tcp ~host:"127.0.0.1" ~port:(Netserver.port l), fun () -> Netserver.shutdown l)
    | Loopback -> (Nettransport.loopback ~identity:1 srv, ignore)
  in
  let client = Netclient.connect link in
  let stop () =
    Netclient.close client;
    stop_server ()
  in
  Fun.protect ~finally:stop @@ fun () ->
  let tr =
    Translator.mount
      (Translator.Backend
         (Wallspan.timed_backend "net" (Netclient.backend ~clock ~keep_data:true client)))
  in
  let nfs = Nfs.of_translator ~name:"S4-tcp" tr in
  let m = Pass.create clock in
  let call req = Wallspan.time "nfs" (fun () -> nfs.Nfs.handle req) in
  let op req = Pass.measure m Pass.Op (fun () -> call req) in
  let dirs =
    Array.init subdirectories (fun i ->
        let name = Printf.sprintf "s%02d" i in
        match call (N.Mkdir { dir = nfs.Nfs.root; name; mode = 0o755 }) with
        | N.R_fh (fh, _) -> fh
        | _ -> failwith "postmark-tcp: mkdir")
  in
  let live = ref [||] and count = ref 0 and serial = ref 0 in
  let user_bytes = ref 0 and barriers = ref 0 in
  let add f =
    if !count = Array.length !live then begin
      let bigger = Array.make (max 64 (2 * !count)) f in
      Array.blit !live 0 bigger 0 !count;
      live := bigger
    end;
    !live.(!count) <- f;
    incr count
  in
  let size () = min_size + Random.State.int rng (max_size - min_size + 1) in
  let create ~send =
    let dir = dirs.(Random.State.int rng subdirectories) in
    incr serial;
    let name = Printf.sprintf "pm%06d" !serial in
    let base = Content.base rng and len = size () in
    incr barriers;
    match send (N.Create { dir; name; mode = 0o644 }) with
    | N.R_fh (fh, _) ->
      Pass.check m true "create";
      incr barriers;
      let data = Content.bytes pat ~base ~off:0 ~len in
      (match send (N.Write { fh; off = 0; data }) with
       | N.R_attr a -> Pass.check m (a.N.size = len) (Printf.sprintf "%s: size after write" name)
       | _ -> Pass.check m false (Printf.sprintf "%s: write refused" name));
      user_bytes := !user_bytes + len;
      add { name; dir; fh; base; size = len }
    | _ -> Pass.check m false (Printf.sprintf "%s: create refused" name)
  in
  let pick () = Random.State.int rng !count in
  let delete () =
    let i = pick () in
    let f = !live.(i) in
    decr count;
    !live.(i) <- !live.(!count);
    incr barriers;
    Pass.check m (op (N.Remove { dir = f.dir; name = f.name }) = N.R_unit) (f.name ^ ": remove")
  in
  let read () =
    let f = !live.(pick ()) in
    match op (N.Read { fh = f.fh; off = 0; len = f.size }) with
    | N.R_data b ->
      Pass.check m
        (Bytes.length b = f.size && Content.matches pat ~base:f.base ~off:0 b)
        (f.name ^ ": read returned other bytes")
    | _ -> Pass.check m false (f.name ^ ": read refused")
  in
  let append () =
    let f = !live.(pick ()) in
    let len = size () in
    let data = Content.bytes pat ~base:f.base ~off:f.size ~len in
    incr barriers;
    match op (N.Write { fh = f.fh; off = f.size; data }) with
    | N.R_attr a ->
      Pass.check m (a.N.size = f.size + len) (f.name ^ ": size after append");
      f.size <- f.size + len;
      user_bytes := !user_bytes + len
    | _ -> Pass.check m false (f.name ^ ": append refused")
  in
  for _ = 1 to scale.files do
    create ~send:call
  done;
  let setup_s = Wallspan.seconds_since t_setup in
  let snapshot () =
    Pass.drive_counters [ drive ]
    @ Pass.net_counters () @ Pass.nfs_counters tr
    @ [
        ("user_bytes", float_of_int !user_bytes);
        ("barriers", float_of_int !barriers);
        ("audit.seals", float_of_int (Pass.seals [ drive ]));
      ]
  in
  let before = snapshot () in
  let s_txn = Simclock.now clock in
  for _ = 1 to scale.txns do
    (* PostMark's two sub-transactions, equal bias. *)
    if Random.State.bool rng || !count = 0 then create ~send:op else delete ();
    if !count > 0 then if Random.State.bool rng then read () else append ()
  done;
  let txn_sim_s = Simclock.to_seconds (Int64.sub (Simclock.now clock) s_txn) in
  let counters = Pass.delta before (snapshot ()) in
  let space_amp = float_of_int (Pass.occupied_bytes [ drive ]) /. float_of_int !user_bytes in
  Pass.check_drives m [ drive ];
  if traced then Pass.check_trace m ~audit:(Pass.audit_view drive) ~complete:true ();
  {
    Pass.setup_s;
    ops = List.length m.Pass.brackets;
    meter = m;
    counters;
    sim =
      [
        ("space_amp", space_amp);
        ("postmark.sim_txn_per_s", float_of_int scale.txns /. txn_sim_s);
      ];
    n_disks = 1;
  }
