module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Net = S4_disk.Net
module Drive = S4.Drive
module Client = S4.Client
module Store = S4_store.Obj_store
module Translator = S4_nfs.Translator
module Server = S4_nfs.Server
module Upfs = S4_baseline.Upfs
module Router = S4_shard.Router
module Mirror = S4_multi.Mirror
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Nettransport = S4_net.Transport

type t = {
  name : string;
  server : Server.t;
  clock : Simclock.t;
  disk : Sim_disk.t;
  drive : Drive.t option;
  translator : Translator.t option;
  router : Router.t option;
}

let benchmark_drive_config =
  {
    Drive.default_config with
    store = { Store.default_config with keep_data = false };
    throttle = None;
  }

let content_drive_config =
  { benchmark_drive_config with store = { Store.default_config with keep_data = true } }

module Config = struct
  type sys = t

  type t = {
    disk_mb : int option;
    drive_config : Drive.config;
    mirrored : bool;
    balanced : bool;
    read_overlap : bool;
    domains : int;
    server_config : Netserver.config option;
    client_config : Netclient.config option;
  }

  let domains_from_env () =
    match Sys.getenv_opt "S4_DOMAINS" with
    | None -> 1
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)

  let default =
    {
      disk_mb = None;
      drive_config = benchmark_drive_config;
      mirrored = false;
      balanced = false;
      read_overlap = false;
      domains = domains_from_env ();
      server_config = None;
      client_config = None;
    }

  let serial = { default with domains = 1 }
  let content = { default with drive_config = content_drive_config }
end

let mk_disk config () =
  let clock = Simclock.create () in
  let geometry =
    match config.Config.disk_mb with
    | None -> Geometry.cheetah_9gb
    | Some mb -> Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)
  in
  (clock, Sim_disk.create ~geometry clock)

let s4_remote ?(config = Config.default) () =
  let clock, disk = mk_disk config () in
  let drive = Drive.format ~config:config.Config.drive_config disk in
  let net = Net.create clock in
  let client = Client.connect net drive in
  let tr = Translator.mount (Translator.Remote client) in
  {
    name = "S4-remote";
    server = Server.of_translator ~name:"S4-remote" tr;
    clock;
    disk;
    drive = Some drive;
    translator = Some tr;
    router = None;
  }

let s4_nfs_server ?(config = Config.default) () =
  let clock, disk = mk_disk config () in
  let drive = Drive.format ~config:config.Config.drive_config disk in
  let tr = Translator.mount (Translator.Local drive) in
  let net = Net.create clock in
  let server = Server.over_net net (Server.of_translator ~name:"S4-NFS" tr) in
  { name = "S4-NFS"; server; clock; disk; drive = Some drive; translator = Some tr; router = None }

let s4_array ?(config = Config.default) ~shards () =
  if shards <= 0 then invalid_arg "Systems.s4_array: need at least one shard";
  let clock = Simclock.create () in
  let geometry =
    match config.Config.disk_mb with
    | None -> Geometry.cheetah_9gb
    | Some mb -> Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)
  in
  let mk_drive () =
    Drive.format ~config:config.Config.drive_config (Sim_disk.create ~geometry clock)
  in
  let members =
    List.init shards (fun i ->
        if config.Config.mirrored then begin
          let m = Mirror.create (mk_drive ()) (mk_drive ()) in
          if config.Config.balanced then Mirror.set_read_policy m Mirror.Balanced;
          (i, Router.Mirrored m)
        end
        else (i, Router.Single (mk_drive ())))
  in
  let router = Router.create members in
  Router.set_read_overlap router config.Config.read_overlap;
  Router.set_domains router config.Config.domains;
  let tr = Translator.mount (Translator.Backend (Router.backend router)) in
  let name =
    Printf.sprintf "S4-array-%d%s" shards (if config.Config.mirrored then "m" else "")
  in
  let net = Net.create clock in
  {
    name;
    server = Server.over_net net (Server.of_translator ~name tr);
    clock;
    disk = S4_seglog.Log.disk (Drive.log (List.hd (Router.all_drives router)));
    drive = None;
    translator = Some tr;
    router = Some router;
  }

(* Networked deployments: the same drive stack served through lib/net's
   wire protocol instead of an in-process call. *)

let s4_direct ?(config = Config.default) () =
  let clock, disk = mk_disk config () in
  let drive = Drive.format ~config:config.Config.drive_config disk in
  let tr = Translator.mount (Translator.Local drive) in
  {
    name = "S4-direct";
    server = Server.of_translator ~name:"S4-direct" tr;
    clock;
    disk;
    drive = Some drive;
    translator = Some tr;
    router = None;
  }

let s4_loopback ?(config = Config.default) () =
  let clock, disk = mk_disk config () in
  let drive = Drive.format ~config:config.Config.drive_config disk in
  let srv = Netserver.of_drive ?config:config.Config.server_config drive in
  (* Identity 1 matches the translator's default credential client, so
     the connection-derived identity leaves the audit trail identical
     to the in-process deployment. *)
  let client =
    Netclient.connect ?config:config.Config.client_config
      (Nettransport.loopback ~identity:1 srv)
  in
  let keep_data = config.Config.drive_config.Drive.store.Store.keep_data in
  let tr = Translator.mount (Translator.Backend (Netclient.backend ~clock ~keep_data client)) in
  {
    name = "S4-loopback";
    server = Server.of_translator ~name:"S4-loopback" tr;
    clock;
    disk;
    drive = Some drive;
    translator = Some tr;
    router = None;
  }

let s4_tcp ?(config = Config.default) () =
  let clock, disk = mk_disk config () in
  let drive = Drive.format ~config:config.Config.drive_config disk in
  let srv = Netserver.of_drive ?config:config.Config.server_config drive in
  let listener = Netserver.serve_tcp srv in
  let client =
    Netclient.connect ?config:config.Config.client_config
      (Nettransport.tcp ~host:"127.0.0.1" ~port:(Netserver.port listener))
  in
  let keep_data = config.Config.drive_config.Drive.store.Store.keep_data in
  let tr = Translator.mount (Translator.Backend (Netclient.backend ~clock ~keep_data client)) in
  let sys =
    {
      name = "S4-tcp";
      server = Server.of_translator ~name:"S4-tcp" tr;
      clock;
      disk;
      drive = Some drive;
      translator = Some tr;
      router = None;
    }
  in
  let stop () =
    Netclient.close client;
    Netserver.shutdown listener
  in
  (sys, stop)

let baseline name cfg config () =
  let clock, disk = mk_disk config () in
  let fs = Upfs.create cfg disk in
  let net = Net.create clock in
  let server = Server.over_net net (Upfs.server fs) in
  { name; server; clock; disk; drive = None; translator = None; router = None }

let bsd_ffs ?(config = Config.default) () = baseline "BSD-FFS" Upfs.ffs config ()
let linux_ext2 ?(config = Config.default) () = baseline "Linux-ext2" Upfs.ext2_sync config ()

let all_four ?(config = Config.default) () =
  [
    s4_remote ~config ();
    s4_nfs_server ~config ();
    bsd_ffs ~config ();
    linux_ext2 ~config ();
  ]

let elapsed_seconds t thunk =
  let t0 = Simclock.now t.clock in
  let v = thunk () in
  (Simclock.to_seconds (Int64.sub (Simclock.now t.clock) t0), v)

let drives t =
  match (t.drive, t.router) with
  | Some d, _ -> [ d ]
  | None, Some r -> Router.all_drives r
  | None, None -> []

let drop_all_caches t =
  t.server.Server.reset_caches ();
  List.iter (fun d -> Store.drop_caches (Drive.store d)) (drives t)

let run_cleaner t =
  match (t.drive, t.router) with
  | Some d, _ -> ignore (Drive.run_cleaner d)
  | None, Some r -> Router.run_cleaners r
  | None, None -> ()

let ensure_space t ~min_free_segments =
  let module L = S4_seglog.Log in
  let per_drive clean d =
    let log = Drive.log d in
    let rec loop budget =
      if budget > 0 && L.free_segments log < min_free_segments then begin
        let before = L.free_segments log in
        clean ();
        if L.free_segments log > before then loop (budget - 1)
      end
    in
    loop 64
  in
  match (t.drive, t.router) with
  | Some d, _ -> per_drive (fun () -> ignore (Drive.run_cleaner d)) d
  | None, Some r ->
    List.iter (fun d -> per_drive (fun () -> Router.run_cleaners r) d) (Router.all_drives r)
  | None, None -> ()
