(* Shared machinery for the experiment modules: the scale and seed
   settings, the one timer, the one sync-bound write cell and the
   producers it runs on. *)

module Simclock = S4_util.Simclock
module Rng = S4_util.Rng
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module Log = S4_seglog.Log
module Store = S4_store.Obj_store
module Cleaner = S4_store.Cleaner
module Drive = S4.Drive
module Backend = S4.Backend
module Rpc = S4.Rpc
module Nv = S4_baseline.Naive_versioning
module Systems = S4_workload.Systems
module Postmark = S4_workload.Postmark
module Ssh_build = S4_workload.Ssh_build
module Microbench = S4_workload.Microbench
module Daily = S4_workload.Daily
module Capacity = S4_analysis.Capacity
module Diffstudy = S4_analysis.Diffstudy
module Report = S4_analysis.Report
module Router = S4_shard.Router
module Trace = S4_obs.Trace
module Metrics = S4_obs.Metrics
module Check = S4_obs.Check
module Histogram = S4_util.Histogram
module Acl = S4.Acl
module Netserver = S4_net.Server
module Netclient = S4_net.Client
module Nettransport = S4_net.Transport
module File_disk = S4_disk.File_disk
module Crashtest = S4_tools.Crashtest
module Campaign = S4_tools.Campaign
module Mirror = S4_multi.Mirror
module Wire = S4_net.Wire
module Wfq = S4_qos.Wfq

let full_scale = ref false
let seed_override : int option ref = ref None

let pm_seeded (c : Postmark.config) =
  match !seed_override with None -> c | Some seed -> { c with Postmark.seed }

let rng_seed default = Option.value !seed_override ~default

(* An experiment whose oracle or acceptance gate fails raises this;
   bench/main.ml still writes the experiment's JSON, then exits 1. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let cred = Rpc.user_cred ~user:1 ~client:1

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

type 'a timed = { value : 'a; sim_s : float; wall_s : float }

(* [measure setup] builds a fixture with [setup ()], which returns the
   simulated clock it charges, the work to time and its teardown. The
   work runs between two readings of both clocks — the simulated one
   and the host's monotonic clock — so building and tearing down the
   fixture stays out of both. Wall time jitters with the host
   scheduler: [best_of = n] builds [n] fresh fixtures and keeps the run
   with the lowest wall time. Simulated time is deterministic, so sim
   cells keep the default single run. *)
let measure ?(best_of = 1) setup =
  let once () =
    let clock, work, teardown = setup () in
    let sim0 = Simclock.now clock and wall0 = Monotonic_clock.now () in
    let value = work () in
    let wall_s = Simclock.to_seconds (Int64.sub (Monotonic_clock.now ()) wall0) in
    let sim_s = Simclock.to_seconds (Int64.sub (Simclock.now clock) sim0) in
    teardown ();
    { value; sim_s; wall_s }
  in
  let rec best acc n =
    if n <= 1 then acc
    else
      let r = once () in
      best (if r.wall_s < acc.wall_s then r else acc) (n - 1)
  in
  best (once ()) best_of

(* ------------------------------------------------------------------ *)
(* Objects, producers and the sync-bound write cell                    *)

(* [n] objects owned by user 1, created in one batch; any failure
   aborts the experiment. *)
let create_objects (submit : Rpc.credential -> ?sync:bool -> Rpc.req array -> Rpc.resp array) n
    =
  submit cred (Array.init n (fun _ -> Rpc.Create { acl = Acl.default ~owner:1 }))
  |> Array.mapi (fun i -> function
       | Rpc.R_oid oid -> oid
       | r -> Format.kasprintf failwith "create %d failed: %a" i Rpc.pp_resp r)

let geometry_mb mb = Geometry.with_capacity Geometry.cheetah_9gb ~bytes:(mb * 1024 * 1024)

(* A fresh in-memory disk of [mb] MB on its own clock. *)
let sized_disk mb = Sim_disk.create ~geometry:(geometry_mb mb) (Simclock.create ())

let format_drive config clock =
  Drive.format ~config (Sim_disk.create ~geometry:Geometry.cheetah_9gb clock)

(* [drive] served over real TCP on localhost, a client connected to it
   and the stop that closes both. *)
let tcp_client drive =
  let listener = Netserver.serve_tcp (Netserver.of_drive drive) in
  let client =
    Netclient.connect (Nettransport.tcp ~host:"127.0.0.1" ~port:(Netserver.port listener))
  in
  ( client,
    fun () ->
      Netclient.close client;
      Netserver.shutdown listener )

(* A backend over a wire client; its clock is a client-side mirror the
   wire never advances. *)
let client_backend client = Netclient.backend ~clock:(Simclock.create ()) ~keep_data:true client

(* Which clock a producer's throughput is read on. The direct drive and
   the sharded array charge their simulated clock; the TCP client's
   cells are read on the wall clock, best of three. *)
type basis = Sim | Wall

type producer = {
  name : string;
  basis : basis;
  make : unit -> Backend.t * (unit -> unit);  (** a fresh backend and its stop *)
}

let basis_name p = match p.basis with Sim -> p.name ^ " (sim)" | Wall -> p.name ^ " (wall)"

let producers drive_config =
  [
    {
      name = "direct";
      basis = Sim;
      make = (fun () -> (Drive.backend (format_drive drive_config (Simclock.create ())), ignore));
    };
    {
      name = "shard4";
      basis = Sim;
      make =
        (fun () ->
          let clock = Simclock.create () in
          let members =
            List.init 4 (fun i -> (i, Router.Single (format_drive drive_config clock)))
          in
          (Router.backend (Router.create members), ignore));
    };
    {
      name = "tcp";
      basis = Wall;
      make =
        (fun () ->
          let client, stop = tcp_client (format_drive drive_config (Simclock.create ())) in
          (client_backend client, stop));
    };
  ]

let payload_4k = Bytes.make 4096 'b'

(* Creates 8 target objects on [backend] and returns the work to time:
   [total] sync-bound requests in [submit ~sync:true] batches of
   [batch], each batch paying one durability barrier. [`Write] cycles
   4 KB writes over the targets; [`Create] makes fresh objects. Any
   error response aborts the experiment. *)
let sync_writes (backend : Backend.t) ~total ~batch kind =
  let targets = create_objects backend.Backend.submit 8 in
  let req i =
    match kind with
    | `Write ->
      Rpc.Write
        { oid = targets.(i mod 8); off = 4096 * (i mod 16); len = 4096; data = Some payload_4k }
    | `Create -> Rpc.Create { acl = Acl.default ~owner:1 }
  in
  fun () ->
    let done_ = ref 0 in
    while !done_ < total do
      let n = min batch (total - !done_) in
      Array.iter
        (function
          | Rpc.R_error e -> Format.kasprintf failwith "sync writes: %s" (Rpc.error_to_string e)
          | _ -> ())
        (backend.Backend.submit cred ~sync:true (Array.init n (fun j -> req (!done_ + j))));
      done_ := !done_ + n
    done

(* One sweep cell: [sync_writes] on a fresh backend from [p], timed on
   [p]'s basis. Wall cells get twice the ops — relative scheduler
   jitter shrinks with run length — and keep the best of three.
   Returns the ops run, the timing and the throughput on [p]'s basis. *)
let sync_cell (p : producer) ~total ~batch kind =
  let total, best_of = match p.basis with Sim -> (total, 1) | Wall -> (2 * total, 3) in
  let t =
    measure ~best_of (fun () ->
        let backend, stop = p.make () in
        (backend.Backend.clock, sync_writes backend ~total ~batch kind, stop))
  in
  let secs = match p.basis with Sim -> t.sim_s | Wall -> t.wall_s in
  (total, t, float_of_int total /. secs)
