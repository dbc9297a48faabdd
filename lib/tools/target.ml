module Rpc = S4.Rpc
module Drive = S4.Drive
module Audit = S4.Audit
module Chain = S4_integrity.Chain
module Store = S4_store.Obj_store
module Router = S4_shard.Router
module Simclock = S4_util.Simclock

type t = Drive of Drive.t | Array of Router.t


let backend = function Drive d -> Drive.backend d | Array r -> Router.backend r

let clock = function Drive d -> Drive.clock d | Array r -> Router.clock r
let ops_handled = function Drive d -> Drive.ops_handled d | Array r -> Router.ops_handled r
let fsck = function Drive d -> Drive.fsck d | Array r -> Router.fsck r
let barrier = function Drive d -> Drive.barrier d | Array r -> Router.barrier r

let members = function
  | Drive d -> [ (0, 0, d) ]
  | Array r -> Router.members r

let store_of t oid =
  match t with
  | Drive d -> Drive.store d
  | Array r -> Router.store_of r oid

let landmark_barrier = function
  | Drive d ->
    (match Drive.barrier d with
     | Some e -> Error (Format.asprintf "landmark barrier: %a" Rpc.pp_error e)
     | None -> Ok [ (0, 0, Audit.sealed_head (Drive.audit d)) ])
  | Array r -> Router.landmark_barrier r

(* Device-side audit access, merged across shards by time. For a
   mirrored shard the primary replica's trail is the reference copy —
   both replicas audit every request identically, so including the
   secondary would double-count. *)
let audit_records ?(since = 0L) ?(until = Int64.max_int) t =
  match t with
  | Drive d -> Audit.records (Drive.audit d) ~since ~until ()
  | Array r ->
    List.filter_map
      (fun (_, ri, d) ->
        if ri = 0 then Some (Audit.records (Drive.audit d) ~since ~until ()) else None)
      (Router.members r)
    |> List.concat
    |> List.stable_sort (fun (a : Audit.record) (b : Audit.record) ->
           compare a.Audit.at b.Audit.at)
