module Rpc = S4.Rpc
module Acl = S4.Acl
module Store = S4_store.Obj_store
module N = S4_nfs.Nfs_types

type t = { target : Target.t; backend : S4.Backend.t; cred : Rpc.credential; hist : History.t }

type report = {
  files_restored : int;
  files_removed : int;
  dirs_restored : int;
  bytes_restored : int;
}

let of_target ?(cred = Rpc.admin_cred) target =
  { target; backend = Target.backend target; cred; hist = History.of_target ~cred target }

let create ?cred drive = of_target ?cred (Target.Drive drive)
let call t req = S4.Backend.handle t.backend t.cred req

let err fmt = Format.kasprintf (fun s -> Error s) fmt

exception Fail of string

let unit_exn t req =
  match call t req with
  | Rpc.R_unit -> ()
  | Rpc.R_error e -> raise (Fail (Format.asprintf "%s: %a" (Rpc.op_name req) Rpc.pp_error e))
  | _ -> raise (Fail "unexpected response")

(* A run of independent repair requests goes down as one vectored
   submission (same per-request execution order, one round trip). *)
let submit_exn t reqs =
  match reqs with
  | [] -> ()
  | _ ->
    let arr = Array.of_list reqs in
    Array.iteri
      (fun i -> function
        | Rpc.R_error e ->
          raise (Fail (Format.asprintf "%s: %a" (Rpc.op_name arr.(i)) Rpc.pp_error e))
        | _ -> ())
      (t.backend.S4.Backend.submit t.cred arr)

(* An entry that grants nothing: [Set_acl] can only overwrite slots,
   never shorten the list, so entries added since [at] are blanked
   with this instead of removed. *)
let inert_entry = { Acl.user = Acl.any_user; client = Acl.any_client; perms = []; recovery = false }

(* Copy an object's ACL at [at] forward over its current ACL (slot by
   slot through the ordinary Set_acl surface — audited and versioned
   like everything else). Slots the intruder appended are blanked. *)
let restore_acl t ~at fh =
  let st = Target.store_of t.target fh in
  let old_raw = Store.get_acl_raw st ~at fh in
  let now_raw = Store.current_acl_raw st fh in
  if not (Bytes.equal old_raw now_raw) then begin
    let old_acl = Acl.decode old_raw in
    let old_len = List.length old_acl in
    let now_len = List.length (Acl.decode now_raw) in
    submit_exn t
      (List.mapi (fun index entry -> Rpc.Set_acl { oid = fh; index; entry }) old_acl
      @ List.init (max 0 (now_len - old_len)) (fun k ->
            Rpc.Set_acl { oid = fh; index = old_len + k; entry = inert_entry }))
  end

let restore_file t ~at fh =
  match History.stat t.hist ~at fh with
  | Error e -> Error e
  | Ok old_attr ->
    (match History.cat t.hist ~at fh with
     | Error e -> Error e
     | Ok data ->
       (try
          submit_exn t
            ((Rpc.Truncate { oid = fh; size = 0 }
             :: (if Bytes.length data > 0 then
                   [ Rpc.Write { oid = fh; off = 0; len = Bytes.length data; data = Some data } ]
                 else []))
            @ [ Rpc.Set_attr { oid = fh; attr = N.encode_attr old_attr } ]);
          restore_acl t ~at fh;
          unit_exn t Rpc.Sync;
          Ok (Bytes.length data)
        with Fail m -> Error m))

(* The current and historical views of one directory, by name. *)
let dir_views t ~at fh =
  match (History.ls t.hist fh, History.ls t.hist ~at fh) with
  | Ok now, Ok old -> Ok (now, old)
  | Error e, _ | _, Error e -> Error e

let restore_tree t ~at ~path =
  let report = ref { files_restored = 0; files_removed = 0; dirs_restored = 0; bytes_restored = 0 } in
  let bump f = report := f !report in
  let create_object () =
    match call t (Rpc.Create { acl = [] }) with
    | Rpc.R_oid oid -> oid
    | _ -> raise (Fail "create failed")
  in
  (* Directory slot surgery through the drive interface: rebuild the
     slot array of [dir] so its entries match [wanted], and restore
     the directory's own attributes (a timestomped mtime included) to
     their state at [at], corrected for the rebuilt size. *)
  let write_dir_slots dir (wanted : (N.dirent * N.attr) list) =
    let data = N.encode_dir (List.map fst wanted) in
    let attr =
      match History.stat t.hist ~at dir with
      | Ok attr -> attr
      | Error m -> raise (Fail m)
    in
    submit_exn t
      ((Rpc.Truncate { oid = dir; size = 0 }
       :: (if Bytes.length data > 0 then
             [ Rpc.Write { oid = dir; off = 0; len = Bytes.length data; data = Some data } ]
           else []))
      @ [ Rpc.Set_attr { oid = dir; attr = N.encode_attr { attr with N.size = Bytes.length data } } ])
  in
  (* Rebuild a deleted object (file or whole subtree) as of [at] into
     fresh objects — dead ObjectIDs cannot accept new writes. *)
  let rec materialize (e : N.dirent) (a : N.attr) =
    let fresh = create_object () in
    (* Carry the original object's ACL over so ownership and the
       Recovery flag survive resurrection. *)
    (let old_acl = Acl.decode (Store.get_acl_raw (Target.store_of t.target e.N.fh) ~at e.N.fh) in
     submit_exn t
       (List.mapi (fun index entry -> Rpc.Set_acl { oid = fresh; index; entry }) old_acl));
    (match a.N.ftype with
     | N.Fdir ->
       (match History.ls t.hist ~at e.N.fh with
        | Ok children ->
          let rebuilt =
            List.map (fun ((c : N.dirent), ca) -> ({ N.name = c.N.name; fh = materialize c ca }, ca)) children
          in
          let data = N.encode_dir (List.map (fun ((c : N.dirent), _) -> c) rebuilt) in
          if Bytes.length data > 0 then
            unit_exn t (Rpc.Write { oid = fresh; off = 0; len = Bytes.length data; data = Some data });
          bump (fun r -> { r with dirs_restored = r.dirs_restored + 1 })
        | Error m -> raise (Fail m))
     | N.Freg | N.Flnk ->
       (match History.cat t.hist ~at e.N.fh with
        | Ok data ->
          if Bytes.length data > 0 then
            unit_exn t (Rpc.Write { oid = fresh; off = 0; len = Bytes.length data; data = Some data });
          bump (fun r ->
              { r with files_restored = r.files_restored + 1; bytes_restored = r.bytes_restored + Bytes.length data })
        | Error m -> raise (Fail m)));
    unit_exn t (Rpc.Set_attr { oid = fresh; attr = N.encode_attr a });
    fresh
  in
  let rec restore_dir dir =
    match dir_views t ~at dir with
    | Error m -> raise (Fail m)
    | Ok (now, old) ->
      bump (fun r -> { r with dirs_restored = r.dirs_restored + 1 });
      (* Entries that did not exist at [at] are removed from the
         namespace (their objects stay in the history pool). *)
      let stale =
        List.filter
          (fun ((e : N.dirent), _) -> not (List.exists (fun ((o : N.dirent), _) -> o.N.name = e.N.name) old))
          now
      in
      (* Intruder-created directories are removed with their contents
         (the objects stay recoverable in the history pool). *)
      let rec delete_recursive fh (a : N.attr) =
        (match a.N.ftype with
         | N.Fdir ->
           (match History.ls t.hist fh with
            | Ok children -> List.iter (fun ((c : N.dirent), ca) -> delete_recursive c.N.fh ca) children
            | Error _ -> ())
         | N.Freg | N.Flnk -> ());
        unit_exn t (Rpc.Delete { oid = fh });
        bump (fun r -> { r with files_removed = r.files_removed + 1 })
      in
      List.iter (fun ((e : N.dirent), a) -> delete_recursive e.N.fh a) stale;
      (* Restore or resurrect every entry that existed at [at]. *)
      let rebuilt =
        List.map
          (fun ((e : N.dirent), (a : N.attr)) ->
            let live_now =
              match call t (Rpc.Get_attr { oid = e.N.fh; at = None }) with
              | Rpc.R_attr _ -> true
              | _ -> false
            in
            let fh =
              if live_now then begin
                (match a.N.ftype with
                 | N.Fdir -> restore_dir e.N.fh
                 | N.Freg | N.Flnk ->
                   (match restore_file t ~at e.N.fh with
                    | Ok bytes ->
                      bump (fun r ->
                          { r with
                            files_restored = r.files_restored + 1;
                            bytes_restored = r.bytes_restored + bytes })
                    | Error m -> raise (Fail m)));
                e.N.fh
              end
              else materialize e a
            in
            ({ N.name = e.N.name; fh }, a))
          old
      in
      restore_acl t ~at dir;
      write_dir_slots dir rebuilt
  in
  match History.resolve t.hist ~at path with
  | Error e -> err "cannot resolve %s at that time: %s" path e
  | Ok dir ->
    (try
       restore_dir dir;
       unit_exn t Rpc.Sync;
       Ok !report
     with Fail m -> Error m)

let pp_report ppf r =
  Format.fprintf ppf "%d files restored (%d bytes), %d intruder entries removed, %d directories"
    r.files_restored r.bytes_restored r.files_removed r.dirs_restored
