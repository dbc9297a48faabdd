module Rpc = S4.Rpc
module Store = S4_store.Obj_store
module Entry = S4_store.Entry
module N = S4_nfs.Nfs_types

type t = { target : Target.t; backend : S4.Backend.t; cred : Rpc.credential }

let of_target ?(cred = Rpc.admin_cred) target = { target; backend = Target.backend target; cred }
let create ?cred drive = of_target ?cred (Target.Drive drive)
let call t req = S4.Backend.handle t.backend t.cred req

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let mount_at t ?at name =
  match call t (Rpc.P_mount { name; at }) with
  | Rpc.R_oid oid -> Ok oid
  | Rpc.R_error e -> err "pmount %s: %a" name Rpc.pp_error e
  | _ -> err "pmount %s: unexpected response" name

let stat t ?at fh =
  match call t (Rpc.Get_attr { oid = fh; at }) with
  | Rpc.R_attr b when Bytes.length b > 0 -> Ok (N.decode_attr b)
  | Rpc.R_attr _ -> err "object %Ld has no attributes" fh
  | Rpc.R_error e -> err "getattr %Ld: %a" fh Rpc.pp_error e
  | _ -> err "getattr %Ld: unexpected response" fh

let read_whole t ?at fh size =
  match call t (Rpc.Read { oid = fh; off = 0; len = size; at }) with
  | Rpc.R_data b -> Ok b
  | Rpc.R_error e -> err "read %Ld: %a" fh Rpc.pp_error e
  | _ -> err "read %Ld: unexpected response" fh

let ls t ?at fh =
  match stat t ?at fh with
  | Error _ as e -> e |> Result.map (fun _ -> [])
  | Ok attr ->
    if attr.N.ftype <> N.Fdir then err "%Ld is not a directory" fh
    else begin
      match read_whole t ?at fh attr.N.size with
      | Error _ as e -> e |> Result.map (fun _ -> [])
      | Ok data ->
        let entries = N.decode_dir data in
        let annotated =
          List.filter_map
            (fun (e : N.dirent) ->
              match stat t ?at e.N.fh with
              | Ok a -> Some (e, a)
              | Error _ -> None)
            entries
        in
        Ok annotated
    end

let split_path path = String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let resolve t ?at path =
  match mount_at t ?at "root" with
  | Error _ as e -> e
  | Ok root ->
    let rec walk fh = function
      | [] -> Ok fh
      | name :: rest ->
        (match ls t ?at fh with
         | Error _ as e -> e |> Result.map (fun _ -> 0L)
         | Ok entries ->
           (match List.find_opt (fun ((e : N.dirent), _) -> e.N.name = name) entries with
            | Some ((e : N.dirent), _) -> walk e.N.fh rest
            | None -> err "%s: no such entry%s" name
                        (match at with Some _ -> " at that time" | None -> "")))
    in
    walk root (split_path path)

let cat t ?at fh =
  match stat t ?at fh with
  | Error e -> Error e
  | Ok attr -> read_whole t ?at fh attr.N.size

let cat_path t ?at path =
  match resolve t ?at path with
  | Error e -> Error e
  | Ok fh -> cat t ?at fh

let versions_of t fh = Store.versions (Target.store_of t.target fh) fh

let version_times t fh =
  versions_of t fh
  |> List.map (fun (e : Entry.t) -> e.Entry.time)
  |> List.sort_uniq (fun a b -> compare b a)
