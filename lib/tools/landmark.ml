module Bcodec = S4_util.Bcodec
module Simclock = S4_util.Simclock
module Chain = S4_integrity.Chain
module Rpc = S4.Rpc
module Drive = S4.Drive
module Audit = S4.Audit

type t = { target : Target.t; backend : S4.Backend.t; cred : Rpc.credential; index_oid : int64 }

type landmark = {
  l_name : string;
  l_source : int64;
  l_taken_at : int64;
  l_object : int64;
  l_bytes : int;
}

type mark = {
  m_name : string;
  m_at : int64;
  m_heads : (int * int * Chain.head) list;
}

let err fmt = Format.kasprintf (fun s -> Error s) fmt

exception Fail of string

let call_exn t req =
  match S4.Backend.handle t.backend t.cred req with
  | Rpc.R_error e -> raise (Fail (Format.asprintf "%s: %a" (Rpc.op_name req) Rpc.pp_error e))
  | resp -> resp

let partition = "landmarks"

let fail_create fmt =
  Format.kasprintf (fun s -> failwith ("Landmark.create: " ^ s)) fmt

let of_target ?(cred = Rpc.admin_cred) target =
  let backend = Target.backend target in
  let call = S4.Backend.handle backend cred in
  let index_oid =
    match call (Rpc.P_mount { name = partition; at = None }) with
    | Rpc.R_oid oid -> oid
    | Rpc.R_error Rpc.Not_found ->
      (match call (Rpc.Create { acl = [] }) with
       | Rpc.R_oid oid ->
         (match call (Rpc.P_create { name = partition; oid }) with
          | Rpc.R_unit -> oid
          | Rpc.R_error e ->
            fail_create "cannot register partition %S: %a" partition Rpc.pp_error e
          | r -> fail_create "pcreate %S: unexpected response %a" partition Rpc.pp_resp r)
       | Rpc.R_error e -> fail_create "cannot allocate index object: %a" Rpc.pp_error e
       | r -> fail_create "create: unexpected response %a" Rpc.pp_resp r)
    | Rpc.R_error e -> fail_create "pmount %S: %a" partition Rpc.pp_error e
    | r -> fail_create "pmount %S: unexpected response %a" partition Rpc.pp_resp r
  in
  (* A stale partition entry can name a dead or missing object (e.g.
     deleted behind the tool's back); catch it here with a clear
     diagnostic rather than letting every later call fail obscurely. *)
  (match call (Rpc.Get_attr { oid = index_oid; at = None }) with
   | Rpc.R_attr _ -> ()
   | Rpc.R_error e ->
     fail_create "index object %Ld (partition %S) is unusable: %a" index_oid partition
       Rpc.pp_error e
   | r -> fail_create "index object %Ld: unexpected response %a" index_oid Rpc.pp_resp r);
  { target; backend; cred; index_oid }

let create ?cred drive = of_target ?cred (Target.Drive drive)

(* --- index codec ------------------------------------------------------ *)

let encode_index landmarks marks =
  let w = Bcodec.writer () in
  Bcodec.w_int w (List.length landmarks);
  List.iter
    (fun l ->
      Bcodec.w_string w l.l_name;
      Bcodec.w_i64 w l.l_source;
      Bcodec.w_i64 w l.l_taken_at;
      Bcodec.w_i64 w l.l_object;
      Bcodec.w_int w l.l_bytes)
    landmarks;
  (* Cross-shard marks follow the per-object landmarks; indexes written
     before marks existed simply end here. *)
  Bcodec.w_int w (List.length marks);
  List.iter
    (fun m ->
      Bcodec.w_string w m.m_name;
      Bcodec.w_i64 w m.m_at;
      Bcodec.w_int w (List.length m.m_heads);
      List.iter
        (fun (sid, ri, head) ->
          Bcodec.w_int w sid;
          Bcodec.w_int w ri;
          Chain.write_head w head)
        m.m_heads)
    marks;
  Bcodec.contents w

let decode_index b =
  if Bytes.length b = 0 then ([], [])
  else begin
    let r = Bcodec.reader b in
    let n = Bcodec.r_int r in
    let landmarks =
      List.init n (fun _ ->
          let l_name = Bcodec.r_string r in
          let l_source = Bcodec.r_i64 r in
          let l_taken_at = Bcodec.r_i64 r in
          let l_object = Bcodec.r_i64 r in
          let l_bytes = Bcodec.r_int r in
          { l_name; l_source; l_taken_at; l_object; l_bytes })
    in
    let marks =
      if Bcodec.remaining r = 0 then []
      else begin
        let n = Bcodec.r_int r in
        List.init n (fun _ ->
            let m_name = Bcodec.r_string r in
            let m_at = Bcodec.r_i64 r in
            let k = Bcodec.r_int r in
            let m_heads =
              List.init k (fun _ ->
                  let sid = Bcodec.r_int r in
                  let ri = Bcodec.r_int r in
                  let head = Chain.read_head r in
                  (sid, ri, head))
            in
            { m_name; m_at; m_heads })
      end
    in
    (landmarks, marks)
  end

let read_whole t oid =
  match call_exn t (Rpc.Get_attr { oid; at = None }) with
  | Rpc.R_attr _ ->
    let rec read_size guess =
      match call_exn t (Rpc.Read { oid; off = 0; len = guess; at = None }) with
      | Rpc.R_data b when Bytes.length b < guess -> b
      | Rpc.R_data b ->
        if guess >= 1 lsl 26 then b else read_size (guess * 4)
      | _ -> raise (Fail "read")
    in
    read_size 65536
  | _ -> raise (Fail "getattr")

let load t =
  try decode_index (read_whole t t.index_oid) with Fail _ | Bcodec.Decode_error _ -> ([], [])

let list t = fst (load t)
let marks t = snd (load t)

let write_index t landmarks marks =
  let data = encode_index landmarks marks in
  ignore (call_exn t (Rpc.Truncate { oid = t.index_oid; size = 0 }));
  ignore
    (call_exn t (Rpc.Write { oid = t.index_oid; off = 0; len = Bytes.length data; data = Some data }));
  match S4.Backend.handle t.backend t.cred Rpc.Sync with _ -> ()

let find t name = List.find_opt (fun l -> l.l_name = name) (list t)
let find_mark t name = List.find_opt (fun m -> m.m_name = name) (marks t)

let take t ~name ~at oid =
  try
    if find t name <> None then err "landmark %S already exists" name
    else begin
      (* Preserve the version's contents and attributes. *)
      let attr =
        match call_exn t (Rpc.Get_attr { oid; at = Some at }) with
        | Rpc.R_attr b -> b
        | _ -> raise (Fail "getattr at")
      in
      let data =
        match call_exn t (Rpc.Read { oid; off = 0; len = 1 lsl 26; at = Some at }) with
        | Rpc.R_data b -> b
        | _ -> raise (Fail "read at")
      in
      let archive =
        match call_exn t (Rpc.Create { acl = [] }) with
        | Rpc.R_oid o -> o
        | _ -> raise (Fail "create")
      in
      if Bytes.length data > 0 then
        ignore
          (call_exn t (Rpc.Write { oid = archive; off = 0; len = Bytes.length data; data = Some data }));
      if Bytes.length attr > 0 then ignore (call_exn t (Rpc.Set_attr { oid = archive; attr }));
      let l =
        { l_name = name; l_source = oid; l_taken_at = at; l_object = archive;
          l_bytes = Bytes.length data }
      in
      let lms, mks = load t in
      write_index t (l :: lms) mks;
      Ok l
    end
  with Fail m -> Error m

let contents t name =
  match find t name with
  | None -> err "no landmark %S" name
  | Some l -> (try Ok (read_whole t l.l_object) with Fail m -> Error m)

let restore_to t name target =
  match contents t name with
  | Error m -> Error m
  | Ok data ->
    (try
       ignore (call_exn t (Rpc.Truncate { oid = target; size = 0 }));
       if Bytes.length data > 0 then
         ignore
           (call_exn t (Rpc.Write { oid = target; off = 0; len = Bytes.length data; data = Some data }));
       ignore (call_exn t Rpc.Sync);
       Ok (Bytes.length data)
     with Fail m -> Error m)

(* --- cross-shard marks ------------------------------------------------ *)

let mark t ~name =
  if find_mark t name <> None then err "mark %S already exists" name
  else
    match Target.landmark_barrier t.target with
    | Error m -> Error m
    | Ok heads ->
      let m = { m_name = name; m_at = Simclock.now (Target.clock t.target); m_heads = heads } in
      (try
         let lms, mks = load t in
         write_index t lms (m :: mks);
         Ok m
       with Fail e -> Error e)

let verify_since t (m : mark) =
  let entries = Target.members t.target in
  let errs =
    List.filter_map
      (fun (sid, ri, head) ->
        match List.find_opt (fun (s, r, _) -> s = sid && r = ri) entries with
        | None ->
          Some (Printf.sprintf "mark %S: member %d/%d is missing from the array" m.m_name sid ri)
        | Some (_, _, d) ->
          if not (Audit.enabled (Drive.audit d)) then
            Some (Printf.sprintf "mark %S: member %d/%d no longer audits" m.m_name sid ri)
          else begin
            let v = Audit.verify ~from:head (Drive.audit d) in
            if Chain.clean v then None
            else
              Some
                (Printf.sprintf "shard %d/%d since mark %S: %s" sid ri m.m_name
                   (String.concat "; " v.Chain.v_errors))
          end)
      m.m_heads
  in
  if errs = [] then Ok () else Error errs

let pp_mark ppf m =
  Format.fprintf ppf "mark %S at %.3fs over %d chains [%a]" m.m_name
    (Int64.to_float m.m_at /. 1e9)
    (List.length m.m_heads)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (sid, ri, h) -> Format.fprintf ppf "%d/%d: %a" sid ri Chain.pp_head h))
    m.m_heads
