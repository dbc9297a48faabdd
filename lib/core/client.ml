module Net = S4_disk.Net

type t = { net : Net.t; drive : Drive.t; mutable rpcs : int }

let connect net drive = { net; drive; rpcs = 0 }
let rpc_count t = t.rpcs

let submit t cred ?(sync = false) reqs =
  (* One batched submission crosses the network as one exchange, but
     each request still pays its transfer size; the drive does the
     group commit. *)
  t.rpcs <- t.rpcs + Array.length reqs;
  let resps = Drive.submit t.drive cred ~sync reqs in
  Array.iteri
    (fun i req ->
      Net.rpc t.net ~req_bytes:(Rpc.req_wire_bytes req)
        ~resp_bytes:(Rpc.resp_wire_bytes resps.(i)))
    reqs;
  resps

let backend t =
  Backend.make ~clock:(Drive.clock t.drive)
    ~keep_data:(S4_store.Obj_store.config (Drive.store t.drive)).S4_store.Obj_store.keep_data
    ~capacity:(fun () -> Drive.capacity t.drive)
    (submit t)
