type concurrency = Serial | Domain_safe

type t = {
  clock : S4_util.Simclock.t;
  keep_data : bool;
  capacity : unit -> int * int;
  concurrency : concurrency;
  submit : Rpc.credential -> ?sync:bool -> Rpc.req array -> Rpc.resp array;
  close : unit -> unit;
}

let handle t cred ?(sync = false) req = (t.submit cred ~sync [| req |]).(0)

let resp_ok = function Rpc.R_error _ -> false | _ -> true

let group_commit ~sync ~barrier resps =
  if sync && (Array.length resps = 0 || Array.exists resp_ok resps) then
    match barrier () with
    | None -> resps
    | Some err -> Array.map (fun r -> if resp_ok r then Rpc.R_error err else r) resps
  else resps

let make ~clock ~keep_data ~capacity ?(concurrency = Serial)
    ?(close = fun () -> ()) submit =
  { clock; keep_data; capacity; concurrency; submit; close }
