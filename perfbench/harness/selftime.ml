type span = { parent : int; start : int64; stop : int64 }

let union_length ivs =
  let sorted = List.sort compare ivs in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Int64.max a reach in
        if Int64.compare b a > 0 then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
      (0L, Int64.min_int) sorted
  in
  covered

let self_times spans =
  let kids = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then kids.(s.parent) <- i :: kids.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let clipped =
        List.filter_map
          (fun c ->
            let c = spans.(c) in
            let a = Int64.max c.start s.start and b = Int64.min c.stop s.stop in
            if Int64.compare b a > 0 then Some (a, b) else None)
          kids.(i)
      in
      Int64.sub (Int64.sub s.stop s.start) (union_length clipped))
    spans

let parents_by_containment iv =
  let n = Array.length iv in
  let order = Array.init n Fun.id in
  (* Outer before inner: by start, then longest first, then index. *)
  Array.stable_sort
    (fun a b ->
      let sa, ea = iv.(a) and sb, eb = iv.(b) in
      match Int64.compare sa sb with 0 -> Int64.compare eb ea | c -> c)
    order;
  let parent = Array.make n (-1) in
  let stack = ref [] in
  Array.iter
    (fun i ->
      let _, e = iv.(i) in
      let rec settle () =
        match !stack with
        | top :: rest when Int64.compare (snd iv.(top)) e < 0 ->
          stack := rest;
          settle ()
        | top :: _ -> parent.(i) <- top
        | [] -> ()
      in
      settle ();
      stack := i :: !stack)
    order;
  parent
