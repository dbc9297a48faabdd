(* The S4 benchmark. One workload per run:

     s4bench --workload NAME --seed N --seconds S --trace 0|1

   prints a stamped report and, as its last line, one JSON object with
   the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). Exits 1 on any correctness violation. [--smoke] runs
   every workload at a tiny scale, both ways, as a self-test. *)

open S4_perfbench

let nproc = ref (Domain.recommended_domain_count ())
let cpus = ref (Domain.recommended_domain_count ())
let rev = ref "unknown"

let stamp ~workload ~seed ~trace ~domains =
  Printf.sprintf
    "# s4bench rev=%s nproc=%d cpus=%d ocaml=%s domains=%d seed=%d workload=%s trace=%d" !rev
    !nproc !cpus Sys.ocaml_version domains seed workload trace

(* Print the report; true when every check held. *)
let report ~header ~catalogue (o : Bench.outcome) =
  print_endline header;
  List.iter
    (fun (name, unit, clock) ->
      Printf.printf "  %-44s %16.6f %-6s %s\n" name (List.assoc name o.Bench.metrics) unit
        (Bench.clock_name clock))
    catalogue;
  List.iter (fun (k, v) -> Printf.printf "  %-44s %s\n" k v) o.Bench.table;
  let violations =
    o.Bench.violations
    @ List.filter_map
        (fun (k, v) -> if Float.is_finite v then None else Some (k ^ " is not a finite number"))
        o.Bench.metrics
  in
  List.iter (fun v -> Printf.printf "VIOLATION %s\n" v) violations;
  violations = [] && o.Bench.failed = 0

let json ~correct ~catalogue (o : Bench.outcome) =
  let metric (name, unit, _) =
    let v = List.assoc name o.Bench.metrics in
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
      (if Float.is_finite v then v else 0.0)
      unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    o.Bench.attempted o.Bench.failed
    (String.concat ", " (List.map metric catalogue))

let smoke ~seed =
  List.for_all
    (fun (workload, w) ->
      let header trace = stamp ~workload ~seed ~trace ~domains:(Bench.domains ~smoke:true w) in
      let untraced =
        report ~header:(header 0) ~catalogue:Bench.end_to_end
          (Bench.measured ~smoke:true ~seconds:0.0 ~seed w)
      in
      let traced =
        report ~header:(header 1) ~catalogue:Bench.per_layer (Bench.layered ~smoke:true ~seed w)
      in
      untraced && traced)
    Bench.workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME postmark-tcp | sync-array | history-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of an end-to-end run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--rev", Arg.Set_string rev, "REV program revision, for the stamp");
      ("--nproc", Arg.Set_int nproc, "N CPUs of the host, for the stamp");
      ("--cpus", Arg.Set_int cpus, "N CPUs the run may use, for the stamp");
      ("--smoke", Arg.Set smoke_mode, " every workload at a tiny scale, both ways");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "s4bench --workload NAME --seed N --seconds S --trace 0|1";
  if !smoke_mode then exit (if smoke ~seed:!seed then 0 else 1);
  let w =
    match List.assoc_opt !workload Bench.workloads with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      prerr_endline "need --workload postmark-tcp|sync-array|history-churn and --trace 0|1";
      exit 2
  in
  let catalogue, outcome =
    try
      if !trace = 0 then
        (Bench.end_to_end, Bench.measured ~smoke:false ~seconds:!seconds ~seed:!seed w)
      else (Bench.per_layer, Bench.layered ~smoke:false ~seed:!seed w)
    with e ->
      Printf.printf "ERROR %s\n" (Printexc.to_string e);
      exit 1
  in
  let header =
    stamp ~workload:!workload ~seed:!seed ~trace:!trace ~domains:(Bench.domains ~smoke:false w)
  in
  let correct = report ~header ~catalogue outcome in
  print_endline (json ~correct ~catalogue outcome);
  exit (if correct then 0 else 1)
