(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5), plus bechamel micro-benchmarks of
   the core data structures.

   Usage:
     bench/main.exe                 run everything at default scale
     bench/main.exe fig3 fig5       run selected experiments
     bench/main.exe --full ...      paper-scale parameters (slower)
     bench/main.exe --seed N ...    override the workload RNG seed

   Each experiment run writes the rows it recorded to
   BENCH_<name>.json in the current directory. An experiment whose
   oracle or acceptance gate fails still writes its JSON, then the run
   stops with exit status 1.

   Results are simulated time on the modelled 1999-era testbed (Cheetah
   disk, 100 Mb Ethernet, 600 MHz server); shapes, not wall-clock, are
   the point. EXPERIMENTS.md records paper-vs-measured. *)

module Report = S4_analysis.Report

let experiments : (string * string * (unit -> unit)) list =
  [
    ("table1", "Table 1: RPC interface exercise", Paper.table1);
    ("fig2", "Figure 2: journal-based metadata space", Paper.fig2);
    ("fig3", "Figure 3: PostMark, four servers", Paper.fig3);
    ("fig4", "Figure 4: SSH-build, four servers", Paper.fig4);
    ("fig5", "Figure 5: cleaner overhead sweep", Paper.fig5);
    ("fig6", "Figure 6: audit microbenchmark", Paper.fig6);
    ("audit-macro", "Sec 5.1.4: audit penalty on PostMark", Paper.audit_macro);
    ("fundamental", "Sec 5.1.5: history-pool cleaning surcharge", Paper.fundamental);
    ("fig7", "Figure 7: projected detection window", Paper.fig7);
    ("diffstudy", "Sec 5.2: differencing + compression", Paper.diffstudy);
    ("snapshots", "Sec 6: versioning vs snapshots", Paper.snapshots);
    ("ablation", "design-parameter sensitivity sweeps", Paper.ablation);
    ("faults", "media-fault sweep + crash-recovery spot check", Faults.faults);
    ("scale", "sharded-array throughput scaling + rebalance cost", Scaling.scale);
    ("net", "wire protocol: in-process vs loopback vs TCP + batch depth", Network.net);
    ("batch", "vectored submission group-commit sweep, batch size 1..64", Durability.batch);
    ("integrity", "audit-chain seal overhead vs unsealed, batch size 1..64", Durability.integrity);
    ("persist", "sector-store backings: sim vs file", Durability.persist);
    ("kill9", "kill -9 a live server at random points; verify acked syncs", Durability.kill9);
    ("intrusion", "attacker campaigns: detect, attribute, roll back (oracle-gated)", Faults.intrusion);
    ("readscale", "read-path scale-out: replica reads, client cache, WFQ (oracle-gated)", Scaling.readscale);
    ("trace", "span tracer + metrics registry over drive and array runs", Tracing.trace);
    ("micro", "bechamel micro-benchmarks", Micro.micro);
  ]

(* "fundamental" re-runs the fig5 sweep itself, so the run-everything
   default skips the redundant separate fig5 pass. *)
let default_run =
  [ "table1"; "fig2"; "fig3"; "fig4"; "fundamental"; "fig6"; "audit-macro"; "fig7"; "diffstudy";
    "snapshots"; "ablation"; "faults"; "scale"; "net"; "batch"; "integrity"; "persist"; "micro" ]

let run (name, _, f) =
  Report.reset ();
  let failure = try f (); None with Harness.Failed msg -> Some msg in
  let file = "BENCH_" ^ name ^ ".json" in
  Report.write_json file;
  Report.note ("wrote " ^ file);
  Option.iter
    (fun msg ->
      Printf.eprintf "%s: %s\n" name msg;
      exit 1)
    failure

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--full" :: rest ->
      Harness.full_scale := true;
      parse acc rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with
      | Some s -> Harness.seed_override := Some s
      | None ->
        Printf.eprintf "--seed expects an integer, got %S\n" n;
        exit 1);
      parse acc rest
    | [ "--seed" ] ->
      Printf.eprintf "missing value for trailing flag\n";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected = match args with [] -> default_run | names -> names in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some e -> run e
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
        exit 1)
    selected;
  print_newline ()
