open Harness

(* ------------------------------------------------------------------ *)
(* Trace: span tracer + metrics registry                               *)

let trace () =
  Report.heading "Trace: per-request span trees + per-RPC-kind latency (drive and 4-shard array)";
  let pm_config = pm_seeded { Postmark.default with Postmark.files = 300; transactions = 600 } in
  let run_one ~experiment ~label sys =
    Trace.clear ();
    Metrics.reset ();
    Trace.enable ();
    let pm = Postmark.run ~config:pm_config sys in
    Trace.disable ();
    let spans = Trace.spans () in
    let res = Check.run spans in
    Printf.printf "\n%s: %d spans over the postmark run (%.1f txn/s), %d checker violations\n"
      label (Array.length spans) pm.Postmark.transactions_per_second
      (List.length res.Check.violations);
    List.iter (fun v -> Printf.printf "  VIOLATION %s\n" v) res.Check.violations;
    let hists = Metrics.histograms () in
    Report.table
      ~header:[ "layer/kind"; "n"; "mean us"; "p50 us"; "p95 us"; "max us" ]
      (List.map
         (fun (name, h) ->
           [
             name;
             string_of_int (Histogram.count h);
             Printf.sprintf "%.1f" (Histogram.mean h);
             Printf.sprintf "%.1f" (Histogram.percentile h 50.0);
             Printf.sprintf "%.1f" (Histogram.percentile h 95.0);
             Printf.sprintf "%.1f" (Histogram.max_value h);
           ])
         hists);
    List.iter
      (fun (name, h) ->
        Report.record ~experiment ~label:name
          [
            ("n", float_of_int (Histogram.count h));
            ("mean_us", Histogram.mean h);
            ("p50_us", Histogram.percentile h 50.0);
            ("p95_us", Histogram.percentile h 95.0);
            ("max_us", Histogram.max_value h);
          ])
      hists;
    (* A bounded span dump: enough of the head of the run to see whole
       request trees without exploding the JSON. *)
    Array.iteri
      (fun i s ->
        if i < 60 then
          Report.record ~experiment:"trace_spans"
            ~label:(Printf.sprintf "%s:%s/%s" label (Trace.layer_name s.Trace.layer) s.Trace.kind)
            [
              ("id", float_of_int s.Trace.id);
              ("parent", float_of_int s.Trace.parent);
              ("start_us", Int64.to_float s.Trace.start_ns /. 1e3);
              ("dur_us", Int64.to_float (Int64.sub s.Trace.stop_ns s.Trace.start_ns) /. 1e3);
              ("oid", Int64.to_float s.Trace.oid);
              ("bytes", float_of_int s.Trace.bytes);
              ("ok", if s.Trace.ok then 1.0 else 0.0);
            ])
      spans;
    res
  in
  let r1 = run_one ~experiment:"trace_drive" ~label:"drive" (Systems.s4_remote ()) in
  let r2 = run_one ~experiment:"trace_array" ~label:"array4" (Systems.s4_array ~shards:4 ()) in
  let violations = List.length r1.Check.violations + List.length r2.Check.violations in
  if violations > 0 then fail "%d checker violations" violations
