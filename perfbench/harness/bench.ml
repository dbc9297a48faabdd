(* Workload runs, their metrics, and the printed report. *)

module Trace = S4_obs.Trace

type workload = Postmark_tcp | Sync_array | History_churn

let workloads =
  [ ("postmark-tcp", Postmark_tcp); ("sync-array", Sync_array); ("history-churn", History_churn) ]

(* [Real] is the stack the workload is about; [Traceable] is the stack
   a traced pass runs on — the in-memory transport instead of TCP, and
   the router's serial path (tracing forces it anyway). *)
type variant = Real | Traceable

(* The [Obs.Trace] layer whose public entry point the benchmark calls. *)
let entry_layer = function Postmark_tcp | History_churn -> "nfs" | Sync_array -> "router"

let domains ~smoke = function
  | Sync_array -> (if smoke then Sync_array.smoke else Sync_array.full).Sync_array.domains
  | Postmark_tcp | History_churn -> 1

let run_pass ~smoke ~seed ~variant ~traced = function
  | Postmark_tcp ->
    let scale = if smoke then Postmark_tcp.smoke else Postmark_tcp.full in
    let transport = if variant = Real then Postmark_tcp.Tcp else Postmark_tcp.Loopback in
    Postmark_tcp.run ~scale ~seed ~transport ~traced
  | Sync_array ->
    let scale = if smoke then Sync_array.smoke else Sync_array.full in
    let scale = if variant = Real then scale else { scale with Sync_array.domains = 1 } in
    Sync_array.run ~scale ~seed ~traced
  | History_churn ->
    let scale = if smoke then History_churn.smoke else History_churn.full in
    History_churn.run ~scale ~seed ~traced

(* --- Figures of one pass ------------------------------------------------- *)

let us ns = Int64.to_float ns /. 1e3
let wall_us b = us (Int64.sub b.Pass.w1 b.Pass.w0)
let sim_us b = us (Int64.sub b.Pass.s1 b.Pass.s0)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let of_kind (r : Pass.result) k =
  Array.of_list (List.rev (List.filter (fun b -> b.Pass.kind = k) r.Pass.meter.Pass.brackets))

let total f bs = Array.fold_left (fun acc b -> acc +. f b) 0.0 bs
let samples f r k = Array.map f (of_kind r k)
let mean f r k = let bs = of_kind r k in ratio (total f bs) (float_of_int (Array.length bs))

(* Throughput over the time spent inside the stack: the client's calls
   and, where it runs in the foreground, the cleaner. *)
let busy f r = total f (of_kind r Pass.Op) +. total f (of_kind r Pass.Cleaner)
let ops_per_s f (r : Pass.result) = float_of_int r.Pass.ops /. (busy f r /. 1e6)

let pct q xs =
  let s = Stats.sorted xs in
  if Array.length s = 0 then 0.0 else Stats.percentile s q

(* Everything in a pass that depends only on the seed. Two passes of
   one run must agree on all of it, bit for bit. *)
let sim_figures (r : Pass.result) =
  let ops = samples sim_us r Pass.Op and hist = samples sim_us r Pass.History_read in
  [
    ("ops", float_of_int r.Pass.ops);
    ("attempted", float_of_int r.Pass.meter.Pass.attempted);
    ("sim_ops_per_s", ops_per_s sim_us r);
    ("sim_op_p50_us", pct 50.0 ops);
    ("sim_op_p99_us", pct 99.0 ops);
    ("sim_history_read_p50_us", pct 50.0 hist);
    ("sim_history_read_p99_us", pct 99.0 hist);
    ("sim_restore_s", total sim_us (of_kind r Pass.Restore) /. 1e6);
  ]
  @ r.Pass.sim

(* --- Self time per layer --------------------------------------------------- *)

let add_self tbl layer v =
  Hashtbl.replace tbl layer (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl layer))

let layer_total tbl l = Option.value ~default:0.0 (Hashtbl.find_opt tbl l)
let wall_layers = [ "nfs"; "net"; "shard"; "core" ]
let sim_layers = [ "nfs"; "net"; "router"; "drive"; "store"; "seglog"; "disk" ]

(* Per layer, the self time of the boundary spans recorded inside each
   bracket of kind [k], nested by time containment. *)
let wall_self (r : Pass.result) k =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun b ->
      let spans = Array.init (b.Pass.sp1 - b.Pass.sp0) (fun i -> Wallspan.get (b.Pass.sp0 + i)) in
      let parents =
        Selftime.parents_by_containment
          (Array.map (fun s -> (s.Wallspan.start, s.Wallspan.stop)) spans)
      in
      let self =
        Selftime.self_times
          (Array.mapi
             (fun i s ->
               { Selftime.parent = parents.(i); start = s.Wallspan.start; stop = s.Wallspan.stop })
             spans)
      in
      Array.iteri (fun i s -> add_self tbl s.Wallspan.layer (us self.(i))) spans)
    (of_kind r k);
  tbl

(* The simulated split from the [Obs.Trace] spans inside each bracket.
   The call the benchmark made is the root on this clock too: time its
   layer charged outside any span it opened (a router's fan-out
   barrier, say) stays with that layer instead of going missing.
   Returns the table and the time the spans alone cover. *)
let sim_self ~entry (r : Pass.result) k =
  let all = Trace.spans () in
  let tbl = Hashtbl.create 8 in
  let in_spans = ref 0.0 in
  Array.iter
    (fun b ->
      let lo = b.Pass.tr0 in
      let span (s : Trace.span) =
        let stop = if s.Trace.stop_ns = Trace.unset then s.Trace.start_ns else s.Trace.stop_ns in
        let parent = if s.Trace.parent >= lo then s.Trace.parent - lo + 1 else 0 in
        if parent = 0 then in_spans := !in_spans +. us (Int64.sub stop s.Trace.start_ns);
        { Selftime.parent; start = s.Trace.start_ns; stop }
      in
      let spans =
        Array.append
          [| { Selftime.parent = -1; start = b.Pass.s0; stop = b.Pass.s1 } |]
          (Array.map span (Array.sub all lo (b.Pass.tr1 - lo)))
      in
      Array.iteri
        (fun i v ->
          let layer = if i = 0 then entry else Trace.layer_name all.(lo + i - 1).Trace.layer in
          add_self tbl layer (us v))
        (Selftime.self_times spans))
    (of_kind r k);
  (tbl, !in_spans)

(* --- Metric catalogue ---------------------------------------------------------- *)

(* [Count] figures are host-independent counts or ratios of counts;
   [Host] ones are host measurements other than time. *)
type clock = Wall | Sim | Count | Host

let clock_name = function Wall -> "wall" | Sim -> "sim" | Count -> "count" | Host -> "host"

(* name, unit, clock *)
let end_to_end =
  [
    ("ops_per_s", "1/s", Wall);
    ("op_p50_us", "us", Wall);
    ("op_p99_us", "us", Wall);
    ("sim_ops_per_s", "1/s", Sim);
    ("space_amp", "ratio", Sim);
    ("peak_heap_mb", "MiB", Host);
    ("setup_s", "s", Wall);
  ]

let per_layer =
  [
    ("sim_op_p50_us", "us", Sim);
    ("sim_op_p99_us", "us", Sim);
    ("nfs.self_wall_us", "us", Wall);
    ("nfs.s4_rpcs_per_op", "count", Count);
    ("nfs.attr_cache_hit_ratio", "ratio", Count);
    ("net.self_wall_us", "us", Wall);
    ("net.bytes_per_op", "B", Count);
    ("net.frames_per_op", "count", Count);
    ("net.retries", "count", Count);
    ("net.decode_rejects", "count", Count);
    ("shard.submit_wall_us", "us", Wall);
    ("shard.member_ops_max_over_mean", "ratio", Count);
    ("core.self_wall_us", "us", Wall);
    ("drive.wall_us_per_rpc", "us", Wall);
    ("drive.rpcs_per_op", "count", Count);
    ("audit.records_per_op", "count", Count);
    ("integrity.seals_per_barrier", "count", Count);
    ("drive.io_errors", "count", Count);
    ("store.journal_bytes_per_op", "B", Count);
    ("store.block_cache_hit_ratio", "ratio", Count);
    ("cleaner.wall_s", "s", Wall);
    ("cleaner.wall_share", "ratio", Wall);
    ("cleaner.blocks_moved_per_segment_reclaimed", "count", Count);
    ("cleaner.expired_entries", "count", Count);
    ("seglog.write_amp", "ratio", Count);
    ("seglog.flush_ops_per_op", "count", Count);
    ("seglog.blocks_read_per_history_read", "count", Count);
    ("disk.busy_share", "ratio", Sim);
    ("disk.seeks_per_op", "count", Count);
    ("disk.sequential_ratio", "ratio", Count);
    ("recovery.rpcs", "count", Count);
    ("recovery.bytes_restored", "B", Count);
    ("audit.expired_region_gaps", "count", Count);
    ("tools.history_read_p50_us", "us", Wall);
    ("tools.history_read_p99_us", "us", Wall);
    ("tools.restore_s", "s", Wall);
    ("tools.sim_restore_s", "s", Sim);
    ("postmark.sim_txn_per_s", "1/s", Sim);
    ("nfs.self_sim_us", "us", Sim);
    ("net.self_sim_us", "us", Sim);
    ("router.self_sim_us", "us", Sim);
    ("drive.self_sim_us", "us", Sim);
    ("store.self_sim_us", "us", Sim);
    ("seglog.self_sim_us", "us", Sim);
    ("disk.self_sim_us", "us", Sim);
    ("trace.wall_coverage", "ratio", Wall);
    ("trace.sim_coverage", "ratio", Sim);
    ("trace.sim_span_share", "ratio", Sim);
    ("trace.overhead_us", "us", Wall);
  ]

(* --- Runs ------------------------------------------------------------------------ *)

type outcome = {
  metrics : (string * float) list;
  table : (string * string) list;  (** further report lines: label, text *)
  attempted : int;
  failed : int;
  violations : string list;
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let gather passes =
  List.fold_left
    (fun (a, f, v) (r : Pass.result) ->
      let m = r.Pass.meter in
      (a + m.Pass.attempted, f + m.Pass.failed, v @ List.rev m.Pass.violations))
    (0, 0, []) passes

(* Every pass of a run saw the same inputs: its simulated figures must
   match the first pass's exactly. *)
let determinism = function
  | [] -> []
  | first :: rest ->
    let reference = sim_figures first in
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (k, v) ->
            let v0 = List.assoc k reference in
            if Float.equal v v0 then None
            else Some (Printf.sprintf "simulated %s differs between passes: %.17g vs %.17g" k v0 v))
          (sim_figures r))
      rest

(* A reported p99 needs ten samples beyond it (smoke runs are too small
   to have them). *)
let p99_gate ~smoke label n =
  if smoke || n = 0 || Stats.supported ~n 99.0 then []
  else [ Printf.sprintf "%s: %d samples cannot support a p99" label n ]

let fresh_pass ~smoke ~seed ~variant ~traced w =
  Gc.full_major ();
  Wallspan.clear ();
  run_pass ~smoke ~seed ~variant ~traced w

let by_pass f passes = String.concat " " (List.map f passes)

(* End-to-end metrics: untraced passes of the real stack, each a fresh
   stack fed the same seeded input, until [seconds] are used. Rates and
   set-up time are medians over passes; latency percentiles pool every
   pass's samples; simulated figures come from the first pass, which
   every later pass must repeat exactly. *)
let measured ~smoke ~seconds ~seed w =
  let t0 = Wallspan.now () in
  let elapsed () = Wallspan.seconds_since t0 in
  let heap = ref 0.0 in
  let rec loop acc =
    let r = fresh_pass ~smoke ~seed ~variant:Real ~traced:false w in
    (* The first pass runs in a fresh heap; later passes only add
       fragmentation to the high-water mark. *)
    if acc = [] then heap := peak_heap_mb ();
    let acc = r :: acc in
    let per_pass = elapsed () /. float_of_int (List.length acc) in
    if elapsed () +. per_pass <= seconds then loop acc else List.rev acc
  in
  let passes = loop [] in
  let sim = sim_figures (List.hd passes) in
  let pooled k = Array.concat (List.map (fun r -> samples wall_us r k) passes) in
  let op_wall = pooled Pass.Op and hist_wall = pooled Pass.History_read in
  let median f = Stats.median (Array.of_list (List.map f passes)) in
  let attempted, failed, violations = gather passes in
  let metrics =
    [
      ("ops_per_s", median (ops_per_s wall_us));
      ("op_p50_us", pct 50.0 op_wall);
      ("op_p99_us", pct 99.0 op_wall);
      ("sim_ops_per_s", List.assoc "sim_ops_per_s" sim);
      ("space_amp", List.assoc "space_amp" sim);
      ("peak_heap_mb", !heap);
      ("setup_s", median (fun r -> r.Pass.setup_s));
    ]
  in
  let history =
    if hist_wall = [||] then []
    else
      let n = Array.length hist_wall and s k = List.assoc k sim in
      [
        ( "history_read_p50_us",
          Printf.sprintf "%.1f wall (n=%d), %.1f sim" (pct 50.0 hist_wall) n
            (s "sim_history_read_p50_us") );
        ( "history_read_p99_us",
          Printf.sprintf "%.1f wall (n=%d), %.1f sim" (pct 99.0 hist_wall) n
            (s "sim_history_read_p99_us") );
        ( "restore_s",
          Printf.sprintf "%.4f wall (median of %d), %.4f sim"
            (median (fun r -> total wall_us (of_kind r Pass.Restore) /. 1e6))
            (List.length passes) (s "sim_restore_s") );
      ]
  in
  let table =
    [
      ( "passes",
        Printf.sprintf "%d in %.1f s; setup_s is their median, peak_heap_mb the first's"
          (List.length passes) (elapsed ()) );
      ("ops_per_s by pass", by_pass (fun r -> Printf.sprintf "%.0f" (ops_per_s wall_us r)) passes);
      ( "op_p50_us by pass",
        by_pass (fun r -> Printf.sprintf "%.1f" (pct 50.0 (samples wall_us r Pass.Op))) passes );
      ( "op_p99_us by pass",
        by_pass (fun r -> Printf.sprintf "%.1f" (pct 99.0 (samples wall_us r Pass.Op))) passes );
      ( "op samples",
        Printf.sprintf "wall n=%d over all passes, sim n=%d per pass" (Array.length op_wall)
          (Array.length (samples sim_us (List.hd passes) Pass.Op)) );
      ( "sim_op_p50_us / p99",
        Printf.sprintf "%.1f / %.1f sim" (List.assoc "sim_op_p50_us" sim)
          (List.assoc "sim_op_p99_us" sim) );
      ( "error_rate",
        Printf.sprintf "%g (%d of %d checks failed)"
          (ratio (float_of_int failed) (float_of_int attempted))
          failed attempted );
    ]
    @ history
    @ List.filter_map
        (fun (k, v) ->
          if k = "postmark.sim_txn_per_s" then Some ("sim_txn_per_s", Printf.sprintf "%.2f" v)
          else None)
        sim
  in
  let violations =
    violations @ determinism passes
    @ p99_gate ~smoke "op" (Array.length op_wall)
    @ p99_gate ~smoke "history read" (Array.length hist_wall)
  in
  { metrics; table; attempted; failed; violations }

(* Per-layer attribution: an untraced pass of the real stack for the
   boundary timers and counters, then an untraced and a traced pass of
   the traceable stack for the simulated split and the tracing
   overhead (history-churn's real stack is its traceable one). *)
let layered ~smoke ~seed w =
  let pass ~variant ~traced =
    let r = fresh_pass ~smoke ~seed ~variant ~traced w in
    (* Self times read the span buffers, which the next pass clears. *)
    let sim =
      if traced then sim_self ~entry:(entry_layer w) r Pass.Op else (Hashtbl.create 1, 0.0)
    in
    (r, wall_self r Pass.Op, sim)
  in
  let a, wall, _ = pass ~variant:Real ~traced:false in
  let b =
    if w = History_churn then a
    else
      let r, _, _ = pass ~variant:Traceable ~traced:false in
      r
  in
  let c, _, (sim, sim_in_spans) = pass ~variant:Traceable ~traced:true in
  let calls = float_of_int (Array.length (of_kind a Pass.Op)) in
  let c_calls = float_of_int (Array.length (of_kind c Pass.Op)) in
  let nops = float_of_int a.Pass.ops in
  let op_wall = total wall_us (of_kind a Pass.Op) and sim_e2e = total sim_us (of_kind c Pass.Op) in
  let sum tbl layers = List.fold_left (fun acc l -> acc +. layer_total tbl l) 0.0 layers in
  let wall_sum = sum wall wall_layers and sim_sum = sum sim sim_layers in
  let overhead = mean wall_us c Pass.Op -. mean wall_us b Pass.Op in
  let cleaner = total wall_us (of_kind a Pass.Cleaner) in
  let hist = samples wall_us a Pass.History_read in
  let d k = Option.value ~default:0.0 (List.assoc_opt k a.Pass.counters) in
  let hit_ratio hits misses = ratio (d hits) (d hits +. d misses) in
  let metrics =
    [
      ("sim_op_p50_us", pct 50.0 (samples sim_us a Pass.Op));
      ("sim_op_p99_us", pct 99.0 (samples sim_us a Pass.Op));
      ("nfs.self_wall_us", ratio (layer_total wall "nfs") calls);
      ("nfs.s4_rpcs_per_op", ratio (d "nfs.rpcs") nops);
      ("nfs.attr_cache_hit_ratio", hit_ratio "nfs.attr_hits" "nfs.attr_misses");
      ("net.self_wall_us", ratio (layer_total wall "net") calls);
      ("net.bytes_per_op", ratio (d "net.bytes") nops);
      ("net.frames_per_op", ratio (d "net.frames") nops);
      ("net.retries", d "net.retries");
      ("net.decode_rejects", d "net.decode_rejects");
      ("shard.submit_wall_us", ratio (layer_total wall "shard") calls);
      ("shard.member_ops_max_over_mean", d "shard.member_ops_max_over_mean");
      ("core.self_wall_us", ratio (layer_total wall "core") calls);
      ("drive.wall_us_per_rpc", ratio (layer_total wall "core") (d "drive.ops"));
      ("drive.rpcs_per_op", ratio (d "drive.ops") nops);
      ("audit.records_per_op", ratio (d "audit.records") nops);
      ("integrity.seals_per_barrier", ratio (d "audit.seals") (d "barriers"));
      ("drive.io_errors", d "drive.io_errors");
      ("store.journal_bytes_per_op", ratio (d "store.journal_bytes") nops);
      ("store.block_cache_hit_ratio", hit_ratio "store.cache_hits" "store.cache_misses");
      ("cleaner.wall_s", cleaner /. 1e6);
      ("cleaner.wall_share", ratio cleaner (op_wall +. cleaner));
      ( "cleaner.blocks_moved_per_segment_reclaimed",
        ratio (d "cleaner.blocks_moved") (d "cleaner.segments_reclaimed") );
      ("cleaner.expired_entries", d "cleaner.expired_entries");
      ("seglog.write_amp", ratio (d "seglog.blocks_flushed" *. 4096.0) (d "user_bytes"));
      ("seglog.flush_ops_per_op", ratio (d "seglog.flush_ops") nops);
      ("seglog.blocks_read_per_history_read", d "seglog.blocks_read_per_history_read");
      ( "disk.busy_share",
        ratio (d "disk.busy_ns" /. 1e3) (float_of_int a.Pass.n_disks *. busy sim_us a) );
      ("disk.seeks_per_op", ratio (d "disk.seeks") nops);
      ("disk.sequential_ratio", ratio (d "disk.sequential") (d "disk.requests"));
      ("recovery.rpcs", d "recovery.rpcs");
      ("recovery.bytes_restored", d "recovery.bytes_restored");
      ("audit.expired_region_gaps", d "audit.expired_region_gaps");
      ("tools.history_read_p50_us", pct 50.0 hist);
      ("tools.history_read_p99_us", pct 99.0 hist);
      ("tools.restore_s", total wall_us (of_kind a Pass.Restore) /. 1e6);
      ("tools.sim_restore_s", total sim_us (of_kind a Pass.Restore) /. 1e6);
      ( "postmark.sim_txn_per_s",
        Option.value ~default:0.0 (List.assoc_opt "postmark.sim_txn_per_s" a.Pass.sim) );
    ]
    @ List.map (fun l -> (l ^ ".self_sim_us", ratio (layer_total sim l) c_calls)) sim_layers
    @ [
        ("trace.wall_coverage", ratio wall_sum op_wall);
        ("trace.sim_coverage", ratio sim_sum sim_e2e);
        ("trace.sim_span_share", ratio sim_in_spans sim_e2e);
        ("trace.overhead_us", overhead);
      ]
  in
  let rows tbl layers per =
    List.map
      (fun l -> ("  " ^ l, Printf.sprintf "%10.2f us/call" (ratio (layer_total tbl l) per)))
      layers
  in
  let table =
    [
      ( "wall self (boundary spans, untraced real stack)",
        Printf.sprintf "%.0f calls, %.2f us/call end to end" calls (ratio op_wall calls) );
    ]
    @ rows wall wall_layers calls
    @ [
        ("  sum / end to end", Printf.sprintf "%.4f" (ratio wall_sum op_wall));
        ( "sim self (Obs.Trace spans, traced stack)",
          Printf.sprintf "%.0f calls, %.2f us/call end to end" c_calls (ratio sim_e2e c_calls) );
      ]
    @ rows sim sim_layers c_calls
    @ [
        ( "  sum / end to end",
          Printf.sprintf "%.4f (%.4f inside Obs.Trace spans, the rest charged by the entry layer)"
            (ratio sim_sum sim_e2e) (ratio sim_in_spans sim_e2e) );
        ( "tracing overhead",
          Printf.sprintf "%.2f us/call (traced %.2f - untraced %.2f)" overhead
            (mean wall_us c Pass.Op) (mean wall_us b Pass.Op) );
      ]
  in
  let attempted, failed, violations = gather (if a == b then [ a; c ] else [ a; b; c ]) in
  let coverage_gate label v =
    if Float.abs (v -. 1.0) <= 0.05 then []
    else [ Printf.sprintf "%s self times cover %.4f of the end-to-end time" label v ]
  in
  let violations =
    violations
    @ p99_gate ~smoke "op" (int_of_float calls)
    @ p99_gate ~smoke "history read" (Array.length hist)
    @ coverage_gate "wall" (ratio wall_sum op_wall)
    @ coverage_gate "sim" (ratio sim_sum sim_e2e)
  in
  { metrics; table; attempted; failed; violations }
