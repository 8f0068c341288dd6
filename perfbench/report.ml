(* The metrics a run reports, and how a run's result is printed.

   The end-to-end metrics are measured with tracing off and end the
   output of every untraced run; every workload reports each of them.
   The per-layer metrics come from the traced run; one of a layer the
   workload never calls reads 0.  perfbench/layers.json records, for
   each per-layer metric, the end-to-end metric and workload it should
   move.

   result_p99_ms is printed by name on every run but kept out of the
   result line: as the highest percentile with ten samples beyond it,
   it is the maximum of a batch workload's few runs and the checkpoint
   stall on serve-sensors, both too unsteady between runs on a small
   shared machine to hold to a bound.  serve-sensors' tail, its
   ladder's sustained rate and its recovery time are in the traced
   run's per-layer line instead. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("tuples_per_s", "tuples/s");
    ("result_p50_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("causality.check_s", "s");
    ("causality.obligations", "count");
    ("csv.parse_s", "s");
    ("store.insert_s", "s");
    ("store.probe_ns", "ns");
    ("store.probes", "count");
    ("delta.insert_s", "s");
    ("delta.insert_batch_s", "s");
    ("delta.useful_ratio", "ratio");
    ("engine.extract_s", "s");
    ("engine.gamma_s", "s");
    ("engine.rules_s", "s");
    ("engine.steps", "count");
    ("engine.vs_handcoded", "ratio");
    ("reducer.stats_s", "s");
    ("sched.utilization", "ratio");
    ("sched.idle_s", "s");
    ("sched.speedup_tn", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.alloc_mb", "MB");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("client.feed_ack_p50_ms", "ms");
    ("client.feed_ack_p99_ms", "ms");
    ("client.drain_rtt_p50_ms", "ms");
    ("engine.feed_us", "us");
    ("engine.drain_us", "us");
    ("wal.commit_us", "us");
    ("wal.fsyncs", "count");
    ("wal.coalesced_syncs", "count");
    ("wal.bytes_per_tuple", "bytes");
    ("durable.checkpoint_s_max", "s");
    ("durable.checkpoints", "count");
    ("snapshot.bytes", "bytes");
    ("durable.open_s", "s");
    ("durable.replayed_records", "count");
    ("serve.peak_backlog", "tuples");
    ("serve.flow_pauses", "count");
    ("serve.residual_us", "us");
    ("serve.sustained_tuples_per_s", "tuples/s");
    ("serve.result_p99_ms", "ms");
    ("serve.recover_s", "s");
    ("gen.late_p99_ms", "ms");
    ("trace.overhead_pct", "%");
    ("residual_pct", "%");
  ]

type outcome = {
  metrics : (string * float) list;
      (** every metric measured, end-to-end and per-layer alike *)
  notes : (string * string) list;
      (** printed for people only: sample counts, percentiles, the
          serve-only figures *)
  repetitions : int;  (** timed repetitions: runs, or reference passes *)
  attempted : int;
  failed : int;
}

exception Check_failed of string

let check = function Ok () -> () | Error msg -> raise (Check_failed msg)

(* Gc counters between two [Gc.quick_stat]s, summed over the domains. *)
let gc_between a b =
  let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  [
    ("gc.minor_collections", float_of_int (b.Gc.minor_collections - a.Gc.minor_collections));
    ("gc.major_collections", float_of_int (b.Gc.major_collections - a.Gc.major_collections));
    ("gc.alloc_mb", (words b -. words a) *. 8.0 /. 1e6);
  ]

type rep = { secs : float; gc : (string * float) list }

(* Run [f] repeatedly for [seconds] (and at least [min_reps] times),
   handing each result to [after] outside the timed call; returns each
   call's wall time and Gc counters, in order.  Each call starts from a
   collected heap, so one call's garbage is not charged to the next. *)
let repeat ~seconds ?(min_reps = 3) ?(after = ignore) f =
  let deadline = Sample.now () +. seconds in
  let rec go acc n =
    if n >= min_reps && Sample.now () >= deadline then List.rev acc
    else begin
      Span.with_ "bench.gc" Gc.full_major;
      let before = Gc.quick_stat () in
      let r, secs = Sample.time f in
      let gc = gc_between before (Gc.quick_stat ()) in
      after r;
      go ({ secs; gc } :: acc) (n + 1)
    end
  in
  go [] 0

let secs reps = List.map (fun r -> r.secs) reps

(* Rows of named figures, one row per run, folded into their medians. *)
let median_rows rows =
  List.map
    (fun (name, _) -> (name, Sample.median (List.map (List.assoc name) rows)))
    (List.hd rows)

(* Median of [reps] timed set-ups; returns it and the last set-up. *)
let setup ~reps f =
  let rec go acc last n =
    if n = 0 then (Sample.median acc, Option.get last)
    else
      let r, t = Sample.time f in
      go (t :: acc) (Some r) (n - 1)
  in
  go [] None reps

let unit_of name =
  Option.value ~default:""
    (List.assoc_opt name (end_to_end @ per_layer @ [ ("result_p99_ms", "ms") ]))

let json_string s =
  Jstar_obs.Json.to_string (Jstar_obs.Json.Str s)

(* Numbers are printed with all the digits a double holds. *)
let json_number v = Printf.sprintf "%.17g" (Float.min v Float.max_float)

let metric_json names values =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit) ->
           let v = Option.value ~default:0.0 (List.assoc_opt name values) in
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_number v) (json_string unit))
         names)
  ^ "}"

let result_line ~correct ~trace outcome =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct outcome.attempted outcome.failed
    (metric_json (if trace then per_layer else end_to_end) outcome.metrics)

let print_table outcome =
  List.iter
    (fun (name, v) -> Printf.printf "  %-30s %16.6g %s\n" name v (unit_of name))
    outcome.metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-30s %s\n" k v) outcome.notes;
  Printf.printf "  %-30s %16.6g %s\n" "failed_ratio"
    (float_of_int outcome.failed /. float_of_int (max 1 outcome.attempted))
    "-"
