(* What the two in-process batch workloads share: the per-layer figures
   read from an engine result, and a run's outcome built from its timed
   repetitions. *)

open Jstar_core

let engine_layers ~threads (r : Engine.result) =
  let read name = Jstar_obs.Metrics.read r.Engine.metrics name in
  let idle = Option.value ~default:0.0 (read "sched.idle_s") in
  let utilization =
    match read "sched.utilization" with
    | Some u -> u
    | None ->
        (* the registry has it only when the profiler is on *)
        Float.max 0.0 (1.0 -. (idle /. (float_of_int threads *. r.Engine.elapsed)))
  in
  let ins = r.Engine.delta_inserted and dup = r.Engine.delta_deduped in
  [
    ("engine.extract_s", r.Engine.phases.Engine.t_extract);
    ("engine.gamma_s", r.Engine.phases.Engine.t_gamma);
    ("engine.rules_s", r.Engine.phases.Engine.t_rules);
    ("engine.steps", float_of_int r.Engine.steps);
    ("delta.useful_ratio", float_of_int ins /. float_of_int (max 1 (ins + dup)));
    ("sched.idle_s", idle);
    ("sched.utilization", utilization);
  ]

(* What a traced run measured, beyond the untraced runs. *)
type traced = {
  report : Jstar_causality.Check.report;  (** of the traced set-up *)
  runs : Report.rep list;  (** the traced engine runs *)
  rows : (string * float) list list;  (** their {!engine_layers} *)
  one_thread : Report.rep list;  (** the same runs on one thread *)
  root : string;  (** the root span around the traced runs *)
  replays : (string * float) list;  (** the workload's own layer figures *)
}

(* [reps] are the untraced runs, each doing [work] tuples.  With a
   traced run, its spans are written to [trace_path] and checked, and
   the per-layer figures join the end-to-end ones. *)
let outcome ~setup_s ~work ~input ~reps ~trace_path traced =
  let times = Report.secs reps in
  let med = Sample.median times in
  let tail, tail_pct = Sample.tail times in
  let e2e =
    [
      ("setup_s", setup_s);
      ("tuples_per_s", work /. med);
      ("result_p50_ms", 1000.0 *. med);
      ("result_p99_ms", 1000.0 *. tail);
      ("peak_rss_mb", Host.peak_rss_mb (Unix.getpid ()));
    ]
  in
  let layers =
    match traced with
    | None -> []
    | Some t ->
        Span.enabled := false;
        let spans = Span.all () in
        (match Span.write_checked trace_path spans with
        | Ok _ -> ()
        | Error msg -> raise (Report.Check_failed msg));
        let median reps = Sample.median (Report.secs reps) in
        [
          ("causality.check_s", Span.total spans "causality.check");
          ("causality.obligations", float_of_int t.report.Jstar_causality.Check.obligations);
          ("sched.speedup_tn", median t.one_thread /. med);
          ("trace.overhead_pct", 100.0 *. (median t.runs -. med) /. med);
          ("residual_pct", Span.residual_pct spans ~root:t.root);
        ]
        @ t.replays
        @ Report.median_rows t.rows
        @ Report.median_rows (List.map (fun r -> r.Report.gc) t.runs)
  in
  {
    Report.metrics = e2e @ layers;
    notes =
      [
        ("input", input);
        ( "result samples",
          Printf.sprintf "%d runs; result_p99_ms is p%.1f" (List.length times) tail_pct );
      ];
    repetitions = List.length times;
    attempted = List.length times;
    failed = 0;
  }
