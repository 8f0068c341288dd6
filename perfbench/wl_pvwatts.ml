(* pvwatts: the paper's Fig 4 program in its shipped §6.2 configuration
   ([-noDelta PvWatts], month-array Gamma store, chunked parallel
   reader) over 60 installation-years of hourly records.  The seed
   shuffles the record order; the monthly means do not depend on it. *)

open Jstar_core
module O = Perfbench_oracle.Oracle

let installations = 60
let chunks = 8

(* The Pvwatts_data records in a seed-shuffled order, as CSV. *)
let make_input ~seed =
  let n = Jstar_csv.Pvwatts_data.record_count ~installations in
  let recs = Array.make n (0, 0, 0, 0, 0) in
  let i = ref 0 in
  Jstar_csv.Pvwatts_data.iter ~installations
    ~ordering:Jstar_csv.Pvwatts_data.Month_major
    (fun ~site ~month ~day ~hour ~power ->
      recs.(!i) <- (site, month, day, hour, power);
      incr i);
  let rng = Random.State.make [| seed |] in
  for k = n - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let x = recs.(k) in
    recs.(k) <- recs.(j);
    recs.(j) <- x
  done;
  let buf = Buffer.create (n * 24) in
  Array.iter
    (fun (site, month, day, hour, power) ->
      Printf.bprintf buf "%d,%d,%d,%d,%d,%d\n" Jstar_csv.Pvwatts_data.year month
        day hour site power)
    recs;
  (Buffer.to_bytes buf, n)

type setup = {
  app : Jstar_apps.Pvwatts.t;
  frozen : Program.frozen;
  report : Jstar_causality.Check.report;
}

(* Build and freeze the program, then discharge its obligations. *)
let setup data () =
  let app, frozen =
    Span.with_ "engine.freeze" (fun () ->
        let app = Jstar_apps.Pvwatts.make ~data ~chunks () in
        (app, Program.freeze app.Jstar_apps.Pvwatts.program))
  in
  let report =
    Span.with_ "causality.check" (fun () ->
        Jstar_causality.Check.check_program app.Jstar_apps.Pvwatts.program)
  in
  if not (Jstar_causality.Check.ok report) then
    raise (Report.Check_failed "pvwatts: causality check did not pass");
  { app; frozen; report }

let run s config =
  Span.with_ "engine.run" (fun () ->
      Engine.run ~init:s.app.Jstar_apps.Pvwatts.init s.frozen config)

let check_outputs ~expected r =
  Span.with_ "bench.check" (fun () ->
      Report.check (O.check_lines ~what:"pvwatts" ~expected ~got:r.Engine.outputs))

(* Replays of the layers the run leans on, each over the whole input. *)
let replays data s =
  let pv = s.app.Jstar_apps.Pvwatts.pv_table
  and sum = s.app.Jstar_apps.Pvwatts.sum_table in
  let len = Bytes.length data in
  let fields = Array.make 6 0 in
  let rows = ref [] in
  let (), parse_s =
    Sample.time (fun () ->
        Span.with_ "csv.parse" (fun () ->
            Jstar_csv.Parse.iter_records data 0 len (fun a b ->
                ignore (Jstar_csv.Parse.int_fields_into data a b fields);
                rows := Array.copy fields :: !rows)))
  in
  let rows = Array.of_list !rows in
  let n = Array.length rows in
  let pv_tuples =
    Array.map (fun f -> Tuple.make pv (Array.map (fun x -> Value.Int x) f)) rows
  in
  let sum_tuples =
    Array.map (fun f -> Tuple.make sum [| Value.Int f.(0); Value.Int f.(1) |]) rows
  in
  let order = Program.order_rel s.app.Jstar_apps.Pvwatts.program in
  let sum_ts = Array.map (Timestamp.of_tuple order) sum_tuples in
  let store = Jstar_apps.Pvwatts.month_array_store pv in
  let (), insert_s =
    Sample.time (fun () ->
        Span.with_ ~calls:n "store.insert" (fun () ->
            Array.iter (fun t -> ignore (store.Store.insert t)) pv_tuples))
  in
  let delta = Delta.create ~mode:Delta.Concurrent ~nlits:s.frozen.Program.nlits () in
  let (), delta_s =
    Sample.time (fun () ->
        Span.with_ ~calls:n "delta.insert" (fun () ->
            Array.iteri (fun i t -> ignore (Delta.insert delta t sum_ts.(i))) sum_tuples))
  in
  let stats, stats_s =
    Sample.time (fun () ->
        Span.with_ ~calls:n "reducer.stats" (fun () ->
            let by_month = Array.make 13 Reducer.Statistics.empty in
            Array.iter
              (fun f ->
                by_month.(f.(1)) <-
                  Reducer.Statistics.add by_month.(f.(1)) (float_of_int f.(5)))
              rows;
            by_month))
  in
  Report.check
    (O.check_lines ~what:"pvwatts reducer replay"
       ~expected:(O.pvwatts_lines ~installations)
       ~got:
         (List.init 12 (fun i ->
              Jstar_apps.Pvwatts.format_mean Jstar_csv.Pvwatts_data.year (i + 1)
                (Reducer.Statistics.mean stats.(i + 1)))));
  [
    ("csv.parse_s", parse_s);
    ("store.insert_s", insert_s);
    ("delta.insert_s", delta_s);
    ("reducer.stats_s", stats_s);
  ]

(* Timed engine runs; each run's outputs are checked and its per-layer
   figures kept, outside the timed call. *)
let timed_runs ?min_reps ~seconds ~expected s config =
  let rows = ref [] in
  let reps =
    Report.repeat ?min_reps ~seconds
      ~after:(fun r ->
        check_outputs ~expected r;
        rows := Batch.engine_layers ~threads:config.Config.threads r :: !rows)
      (fun () -> run s config)
  in
  (reps, List.rev !rows)

let main ~seed ~seconds ~trace ~trace_path =
  let threads = Host.nproc in
  let data, records = make_input ~seed in
  let expected = O.pvwatts_lines ~installations in
  let config = Jstar_apps.Pvwatts.config ~threads () in
  let setup_s, s = Report.setup ~reps:200 (setup data) in
  (* warm-up run: caches, heap growth; checked but not timed *)
  check_outputs ~expected (run s config);
  let measure = if trace then seconds /. 2.0 else seconds in
  let reps, _ = timed_runs ~seconds:measure ~expected s config in
  let traced =
    if not trace then None
    else begin
      Span.enabled := true;
      let s, runs, rows =
        Span.with_ "pvwatts.traced" (fun () ->
            let s = setup data () in
            let runs, rows = timed_runs ~seconds:measure ~expected s config in
            (s, runs, rows))
      in
      let replays = replays data s in
      let one_thread, _ =
        timed_runs ~min_reps:2 ~seconds:0.0 ~expected s
          (Jstar_apps.Pvwatts.config ~threads:1 ())
      in
      let baseline =
        Report.repeat ~min_reps:2 ~seconds:0.0
          ~after:(fun lines ->
            Report.check (O.check_lines ~what:"pvwatts baseline" ~expected ~got:lines))
          (fun () ->
            Span.with_ "pvwatts.baseline" (fun () -> Jstar_apps.Pvwatts.baseline data))
      in
      let median reps = Sample.median (Report.secs reps) in
      Some
        {
          Batch.report = s.report;
          runs;
          rows;
          one_thread;
          root = "pvwatts.traced";
          replays = ("engine.vs_handcoded", median reps /. median baseline) :: replays;
        }
    end
  in
  Batch.outcome ~setup_s ~work:(float_of_int records)
    ~input:(Printf.sprintf "%d records, %d threads" records threads)
    ~reps ~trace_path traced
