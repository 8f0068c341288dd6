(* closure: transitive closure over the layered-cluster graph of
   bench/joins.ml — clusters of 4 layers, 32 nodes wide, complete
   bipartite edges between adjacent layers.  The seed relabels the nodes
   and shuffles the initial edge list; the closure's shape does not
   depend on it. *)

open Jstar_core
module O = Perfbench_oracle.Oracle

let layers = 4
let width = 32
let clusters = 32
let nodes = clusters * layers * width

(* Edges between relabelled nodes, in a seed-shuffled order. *)
let make_edges ~seed =
  let rng = Random.State.make [| seed |] in
  let label = Array.init nodes Fun.id in
  let shuffle a =
    for k = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (k + 1) in
      let x = a.(k) in
      a.(k) <- a.(j);
      a.(j) <- x
    done
  in
  shuffle label;
  let node cl l s = label.((((cl * layers) + l) * width) + s) in
  let edges = ref [] in
  for cl = 0 to clusters - 1 do
    for l = 0 to layers - 2 do
      for a = 0 to width - 1 do
        for b = 0 to width - 1 do
          edges := (node cl l a, node cl (l + 1) b) :: !edges
        done
      done
    done
  done;
  let edges = Array.of_list !edges in
  shuffle edges;
  edges

type setup = {
  frozen : Program.frozen;
  report : Jstar_causality.Check.report;
  edge : Schema.t;
  path : Schema.t;
}

(* Build and freeze the program, then discharge its obligations. *)
let setup () =
  let p, edge, path, frozen =
    Span.with_ "engine.freeze" (fun () ->
        let p = Program.create () in
        let edge =
          Program.table p "Edge"
            ~columns:Schema.[ int_col "a"; int_col "b" ]
            ~orderby:Schema.[ Lit "Edge" ]
            ()
        in
        let path =
          Program.table p "Path"
            ~columns:Schema.[ int_col "a"; int_col "b" ]
            ~orderby:Schema.[ Lit "Path" ]
            ()
        in
        Program.order p [ "Edge"; "Path" ];
        Program.rule p "seed" ~trigger:edge
          ~puts:[ Spec.put "Path" ]
          (fun ctx e ->
            ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
        Program.rule p "step" ~trigger:path
          ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
          ~puts:[ Spec.put "Path" ]
          (fun ctx t ->
            let x = Tuple.get t 0 and y = Tuple.int t "b" in
            Query.iter ctx edge ~prefix:[| Value.Int y |] (fun e ->
                ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
        (p, edge, path, Program.freeze p))
  in
  let report =
    Span.with_ "causality.check" (fun () -> Jstar_causality.Check.check_program p)
  in
  if not (Jstar_causality.Check.ok report) then
    raise (Report.Check_failed "closure: causality check did not pass");
  { frozen; report; edge; path }

let config threads =
  {
    (Config.parallel ~threads ()) with
    Config.stores = [ ("Edge", Store.Hash_index 1); ("Path", Store.Hash_index 2) ];
  }

let initial_edges s edges =
  Array.to_list
    (Array.map (fun (a, b) -> Tuple.make s.edge [| Value.Int a; Value.Int b |]) edges)

let run s ~init config =
  Span.with_ "engine.run" (fun () -> Engine.run_with_gamma ~init s.frozen config)

let path_pairs s gamma =
  let out = ref [] in
  (gamma s.path).Store.iter (fun t ->
      out := O.encode_pair ~nodes (Tuple.int_at t 0) (Tuple.int_at t 1) :: !out);
  Array.of_list !out

let check_paths ~expected s (_, gamma) =
  Span.with_ "bench.check" (fun () ->
      Report.check (O.check_pairs ~nodes ~expected ~got:(path_pairs s gamma)))

(* Timed engine runs; each run's Path set is checked against the
   breadth-first closure and its per-layer figures kept, outside the
   timed call.  Also returns the final Gamma of the last run. *)
let timed_runs ?min_reps ~seconds ~expected ~init s config =
  let rows = ref [] and last = ref None in
  let reps =
    Report.repeat ?min_reps ~seconds
      ~after:(fun ((r, gamma) as result) ->
        check_paths ~expected s result;
        rows := Batch.engine_layers ~threads:config.Config.threads r :: !rows;
        last := Some gamma)
      (fun () -> run s ~init config)
  in
  (reps, List.rev !rows, Option.get !last)

(* Replay the step rule's prefix probes on the final Edge store, and the
   whole Path put stream through Delta.insert_batch. *)
let replays s gamma =
  let edge_store = gamma s.edge and path_store = gamma s.path in
  let paths = ref [] in
  path_store.Store.iter (fun t -> paths := t :: !paths);
  let paths = Array.of_list !paths in
  let probes = Array.length paths in
  let matches = ref 0 in
  let (), probe_s =
    Sample.time (fun () ->
        Span.with_ ~calls:probes "store.probe" (fun () ->
            Array.iter
              (fun t ->
                edge_store.Store.iter_prefix [| Tuple.get t 1 |] (fun _ -> incr matches))
              paths))
  in
  (* the puts of the seed rule, then of the step rule, in firing order *)
  let puts = ref [] in
  edge_store.Store.iter (fun e ->
      puts := Tuple.make s.path [| Tuple.get e 0; Tuple.get e 1 |] :: !puts);
  Array.iter
    (fun t ->
      edge_store.Store.iter_prefix [| Tuple.get t 1 |] (fun e ->
          puts := Tuple.make s.path [| Tuple.get t 0; Tuple.get e 1 |] :: !puts))
    paths;
  let puts = Array.of_list !puts in
  let order = Program.order_rel s.frozen.Program.program in
  let ts = Array.map (Timestamp.of_tuple order) puts in
  let delta = Delta.create ~mode:Delta.Concurrent ~nlits:s.frozen.Program.nlits () in
  let batch = 32 * 1024 in
  let n = Array.length puts in
  let (), batch_s =
    Sample.time (fun () ->
        Span.with_ ~calls:((n + batch - 1) / batch) "delta.insert_batch" (fun () ->
            let lo = ref 0 in
            while !lo < n do
              let k = min batch (n - !lo) in
              ignore
                (Delta.insert_batch delta (Array.sub puts !lo k) (Array.sub ts !lo k) k);
              lo := !lo + k
            done))
  in
  if Delta.size delta <> Array.length paths then
    raise
      (Report.Check_failed
         (Printf.sprintf "closure: Delta replay kept %d of %d Path tuples"
            (Delta.size delta) (Array.length paths)));
  [
    ("store.probe_ns", 1e9 *. probe_s /. float_of_int (max 1 probes));
    ("store.probes", float_of_int probes);
    ("delta.insert_batch_s", batch_s);
  ]

let main ~seed ~seconds ~trace ~trace_path =
  let threads = Host.nproc in
  let edges = make_edges ~seed in
  let expected = O.closure_pairs ~nodes edges in
  let distinct = Array.length expected in
  let cfg = config threads in
  let setup_s, s = Report.setup ~reps:200 setup in
  let init = initial_edges s edges in
  (* warm-up run: checked but not timed *)
  check_paths ~expected s (run s ~init cfg);
  let measure = if trace then seconds /. 2.0 else seconds in
  let reps, _, _ = timed_runs ~seconds:measure ~expected ~init s cfg in
  let traced =
    if not trace then None
    else begin
      Span.enabled := true;
      let s, runs, rows, gamma =
        Span.with_ "closure.traced" (fun () ->
            let s = setup () in
            let init = initial_edges s edges in
            let runs, rows, gamma = timed_runs ~seconds:measure ~expected ~init s cfg in
            (s, runs, rows, gamma))
      in
      let replays = replays s gamma in
      let one_thread, _, _ =
        timed_runs ~min_reps:2 ~seconds:0.0 ~expected ~init:(initial_edges s edges) s
          (config 1)
      in
      Some { Batch.report = s.report; runs; rows; one_thread; root = "closure.traced"; replays }
    end
  in
  Batch.outcome ~setup_s ~work:(float_of_int distinct)
    ~input:
      (Printf.sprintf "%d edges, %d Path tuples, %d threads" (Array.length edges) distinct
         threads)
    ~reps ~trace_path traced
