(* The benchmark's entry point:

     main.exe --workload pvwatts|closure|serve-sensors --seed N
              --seconds S --trace 0|1 --serve-bin PATH

   Runs one workload, checks its outputs against engine-free oracles,
   prints every metric by name with its unit, and ends with one JSON
   line: the end-to-end metrics, or with --trace 1 the per-layer ones.
   Scratch files (serve roots, replays, traces, full results) go under
   .perfbench/ in the working directory.  A failed check exits 1. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload pvwatts|closure|serve-sensors --seed N \
     --seconds S --trace 0|1 --serve-bin PATH";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let bin = Option.value ~default:"" (List.assoc_opt "serve-bin" opts) in
  if seconds < 1 then usage ();
  (* the runtime tuning both shipped binaries apply *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let scratch = Filename.concat (Sys.getcwd ()) ".perfbench" in
  Host.mkdir_p scratch;
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (if trace then 1 else 0) in
  let trace_path = Filename.concat scratch (Printf.sprintf "trace-%s.json" tag) in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 2));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let load_start = Host.load_average () in
  let seconds = float_of_int seconds in
  let run () =
    match workload with
    | "pvwatts" -> Wl_pvwatts.main ~seed ~seconds ~trace ~trace_path
    | "closure" -> Wl_closure.main ~seed ~seconds ~trace ~trace_path
    | "serve-sensors" ->
        if bin = "" then usage ();
        Wl_serve.main ~seed ~seconds ~trace ~trace_path ~bin ~scratch
    | _ -> usage ()
  in
  let outcome =
    match run () with
    | o -> o
    | exception Report.Check_failed msg ->
        Printf.printf "CHECK FAILED: %s\n%!" msg;
        exit 1
  in
  let meta =
    [
      ("workload", Report.json_string workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", string_of_bool trace);
      ("git_rev", Report.json_string (Host.git_rev ()));
      ("ocaml", Report.json_string Sys.ocaml_version);
      ("nproc", string_of_int Host.nproc);
      ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
      ("engine_threads", string_of_int (if workload = "serve-sensors" then 1 else Host.nproc));
      ("repetitions", string_of_int outcome.Report.repetitions);
      ("load_start", Printf.sprintf "%.2f" load_start);
      ("load_end", Printf.sprintf "%.2f" (Host.load_average ()));
    ]
  in
  let meta_json =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Report.json_string k ^ ": " ^ v) meta) ^ "}"
  in
  let names = if trace then Report.per_layer else Report.end_to_end in
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name outcome.Report.metrics with
      | Some v when Float.is_nan v ->
          Printf.printf "CHECK FAILED: %s is not a number\n" name;
          exit 1
      | None when not trace ->
          Printf.printf "CHECK FAILED: %s was not measured\n" name;
          exit 1
      | _ -> ())
    names;
  Printf.printf "perfbench %s\n" tag;
  Printf.printf "  meta %s\n" meta_json;
  Report.print_table outcome;
  if trace then Printf.printf "  trace written to %s\n" trace_path;
  let line = Report.result_line ~correct:true ~trace outcome in
  let oc = open_out (Filename.concat scratch (Printf.sprintf "result-%s.json" tag)) in
  Printf.fprintf oc "{\"meta\": %s, \"result\": %s}\n" meta_json line;
  close_out oc;
  print_endline line
