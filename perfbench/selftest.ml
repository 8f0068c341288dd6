(* Each correctness check accepts the right answer and rejects a planted
   wrong one: an altered mean, a dropped Path tuple, a missing alarm
   line, a changed digest. *)

module O = Perfbench_oracle.Oracle

let failures = ref 0

let expect what ~ok result =
  match (ok, result) with
  | true, Ok () | false, Error _ -> Printf.printf "ok   %s\n" what
  | true, Error msg ->
      incr failures;
      Printf.printf "FAIL %s: rejected the right answer: %s\n" what msg
  | false, Ok () ->
      incr failures;
      Printf.printf "FAIL %s: accepted a planted wrong answer\n" what

let pvwatts () =
  let expected = O.pvwatts_lines ~installations:2 in
  expect "pvwatts accepts the reference" ~ok:true
    (O.check_lines ~what:"pvwatts" ~expected ~got:(List.rev expected));
  let altered =
    List.mapi
      (fun i line ->
        if i = 5 then
          match String.index_opt line ':' with
          | Some p ->
              let mean = float_of_string (String.sub line (p + 2) (String.length line - p - 2)) in
              Printf.sprintf "%s: %.2f" (String.sub line 0 p) (mean +. 0.01)
          | None -> line
        else line)
      expected
  in
  expect "pvwatts rejects an altered mean" ~ok:false
    (O.check_lines ~what:"pvwatts" ~expected ~got:altered)

let closure () =
  (* two layers of three nodes feeding one sink *)
  let edges = [| (0, 3); (1, 3); (2, 4); (3, 5); (4, 5) |] and nodes = 6 in
  let expected = O.closure_pairs ~nodes edges in
  expect "closure finds every path" ~ok:true
    (if Array.length expected = 8 then Ok () else Error "wrong BFS size");
  expect "closure accepts the reference" ~ok:true
    (O.check_pairs ~nodes ~expected ~got:(Array.of_list (List.rev (Array.to_list expected))));
  let dropped = Array.sub expected 1 (Array.length expected - 1) in
  expect "closure rejects a dropped Path tuple" ~ok:false
    (O.check_pairs ~nodes ~expected ~got:dropped)

let alarms () =
  let readings = [ (1, 0, 95); (1, 1, 12); (1, 2, 90); (1, 3, 89) ] in
  let expected = O.alarm_lines readings in
  expect "alarm filter keeps value >= 90" ~ok:true
    (if List.length expected = 2 then Ok () else Error "wrong filter");
  expect "alarms accept the reference" ~ok:true
    (O.check_lines ~what:"alarms" ~expected ~got:expected);
  expect "alarms reject a missing line" ~ok:false
    (O.check_lines ~what:"alarms" ~expected ~got:(List.tl expected))

let digests () =
  let d = { O.gamma = "00ff"; outputs = 7; out_lanes = (1, 2) } in
  expect "digests accept an equal digest" ~ok:true
    (O.check_digest ~what:"digest" ~expected:d ~got:{ d with outputs = 7 });
  expect "digests reject a changed database" ~ok:false
    (O.check_digest ~what:"digest" ~expected:d ~got:{ d with gamma = "00fe" })

let () =
  pvwatts ();
  closure ();
  alarms ();
  digests ();
  if !failures > 0 then exit 1
