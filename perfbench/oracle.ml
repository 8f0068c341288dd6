(* Reference answers that share no code with the engine, and the checks
   that hold a run's output against them.  Each check returns [Error]
   with the first difference, so the benchmark can abort the run and
   say what went wrong. *)

let first_difference expected got =
  let rec go = function
    | e :: es, g :: gs -> if e = g then go (es, gs) else Some (e, g)
    | e :: _, [] -> Some (e, "<missing>")
    | [], g :: _ -> Some ("<missing>", g)
    | [], [] -> None
  in
  go (expected, got)

(* Order-insensitive line comparison: the engine sorts output lines
   within a step, the oracles in plain string order. *)
let check_lines ~what ~expected ~got =
  let expected = List.sort String.compare expected
  and got = List.sort String.compare got in
  match first_difference expected got with
  | None -> Ok ()
  | Some (e, g) ->
      Error
        (Printf.sprintf "%s: %d lines expected, %d produced; expected %S, got %S"
           what (List.length expected) (List.length got) e g)

(* -- pvwatts ------------------------------------------------------------ *)

(* The monthly mean lines, from Pvwatts_data's direct count/sum fold and
   formatted by the program's own line format. *)
let pvwatts_lines ~installations =
  List.map
    (fun (month, _count, _sum, mean) ->
      Jstar_apps.Pvwatts.format_mean Jstar_csv.Pvwatts_data.year month mean)
    (Jstar_csv.Pvwatts_data.reference_monthly_stats ~installations)

(* -- closure ------------------------------------------------------------ *)

let encode_pair ~nodes a b = (a * nodes) + b

(* Every (a, b) joined by a path of one or more edges, by breadth-first
   search from each node; nodes are [0 .. nodes-1].  Sorted encoded
   pairs. *)
let closure_pairs ~nodes (edges : (int * int) array) =
  let succ = Array.make nodes [] in
  Array.iter (fun (a, b) -> succ.(a) <- b :: succ.(a)) edges;
  let seen = Array.make nodes (-1) in
  let out = ref [] in
  let queue = Queue.create () in
  for src = 0 to nodes - 1 do
    List.iter (fun v -> Queue.add v queue) succ.(src);
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      if seen.(v) <> src then begin
        seen.(v) <- src;
        out := encode_pair ~nodes src v :: !out;
        List.iter (fun w -> Queue.add w queue) succ.(v)
      end
    done
  done;
  let a = Array.of_list !out in
  Array.sort compare a;
  a

(* [got] is the encoded Path set in any order; it is sorted in place. *)
let check_pairs ~nodes ~expected ~(got : int array) =
  Array.sort compare got;
  let n = Array.length expected and m = Array.length got in
  let show code = Printf.sprintf "(%d, %d)" (code / nodes) (code mod nodes) in
  let rec go i =
    if i >= n && i >= m then Ok ()
    else if i < n && i < m && expected.(i) = got.(i) then go (i + 1)
    else
      let e = if i < n then show expected.(i) else "<none>"
      and g = if i < m then show got.(i) else "<none>" in
      Error
        (Printf.sprintf
           "closure: %d Path tuples expected, %d produced; first difference: \
            expected %s, got %s"
           n m e g)
  in
  go 0

(* -- sensor alarms -------------------------------------------------------- *)

let alarm_line ~t ~sensor ~value =
  Printf.sprintf "alarm t=%d sensor=%d value=%d" t sensor value

(* The alarm lines one drain must produce for readings
   [(t, sensor, value)]: the [value >= 90] filter. *)
let alarm_lines readings =
  List.filter_map
    (fun (t, sensor, value) ->
      if value >= 90 then Some (alarm_line ~t ~sensor ~value) else None)
    readings

(* -- digests -------------------------------------------------------------- *)

type digest = { gamma : string; outputs : int; out_lanes : int * int }

let show_digest d =
  Printf.sprintf "gamma=%s outputs=%d out-lanes=%x:%x" d.gamma d.outputs
    (fst d.out_lanes) (snd d.out_lanes)

let check_digest ~what ~expected ~got =
  if expected = got then Ok ()
  else
    Error
      (Printf.sprintf "%s: expected %s, got %s" what (show_digest expected)
         (show_digest got))
