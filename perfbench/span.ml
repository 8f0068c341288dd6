(* The benchmark's own tracing: one span around each call the benchmark
   makes into a layer's public functions.  Spans live in memory while
   the run lasts and are written out once, at the end, as Chrome
   trace-event JSON.  When tracing is off, [with_] is a plain call. *)

type t = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (** 0 = root *)
  req : int;  (** request id, inherited from the parent when not given *)
  tid : int;
  calls : int;  (** calls into the layer this span covers *)
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

(* Open spans per domain, innermost first: (id, req). *)
let stacks : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let now_ns = Sample.now_ns

let with_ ?req ?(calls = 1) name f =
  if not !enabled then f ()
  else begin
    let tid = (Domain.self () :> int) in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, req =
      locked (fun () ->
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          let parent, parent_req =
            match stack with (p, r) :: _ -> (p, r) | [] -> (0, 0)
          in
          let req = Option.value ~default:parent_req req in
          Hashtbl.replace stacks tid ((id, req) :: stack);
          (parent, req))
    in
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      locked (fun () ->
          (match Hashtbl.find_opt stacks tid with
          | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
          | _ -> ());
          recorded :=
            { id; name; start_ns; stop_ns; parent; req; tid; calls } :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

let all () = locked (fun () -> List.rev !recorded)
let seconds s = float_of_int (s.stop_ns - s.start_ns) *. 1e-9

(* Total seconds of the spans named [name]. *)
let total spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. seconds s else acc) 0.0 spans

(* Share of the wall time of the root spans named [root] that no child
   span covers, as a percentage. *)
let residual_pct spans ~root =
  let roots = List.filter (fun s -> s.parent = 0 && s.name = root) spans in
  let wall = List.fold_left (fun acc s -> acc +. seconds s) 0.0 roots in
  let covered =
    List.fold_left
      (fun acc s ->
        if s.parent <> 0 && List.exists (fun r -> r.id = s.parent) roots then
          acc +. seconds s
        else acc)
      0.0 spans
  in
  if wall > 0.0 then 100.0 *. (wall -. covered) /. wall else 0.0

(* Chrome trace events: one B/E pair per span, emitted by a walk of each
   domain's span tree so every track nests properly. *)
let to_json spans =
  let module J = Jstar_obs.Json in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let kids id =
    List.sort
      (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id))
      (Hashtbl.find_all children id)
  in
  let t0 = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  let us ns = J.Num (float_of_int (ns - t0) /. 1000.0) in
  let events = ref [] in
  let emit s ph ts args =
    events :=
      J.Obj
        ([
           ("name", J.Str s.name);
           ("ph", J.Str ph);
           ("ts", us ts);
           ("pid", J.Num 1.0);
           ("tid", J.Num (float_of_int s.tid));
         ]
        @ args)
      :: !events
  in
  let rec walk s =
    emit s "B" s.start_ns
      [
        ( "args",
          J.Obj
            [
              ("id", J.Num (float_of_int s.id));
              ("parent", J.Num (float_of_int s.parent));
              ("req", J.Num (float_of_int s.req));
              ("calls", J.Num (float_of_int s.calls));
            ] );
      ];
    List.iter walk (kids s.id);
    emit s "E" s.stop_ns []
  in
  List.iter walk (kids 0);
  J.to_string (J.Obj [ ("traceEvents", J.Arr (List.rev !events)) ])

(* Write the trace, then read it back through the repository's
   trace-event validator. *)
let write_checked path spans =
  let text = to_json spans in
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc;
  match Jstar_obs.Trace_check.validate_string text with
  | Ok summary ->
      if summary.Jstar_obs.Trace_check.spans <> List.length spans then
        Error
          (Printf.sprintf "trace %s: %d spans recorded, %d balanced pairs" path
             (List.length spans) summary.Jstar_obs.Trace_check.spans)
      else Ok summary
  | Error msg -> Error (Printf.sprintf "trace %s: %s" path msg)
