(* serve-sensors: the jstar-serve binary with its CLI defaults (one engine
   thread per session, 5 ms group-commit fsync, a checkpoint every 256
   drains), fed on a fixed open-loop schedule by two connections, one
   per session.  Each tick is a Tick plus 16 Readings; each session
   drains every 10 ticks.  Every pass runs on a fresh server with fresh
   sessions and the same number of ticks, so Gamma size and checkpoint
   count never depend on the rate or on what ran before.  The seed sets
   the sensor values. *)

open Jstar_core
module O = Perfbench_oracle.Oracle
module P = Jstar_serve.Protocol
module C = Jstar_serve.Client

let sessions = 2
let sensors = 16
let drain_every = 10
let tuples_per_tick = sensors + 1

(* 282 drains per session: the 256th takes an auto-checkpoint, and the
   feeds due while it runs queue behind it. *)
let ticks = 2820
let limit_ms = 100.0

(* Offered load over both sessions, tuples/s.  Constants: never derived
   from a measured capacity, so a faster server gets the same load.
   From the reference rate the ladder climbs until a rate misses the
   limit; if the reference rate misses, it steps down until one meets
   it. *)
let reference_rate = 34_000.0
let ladder_up = [ 48_000.0; 68_000.0; 96_000.0; 136_000.0; 192_000.0; 272_000.0 ]
let ladder_down = [ 24_000.0; 17_000.0; 12_000.0; 8_500.0 ]

(* A pass whose generator ran this late (p99, ms) measured the
   generator, not the server; it is not counted and runs again. *)
let generator_limit_ms = limit_ms /. 5.0

(* A sensor value in [0, 100) from the seed: a stateless integer hash. *)
let value ~seed ~session ~t ~sensor =
  let mix h = (h lxor (h lsr 16)) * 0x45D9F3B in
  let h =
    mix
      (mix
         ((seed * 0x2545F491) lxor (session * 0x9E3779B9) lxor (t * 0x85EBCA6B)
         lxor (sensor * 0xC2B2AE35)))
  in
  ((h lxor (h lsr 16)) land max_int) mod 100

let table frozen name =
  let found = ref None in
  Array.iter
    (fun s -> if s.Schema.name = name then found := Some s)
    frozen.Program.tables;
  Option.get !found

(* One tick of input: the tuples and the (t, sensor, value) readings. *)
let tick_input frozen ~seed ~session t =
  let tick = table frozen "Tick" and reading = table frozen "Reading" in
  let readings =
    List.init sensors (fun sensor -> (t, sensor, value ~seed ~session ~t ~sensor))
  in
  ( Tuple.make tick [| Value.Int t |]
    :: List.map
         (fun (t, s, v) -> Tuple.make reading [| Value.Int t; Value.Int s; Value.Int v |])
         readings,
    readings )

let digest_of (d : P.digest_info) =
  { O.gamma = d.P.d_gamma; outputs = d.P.d_outputs; out_lanes = d.P.d_out_lanes }

(* -- the server child -------------------------------------------------- *)

type server = { pid : int; port : int; ops : int option; out : in_channel }

let live : int list ref = ref []

let spawn ~bin ~root ~ops =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ bin; "serve"; "--root"; root; "--port"; "0" ]
    @ if ops then [ "--ops-port"; "0" ] else []
  in
  let pid = Unix.create_process bin (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  (* "<marker>127.0.0.1:PORT (...)" *)
  let port_after marker line =
    let m = String.length marker in
    if String.length line < m || String.sub line 0 m <> marker then None
    else
      let addr = List.hd (String.split_on_char ' ' (String.sub line m (String.length line - m))) in
      match String.rindex_opt addr ':' with
      | Some i -> int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1))
      | None -> None
  in
  let line () =
    match input_line out with
    | l -> l
    | exception End_of_file -> failwith "jstar-serve exited before listening"
  in
  let port =
    match port_after "jstar-serve: listening on " (line ()) with
    | Some p -> p
    | None -> failwith "jstar-serve: no listening line"
  in
  let ops =
    if ops then port_after "ops: serving http://" (line ()) else None
  in
  { pid; port; ops; out }

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () = List.iter reap !live

let stop server =
  reap server.pid;
  close_in_noerr server.out

(* -- the open-loop generator ------------------------------------------- *)

type stream = {
  results : float list;  (** ms from the last feed's due time to Drained *)
  feed_acks : float list;  (** ms from due time to Fed *)
  feed_rtts : float list;  (** us from send to Fed *)
  drain_rtts : float list;  (** ms from send to Drained *)
  late : float list;  (** ms the generator itself ran behind *)
  last_ms : float;  (** result latency of the final drain *)
  finished : float;  (** when the final reply arrived *)
  attempted : int;
  failed : int;
}

let missed = Float.infinity

(* Feed [ticks] ticks into [name] at [tick_rate] ticks/s from [t0],
   draining every [drain_every] ticks; each drain's alarm lines are held
   against the value filter.  An infinite rate is a closed loop: each
   request goes out as soon as the previous reply is in. *)
let stream frozen client ~seed ~session ~name ~tick_rate ~t0 =
  let period = 1.0 /. tick_rate in
  let results = ref [] and acks = ref [] and rtts = ref [] and drains = ref [] in
  let late = ref [] and attempted = ref 0 and failed = ref 0 in
  let pending = ref [] and prev_reply = ref t0 in
  let dead = ref false in
  let last_ms = ref 0.0 in
  let req i = (session * 1_000_000) + i in
  Span.with_ "serve.traced" (fun () ->
      for i = 0 to ticks - 1 do
        let due = t0 +. (float_of_int i *. period) in
        let now = Sample.now () in
        if now < due then Span.with_ "gen.wait" (fun () -> Unix.sleepf (due -. now));
        let tuples, readings = tick_input frozen ~seed ~session i in
        let sent = Sample.now () in
        late := 1000.0 *. (sent -. Float.max due !prev_reply) :: !late;
        pending := List.rev_append readings !pending;
        incr attempted;
        (if !dead then incr failed
         else
           match
             Span.with_ ~req:(req i) "client.feed" (fun () -> C.feed client tuples)
           with
           | _ ->
               let ack = Sample.now () in
               acks := 1000.0 *. (ack -. due) :: !acks;
               rtts := 1e6 *. (ack -. sent) :: !rtts
           | exception (C.Server_error _ | P.Frame_error _ | Unix.Unix_error _) ->
               dead := true;
               incr failed);
        if (i + 1) mod drain_every = 0 then begin
          incr attempted;
          let expected = O.alarm_lines (List.rev !pending) in
          pending := [];
          if !dead then begin
            incr failed;
            results := missed :: !results;
            last_ms := missed
          end
          else
            let d0 = Sample.now () in
            match
              Span.with_ ~req:(req i) "client.drain" (fun () -> C.drain client)
            with
            | lines, _ ->
                let d1 = Sample.now () in
                let ms = 1000.0 *. (d1 -. due) in
                results := ms :: !results;
                last_ms := ms;
                drains := 1000.0 *. (d1 -. d0) :: !drains;
                Span.with_ "bench.check" (fun () ->
                    Report.check
                      (O.check_lines
                         ~what:(Printf.sprintf "serve %s alarms at tick %d" name i)
                         ~expected ~got:lines))
            | exception (C.Server_error _ | P.Frame_error _ | Unix.Unix_error _) ->
                dead := true;
                incr failed;
                results := missed :: !results;
                last_ms := missed
        end;
        prev_reply := Sample.now ()
      done);
  {
    results = !results;
    feed_acks = !acks;
    feed_rtts = !rtts;
    drain_rtts = !drains;
    late = !late;
    last_ms = !last_ms;
    finished = !prev_reply;
    attempted = !attempted;
    failed = !failed;
  }

(* A server started for one pass, with both sessions open. *)
type run = {
  server : server;
  clients : C.t array;
  names : string list;
  root : string;  (** the server's state directory *)
  setup_s : float;
}

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let connect frozen server =
  Array.init sessions (fun _ -> C.connect ~port:server.port frozen)

let close clients = Array.iter (fun c -> try C.close c with _ -> ()) clients

(* Spawn the server and open both sessions: the set-up a user waits for. *)
let start frozen ~bin ~root ~ops ~label =
  let names = List.init sessions (Printf.sprintf "%s/s%d" label) in
  let (server, clients), setup_s =
    Sample.time (fun () ->
        let server = spawn ~bin ~root ~ops in
        let clients = connect frozen server in
        List.iteri
          (fun i name ->
            let status = C.open_session clients.(i) name in
            if not (starts_with "fresh" status) then
              raise (Report.Check_failed (Printf.sprintf "serve: %s opened %S" name status)))
          names;
        (server, clients))
  in
  { server; clients; names; root; setup_s }

(* Kill the server and forget its sessions. *)
let finish r =
  close r.clients;
  stop r.server;
  Host.rm_rf r.root

type pass = {
  run : run;  (** still up: the caller finishes it *)
  streams : stream list;
  valid : bool;
  seconds : float;  (** from the first due time to the last reply *)
  rss_mb : float;  (** the server's peak resident set *)
}

let all f streams = List.concat_map f streams

(* One pass on a fresh server: both sessions fed concurrently at [rate]
   tuples/s in all, session 0 from this domain and session 1 from one
   more.  Every pass starts from the same state, whatever ran before. *)
let pass frozen ~bin ~base ~ops ~seed ~label ~rate =
  let r = start frozen ~bin ~root:(Filename.concat base label) ~ops ~label in
  let tick_rate = rate /. float_of_int (sessions * tuples_per_tick) in
  let t0 = Sample.now () +. 0.05 in
  let go session () =
    try
      Ok
        (stream frozen r.clients.(session) ~seed ~session
           ~name:(List.nth r.names session) ~tick_rate ~t0)
    with e -> Error e
  in
  let other = Domain.spawn (go 1) in
  let first = go 0 () in
  let second = Domain.join other in
  let get = function Ok s -> s | Error e -> raise e in
  let streams = [ get first; get second ] in
  let late, _ = Sample.tail (all (fun s -> s.late) streams) in
  {
    run = r;
    streams;
    valid = late <= generator_limit_ms;
    seconds = List.fold_left (fun acc s -> Float.max acc s.finished) t0 streams -. t0;
    rss_mb = Host.peak_rss_mb r.server.pid;
  }

(* A pass the generator could not keep to runs again under a fresh
   label, up to twice. *)
let counted_pass frozen ~bin ~base ~ops ~seed ~label ~rate =
  let rec go k =
    let p = pass frozen ~bin ~base ~ops ~seed ~label:(Printf.sprintf "%s-%d" label k) ~rate in
    if p.valid then p
    else begin
      finish p.run;
      if k >= 2 then
        raise
          (Report.Check_failed
             (Printf.sprintf "invalid run: generator ran behind its schedule at %.0f tuples/s"
                rate));
      go (k + 1)
    end
  in
  go 0

(* One rate of the ladder, measured by one pass, so that every rate has
   the same sample count and so the same tail percentile. *)
type rung = { rate : float; p99_ms : float; ok : bool }

let rung rate pass =
  let streams = pass.streams in
  let p99, _ = Sample.tail (all (fun s -> s.results) streams) in
  {
    rate;
    p99_ms = p99;
    ok = p99 <= limit_ms && List.for_all (fun s -> s.last_ms <= limit_ms) streams;
  }

(* The highest rate that meets the limit, interpolated on the p99 curve
   towards the first rate that misses it; [rungs] ascend.  When even the
   lowest rate misses, the limit scaled down from it. *)
let sustained rungs =
  let rec go best = function
    | [] -> best.rate
    | r :: rest when r.ok -> go r rest
    | r :: _ ->
        let over = Float.min r.p99_ms 1e6 in
        let frac =
          if over <= best.p99_ms then 0.0
          else Float.min 1.0 ((limit_ms -. best.p99_ms) /. (over -. best.p99_ms))
        in
        best.rate +. (frac *. (r.rate -. best.rate))
  in
  match rungs with
  | first :: rest when first.ok -> go first rest
  | first :: _ -> first.rate *. limit_ms /. first.p99_ms
  | [] -> nan

(* -- the standalone oracle ----------------------------------------------- *)

(* One durable session in this process, no server, fed the same ticks on
   the same drain rhythm. *)
let oracle_digest frozen ~dir ~seed ~session =
  Host.rm_rf dir;
  let d, _ = Jstar_persist.Durable.open_ ~fsync:Jstar_persist.Wal.Never ~dir frozen Config.default in
  for t = 0 to ticks - 1 do
    Jstar_persist.Durable.feed d (fst (tick_input frozen ~seed ~session t));
    if (t + 1) mod drain_every = 0 then ignore (Jstar_persist.Durable.drain d)
  done;
  let s = Jstar_persist.Durable.session d in
  let st = Engine.session_state ~with_outputs:false s in
  let digest =
    {
      O.gamma = Engine.gamma_digest s;
      outputs = st.Engine.ss_outputs_count;
      out_lanes = Jstar_persist.Durable.output_lanes d;
    }
  in
  ignore (Jstar_persist.Durable.finish d);
  Host.rm_rf dir;
  digest

(* -- per-layer replays ---------------------------------------------------- *)

let per_frame f frames =
  let n = List.length frames in
  let (), t = Sample.time (fun () -> List.iter f frames) in
  1e6 *. t /. float_of_int (max 1 n)

let protocol_replay frozen ~seed =
  let frames = List.init ticks (fun t -> P.Feed (fst (tick_input frozen ~seed ~session:0 t))) in
  let b = Buffer.create 4096 in
  let encode_us =
    Span.with_ ~calls:ticks "protocol.encode" (fun () ->
        per_frame (fun f -> Buffer.clear b; P.write_client b f) frames)
  in
  let wire =
    List.map
      (fun f ->
        Buffer.clear b;
        P.write_client b f;
        Buffer.to_bytes b)
      frames
  in
  let decode_us =
    Span.with_ ~calls:ticks "protocol.decode" (fun () ->
        per_frame
          (fun bytes ->
            match P.read_frame_bytes bytes (ref 0) with
            | `Frame (kind, payload) ->
                ignore (P.decode_client ~tables:frozen.Program.tables kind payload)
            | `Incomplete -> raise (Report.Check_failed "protocol: frame did not decode"))
          wire)
  in
  [ ("protocol.encode_us", encode_us); ("protocol.decode_us", decode_us) ]

let engine_replay frozen ~seed =
  let s = Engine.start frozen Config.default in
  let feed_t = ref 0.0 and drain_t = ref 0.0 in
  Span.with_ ~calls:ticks "engine.session" (fun () ->
      for t = 0 to ticks - 1 do
        let tuples, _ = tick_input frozen ~seed ~session:0 t in
        let (), dt = Sample.time (fun () -> Engine.feed s tuples) in
        feed_t := !feed_t +. dt;
        if (t + 1) mod drain_every = 0 then begin
          let _, dt = Sample.time (fun () -> Engine.drain s) in
          drain_t := !drain_t +. dt
        end
      done);
  ignore (Engine.finish s);
  [
    ("engine.feed_us", 1e6 *. !feed_t /. float_of_int ticks);
    ("engine.drain_us", 1e6 *. !drain_t /. float_of_int (ticks / drain_every));
  ]

let wal_replay frozen ~seed ~dir =
  Host.rm_rf dir;
  Host.mkdir_p dir;
  let path = Filename.concat dir "wal.log" in
  let w =
    Jstar_persist.Wal.create path
      ~schema_hash:(Jstar_persist.Codec.schema_hash frozen.Program.tables)
      ~policy:(Jstar_persist.Wal.Every_ms 5)
  in
  let commit_t = ref 0.0 in
  Span.with_ ~calls:ticks "wal.append_commit" (fun () ->
      for t = 0 to ticks - 1 do
        Jstar_persist.Wal.append_feed w (fst (tick_input frozen ~seed ~session:0 t));
        let (), dt = Sample.time (fun () -> Jstar_persist.Wal.commit w) in
        commit_t := !commit_t +. dt
      done);
  let fsyncs = Jstar_persist.Wal.fsyncs w
  and coalesced = Jstar_persist.Wal.coalesced_syncs w in
  Jstar_persist.Wal.close w;
  let bytes = Host.file_size path in
  Host.rm_rf dir;
  [
    ("wal.commit_us", 1e6 *. !commit_t /. float_of_int ticks);
    ("wal.fsyncs", float_of_int fsyncs);
    ("wal.coalesced_syncs", float_of_int coalesced);
    ("wal.bytes_per_tuple", float_of_int bytes /. float_of_int (ticks * tuples_per_tick));
  ]

(* The server's persistence schedule, replayed in-process: feed, drain
   every 10 ticks, checkpoint every 256 drains; then recovery. *)
let durable_replay frozen ~seed ~dir =
  Host.rm_rf dir;
  let module D = Jstar_persist.Durable in
  let d, _ = D.open_ ~fsync:(Jstar_persist.Wal.Every_ms 5) ~dir frozen Config.default in
  let checkpoints = ref [] and drains = ref 0 in
  for t = 0 to ticks - 1 do
    D.feed d (fst (tick_input frozen ~seed ~session:0 t));
    if (t + 1) mod drain_every = 0 then begin
      ignore (D.drain d);
      incr drains;
      if !drains mod 256 = 0 then begin
        let (), dt = Sample.time (fun () -> Span.with_ "durable.checkpoint" (fun () -> D.checkpoint d)) in
        checkpoints := dt :: !checkpoints
      end
    end
  done;
  let snap = Filename.concat dir (Printf.sprintf "snap-%d" (D.generation d)) in
  let snapshot_bytes = Host.tree_size snap in
  let before = Engine.gamma_digest (D.session d) in
  ignore (D.finish d);
  let (d, status), open_s =
    Sample.time (fun () ->
        Span.with_ "durable.open" (fun () ->
            D.open_ ~fsync:(Jstar_persist.Wal.Every_ms 5) ~dir frozen Config.default))
  in
  let replayed =
    match status with
    | D.Restored r -> r.D.r_feeds + r.D.r_drains
    | D.Fresh -> raise (Report.Check_failed "durable replay: recovery found nothing")
  in
  if Engine.gamma_digest (D.session d) <> before then
    raise (Report.Check_failed "durable replay: recovered database differs");
  ignore (D.finish d);
  Host.rm_rf dir;
  [
    ("durable.checkpoint_s_max", List.fold_left Float.max 0.0 !checkpoints);
    ("durable.checkpoints", float_of_int (List.length !checkpoints));
    ("snapshot.bytes", float_of_int snapshot_bytes);
    ("durable.open_s", open_s);
    ("durable.replayed_records", float_of_int replayed);
  ]

(* A metric from the server's Prometheus /metrics page. *)
let scrape ops_port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, ops_port));
      let req = "GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 8192 and chunk = Bytes.create 4096 in
      let rec read () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n -> Buffer.add_subbytes b chunk 0 n; read ()
        | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
      in
      read ();
      Buffer.contents b)

let prom_value page suffix =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.length name >= String.length suffix
                         && String.sub name (String.length name - String.length suffix)
                              (String.length suffix) = suffix ->
          float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' page)

(* -- the workload ----------------------------------------------------------- *)

let main ~seed ~seconds ~trace ~trace_path ~bin ~scratch =
  let frozen = Jstar_serve.Demo.sensor_program () in
  let dir name = Filename.concat scratch name in
  let root = dir "serve-root" in
  (* on every way out, checks that fail included *)
  at_exit (fun () ->
      kill_all ();
      List.iter Host.rm_rf [ root; dir "oracle"; dir "wal-replay"; dir "durable-replay" ]);
  Host.rm_rf root;
  let passes = ref [] in
  let run_pass ?(keep = false) ~ops label rate =
    let p = counted_pass frozen ~bin ~base:root ~ops ~seed ~label ~rate in
    passes := p :: !passes;
    if not keep then finish p.run;
    p
  in
  let pass_seconds = float_of_int (sessions * tuples_per_tick * ticks) /. reference_rate in
  let measure = if trace then seconds /. 2.0 else seconds in
  let n_ref = max 1 (int_of_float (measure /. pass_seconds)) and n_closed = 9 in
  (* Closed-loop passes (capacity: median rate over the same ticks) and
     reference-rate passes, interleaved so both spread over the whole
     run; the last pass is a reference pass whose server stays up for
     the digest checks. *)
  let saturation = ref [] and untraced = ref [] in
  let total = n_closed + n_ref in
  for pos = 0 to total - 1 do
    let refs = List.length !untraced in
    if ((refs + 1) * total / n_ref) - 1 = pos then
      untraced :=
        run_pass ~keep:(refs = n_ref - 1) ~ops:false (Printf.sprintf "ref%d" refs)
          reference_rate
        :: !untraced
    else
      let p =
        run_pass ~ops:false (Printf.sprintf "closed%d" (pos - refs)) Float.infinity
      in
      saturation := (float_of_int (sessions * ticks * tuples_per_tick) /. p.seconds) :: !saturation
  done;
  let saturation = List.rev !saturation and untraced = List.rev !untraced in
  let last = List.nth untraced (n_ref - 1) in
  let results ps = all (fun s -> s.results) (List.concat_map (fun p -> p.streams) ps) in
  let p50 = Sample.median (results untraced) in
  let p99, p99_pct = Sample.tail (results untraced) in
  let before =
    List.mapi
      (fun i name ->
        let d = digest_of (C.digest last.run.clients.(i)) in
        Report.check
          (O.check_digest
             ~what:(Printf.sprintf "serve %s against the standalone session" name)
             ~expected:(oracle_digest frozen ~dir:(dir "oracle") ~seed ~session:i)
             ~got:d);
        (name, d))
      last.run.names
  in
  (* crash and recover, three times *)
  let server = ref last.run.server and clients = ref last.run.clients in
  let recoveries =
    List.init 3 (fun _ ->
        close !clients;
        let t0 = Sample.now () in
        stop !server;
        server := spawn ~bin ~root:last.run.root ~ops:false;
        clients := connect frozen !server;
        List.iteri
          (fun i (name, d) ->
            let status = C.open_session !clients.(i) name in
            if not (starts_with "restored" status) then
              raise (Report.Check_failed (Printf.sprintf "serve: %s reopened %S" name status));
            Report.check
              (O.check_digest ~what:(Printf.sprintf "serve %s after a crash" name) ~expected:d
                 ~got:(digest_of (C.digest !clients.(i)))))
          before;
        Sample.now () -. t0)
  in
  finish { last.run with server = !server; clients = !clients };
  (* the ladder: climb from the reference rate until a rate misses *)
  let rungs =
    (* rates in [ladder] order while [continue] holds for the last rung *)
    let rec walk acc continue = function
      | rate :: rest when continue (List.hd acc) ->
          let p = run_pass ~ops:false (Printf.sprintf "ladder%.0f" rate) rate in
          walk (rung rate p :: acc) continue rest
      | _ -> acc
    in
    let reference = rung reference_rate (List.hd untraced) in
    if reference.ok then List.rev (walk [ reference ] (fun r -> r.ok) ladder_up)
    else walk [ reference ] (fun r -> not r.ok) ladder_down
  in
  (* the traced passes: spans on, the ops plane up; the last server is
     scraped before it goes *)
  let traced, metrics_page =
    if not trace then ([], None)
    else begin
      Span.enabled := true;
      let ps =
        List.init n_ref (fun k ->
            run_pass ~keep:(k = n_ref - 1) ~ops:true (Printf.sprintf "traced%d" k)
              reference_rate)
      in
      Span.enabled := false;
      let last = List.nth ps (n_ref - 1) in
      let page = Option.map scrape last.run.server.ops in
      finish last.run;
      (ps, page)
    end
  in
  let setup_s = Sample.median (List.map (fun p -> p.run.setup_s) !passes) in
  let peak_rss_mb = Sample.median (List.map (fun p -> p.rss_mb) untraced) in
  let attempted, failed =
    List.fold_left
      (fun (a, f) s -> (a + s.attempted, f + s.failed))
      (0, 0)
      (List.concat_map (fun p -> p.streams) !passes)
  in
  let late_p99, _ =
    Sample.tail (all (fun s -> s.late) (List.concat_map (fun p -> p.streams) !passes))
  in
  let sustained = sustained rungs in
  let e2e =
    [
      ("setup_s", setup_s);
      ("tuples_per_s", Sample.median saturation);
      ("result_p50_ms", p50);
      ("result_p99_ms", p99);
      ("peak_rss_mb", peak_rss_mb);
    ]
  in
  let notes =
    [
      ( "load",
        Printf.sprintf "%d sessions x %d ticks of %d tuples, drain every %d; reference %.0f tuples/s"
          sessions ticks tuples_per_tick drain_every reference_rate );
      ( "result samples",
        Printf.sprintf "%d drains; result_p99_ms is p%.1f; p50/p99 per pass %s"
          (List.length (results untraced)) p99_pct
          (String.concat " "
             (List.map
                (fun p ->
                  Printf.sprintf "%.2f/%.1f" (Sample.median (results [ p ]))
                    (fst (Sample.tail (results [ p ]))))
                untraced)) );
      ( "ladder p99_ms",
        String.concat " "
          (List.map
             (fun r -> Printf.sprintf "%.0f:%.1f%s" r.rate r.p99_ms (if r.ok then "" else "!"))
             rungs) );
      ("sustained_tuples_per_s", Printf.sprintf "%.1f tuples/s" sustained);
      ( "tuples_per_s",
        Printf.sprintf "closed loop, median of %s tuples/s"
          (String.concat " " (List.map (Printf.sprintf "%.0f") saturation)) );
      ("recover_s", Printf.sprintf "%.4f s (median of 3)" (Sample.median recoveries));
    ]
  in
  let layers =
    if not trace then []
    else begin
      let streams = List.concat_map (fun p -> p.streams) traced in
      let acks = all (fun s -> s.feed_acks) streams in
      let tp50 = Sample.median (results traced) in
      Span.enabled := true;
      let replays =
        protocol_replay frozen ~seed
        @ engine_replay frozen ~seed
        @ wal_replay frozen ~seed ~dir:(dir "wal-replay")
        @ durable_replay frozen ~seed ~dir:(dir "durable-replay")
      in
      Span.enabled := false;
      let get k = List.assoc k replays in
      let feed_rtt_us = Sample.mean (all (fun s -> s.feed_rtts) streams) in
      let spans = Span.all () in
      (match Span.write_checked trace_path spans with
      | Ok _ -> ()
      | Error msg -> raise (Report.Check_failed msg));
      let page = Option.value ~default:"" metrics_page in
      let prom k =
        match prom_value page k with
        | Some v -> v
        | None -> raise (Report.Check_failed ("serve: /metrics lacks " ^ k))
      in
      replays
      @ [
          ("client.feed_ack_p50_ms", Sample.median acks);
          ("client.feed_ack_p99_ms", fst (Sample.tail acks));
          ("client.drain_rtt_p50_ms", Sample.median (all (fun s -> s.drain_rtts) streams));
          ("serve.peak_backlog", prom "serve_peak_backlog");
          ("serve.flow_pauses", prom "serve_flow_pauses");
          ( "serve.residual_us",
            feed_rtt_us
            -. (get "protocol.encode_us" +. get "protocol.decode_us" +. get "wal.commit_us"
               +. get "engine.feed_us") );
          ("serve.recover_s", Sample.median recoveries);
          ("serve.sustained_tuples_per_s", sustained);
          ("serve.result_p99_ms", p99);
          ("gen.late_p99_ms", late_p99);
          ("trace.overhead_pct", 100.0 *. (tp50 -. p50) /. p50);
          ("residual_pct", Span.residual_pct spans ~root:"serve.traced");
        ]
    end
  in
  {
    Report.metrics = e2e @ layers;
    notes =
      (if trace then notes
       else notes @ [ ("gen.late_p99_ms", Printf.sprintf "%.3f ms" late_p99) ]);
    repetitions = List.length untraced;
    attempted;
    failed;
  }
