(* Facts about the machine and the tree a result was measured on. *)

let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l when l <> "" -> Some l
      | _ -> None)

let nproc =
  match Option.bind (command_line "nproc") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

let git_rev () = Option.value ~default:"unknown" (command_line "git rev-parse HEAD")

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (In_channel.input_all ic))

let load_average () =
  match read_file "/proc/loadavg" with
  | Some s -> (
      match String.split_on_char ' ' s with
      | one :: _ -> Option.value ~default:nan (float_of_string_opt one)
      | [] -> nan)
  | None -> nan

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> nan
  | Some s ->
      let line =
        List.find_opt
          (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
          (String.split_on_char '\n' s)
      in
      match line with
      | None -> nan
      | Some l -> (
          match
            List.filter (fun w -> w <> "")
              (String.split_on_char ' '
                 (String.map (fun c -> if c = '\t' then ' ' else c) l))
          with
          | _ :: kb :: _ -> (
              match float_of_string_opt kb with
              | Some kb -> kb /. 1024.0
              | None -> nan)
          | _ -> nan)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rec tree_size path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + tree_size (Filename.concat path f))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size
