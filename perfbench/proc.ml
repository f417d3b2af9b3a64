(* The [chimera serve] process under test: spawn, wait for it to listen,
   read its CPU time and peak memory from /proc, stop it gracefully. *)

type t = { pid : int; port : int; stdout_path : string; stderr_path : string }

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Reads to end of file; /proc files report no length up front. *)
let read_file path =
  let ic = open_in_bin path in
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  Buffer.contents b

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let listening_port text =
  let key = "listening on " in
  let rec find i =
    if i + String.length key > String.length text then None
    else if String.sub text i (String.length key) = key then Some (i + String.length key)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
      match String.index_from_opt text start ' ' with
      | None -> None
      | Some stop -> (
          let addr = String.sub text start (stop - start) in
          match String.rindex_opt addr ':' with
          | None -> None
          | Some i -> int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1))))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)

(* Spawns [exe serve ...] with its output in [dir] and returns once the
   listening line names the bound port. *)
let spawn ~exe ~dir ~args =
  mkdir_p dir;
  let stdout_path = Filename.concat dir "serve.out" in
  let stderr_path = Filename.concat dir "serve.err" in
  let out = Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err = Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: "serve" :: args)) null out err
  in
  List.iter Unix.close [ out; err; null ];
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    match listening_port (read_file stdout_path) with
    | Some port -> { pid; port; stdout_path; stderr_path }
    | None -> (
        match exited pid with
        | Some _ ->
            failwith ("chimera serve exited during start-up: " ^ read_file stderr_path)
        | None ->
            if Unix.gettimeofday () > deadline then begin
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              failwith "chimera serve did not start listening within 60 s"
            end;
            Unix.sleepf 0.001;
            wait ())
  in
  wait ()

(* User plus system CPU of the whole process, in seconds. *)
let cpu_s t =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  let after = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub stat after (String.length stat - after))
  in
  let field i = float_of_string (List.nth fields i) in
  (* utime and stime are fields 14 and 15, the 12th and 13th after the
     command name; /proc counts them in 1/100 s. *)
  (field 11 +. field 12) /. 100.

let vm_hwm_kb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> int_of_string kb
          | [] -> acc)
      | _ -> acc)
    0
    (String.split_on_char '\n' status)

(* SIGTERM drains the server; it must exit 0 within 30 s. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match exited t.pid with
    | Some (Unix.WEXITED 0) -> Ok ()
    | Some _ -> Error ("chimera serve exited abnormally: " ^ read_file t.stderr_path)
    | None ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill t.pid Sys.sigkill;
          ignore (Unix.waitpid [] t.pid);
          Error "chimera serve did not drain within 30 s"
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
  in
  wait ()

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()
