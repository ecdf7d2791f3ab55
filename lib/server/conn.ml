module J = Sobs.Json

exception Error of string

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  peer : string;  (* the address, for error messages *)
}

let inet_addr host =
  if host = "" then Unix.inet_addr_loopback
  else
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match (Unix.gethostbyname host).Unix.h_addr_list with
      | [||] | (exception Not_found) -> raise (Error ("unknown host " ^ host))
      | addrs -> addrs.(0))

let address ~socket ~tcp ~host =
  match (socket, tcp) with
  | Some path, None -> Unix.ADDR_UNIX path
  | None, Some port -> Unix.ADDR_INET (inet_addr host, port)
  | _ -> raise (Error "provide exactly one of --socket or --tcp")

let label = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (a, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) port

let connect ?(wait = 0.) addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let give_up = Deadline.now () +. wait in
  let rec go () =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> { fd; ic = Unix.in_channel_of_descr fd; peer = label addr }
    | exception (Unix.Unix_error (Unix.EINTR, _, _) as interrupted) ->
      (* a signal, not an answer about the server: the caller's *)
      Unix.close fd;
      raise interrupted
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      let retry =
        match e with
        | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT -> true
        | _ -> false
      in
      if retry && Deadline.now () < give_up then begin
        Thread.delay 0.02;
        go ()
      end
      else
        raise
          (Error
             (Printf.sprintf "no server at %s (%s)" (label addr)
                (Unix.error_message e)))
  in
  go ()

let close t = try close_in t.ic with Sys_error _ -> ()

let with_connection ?wait addr f =
  let t = connect ?wait addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let fd t = t.fd

let hung_up t : exn =
  Error
    (Printf.sprintf "the server at %s closed the connection before replying"
       t.peer)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let write t s =
  try write_all t.fd s
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    raise (hung_up t)

let send_line t line = write t (line ^ "\n")
let send t j = send_line t (J.to_string j)

let recv_line t =
  try input_line t.ic with End_of_file | Sys_error _ -> raise (hung_up t)

let recv t =
  let line = recv_line t in
  match J.of_string line with
  | Ok j -> (line, j)
  | Stdlib.Error e ->
    raise
      (Error (Printf.sprintf "bad reply from %s (%s): %s" t.peer e line))

let call t j =
  send t j;
  recv t

let read_all t =
  try In_channel.input_all t.ic with Sys_error _ -> raise (hung_up t)
