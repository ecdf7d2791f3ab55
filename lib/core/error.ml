type t =
  | Parse_error of {
      position : int;
      message : string;
    }
  | Unbound_variable of string
  | Unknown_group of {
      group : string;
      known : string list;
    }
  | Unknown_doc of {
      doc : string option;
      known : string list;
    }
  | Unsupported of string
  | Update_denied of string
  | Invalid_update of string
  | Timeout of string
  | Overloaded of string
  | Draining
  | No_session
  | Bad_request of string
  | Internal of string

exception E of t

let have known =
  match known with
  | [] -> ""
  | _ -> Printf.sprintf " (have: %s)" (String.concat ", " known)

let to_string = function
  | Parse_error { position; message } ->
    Printf.sprintf "parse error at %d: %s" position message
  | Unbound_variable name -> Printf.sprintf "unbound variable $%s" name
  | Unknown_group { group; known } ->
    Printf.sprintf "unknown group %S%s" group (have known)
  | Unknown_doc { doc = Some doc; known } ->
    Printf.sprintf "unknown document %S%s" doc (have known)
  | Unknown_doc { doc = None; known } ->
    Printf.sprintf "more than one document: pass \"doc\"%s" (have known)
  | Unsupported msg -> msg
  | Update_denied msg -> msg
  | Invalid_update msg -> msg
  | Timeout msg -> msg
  | Overloaded msg -> msg
  | Draining -> "server is draining"
  | No_session -> "no session: send {\"cmd\":\"hello\",\"group\":…} first"
  | Bad_request msg -> msg
  | Internal msg -> msg

let to_code = function
  | Parse_error _ | Unbound_variable _ | Unsupported _ | Internal _ ->
    "query_error"
  | Update_denied _ -> "update_denied"
  | Invalid_update _ -> "invalid_update"
  | Unknown_group _ -> "unknown_group"
  | Unknown_doc _ -> "unknown_document"
  | Timeout _ -> "timeout"
  | Overloaded _ -> "overloaded"
  | Draining -> "draining"
  | No_session -> "no_session"
  | Bad_request _ -> "bad_request"

let exit_code = function Timeout _ -> 3 | _ -> 2

let parse_query text =
  match Sxpath.Parse.of_string_result text with
  | Ok q -> Ok q
  | Error { Sxpath.Parse.position; message } ->
    Error (Parse_error { position; message })

let () =
  Printexc.register_printer (function
    | E e -> Some (Printf.sprintf "Secview.Error.E(%s: %s)" (to_code e) (to_string e))
    | _ -> None)
