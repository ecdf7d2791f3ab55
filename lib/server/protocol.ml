module J = Sobs.Json

type query = {
  doc : string option;
  text : string;
  bind : (string * string) list;
}

type request =
  | Hello of {
      group : string;
      peer : string option;
    }
  | Query of query
  | Explain of query
  | Analyze of query
  | Update of query  (** [text] is the update's concrete syntax *)
  | Stats
  | Metrics
  | Flight
  | Ping
  | Shutdown
  | Sleep of float

let version = 1

(* error codes (the protocol's closed vocabulary) *)
let bad_request = "bad_request"
let unknown_group = "unknown_group"
let no_session = "no_session"
let unknown_document = "unknown_document"
let overloaded = "overloaded"
let draining = "draining"
let timeout = "timeout"
let query_error = "query_error"
let update_denied = "update_denied"
let invalid_update = "invalid_update"

(* Every reply carries the request-correlation id right after the
   version field — the same id lands in the audit log and the flight
   recorder, so one request is traceable across every surface. *)
let rid_fields = function
  | Some r -> [ ("rid", J.String r) ]
  | None -> []

let ok ?rid fields =
  J.Obj (("ok", J.Bool true) :: ("v", J.Int version) :: rid_fields rid @ fields)

let error ?rid ~code msg =
  J.Obj
    (("ok", J.Bool false) :: ("v", J.Int version) :: rid_fields rid
    @ [ ("code", J.String code); ("error", J.String msg) ])

let is_ok reply = J.member "ok" reply = Some (J.Bool true)

let line buf reply =
  Buffer.clear buf;
  J.to_buffer buf reply;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Each node as a JSON string, after a comma from the second on. *)
let rec add_results buf ~comma = function
  | [] -> ()
  | node :: rest ->
    if comma then Buffer.add_char buf ',';
    Buffer.add_char buf '"';
    Sxml.Print.to_buffer Json_string buf node;
    Buffer.add_char buf '"';
    add_results buf ~comma:true rest

let answer_line buf ~rid nodes =
  Buffer.clear buf;
  Buffer.add_string buf {|{"ok":true,"v":|};
  Buffer.add_string buf (string_of_int version);
  Buffer.add_string buf {|,"rid":|};
  J.to_buffer buf (J.String rid);
  Buffer.add_string buf {|,"results":[|};
  add_results buf ~comma:false nodes;
  Buffer.add_string buf {|],"count":|};
  Buffer.add_string buf (string_of_int (List.length nodes));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let error_of ?rid (e : Secview.Error.t) =
  error ?rid ~code:(Secview.Error.to_code e) (Secview.Error.to_string e)

let field name obj = J.member name obj

let string_field name obj = Option.bind (field name obj) J.to_string_opt

(* Best-effort client rid recovery for error replies: even a request
   that fails to parse as a command can still be correlated, as long
   as the line was a JSON object with a string ["rid"]. *)
let rid_of_line line =
  match J.of_string line with
  | Ok (J.Obj _ as obj) -> string_field "rid" obj
  | _ -> None

let request_of_line line =
  let with_rid obj r = Result.map (fun req -> (req, r)) obj in
  match J.of_string line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok (J.Obj _ as obj) when
      (match field "v" obj with None | Some (J.Int 1) -> false | Some _ -> true)
    ->
    Error
      (Printf.sprintf "unsupported protocol version (this server speaks \"v\":%d)"
         version)
  | Ok (J.Obj _ as obj) when
      (match field "rid" obj with
      | None | Some (J.String _) -> false
      | Some _ -> true) -> Error "\"rid\" must be a string"
  | Ok (J.Obj _ as obj) -> (
    let rid = string_field "rid" obj in
    with_rid
      (match string_field "cmd" obj with
    | None -> Error "missing string field \"cmd\""
    | Some "hello" -> (
      match string_field "group" obj with
      | Some group -> Ok (Hello { group; peer = string_field "peer" obj })
      | None -> Error "hello: missing string field \"group\"")
    | Some ("query" | "explain" | "analyze" | "update") -> (
      let cmd = Option.get (string_field "cmd" obj) in
      (* the update text rides in its own field, so a query named
         "update" stays expressible and logs read unambiguously *)
      let text_field = if cmd = "update" then "update" else "query" in
      match string_field text_field obj with
      | None ->
        Error (Printf.sprintf "%s: missing string field %S" cmd text_field)
      | Some text -> (
        let bind =
          match field "bind" obj with
          | None -> Ok []
          | Some (J.Obj fields) ->
            List.fold_left
              (fun acc (k, v) ->
                match (acc, J.to_string_opt v) with
                | Error _, _ -> acc
                | Ok bs, Some s -> Ok ((k, s) :: bs)
                | Ok _, None ->
                  Error
                    (Printf.sprintf "%s: binding %S must be a string" cmd k))
              (Ok []) fields
          | Some _ ->
            Error (cmd ^ ": \"bind\" must be an object of strings")
        in
        match bind with
        | Error e -> Error e
        | Ok bind ->
          let doc = string_field "doc" obj in
          let q = { doc; text; bind = List.rev bind } in
          Ok
            (match cmd with
            | "explain" -> Explain q
            | "analyze" -> Analyze q
            | "update" -> Update q
            | _ -> Query q)))
    | Some "stats" -> Ok Stats
    | Some "metrics" -> Ok Metrics
    | Some "flight" -> Ok Flight
    | Some "ping" -> Ok Ping
    | Some "shutdown" -> Ok Shutdown
    | Some "sleep" -> (
      match Option.bind (field "ms" obj) J.to_float_opt with
      | Some ms when ms >= 0. -> Ok (Sleep (ms /. 1000.))
      | Some _ -> Error "sleep: \"ms\" must be non-negative"
      | None -> Error "sleep: missing numeric field \"ms\"")
    | Some cmd -> Error (Printf.sprintf "unknown command %S" cmd))
      rid)
  | Ok _ -> Error "request must be a JSON object"

let client_rid = function
  | Some r -> [ ("rid", J.String r) ]
  | None -> []

let hello ?peer group =
  J.Obj
    (("cmd", J.String "hello")
     :: ("group", J.String group)
     :: (match peer with Some p -> [ ("peer", J.String p) ] | None -> []))

let query_json ?rid ?doc ?(bind = []) text =
  J.Obj
    (("cmd", J.String "query")
     :: client_rid rid
    @ ("query", J.String text)
      :: (match doc with Some d -> [ ("doc", J.String d) ] | None -> [])
    @
    if bind = [] then []
    else [ ("bind", J.Obj (List.map (fun (k, v) -> (k, J.String v)) bind)) ])

let update_json ?rid ?doc ?(bind = []) text =
  J.Obj
    (("cmd", J.String "update")
     :: client_rid rid
    @ ("update", J.String text)
      :: (match doc with Some d -> [ ("doc", J.String d) ] | None -> [])
    @
    if bind = [] then []
    else [ ("bind", J.Obj (List.map (fun (k, v) -> (k, J.String v)) bind)) ])

let simple cmd = J.Obj [ ("cmd", J.String cmd) ]

let rec explain_json (n : Splan.Explain.node) =
  J.Obj
    (("op", J.String n.op)
     :: (match n.arg with Some a -> [ ("arg", J.String a) ] | None -> [])
    @ [
        ( "counts",
          J.Obj (List.map (fun (k, v) -> (k, J.Int v)) n.counts) );
      ]
    @
    if n.children = [] then []
    else [ ("children", J.List (List.map explain_json n.children)) ])

let explain_fields text (x : Secview.Pipeline.explanation) =
  let module P = Secview.Pipeline in
  let opt f = function Some v -> f v | None -> J.Null in
  [
    ("query", J.String text);
    ("admission", J.String (P.admission_label x.x_admission));
    ( "witness",
      match x.x_admission with
      | P.Denied_empty w -> J.String w
      | P.Trivial | P.Needs_eval -> J.Null );
    ("translated", J.String (Sxpath.Print.to_string x.x_translated));
    ("engine", J.String (if x.x_plan <> None then "plan" else "interp"));
    ("height", opt (fun h -> J.Int h) x.x_height);
    ("fallback", opt (fun r -> J.String r) x.x_fallback);
    ("results", J.Int x.x_results);
    ("doc_version", J.Int x.x_doc_version);
    ("generation", J.Int x.x_generation);
    ( "plan",
      opt
        (fun (compiled, stats) ->
          explain_json (Splan.Explain.of_compiled compiled stats))
        x.x_plan );
  ]

let receipt_fields (w : Supdate.Engine.receipt) =
  [
    ("op", J.String w.r_op);
    ("targets", J.Int w.r_targets);
    ("old_version", J.Int w.r_old_version);
    ("new_version", J.Int w.r_new_version);
    ("digest", J.String w.r_view_digest);
  ]
