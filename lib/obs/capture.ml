let schema_version = 2

type record = {
  c_rid : string;
  c_verb : string;
  c_group : string;
  c_doc : string option;
  c_query : string;
  c_bind : (string * string) list;
  c_status : string;
  c_results : int;
  c_digest : string;
  c_latency_ms : float;
}

let digest results = Digest.to_hex (Digest.string (String.concat "\n" results))

let to_json r =
  Json.Obj
    [
      ("v", Json.Int schema_version);
      ("rid", Json.String r.c_rid);
      ("verb", Json.String r.c_verb);
      ("group", Json.String r.c_group);
      ( "doc",
        match r.c_doc with Some d -> Json.String d | None -> Json.Null );
      ("query", Json.String r.c_query);
      ( "bind",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) r.c_bind) );
      ("status", Json.String r.c_status);
      ("results", Json.Int r.c_results);
      ("digest", Json.String r.c_digest);
      ("latency_ms", Json.Float r.c_latency_ms);
    ]

let of_json j =
  let str name = Option.bind (Json.member name j) Json.to_string_opt in
  let req name =
    match str name with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "capture record: missing %S" name)
  in
  match Option.bind (Json.member "v" j) Json.to_int_opt with
  | None -> Error "capture record: missing \"v\""
  | Some v when v <> 1 && v <> schema_version ->
    Error (Printf.sprintf "capture record: unsupported version %d" v)
  | Some _ -> (
    match (req "rid", req "group", req "query", req "digest") with
    | Ok c_rid, Ok c_group, Ok c_query, Ok c_digest ->
      let c_bind =
        match Json.member "bind" j with
        | Some (Json.Obj fields) ->
          List.filter_map
            (fun (k, v) ->
              match Json.to_string_opt v with
              | Some s -> Some (k, s)
              | None -> None)
            fields
        | _ -> []
      in
      Ok
        {
          c_rid;
          c_verb = Option.value ~default:"query" (str "verb");
          c_group;
          c_doc = str "doc";
          c_query;
          c_bind;
          c_status = Option.value ~default:"ok" (str "status");
          c_results =
            Option.value ~default:0
              (Option.bind (Json.member "results" j) Json.to_int_opt);
          c_digest;
          c_latency_ms =
            Option.value ~default:0.
              (Option.bind (Json.member "latency_ms" j) Json.to_float_opt);
        }
    | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _
    | _, _, _, Error e ->
      Error e)

(* Only requests with a digest have an answer to replay: answered
   queries (fast-path denials included) and admitted writes.  A late
   answer is still the answer, so it replays as "ok". *)
let of_request (r : Request.t) =
  match r.digest with
  | None -> None
  | Some digest ->
    Some
      {
        c_rid = Option.value r.rid ~default:"";
        c_verb = r.verb;
        c_group = r.group;
        c_doc = r.doc;
        c_query = r.query;
        c_bind = r.bind;
        c_status = (if r.status = "late" then "ok" else r.status);
        c_results = r.results;
        c_digest = digest;
        c_latency_ms = r.latency_ms;
      }

(* Writer: one JSONL line per request, flushed so a captured workload
   survives a crash of the process under observation.  The mutex
   serializes concurrent server workers. *)

type t = { oc : out_channel; wlock : Mutex.t }

let open_file path =
  (* append, so a mixed workload built by several CLI invocations
     (query, then update, then query again) accumulates in one file *)
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  { oc; wlock = Mutex.create () }

let write t r =
  Mutex.protect t.wlock (fun () ->
      Json.to_channel t.oc (to_json r);
      output_char t.oc '\n';
      flush t.oc)

let close t = Mutex.protect t.wlock (fun () -> close_out t.oc)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop n acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> loop (n + 1) acc
        | line -> (
          match Json.of_string line with
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e)
          | Ok j -> (
            match of_json j with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e)
            | Ok r -> loop (n + 1) (r :: acc)))
      in
      loop 1 [])
