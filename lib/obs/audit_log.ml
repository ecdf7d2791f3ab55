type sink =
  | Stderr
  | Channel of out_channel
  | Buffer of Buffer.t

type t = {
  clock : Clock.t;
  sink : sink;
  owned : bool;  (* close the channel on [close] *)
}

let create ?(clock = Clock.monotonic) sink = { clock; sink; owned = false }

let open_file ?(clock = Clock.monotonic) path =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  { clock; sink = Channel oc; owned = true }

let close t =
  match t.sink with
  | Channel oc -> if t.owned then close_out oc else flush oc
  | Stderr | Buffer _ -> ()

let emit t json =
  match t.sink with
  | Stderr ->
    output_string stderr (Json.to_string json);
    output_char stderr '\n';
    flush stderr
  | Channel oc ->
    output_string oc (Json.to_string json);
    output_char oc '\n';
    flush oc
  | Buffer buf ->
    Buffer.add_string buf (Json.to_string json);
    Buffer.add_char buf '\n'

let base t kind =
  [ ("type", Json.String kind); ("ts_ns", Json.Int (Int64.to_int (t.clock ()))) ]

let opt f = function Some v -> f v | None -> Json.Null

let log_diagnostic t ~code ~severity ~subject message =
  emit t
    (Json.Obj
       (base t "diagnostic"
       @ [
           ("code", Json.String code);
           ("severity", Json.String severity);
           ("subject", Json.String subject);
           ("message", Json.String message);
         ]))

(* The request context: present fields only, so a CLI record carries no
   session/peer and an uncorrelated one no rid. *)
let context ?(doc = false) (r : Request.t) =
  let field name f = function Some v -> [ (name, f v) ] | None -> [] in
  List.concat
    [
      field "rid" (fun s -> Json.String s) r.rid;
      field "session" (fun s -> Json.Int s) r.session;
      field "peer" (fun p -> Json.String p) r.peer;
      (if doc then field "doc" (fun d -> Json.String d) r.doc_label else []);
    ]

let doc_label (r : Request.t) = Option.value r.doc_label ~default:"-"

let log_request t (r : Request.t) =
  emit t
    (Json.Obj
       (base t "request" @ context r
       @ [
           ("group", Json.String r.group);
           ("doc", Json.String (doc_label r));
           ("query", Json.String r.query);
           ("translated", opt (fun s -> Json.String s) r.translated);
           ("status", Json.String r.status);
           ("results", Json.Int r.results);
           ("latency_ms", Json.Float r.latency_ms);
           ("error", opt (fun e -> Json.String e) r.error);
         ]))

(* One record per update attempt.  An admitted write is kind "update"
   with the version transition; a rejected one is "update_denied" with
   the typed error code and message — distinguishable at a glance from
   a denied query (kind "request", status "denied_empty"). *)
let log_update t (r : Request.t) =
  let w f = opt (fun (w : Request.write) -> Json.Int (f w)) r.write in
  emit t
    (Json.Obj
       (base t (if r.error = None then "update" else "update_denied")
       @ context r
       @ [
           ("group", Json.String r.group);
           ("doc", Json.String (doc_label r));
           ("update", Json.String r.query);
           ("status", Json.String r.status);
           ("targets", w (fun w -> w.targets));
           ("old_version", w (fun w -> w.old_version));
           ("new_version", w (fun w -> w.new_version));
           ("latency_ms", Json.Float r.latency_ms);
           ("error", opt (fun e -> Json.String e) r.error);
         ]))

(* A write that ran gets its update record; everything else, a write
   shed by the overload check included, is audited as a request. *)
let log t (r : Request.t) =
  if r.verb = "update" && r.status <> "overloaded" then log_update t r
  else log_request t r

let log_slow_query t ~threshold_ms (r : Request.t) =
  emit t
    (Json.Obj
       (base t "slow_query" @ context ~doc:true r
       @ [
           ("group", Json.String r.group);
           ("query", Json.String r.query);
           ("translated", opt (fun s -> Json.String s) r.translated);
           ("latency_ms", Json.Float r.latency_ms);
           ("threshold_ms", Json.Float threshold_ms);
           ( "stages_ms",
             Json.Obj
               (List.map
                  (fun (name, ms) -> (name, Json.Float ms))
                  (Tracer.stage_totals r.spans)) );
           ( "op_counts",
             Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counts) );
           ("gc_pause_ms", opt (fun (ms, _) -> Json.Float ms) r.gc);
           ("gc_pauses", opt (fun (_, n) -> Json.Int n) r.gc);
         ]))

let log_note t ~kind message =
  emit t
    (Json.Obj
       (base t "note"
       @ [ ("kind", Json.String kind); ("message", Json.String message) ]))
