type t = {
  lock : Mutex.t;
  ring : Request.t option array;
  mutable head : int;  (* next write slot *)
  mutable len : int;  (* entries currently retained *)
  mutable total : int;  (* entries ever recorded; survives [clear] *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be > 0";
  { lock = Mutex.create (); ring = Array.make capacity None; head = 0;
    len = 0; total = 0 }

let capacity t = Array.length t.ring

let record t e =
  Mutex.protect t.lock (fun () ->
      t.ring.(t.head) <- Some e;
      t.head <- (t.head + 1) mod Array.length t.ring;
      t.len <- min (t.len + 1) (Array.length t.ring);
      t.total <- t.total + 1)

let total t = Mutex.protect t.lock (fun () -> t.total)

let entries t =
  Mutex.protect t.lock (fun () ->
      let cap = Array.length t.ring in
      let n = t.len in
      (* oldest first: the ring wraps at [head] *)
      List.filter_map
        (fun i -> t.ring.((t.head - n + i + (2 * cap)) mod cap))
        (List.init n Fun.id))

let length t = Mutex.protect t.lock (fun () -> t.len)

let clear t =
  Mutex.protect t.lock (fun () ->
      Array.fill t.ring 0 (Array.length t.ring) None;
      t.head <- 0;
      t.len <- 0)

let opt_json f = function Some v -> f v | None -> Json.Null

let span_json (sp : Tracer.span) =
  Json.Obj
    [
      ("name", Json.String sp.Tracer.name);
      ("seq", Json.Int sp.Tracer.seq);
      ("parent", opt_json (fun p -> Json.Int p) sp.Tracer.parent);
      ("depth", Json.Int sp.Tracer.depth);
      ("ms", Json.Float (Clock.ms sp.Tracer.start_ns sp.Tracer.stop_ns));
    ]

let entry_json (r : Request.t) =
  Json.Obj
    [
      ("rid", opt_json (fun s -> Json.String s) r.rid);
      ("verb", Json.String r.verb);
      ("ts_ns", Json.Int (Int64.to_int r.ts_ns));
      ("session", opt_json (fun s -> Json.Int s) r.session);
      ("peer", opt_json (fun p -> Json.String p) r.peer);
      ("group", Json.String r.group);
      ("doc", opt_json (fun d -> Json.String d) r.doc_label);
      ("doc_version", opt_json (fun v -> Json.Int v) r.doc_version);
      ("query", Json.String r.query);
      ("admission", opt_json (fun a -> Json.String a) r.admission);
      ("status", Json.String r.status);
      ("error", opt_json (fun err -> Json.String err) r.error);
      ("results", Json.Int r.results);
      ("digest", opt_json (fun d -> Json.String d) r.digest);
      ("latency_ms", Json.Float r.latency_ms);
      ("gc_pause_ms", opt_json (fun (ms, _) -> Json.Float ms) r.gc);
      ("gc_pauses", opt_json (fun (_, n) -> Json.Int n) r.gc);
      ("spans", Json.List (List.map span_json r.spans));
      ( "op_counts",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counts) );
    ]

let to_json t =
  let es = entries t in
  Json.Obj
    [
      ("flight", Json.Int (List.length es));
      ("capacity", Json.Int (capacity t));
      ("total", Json.Int (total t));
      ("entries", Json.List (List.map entry_json es));
    ]

let dump_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (to_json t);
      output_char oc '\n')
