type write = {
  targets : int;
  old_version : int;
  new_version : int;
}

type t = {
  rid : string option;
  verb : string;
  session : int option;
  peer : string option;
  group : string;
  doc : string option;
  doc_label : string option;
  doc_version : int option;
  query : string;
  bind : (string * string) list;
  admission : string option;
  status : string;
  error : string option;
  results : int;
  digest : string option;
  latency_ms : float;
  ts_ns : int64;
  gc : (float * int) option;
  spans : Tracer.span list;
  counts : (string * int) list;
  translated : string option;
  write : write option;
}

let make ~verb ~group query =
  {
    rid = None;
    verb;
    session = None;
    peer = None;
    group;
    doc = None;
    doc_label = None;
    doc_version = None;
    query;
    bind = [];
    admission = None;
    status = "ok";
    error = None;
    results = 0;
    digest = None;
    latency_ms = 0.;
    ts_ns = Clock.monotonic ();
    gc = None;
    spans = [];
    counts = [];
    translated = None;
    write = None;
  }

(* Span and pause timestamps share the monotonic-clock timebase, so the
   window the spans cover intersects the pause windows directly. *)
let gc_overlap runtime (spans : Tracer.span list) =
  match (runtime, spans) with
  | Some rt, _ :: _ ->
    let start_ns =
      List.fold_left
        (fun a (s : Tracer.span) -> if s.start_ns < a then s.start_ns else a)
        Int64.max_int spans
    in
    let stop_ns =
      List.fold_left
        (fun a (s : Tracer.span) -> if s.stop_ns > a then s.stop_ns else a)
        Int64.min_int spans
    in
    Some (Runtime.overlap rt ~start_ns ~stop_ns)
  | _ -> None
