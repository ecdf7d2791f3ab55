type span = {
  name : string;
  seq : int;
  parent : int option;
  depth : int;
  tid : int;
  trace_id : int;
  start_ns : int64;
  stop_ns : int64;
}

type active = {
  id : int;
  aname : string;
  aparent : int option;
  adepth : int;
  astart : int64;
  atrace : int;
}

(* Per-thread recording state: each thread has its own span stack and
   completed list, so concurrent requests (server workers) never
   interleave frames, and [drain_new]/[with_request] attribute spans to
   the requests of the calling thread only.  [Thread.id] is unique
   process-wide in OCaml 5 (every domain's threads — including each
   domain's initial thread — draw from one counter), so the table needs
   no domain component in its key, and the single mutex makes the whole
   tracer domain-safe. *)
type tstate = {
  mutable stack : active list;
  mutable completed : span list;  (* reverse completion order *)
  mutable drained : int;  (* completed spans already handed out *)
  mutable cur_trace : int;  (* trace id of the open root span *)
}

type t = {
  clock : Clock.t;
  metrics : Metrics.t option;
  retain : bool;
  lock : Mutex.t;
  threads : (int, tstate) Hashtbl.t;
  mutable next_id : int;
  mutable next_trace : int;
}

let create ?(clock = Clock.monotonic) ?metrics ?(retain = true) () =
  {
    clock;
    metrics;
    retain;
    lock = Mutex.create ();
    threads = Hashtbl.create 8;
    next_id = 0;
    next_trace = 0;
  }

let state t =
  let tid = Thread.id (Thread.self ()) in
  match Hashtbl.find_opt t.threads tid with
  | Some ts -> (tid, ts)
  | None ->
    let ts = { stack = []; completed = []; drained = 0; cur_trace = 0 } in
    Hashtbl.replace t.threads tid ts;
    (tid, ts)

let finish t tid ts frame =
  let stop = t.clock () in
  let sp =
    {
      name = frame.aname;
      seq = frame.id;
      parent = frame.aparent;
      depth = frame.adepth;
      tid;
      trace_id = frame.atrace;
      start_ns = frame.astart;
      stop_ns = stop;
    }
  in
  ts.completed <- sp :: ts.completed;
  match t.metrics with
  | Some m -> Metrics.observe m ("stage." ^ sp.name) (Clock.ms sp.start_ns stop)
  | None -> ()

(* Close the calling thread's frames down to and including [id], then
   return [take] of its state; intervening frames — a [leave] skipped
   by an exception path — close at the same instant.  A non-retaining
   tracer then drops the thread's spans once its outermost span has
   closed, and the thread's table entry with them: a thread that never
   drains holds nothing between requests. *)
let leave_frame t id take =
  Mutex.protect t.lock (fun () ->
      let tid, ts = state t in
      let rec pop = function
        | frame :: rest ->
          finish t tid ts frame;
          if frame.id = id then ts.stack <- rest else pop rest
        | [] -> ts.stack <- []
      in
      if List.exists (fun f -> f.id = id) ts.stack then pop ts.stack;
      let r = take ts in
      if (not t.retain) && ts.stack = [] then Hashtbl.remove t.threads tid;
      r)

let probe t =
  {
    Secview.Trace.enter =
      (fun name ->
        Mutex.protect t.lock (fun () ->
            let _, ts = state t in
            if ts.stack = [] then begin
              ts.cur_trace <- t.next_trace;
              t.next_trace <- t.next_trace + 1
            end;
            let id = t.next_id in
            t.next_id <- id + 1;
            let parent =
              match ts.stack with [] -> None | f :: _ -> Some f.id
            in
            ts.stack <-
              { id; aname = name; aparent = parent;
                adepth = List.length ts.stack;
                astart = t.clock (); atrace = ts.cur_trace }
              :: ts.stack;
            id));
    leave = (fun id -> leave_frame t id ignore);
    count =
      (fun name n ->
        match t.metrics with Some m -> Metrics.incr ~by:n m name | None -> ());
    value =
      (fun name v ->
        match t.metrics with
        | Some m -> Metrics.observe m name (float_of_int v)
        | None -> ());
  }

let install t = Secview.Trace.set_probe (probe t)
let uninstall () = Secview.Trace.clear_probe ()

let by_seq a b = Int.compare a.seq b.seq

let spans t =
  Mutex.protect t.lock (fun () ->
      List.sort by_seq
        (Hashtbl.fold (fun _ ts acc -> ts.completed @ acc) t.threads []))

let drain_new t =
  Mutex.protect t.lock (fun () ->
      let tid, ts = state t in
      let all = List.rev ts.completed in
      let fresh = List.filteri (fun i _ -> i >= ts.drained) all in
      if t.retain then ts.drained <- List.length all
      else begin
        ts.completed <- [];
        if ts.stack = [] then Hashtbl.remove t.threads tid
      end;
      fresh)

let with_request ?(name = "request") t f =
  let id = (probe t).Secview.Trace.enter name in
  let trace =
    Mutex.protect t.lock (fun () ->
        let _, ts = state t in
        ts.cur_trace)
  in
  let close () =
    leave_frame t id (fun ts ->
        List.sort by_seq
          (List.filter (fun sp -> sp.trace_id = trace) ts.completed))
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
    ignore (close ());
    raise e

let stage_totals spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let d = Clock.ms sp.start_ns sp.stop_ns in
      match Hashtbl.find_opt tbl sp.name with
      | Some r -> r := !r +. d
      | None -> Hashtbl.replace tbl sp.name (ref d))
    spans;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [])

let pp ppf t =
  let sps = spans t in
  Format.fprintf ppf "trace (%d span(s)):@." (List.length sps);
  List.iter
    (fun sp ->
      Format.fprintf ppf "  %s%-*s %10.3fms@."
        (String.make (2 * sp.depth) ' ')
        (24 - (2 * sp.depth))
        sp.name
        (Clock.ms sp.start_ns sp.stop_ns))
    sps
