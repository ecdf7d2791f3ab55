module RE = Runtime_events

type kind = Minor | Major_slice

let kind_label = function Minor -> "minor" | Major_slice -> "major_slice"

type pause = { domain : int; kind : kind; start_ns : int64; stop_ns : int64 }

(* Upper bounds in seconds: GC pauses live in the microsecond-to-
   hundreds-of-milliseconds range, far below the millisecond-latency
   ladder in [Metrics.default_buckets]. *)
let pause_buckets =
  [|
    1e-6; 5e-6; 1e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2;
    2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.; 2.5;
  |]

(* Per-ring consumer state.  A ring belongs to one domain for that
   domain's lifetime (a later domain may reuse the slot); the metric
   names are built once per ring, so the event path allocates nothing
   per event beyond the metrics updates themselves. *)
type ring_state = {
  rid : int;
  mutable minor_begin : int64;  (* -1 = no open phase on this ring *)
  mutable slice_begin : int64;
  mutable pool_words : float;  (* last EV_C_MAJOR_HEAP_* samples *)
  mutable large_words : float;
  pause_series : string;  (* gc.pause_seconds.d<rid> *)
  minor_ctr : string;
  slice_ctr : string;
  alloc_ctr : string;
  promoted_ctr : string;
  heap_gauge : string;
}

type t = {
  lock : Mutex.t;
      (* guards the registry, the pause ring, the ring-state table and
         the cursor: read_poll and every query serialize here *)
  reg : Metrics.t;
  cursor : RE.cursor option;  (* None: an [offline] consumer *)
  mutable callbacks : RE.Callbacks.t;
  ring : pause option array;  (* recent pause windows, oldest overwritten *)
  mutable head : int;
  mutable retained : int;
  mutable total : int;  (* pauses ever seen *)
  mutable spawned : int;
  mutable terminated : int;
  mutable lost : int;
  rings : (int, ring_state) Hashtbl.t;
  stopping : bool Atomic.t;
  mutable poller : Thread.t option;
  interval : float;
}

let no_ts = -1L

let ring_state t rid =
  match Hashtbl.find_opt t.rings rid with
  | Some rs -> rs
  | None ->
    let d = "d" ^ string_of_int rid in
    let rs =
      {
        rid;
        minor_begin = no_ts;
        slice_begin = no_ts;
        pool_words = 0.;
        large_words = 0.;
        pause_series = "gc.pause_seconds." ^ d;
        minor_ctr = "gc.minor_collections." ^ d;
        slice_ctr = "gc.major_slices." ^ d;
        alloc_ctr = "gc.minor_allocated_words." ^ d;
        promoted_ctr = "gc.promoted_words." ^ d;
        heap_gauge = "gc.heap_words." ^ d;
      }
    in
    Hashtbl.replace t.rings rid rs;
    rs

(* lock held *)
let record_pause t rs ~kind ~start_ns ~stop_ns =
  let secs = Int64.to_float (Int64.sub stop_ns start_ns) /. 1e9 in
  if secs >= 0. then begin
    Metrics.observe ~buckets:pause_buckets t.reg rs.pause_series secs;
    Metrics.observe ~buckets:pause_buckets t.reg "gc.pause_seconds" secs;
    Metrics.incr t.reg
      (match kind with Minor -> rs.minor_ctr | Major_slice -> rs.slice_ctr);
    t.ring.(t.head) <- Some { domain = rs.rid; kind; start_ns; stop_ns };
    t.head <- (t.head + 1) mod Array.length t.ring;
    t.retained <- min (t.retained + 1) (Array.length t.ring);
    t.total <- t.total + 1
  end

(* Event callbacks: called from [read_poll], which only ever runs with
   [t.lock] held.  Only the phases that stop the mutator on a domain
   become pause windows: EV_MINOR (the stop-the-world minor
   collection) and EV_MAJOR_SLICE (that domain's share of the
   incremental major mark/sweep).  Finer-grained sub-phases nest
   inside these and are deliberately ignored — counting them too
   would double-book the same wall-clock. *)
let on_begin t rid ts phase =
  match phase with
  | RE.EV_MINOR -> (ring_state t rid).minor_begin <- RE.Timestamp.to_int64 ts
  | RE.EV_MAJOR_SLICE ->
    (ring_state t rid).slice_begin <- RE.Timestamp.to_int64 ts
  | _ -> ()

let on_end t rid ts phase =
  match phase with
  | RE.EV_MINOR ->
    let rs = ring_state t rid in
    if rs.minor_begin <> no_ts then begin
      record_pause t rs ~kind:Minor ~start_ns:rs.minor_begin
        ~stop_ns:(RE.Timestamp.to_int64 ts);
      rs.minor_begin <- no_ts
    end
  | RE.EV_MAJOR_SLICE ->
    let rs = ring_state t rid in
    if rs.slice_begin <> no_ts then begin
      record_pause t rs ~kind:Major_slice ~start_ns:rs.slice_begin
        ~stop_ns:(RE.Timestamp.to_int64 ts);
      rs.slice_begin <- no_ts
    end
  | _ -> ()

(* Heap/allocation counters per ring: these are what the scrape-time
   [Gc.quick_stat] gauges cannot see for other domains. *)
let on_counter t rid _ts counter v =
  let rs = ring_state t rid in
  match counter with
  | RE.EV_C_MINOR_ALLOCATED -> Metrics.incr ~by:v t.reg rs.alloc_ctr
  | RE.EV_C_MINOR_PROMOTED -> Metrics.incr ~by:v t.reg rs.promoted_ctr
  | RE.EV_C_MAJOR_HEAP_POOL_WORDS ->
    rs.pool_words <- float_of_int v;
    Metrics.set_gauge t.reg rs.heap_gauge (rs.pool_words +. rs.large_words)
  | RE.EV_C_MAJOR_HEAP_LARGE_WORDS ->
    rs.large_words <- float_of_int v;
    Metrics.set_gauge t.reg rs.heap_gauge (rs.pool_words +. rs.large_words)
  | _ -> ()

let live_domains_locked t = 1 + t.spawned - t.terminated

let on_lifecycle t rid _ts ev _arg =
  ignore (ring_state t rid);
  (match ev with
  | RE.EV_DOMAIN_SPAWN ->
    t.spawned <- t.spawned + 1;
    Metrics.incr t.reg "runtime.domain_spawns"
  | RE.EV_DOMAIN_TERMINATE -> t.terminated <- t.terminated + 1
  | RE.EV_RING_START -> Metrics.incr t.reg "runtime.ring_starts"
  | _ -> ());
  Metrics.set_gauge t.reg "runtime.domains_live"
    (float_of_int (live_domains_locked t))

let on_lost t _rid n =
  t.lost <- t.lost + n;
  Metrics.incr ~by:n t.reg "runtime.events_lost"

(* lock held *)
let drain_locked t =
  match t.cursor with
  | Some cursor when not (Atomic.get t.stopping) ->
    ignore (RE.read_poll cursor t.callbacks None : int)
  | _ -> ()

let poll t = Mutex.protect t.lock (fun () -> drain_locked t)

let rec poll_loop t =
  if not (Atomic.get t.stopping) then begin
    poll t;
    Thread.delay t.interval;
    poll_loop t
  end

let make ~cursor ~capacity ~interval =
  {
    lock = Mutex.create ();
    reg = Metrics.create ();
    cursor;
    callbacks = RE.Callbacks.create ();
    ring = Array.make capacity None;
    head = 0;
    retained = 0;
    total = 0;
    spawned = 0;
    terminated = 0;
    lost = 0;
    rings = Hashtbl.create 8;
    stopping = Atomic.make false;
    poller = None;
    interval;
  }

let install_callbacks t =
  t.callbacks <-
    RE.Callbacks.create ~runtime_begin:(on_begin t) ~runtime_end:(on_end t)
      ~runtime_counter:(on_counter t) ~lifecycle:(on_lifecycle t)
      ~lost_events:(on_lost t) ()

let start ?(capacity = 2048) ?(interval = 0.01) () =
  if capacity <= 0 then invalid_arg "Runtime.start: capacity must be > 0";
  RE.start ();
  let t = make ~cursor:(Some (RE.create_cursor None)) ~capacity ~interval in
  install_callbacks t;
  t.poller <- Some (Thread.create poll_loop t);
  t

let offline ?(capacity = 2048) () =
  if capacity <= 0 then invalid_arg "Runtime.offline: capacity must be > 0";
  let t = make ~cursor:None ~capacity ~interval:1. in
  install_callbacks t;
  t

let stop t =
  if not (Atomic.get t.stopping) then begin
    (* final drain first, then flag the poller down: pauses emitted up
       to the stop call stay counted *)
    poll t;
    Atomic.set t.stopping true;
    (match t.poller with Some th -> Thread.join th | None -> ());
    t.poller <- None;
    Mutex.protect t.lock (fun () ->
        match t.cursor with
        | Some cursor -> RE.free_cursor cursor
        | None -> ())
  end

let pauses t =
  Mutex.protect t.lock (fun () ->
      drain_locked t;
      let cap = Array.length t.ring in
      let n = t.retained in
      List.filter_map
        (fun i -> t.ring.((t.head - n + i + (2 * cap)) mod cap))
        (List.init n Fun.id))

let total_pauses t = Mutex.protect t.lock (fun () -> t.total)
let live_domains t = Mutex.protect t.lock (fun () -> live_domains_locked t)
let lost_events t = Mutex.protect t.lock (fun () -> t.lost)

(* Attribution uses the union of pause windows, not their sum: a minor
   collection is stop-the-world, so every domain's ring reports (near)
   the same window, and summing would bill one global pause once per
   domain.  The union answers the operator's actual question — "for
   how long of this request's window was the runtime collecting?" *)
let overlap t ~start_ns ~stop_ns =
  Mutex.protect t.lock (fun () ->
      drain_locked t;
      let clipped = ref [] in
      Array.iter
        (function
          | Some p ->
            let s = if p.start_ns > start_ns then p.start_ns else start_ns in
            let e = if p.stop_ns < stop_ns then p.stop_ns else stop_ns in
            if s < e then clipped := (s, e) :: !clipped
          | None -> ())
        t.ring;
      let sorted =
        List.sort (fun (a, _) (b, _) -> Int64.compare a b) !clipped
      in
      let ms = ref 0. and count = ref 0 and last_end = ref Int64.min_int in
      List.iter
        (fun (s, e) ->
          if s > !last_end then begin
            (* a new pause episode, disjoint from the previous one *)
            incr count;
            ms := !ms +. (Int64.to_float (Int64.sub e s) /. 1e6);
            last_end := e
          end
          else if e > !last_end then begin
            ms := !ms +. (Int64.to_float (Int64.sub e !last_end) /. 1e6);
            last_end := e
          end)
        sorted;
      (!ms, !count))

let inject_pause t ~domain ~kind ~start_ns ~stop_ns =
  Mutex.protect t.lock (fun () ->
      record_pause t (ring_state t domain) ~kind ~start_ns ~stop_ns)

let absorb_into ~into t =
  Mutex.protect t.lock (fun () ->
      drain_locked t;
      Metrics.absorb ~into t.reg)

let to_json t =
  Mutex.protect t.lock (fun () ->
      drain_locked t;
      let prefix = "gc.pause_seconds.d" in
      let doms =
        List.filter_map
          (fun (name, (s : Metrics.summary)) ->
            if String.starts_with ~prefix name then
              Some
                ( String.sub name (String.length prefix - 1)
                    (String.length name - String.length prefix + 1),
                  Json.Obj
                    [
                      ("count", Json.Int s.count);
                      ("p50_ms", Json.Float (1000. *. s.p50));
                      ("p99_ms", Json.Float (1000. *. s.p99));
                      ("max_ms", Json.Float (1000. *. s.max));
                      ("total_ms", Json.Float (1000. *. s.sum));
                    ] )
            else None)
          (Metrics.summaries t.reg)
      in
      Json.Obj
        [
          ("enabled", Json.Bool true);
          ("domains_live", Json.Int (live_domains_locked t));
          ("events_lost", Json.Int t.lost);
          ("pauses_total", Json.Int t.total);
          ("gc_pause_ms", Json.Obj doms);
        ])
