(* Fixed-bucket histograms rather than raw observation arrays: the
   same buckets back both the human percentile dump and the
   OpenMetrics exposition (Export), so the two can never drift. *)

type hist = {
  bounds : float array;  (* ascending finite upper bounds, frozen at creation *)
  counts : int array;    (* per-bucket (not cumulative); last slot is +Inf *)
  mutable sum : float;
  mutable n : int;
  mutable minv : float;
  mutable maxv : float;
}

(* One mutex guards the three tables, so any thread or domain may
   write while another takes a [snapshot].  Each exported function
   takes it once; the [_locked] helpers below assume it is held. *)
type t = {
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  series : (string, hist) Hashtbl.t;
}

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

(* Roughly logarithmic, sized for millisecond latencies but wide
   enough for counts (eval.visited) and sub-ms stages. *)
let default_buckets =
  [|
    0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.;
    100.; 250.; 500.; 1000.; 2500.; 5000.; 10000.;
  |]

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    series = Hashtbl.create 16;
  }

let incr_locked t name by =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let incr ?(by = 1) t name =
  Mutex.protect t.lock (fun () -> incr_locked t name by)

let counter t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let set_gauge_locked t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let set_gauge t name v =
  Mutex.protect t.lock (fun () -> set_gauge_locked t name v)

let observe ?buckets t name v =
  Mutex.protect t.lock @@ fun () ->
  let h =
    match Hashtbl.find_opt t.series name with
    | Some h -> h
    | None ->
      let bounds =
        match buckets with Some b -> Array.copy b | None -> default_buckets
      in
      let h =
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          sum = 0.;
          n = 0;
          minv = infinity;
          maxv = neg_infinity;
        }
      in
      Hashtbl.replace t.series name h;
      h
  in
  let k = Array.length h.bounds in
  let rec slot i = if i >= k || v <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.n <- h.n + 1;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v

(* Nearest-rank on a sorted array: the ⌈q/100·n⌉-th smallest.  Kept
   for callers (bench) that hold raw samples. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (q /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Bucket-derived nearest-rank estimate: the upper bound of the bucket
   holding the ⌈q/100·n⌉-th observation, clamped to the exact observed
   [min, max] so single-observation and at-bound series stay sharp. *)
let hist_percentile h q =
  let rank = max 1 (int_of_float (ceil (q /. 100. *. float_of_int h.n))) in
  let k = Array.length h.bounds in
  let rec go i cum =
    if i >= k then h.maxv
    else
      let cum = cum + h.counts.(i) in
      if cum >= rank then h.bounds.(i) else go (i + 1) cum
  in
  Float.max h.minv (Float.min (go 0 0) h.maxv)

let summarize h =
  if h.n = 0 then None
  else
    Some
      {
        count = h.n;
        sum = h.sum;
        min = h.minv;
        max = h.maxv;
        mean = h.sum /. float_of_int h.n;
        p50 = hist_percentile h 50.;
        p90 = hist_percentile h 90.;
        p95 = hist_percentile h 95.;
        p99 = hist_percentile h 99.;
      }

let summary t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.series name with
      | Some h -> summarize h
      | None -> None)

let buckets t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.series name with
      | None -> []
      | Some h ->
        let cum = ref 0 in
        Array.to_list
          (Array.mapi
             (fun i le ->
               cum := !cum + h.counts.(i);
               (le, !cum))
             h.bounds))

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters t =
  Mutex.protect t.lock (fun () ->
      List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.counters))

let gauges t =
  Mutex.protect t.lock (fun () ->
      List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.gauges))

let summaries t =
  Mutex.protect t.lock (fun () ->
      List.filter_map
        (fun (k, h) -> Option.map (fun sum -> (k, sum)) (summarize h))
        (sorted_bindings t.series))

let copy_hist h = { h with counts = Array.copy h.counts }

let snapshot t =
  Mutex.protect t.lock (fun () ->
      let copy f tbl =
        let out = Hashtbl.create (Hashtbl.length tbl) in
        Hashtbl.iter (fun k v -> Hashtbl.replace out k (f v)) tbl;
        out
      in
      {
        lock = Mutex.create ();
        counters = copy (fun r -> ref !r) t.counters;
        gauges = copy (fun r -> ref !r) t.gauges;
        series = copy copy_hist t.series;
      })

(* Merge a copy of [src] into [into]: counters add, gauges take [src]'s
   value (last writer wins — gauges are instantaneous), histograms add
   per-bucket.  A series whose bucket ladder differs from the
   destination's is dropped rather than corrupted — ladders are fixed
   at creation, so this only happens when two registries configured
   the same name differently, which is a caller bug.  Copying first
   means the two locks are never held together. *)
let absorb ~into src =
  let src = snapshot src in
  Mutex.protect into.lock (fun () ->
      Hashtbl.iter (fun name r -> incr_locked into name !r) src.counters;
      Hashtbl.iter (fun name r -> set_gauge_locked into name !r) src.gauges;
      Hashtbl.iter
        (fun name h ->
          if h.n > 0 then
            match Hashtbl.find_opt into.series name with
            | None -> Hashtbl.replace into.series name h
            | Some d ->
              if d.bounds = h.bounds then begin
                Array.iteri
                  (fun i c -> d.counts.(i) <- d.counts.(i) + c)
                  h.counts;
                d.sum <- d.sum +. h.sum;
                d.n <- d.n + h.n;
                if h.minv < d.minv then d.minv <- h.minv;
                if h.maxv > d.maxv then d.maxv <- h.maxv
              end)
        src.series)

let pp ppf t =
  let cs = counters t and gs = gauges t and ss = summaries t in
  if cs <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-40s %d@." k v) cs
  end;
  if gs <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-40s %.3f@." k v) gs
  end;
  if ss <> [] then begin
    Format.fprintf ppf "series (count/min/mean/p50/p95/max):@.";
    List.iter
      (fun (k, s) ->
        Format.fprintf ppf "  %-40s %6d %10.3f %10.3f %10.3f %10.3f %10.3f@."
          k s.count s.min s.mean s.p50 s.p95 s.max)
      ss
  end

let summary_json s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Float s.sum);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
      ("mean", Json.Float s.mean);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p95", Json.Float s.p95);
      ("p99", Json.Float s.p99);
    ]

let to_json t =
  let gs = gauges t in
  Json.Obj
    ([
       ( "counters",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
       ( "series",
         Json.Obj (List.map (fun (k, s) -> (k, summary_json s)) (summaries t))
       );
     ]
    @
    if gs = [] then []
    else [ ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) gs)) ]
    )
