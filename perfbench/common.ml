(* Clock, sample buffers and the per-layer figures shared by every
   workload. *)

let now () = Int64.to_float (Sobs.Clock.monotonic ()) *. 1e-9

(* A growable buffer of latencies in milliseconds, one per client so
   the recording path takes no lock. *)
module Samples = struct
  type t = {
    mutable data : float array;
    mutable len : int;
  }

  let create () = { data = Array.make 4096 0.; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len

  let sum t =
    let s = ref 0. in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  (* One buffer per measured second, filled by completion time, so a
     run's figures can be taken second by second. *)
  let windows seconds = Array.init seconds (fun _ -> create ())

  let record ws ~warm_until t0 t1 =
    if t0 >= warm_until then
      let i = int_of_float (t1 -. warm_until) in
      if i < Array.length ws then add ws.(i) (1000. *. (t1 -. t0))

  let total ws = Array.fold_left (fun (n, s) w -> (n + w.len, s +. sum w)) (0, 0.) ws
end

(* Linear interpolation between closest ranks over a sorted array, the
   definition Python's [statistics.quantiles(method="inclusive")]
   uses. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let setup_time times =
  let a = Array.of_list times in
  Array.sort compare a;
  quantile a 0.25

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Every run sets up [setups] times and reports the lower quartile of
   the set-up times.  One set-up lasts milliseconds and falls wholly
   inside a quiet or a slowed stretch of a shared host (see
   [end_to_end]); together a run's set-ups span a second or more and
   catch its quiet stretches, as the quietest seconds do for the other
   figures.  The first [warm_s] seconds after set-up fill caches and
   are not measured. *)
let setups = 96
let warm_s = 1.0

(* The outcome of one run: every operation issued counts as attempted;
   a wrong or refused answer counts as failed. *)
type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* End-to-end figures over the operations that started after warm-up
   and finished inside the measured seconds, pooled over the run's
   quietest quarter of seconds — the seconds that completed the most
   operations.  The machines this runs on are shared: a neighbour can
   slow every process on the host by a third or more for stretches of
   tens of seconds, and a figure pooled over the whole run, or even the
   median second, moves with how much of the run such a stretch
   covered.  The quietest seconds measure what the program costs.
   Latency is a mean, not a median: on the mixed workload reads fall
   into two modes (with and without a write's cache eviction and
   collections just before them) in proportions near one half, where a
   median jumps between the modes.  There is no tail percentile: on
   such hosts the slowest operations are the ones a neighbour slowed,
   and a p99 of the same code moved by a quarter from run to run. *)
let end_to_end ~setup_s (clients : Samples.t array list) =
  let seconds = Array.length (List.hd clients) in
  let by_load =
    List.sort
      (fun a b -> compare (Array.length b) (Array.length a))
      (List.init seconds (fun i ->
           Array.concat (List.map (fun ws -> Samples.to_array ws.(i)) clients)))
  in
  let quiet = List.filteri (fun i _ -> i < max 1 (seconds / 4)) by_load in
  let pooled = Array.concat quiet in
  let n = Array.length pooled in
  [
    ("mean_ms", Array.fold_left ( +. ) 0. pooled /. float_of_int n, "ms");
    ("ops_per_s", float_of_int n /. float_of_int (List.length quiet), "1/s");
    ("setup_s", setup_s, "s");
  ]

(* ---- per-layer figures ------------------------------------------- *)

(* A metrics registry as JSON ({!Sobs.Metrics.to_json}): the server
   child ships its merged snapshot in this form, and the in-process
   workload renders its own registry the same way, so one reader
   serves both. *)
type registry = {
  series : string -> int * float;  (** count, sum *)
  counters_with : string -> int;  (** sum of counters with this prefix *)
  series_with : string -> int * float;
}

let registry_of_json j =
  let obj key =
    match Sobs.Json.member key j with
    | Some (Sobs.Json.Obj kvs) -> kvs
    | _ -> []
  in
  let series_kvs = obj "series" and counter_kvs = obj "counters" in
  let cs s =
    let num k =
      match Sobs.Json.member k s with
      | Some v -> Option.value ~default:0. (Sobs.Json.to_float_opt v)
      | None -> 0.
    in
    (int_of_float (num "count"), num "sum")
  in
  let series_with prefix =
    List.fold_left
      (fun (c, s) (k, v) ->
        if String.starts_with ~prefix k then
          let c', s' = cs v in
          (c + c', s +. s')
        else (c, s))
      (0, 0.) series_kvs
  in
  {
    series =
      (fun name ->
        match List.assoc_opt name series_kvs with
        | Some v -> cs v
        | None -> (0, 0.));
    counters_with =
      (fun prefix ->
        List.fold_left
          (fun acc (k, v) ->
            if String.starts_with ~prefix k then
              acc + Option.value ~default:0 (Sobs.Json.to_int_opt v)
            else acc)
          0 counter_kvs);
    series_with;
  }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let per n x = if n = 0 then 0. else x /. float_of_int n

(* The pipeline stages the program's own tracer times ([stage.<name>]
   series, milliseconds), per answered query, plus cache and admission
   traffic.  A stage the workload never enters reads 0. *)
let pipeline_layers reg =
  let answers, answer_ms = reg.series "stage.answer" in
  let stage name = per answers (snd (reg.series ("stage." ^ name))) in
  let hits = reg.counters_with "pipeline.cache.hit."
  and misses = reg.counters_with "pipeline.cache.miss." in
  let plan_hits = reg.counters_with "pipeline.plan.hit."
  and plan_misses = reg.counters_with "pipeline.plan.miss." in
  let evals, visited = reg.series "eval.visited" in
  [
    ("answer_ms", per answers answer_ms, "ms");
    ("translate_ms", stage "translate", "ms");
    ("rewrite_ms", stage "rewrite", "ms");
    ("optimize_ms", stage "optimize", "ms");
    ("plan_ms", stage "plan", "ms");
    ("eval_ms", stage "eval", "ms");
    ("admission_ms", stage "admission", "ms");
    ("eval_visits", per evals visited, "count");
    ("translate_hit_pct", 100. *. ratio hits (hits + misses), "%");
    ("plan_hit_pct", 100. *. ratio plan_hits (plan_hits + plan_misses), "%");
  ]

(* Set-up split into its layers: parsing the documents, building the
   service (specs to views), and building the documents' indexes. *)
type setup_times = {
  parse_s : float;
  derive_s : float;
  index_s : float;
}

let setup_layers times =
  let med f = setup_time (List.map f times) in
  [
    ("setup_parse_s", med (fun t -> t.parse_s), "s");
    ("setup_derive_s", med (fun t -> t.derive_s), "s");
    ("setup_index_s", med (fun t -> t.index_s), "s");
  ]

(* Parse the XML texts, derive the groups' views and build every
   document's index: what a server does before its first answer. *)
let build_service ~dtd ~groups docs =
  let t0 = now () in
  let trees = List.map (fun (name, xml) -> (name, Sxml.Parse.of_string xml)) docs in
  let t1 = now () in
  let catalog = Secview.Catalog.create () in
  let entries =
    List.map (fun (name, d) -> (name, Secview.Catalog.add catalog ~name d)) trees
  in
  let service = Secview.Pipeline.Service.create ~catalog dtd ~groups in
  let t2 = now () in
  List.iter (fun (_, e) -> ignore (Secview.Catalog.index e)) entries;
  let t3 = now () in
  (service, entries, { parse_s = t1 -. t0; derive_s = t2 -. t1; index_s = t3 -. t2 })
