(* One benchmark run of secview.

   Usage: secbench --workload read|mixed|table1 --seed N --seconds S
                   --trace 0|1

   Workloads:
   - read: served reads — 4 closed-loop clients, two groups, over a
     Unix socket to a 2-domain server; translations and plans come
     from the sessions' caches.
   - mixed: the same server and clients, all nurses, on a smaller
     document; every tenth request is a secure write (replace the
     bills the nurse's view shows).
   - table1: the paper's Table 1 cells (Q1-Q4 over D1-D4) answered in
     process on fresh sessions, so translation is never cached.

   With [--trace 0] the run reports the end-to-end metrics; with
   [--trace 1] the program's tracer is installed and the run reports
   the per-layer metrics instead (the two runs differ by the tracing
   overhead).  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   The exit code is 0 only when the run completed and printed it. *)

let end_to_end =
  [ ("mean_ms", "ms"); ("ops_per_s", "1/s"); ("setup_s", "s") ]

(* Every workload reports every layer; a layer a workload never
   enters (the server on table1, writes on read) reads 0. *)
let per_layer =
  [
    ("read_ms", "ms");
    ("write_ms", "ms");
    ("server_ms", "ms");
    ("transport_ms", "ms");
    ("denied_pct", "%");
    ("answer_ms", "ms");
    ("translate_ms", "ms");
    ("rewrite_ms", "ms");
    ("optimize_ms", "ms");
    ("plan_ms", "ms");
    ("eval_ms", "ms");
    ("admission_ms", "ms");
    ("eval_visits", "count");
    ("translate_hit_pct", "%");
    ("plan_hit_pct", "%");
    ("naive_eval_ms", "ms");
    ("setup_parse_s", "s");
    ("setup_derive_s", "s");
    ("setup_index_s", "s");
  ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "secbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "read|mixed|table1");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let outcome =
    match !workload with
    | "read" -> Served.run ~seconds ~trace (Served.read_workload ~seed)
    | "mixed" -> Served.run ~seconds ~trace (Served.mixed_workload ~seed)
    | "table1" -> Table1.run ~seed ~seconds ~trace
    | w ->
      prerr_endline ("secbench: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let wanted = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name wanted) then
        failwith ("secbench: unlisted metric " ^ name))
    outcome.Common.metrics;
  let metrics =
    List.map
      (fun (name, unit) ->
        let value =
          match List.find_opt (fun (n, _, _) -> n = name) outcome.metrics with
          | Some (_, v, _) -> v
          | None when trace -> 0.
          | None -> failwith ("secbench: missing metric " ^ name)
        in
        if not (Float.is_finite value) then
          failwith ("secbench: no value for " ^ name);
        Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name value unit)
      wanted
  in
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (outcome.failed = 0) outcome.attempted outcome.failed
    (String.concat ", " metrics);
  print_newline ()
