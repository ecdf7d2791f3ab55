type node = {
  op : string;
  arg : string option;
  counts : (string * int) list;
  children : node list;
}

let of_compiled compiled (s : Exec.Stats.t) =
  let vars = Compile.vars compiled and labels = Compile.labels compiled in
  let value = function
    | Plan.Const c -> "\"" ^ c ^ "\""
    | Plan.Slot i -> "$" ^ vars.(i)
  in
  let counts_at ~emitted id =
    List.concat
      [
        (if s.scanned.(id) > 0 then [ ("scanned", s.scanned.(id)) ] else []);
        (if s.probes.(id) > 0 then [ ("probes", s.probes.(id)) ] else []);
        (if s.joined.(id) > 0 then [ ("joined", s.joined.(id)) ] else []);
        (if emitted then [ ("emitted", s.emitted.(id)) ] else []);
      ]
  in
  (* each rendered node shows the counters at its own number *)
  let rec plan_node (p : Plan.t) =
    let mk op ?arg children =
      { op; arg; counts = counts_at ~emitted:true p.id; children }
    in
    match p.op with
    | Plan.Nothing -> mk "nothing" []
    | Plan.Self -> mk "self" []
    | Plan.Child l -> mk "child" ~arg:labels.(l) []
    | Plan.Child_any -> mk "child" ~arg:"*" []
    | Plan.Attr a -> mk "attr" ~arg:("@" ^ a) []
    | Plan.Seq (a, b) -> mk "seq" [ plan_node a; plan_node b ]
    | Plan.Desc (l, k) -> mk "desc" ~arg:labels.(l) [ plan_node k ]
    | Plan.Branch (a, b) -> mk "union" [ plan_node a; plan_node b ]
    | Plan.Filter (p', q) -> mk "filter" [ plan_node p'; pred_node q ]
  and pred_node (q : Plan.pred) =
    let mk op ?arg children =
      { op; arg; counts = counts_at ~emitted:false q.pid; children }
    in
    match q.test with
    | Plan.True -> mk "true" []
    | Plan.False -> mk "false" []
    | Plan.Exists p -> mk "exists" [ plan_node p ]
    | Plan.Eq (p, v) -> mk "eq" ~arg:(value v) [ plan_node p ]
    | Plan.And (a, b) -> mk "and" [ pred_node a; pred_node b ]
    | Plan.Or (a, b) -> mk "or" [ pred_node a; pred_node b ]
    | Plan.Not a -> mk "not" [ pred_node a ]
  in
  plan_node (Compile.plan compiled)

let label n =
  match n.arg with Some a -> n.op ^ "(" ^ a ^ ")" | None -> n.op

let rec pp_at ppf depth n =
  let counts =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) n.counts)
  in
  let indent = String.make (2 * depth) ' ' in
  if counts = "" then Format.fprintf ppf "%s%s@." indent (label n)
  else
    Format.fprintf ppf "%s%-*s %s@." indent
      (max 1 (30 - (2 * depth)))
      (label n) counts;
  List.iter (pp_at ppf (depth + 1)) n.children

let pp ppf n = pp_at ppf 0 n
