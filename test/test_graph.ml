(* DTD graph utilities: edge extraction, DOT rendering. *)

module G = Sdtd.Graph
module R = Sdtd.Regex

let e l = R.Elt l

let test_edges_hospital () =
  let edges = G.edges Workload.Hospital.dtd in
  let find p c = List.find (fun x -> x.G.parent = p && x.G.child = c) edges in
  Alcotest.(check bool) "hospital->dept is starred" true
    (find "hospital" "dept").G.starred;
  Alcotest.(check bool) "dept->patientInfo is a plain child" true
    ((find "dept" "patientInfo").G.kind = G.Child);
  Alcotest.(check bool) "treatment->trial is a choice branch" true
    ((find "treatment" "trial").G.kind = G.Choice_branch);
  Alcotest.(check bool) "staff->doctor is a choice branch" true
    ((find "staff" "doctor").G.kind = G.Choice_branch);
  (* count: one edge per occurrence context *)
  Alcotest.(check bool) "all parents reachable" true
    (List.for_all
       (fun x -> Sdtd.Dtd.mem Workload.Hospital.dtd x.G.parent)
       edges)

let test_edges_dedup () =
  let dtd =
    Sdtd.Dtd.create ~root:"r" [ ("r", R.Seq [ e "a"; e "a" ]); ("a", R.Str) ]
  in
  Alcotest.(check int) "duplicate occurrences merge" 1
    (List.length (G.edges dtd))

let test_dot_output () =
  let dot = G.to_dot Workload.Hospital.dtd in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "digraph wrapper" true (contains dot "digraph dtd {");
  Alcotest.(check bool) "star label" true (contains dot "label=\"*\"");
  Alcotest.(check bool) "dashed choice edges" true
    (contains dot "style=\"dashed\"");
  Alcotest.(check bool) "edge present" true
    (contains dot "\"hospital\" -> \"dept\"")

let test_dot_highlight () =
  let spec = Workload.Hospital.nurse_spec Workload.Hospital.dtd in
  let annotation ~parent ~child =
    match Secview.Spec.annotation spec ~parent ~child with
    | Some Secview.Spec.Yes -> Some `Yes
    | Some (Secview.Spec.Cond _) -> Some `Cond
    | Some Secview.Spec.No -> Some `No
    | None -> None
  in
  let dot =
    G.to_dot ~highlight:(G.spec_style ~annotation) Workload.Hospital.dtd
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  (* the conditional hospital->dept edge is bold; denied edges dotted *)
  Alcotest.(check bool) "bold conditional edge" true
    (contains dot "\"hospital\" -> \"dept\" [style=\"bold\", label=\"*\"]");
  Alcotest.(check bool) "denied edge dotted" true
    (contains dot "\"dept\" -> \"clinicalTrial\" [style=\"dotted\"]")

let () =
  Alcotest.run "graph"
    [
      ( "edges",
        [
          Alcotest.test_case "hospital edges" `Quick test_edges_hospital;
          Alcotest.test_case "dedup" `Quick test_edges_dedup;
        ] );
      ( "dot",
        [
          Alcotest.test_case "plain" `Quick test_dot_output;
          Alcotest.test_case "policy highlight" `Quick test_dot_highlight;
        ] );
    ]
