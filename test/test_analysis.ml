(* The semantic analyzer, tested differentially: every proof it emits
   — a cross-group containment claim (SV401/SV402) or a [Denied_empty]
   admission verdict — is cross-checked against instance-level
   evaluation on sample and seeded random documents.  A single refuted
   claim is a soundness bug; the expected count is 0. *)

module A = Sxpath.Ast
module D = Sanalysis.Diagnostic
module Semantic = Sanalysis.Semantic
module Spec = Secview.Spec
module View = Secview.View
module C = Secview.Containment
module Pipeline = Secview.Pipeline
module R = Sdtd.Regex

let parse = Sxpath.Parse.of_string
let qual = Sxpath.Parse.qual_of_string
let dtd = Workload.Hospital.dtd

(* Variable-free policy variants over the hospital DTD, so the
   differential oracle can evaluate every derived σ-path without an
   environment.  [nurse_a]/[nurse_b] are the same policy written in
   different annotation orders; [junior] is [nurse_a] minus the
   medication grant; [chief] is the identity policy. *)
let trial_depts = qual "*/patient/treatment/trial"

let nurse_annots =
  [
    (("hospital", "dept"), Spec.Cond trial_depts);
    (("dept", "clinicalTrial"), Spec.No);
    (("clinicalTrial", "patientInfo"), Spec.Yes);
    (("treatment", "trial"), Spec.No);
    (("treatment", "regular"), Spec.No);
    (("trial", "bill"), Spec.Yes);
    (("regular", "bill"), Spec.Yes);
    (("regular", "medication"), Spec.Yes);
  ]

let nurse_a = Spec.make dtd nurse_annots
let nurse_b = Spec.make dtd (List.rev nurse_annots)

let junior =
  Spec.make dtd
    (List.map
       (function
         | ("regular", "medication"), _ -> (("regular", "medication"), Spec.No)
         | edge -> edge)
       nurse_annots)

let chief = Spec.make dtd []

let fleet_views specs =
  List.map (fun (name, spec) -> (name, Secview.Derive.derive spec)) specs

let all_specs =
  [ ("nurse-a", nurse_a); ("nurse-b", nurse_b); ("junior", junior);
    ("chief", chief) ]

let codes ds = List.map (fun d -> d.D.code) ds

(* --- fleet verdicts ------------------------------------------------- *)

let relation_between specs l r =
  let views = fleet_views specs in
  let cmp =
    Semantic.compare_views dtd (l, List.assoc l views) (r, List.assoc r views)
  in
  cmp.Semantic.cmp_relation

let test_fleet_verdicts () =
  Alcotest.(check string) "reordered annotations are equivalent" "equivalent"
    (Semantic.relation_label
       (relation_between all_specs "nurse-a" "nurse-b"));
  Alcotest.(check string) "junior is subsumed by nurse" "subsumed"
    (Semantic.relation_label (relation_between all_specs "junior" "nurse-a"));
  Alcotest.(check string) "nurse subsumes junior" "subsumes"
    (Semantic.relation_label (relation_between all_specs "nurse-a" "junior"))

let test_fleet_diagnostics () =
  let cmps = Semantic.fleet dtd (fleet_views all_specs) in
  Alcotest.(check int) "all unordered pairs" 6 (List.length cmps);
  let ds = Semantic.fleet_diagnostics cmps in
  Alcotest.(check bool) "SV401 for the reordered twin" true
    (List.mem "SV401" (codes ds));
  Alcotest.(check bool) "SV402 for the role-hierarchy edge" true
    (List.mem "SV402" (codes ds));
  Alcotest.(check bool) "no SV4xx errors, only warnings/info" false
    (D.has_errors ds)

let test_recursive_view_unknown () =
  let view = Workload.Xmark.view () in
  Alcotest.(check bool) "recursive view DTD has no finite region" true
    (Semantic.region_paths view = None);
  match
    (Semantic.compare_views Workload.Xmark.dtd ("a", view) ("b", view))
      .Semantic.cmp_relation
  with
  | Semantic.Unknown _ -> ()
  | other ->
    Alcotest.failf "expected Unknown, got %s" (Semantic.relation_label other)

(* --- differential check: every containment claim, refuted? ---------- *)

let test_claims_unrefuted () =
  let cmps = Semantic.fleet dtd (fleet_views all_specs) in
  let claims = List.concat_map (fun c -> c.Semantic.cmp_claims) cmps in
  Alcotest.(check bool) "verdicts rest on claims" true
    (List.length claims > 0);
  let refuted =
    List.filter
      (fun cl ->
        C.refute ~samples:12 dtd cl.Semantic.claim_lhs cl.Semantic.claim_rhs
          ~at:cl.Semantic.claim_at
        <> None)
      claims
  in
  Alcotest.(check int)
    (Printf.sprintf "0 of %d claims refuted" (List.length claims))
    0 (List.length refuted)

(* --- differential check: Denied_empty means empty everywhere -------- *)

(* View queries against the nurse view DTD.  The analyzer must deny
   the first group and pass the second; every denied query is then
   evaluated through the full pipeline on sample + random documents
   and must return the empty node set — the reply the server's
   admission fast path sends without evaluating. *)
let denied_queries =
  [
    "//clinicalTrial";         (* hidden element type *)
    "//test";                  (* hidden descendant *)
    "//trial";                 (* hidden choice branch *)
    "//medication/name";       (* dead step under the view DTD *)
    "//patient[specialty]";    (* qualifier no patient can satisfy *)
    "//nonexistent";           (* not an element type at all *)
  ]

let eval_queries = [ "//patient/name"; "//bill"; "//staff//wardNo" ]

let test_admission_verdicts () =
  let view = Secview.Derive.derive (Workload.Hospital.nurse_spec dtd) in
  let vdtd = View.dtd view in
  List.iter
    (fun q ->
      match Semantic.admission vdtd (parse q) with
      | Pipeline.Denied_empty _ -> ()
      | _ -> Alcotest.failf "%s: expected Denied_empty" q)
    denied_queries;
  List.iter
    (fun q ->
      match Semantic.admission vdtd (parse q) with
      | Pipeline.Needs_eval -> ()
      | _ -> Alcotest.failf "%s: expected Needs_eval" q)
    eval_queries;
  (* ε is answerable from the schema alone *)
  Alcotest.(check bool) "ε is trivial" true
    (Semantic.admission vdtd A.Eps = Pipeline.Trivial)

let test_denied_is_empty_on_instances () =
  let t =
    Pipeline.Session.create
      (Pipeline.Service.create dtd
         ~groups:[ ("nurse", Workload.Hospital.nurse_spec dtd) ])
  in
  let env = Workload.Hospital.nurse_env "w1" in
  let docs =
    Workload.Hospital.sample_document ()
    :: List.map
         (fun seed -> Workload.Hospital.generated_document ~seed ())
         [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun q ->
      let p = parse q in
      (match Pipeline.Session.classify t ~group:"nurse" p with
      | Ok (Pipeline.Denied_empty _) -> ()
      | _ -> Alcotest.failf "%s: pipeline must classify Denied_empty" q);
      List.iteri
        (fun i doc ->
          match Pipeline.Session.answer t ~group:"nurse" ~env p doc with
          | Ok [] -> ()
          | Ok nodes ->
            Alcotest.failf "%s: %d nodes on document %d — verdict refuted" q
              (List.length nodes) i
          | Error e -> Alcotest.failf "%s: %s" q (Secview.Error.to_string e))
        docs)
    denied_queries

(* --- classify cache and counters ------------------------------------ *)

let test_admission_counters () =
  let t =
    Pipeline.Session.create
      (Pipeline.Service.create dtd
         ~groups:[ ("nurse", Workload.Hospital.nurse_spec dtd) ])
  in
  let classify q =
    match Pipeline.Session.classify t ~group:"nurse" (parse q) with
    | Ok a -> a
    | Error e -> Alcotest.failf "classify: %s" (Secview.Error.to_string e)
  in
  ignore (classify "//test");
  ignore (classify "//test");
  (* cached verdict, counted again *)
  ignore (classify "//patient/name");
  let s : Pipeline.stats = Pipeline.Session.stats_of t ~group:"nurse" in
  Alcotest.(check int) "denied counted per call" 2 s.denied;
  Alcotest.(check int) "eval counted" 1 s.eval;
  Alcotest.(check int) "nothing trivial yet" 0 s.trivial;
  match Pipeline.Session.classify t ~group:"ghost" (parse "//name") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown group must be an error"

(* --- leakage (SV410) ------------------------------------------------- *)

let test_leakage_dead_element () =
  (* Expose clinicalTrial only where test has a bill child — but test
     is #PCDATA, so the qualifier is unsatisfiable: the view DTD
     advertises a clinicalTrial subtree no instance ever populates. *)
  let spec =
    Spec.make dtd
      [ (("dept", "clinicalTrial"), Spec.Cond (qual "test/bill")) ]
  in
  let view = Secview.Derive.derive spec in
  let ds = Semantic.check_leakage ~dtd view in
  let dead =
    List.filter_map
      (fun d ->
        match d.D.subject with
        | D.Element e when d.D.code = "SV410" -> Some e
        | _ -> None)
      ds
  in
  Alcotest.(check (list string)) "topmost dead type only"
    [ "clinicalTrial" ] dead

let test_leakage_clean_policies () =
  List.iter
    (fun (name, spec) ->
      let view = Secview.Derive.derive spec in
      Alcotest.(check (list string)) (name ^ " leaks nothing") []
        (codes (Semantic.check_leakage ~dtd view)))
    all_specs

let test_leakage_ghost_attribute () =
  (* A view DTD that advertises an attribute its source type does not
     carry: every instance of the document DTD must omit it. *)
  let base = Sdtd.Dtd.create ~root:"r" [ ("r", R.Star (R.Elt "a")); ("a", R.Str) ] in
  let vdtd = Sdtd.Dtd.with_attributes base "a" [ "ghost" ] in
  let view =
    View.make ~dtd:vdtd ~sigma:[ (("r", "a"), A.Label "a") ] ()
  in
  let ds = Semantic.check_leakage ~dtd:base view in
  Alcotest.(check (list string)) "ghost attribute flagged" [ "SV410" ]
    (codes ds);
  (* and admission denies the attribute-only query over that view *)
  match Semantic.admission vdtd (parse "//a/@ghost") with
  | Pipeline.Denied_empty w ->
    Alcotest.(check bool) "witness mentions attribute values" true
      (String.length w > 0)
  | _ -> Alcotest.fail "attribute-only query must be denied"

let () =
  Alcotest.run "analysis"
    [
      ( "fleet",
        [
          Alcotest.test_case "relations" `Quick test_fleet_verdicts;
          Alcotest.test_case "diagnostics" `Quick test_fleet_diagnostics;
          Alcotest.test_case "recursive → unknown" `Quick
            test_recursive_view_unknown;
        ] );
      ( "differential",
        [
          Alcotest.test_case "claims unrefuted" `Slow test_claims_unrefuted;
          Alcotest.test_case "denied ⇒ empty on instances" `Quick
            test_denied_is_empty_on_instances;
        ] );
      ( "admission",
        [
          Alcotest.test_case "verdicts" `Quick test_admission_verdicts;
          Alcotest.test_case "counters & cache" `Quick test_admission_counters;
        ] );
      ( "leakage",
        [
          Alcotest.test_case "dead element (topmost)" `Quick
            test_leakage_dead_element;
          Alcotest.test_case "clean policies" `Quick
            test_leakage_clean_policies;
          Alcotest.test_case "ghost attribute" `Quick
            test_leakage_ghost_attribute;
        ] );
    ]
