(* The update subsystem: language round-trips, grant semantics
   (default deny, per-op grants), reject-on-inaccessible-target
   atomicity, exact cache invalidation, and snapshot isolation under
   a concurrent writer. *)

module Pipeline = Secview.Pipeline
module Catalog = Secview.Catalog
module Spec = Secview.Spec
module Engine = Supdate.Engine
module Parse = Supdate.Parse

let parse = Sxpath.Parse.of_string

let eval p doc =
  Sxpath.Eval.run (Sxpath.Eval.Ctx.make ~root:doc ()) p

let dtd = Workload.Hospital.dtd

(* A group that sees the whole document (no annotations: everything
   inherits the root's Y), with the given write grants. *)
let open_spec grants = Spec.make ~write:grants dtd []

(* The nurse policy of [Workload.Hospital], plus write grants — the
   workload's own [nurse_spec] is read-only by design. *)
let nurse_spec grants =
  Spec.make ~write:grants dtd
    [
      ( ("hospital", "dept"),
        Spec.Cond (Sxpath.Parse.qual_of_string "*/patient/wardNo = $wardNo") );
      (("dept", "clinicalTrial"), Spec.No);
      (("clinicalTrial", "patientInfo"), Spec.Yes);
      (("treatment", "trial"), Spec.No);
      (("treatment", "regular"), Spec.No);
      (("trial", "bill"), Spec.Yes);
      (("regular", "bill"), Spec.Yes);
      (("regular", "medication"), Spec.Yes);
    ]

let setup spec =
  let catalog = Catalog.create () in
  let entry =
    Catalog.add catalog ~name:"doc" (Workload.Hospital.sample_document ())
  in
  let svc = Pipeline.Service.create ~catalog dtd ~groups:[ ("g", spec) ] in
  (svc, entry)

(* Everything a rejected update must leave bit-for-bit unchanged. *)
let fingerprint svc sess entry =
  let s : Pipeline.stats = Pipeline.Session.stats_of sess ~group:"g" in
  ( Catalog.version entry,
    Pipeline.Service.generation svc,
    Sxml.Print.to_string (Catalog.doc entry),
    (s.hits, s.misses, s.plan_hits, s.plan_misses) )

let check_rejected ?env ~code svc entry text =
  let sess = Pipeline.Session.create svc in
  let before = fingerprint svc sess entry in
  let pinned = Catalog.pin entry in
  (match Engine.apply_text svc ~group:"g" ?env ~entry text with
  | Ok _ -> Alcotest.failf "update %S was admitted" text
  | Error e ->
      Alcotest.(check string) "error code" code (Secview.Error.to_code e));
  let after = fingerprint svc sess entry in
  Alcotest.(check bool) "reject leaves everything untouched" true
    (before = after);
  let pinned' = Catalog.pin entry in
  Alcotest.(check int) "current snapshot version unchanged"
    (Catalog.snapshot_version pinned)
    (Catalog.snapshot_version pinned');
  Alcotest.(check bool) "current snapshot tree physically unchanged" true
    (Catalog.snapshot_doc pinned == Catalog.snapshot_doc pinned')

let count_patients doc = List.length (eval (parse "//patient") doc)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- language ------------------------------------------------------ *)

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      let u = Parse.of_string s in
      let printed = Parse.to_string u in
      Alcotest.(check string)
        (Printf.sprintf "round-trip of %S" s)
        printed
        (Parse.to_string (Parse.of_string printed)))
    [
      "insert into //patientInfo <patient><name>Zed</name></patient>";
      "insert before //patient[name = \"Bob\"] <patient><name>A</name></patient>";
      "insert after //dept/patientInfo/patient <note>x</note>";
      "delete //patient[name = \"Bob\"]";
      "replace //patient[name = \"Carol\"]/treatment with <treatment><trial><bill>1</bill></trial></treatment>";
    ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match Parse.of_string_result s with
      | Ok _ -> Alcotest.failf "parsed malformed update %S" s
      | Error _ -> ())
    [
      "";
      "delete";
      "insert //x <a/>";
      "insert sideways //x <a/>";
      "insert into //x";
      "insert into //x not-xml";
      "replace //x <a/>";
      "replace //x with";
      "frobnicate //x";
    ]

(* --- grants -------------------------------------------------------- *)

let test_default_deny () =
  (* A spec without grants is read-only: every operation is denied,
     even for a group that can see the whole document. *)
  let svc, entry = setup (open_spec []) in
  List.iter
    (fun text -> check_rejected ~code:"update_denied" svc entry text)
    [
      "delete //patient[name = \"Bob\"]";
      "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment></patient>";
      "replace //patient[name = \"Bob\"]/treatment/regular/medication with <medication>zzz</medication>";
    ]

let test_grants_are_per_op () =
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  (* delete is granted on the edge, insert and replace are not *)
  check_rejected ~code:"update_denied" svc entry
    "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment></patient>";
  check_rejected ~code:"update_denied" svc entry
    "replace //patient[name = \"Bob\"] with <patient><name>Rob</name><wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment></patient>";
  match
    Engine.apply_text svc ~group:"g" ~entry "delete //patient[name = \"Bob\"]"
  with
  | Error e -> Alcotest.failf "granted delete rejected: %s" (Secview.Error.to_code e)
  | Ok r ->
      Alcotest.(check int) "one target" 1 r.Engine.r_targets;
      Alcotest.(check string) "op" "delete" r.Engine.r_op

let test_ungranted_edge_denied () =
  (* The grant names one edge; a target attached elsewhere stays
     unwritable. *)
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ])
  in
  check_rejected ~code:"update_denied" svc entry "delete //staff[nurse/name = \"Nina\"]"

(* --- accepted updates --------------------------------------------- *)

let test_accepted_delete () =
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  let pinned = Catalog.pin entry in
  let v0 = Catalog.version entry in
  let g0 = Pipeline.Service.generation svc in
  match
    Engine.apply_text svc ~group:"g" ~entry "delete //patient[name = \"Bob\"]"
  with
  | Error e -> Alcotest.failf "delete rejected: %s" (Secview.Error.to_code e)
  | Ok r ->
      Alcotest.(check int) "old version" v0 r.Engine.r_old_version;
      Alcotest.(check bool) "version bumped" true (r.Engine.r_new_version > v0);
      Alcotest.(check int) "catalog holds the new version"
        r.Engine.r_new_version (Catalog.version entry);
      Alcotest.(check int) "generation bumped once" (g0 + 1)
        (Pipeline.Service.generation svc);
      Alcotest.(check int) "one patient fewer" 4
        (count_patients (Catalog.doc entry));
      (* the pinned reader still sees Bob: snapshots are immutable *)
      Alcotest.(check int) "pinned snapshot untouched" 5
        (count_patients (Catalog.snapshot_doc pinned));
      Alcotest.(check bool) "Bob gone from the view" true
        (eval (parse "//patient[name = \"Bob\"]") (Catalog.doc entry) = [])

let test_accepted_insert_and_replace () =
  let svc, entry =
    setup
      (open_spec [ (("patientInfo", "patient"), [ Spec.Insert; Spec.Replace ]) ])
  in
  (match
     Engine.apply_text svc ~group:"g" ~entry
       "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><regular><bill>7</bill><medication>ibu</medication></regular></treatment></patient>"
   with
  | Error e -> Alcotest.failf "insert rejected: %s" (Secview.Error.to_code e)
  | Ok r ->
      Alcotest.(check string) "op" "insert" r.Engine.r_op;
      Alcotest.(check int) "six patients" 6 (count_patients (Catalog.doc entry)));
  match
    Engine.apply_text svc ~group:"g" ~entry
      "replace //patient[name = \"Zed\"] with <patient><name>Zed</name><wardNo>6</wardNo><treatment><regular><bill>7</bill><medication>asa</medication></regular></treatment></patient>"
  with
  | Error e -> Alcotest.failf "replace rejected: %s" (Secview.Error.to_code e)
  | Ok _ ->
      Alcotest.(check bool) "replacement visible" true
        (eval (parse "//patient[name = \"Zed\"]//medication[. = \"asa\"]")
           (Catalog.doc entry)
        <> [])

let test_replace_medication_needs_regular_grant () =
  (* the medication edge is (regular, medication), not the patient
     edge the other tests grant *)
  let svc, entry =
    setup (open_spec [ (("regular", "medication"), [ Spec.Replace ]) ])
  in
  match
    Engine.apply_text svc ~group:"g" ~entry
      "replace //patient[name = \"Carol\"]/treatment/regular/medication with <medication>new</medication>"
  with
  | Error e -> Alcotest.failf "rejected: %s" (Secview.Error.to_code e)
  | Ok r -> Alcotest.(check int) "one target" 1 r.Engine.r_targets

(* --- DTD conformance and target validity --------------------------- *)

let test_dtd_violation_rejected () =
  let svc, entry =
    setup (open_spec [ (("patient", "name"), Spec.all_write_ops) ])
  in
  (* a second <name> breaks patient -> (name, wardNo, treatment) *)
  check_rejected ~code:"invalid_update" svc entry
    "insert into //patient[name = \"Bob\"] <name>Robert</name>";
  (* deleting a mandatory child breaks the production too *)
  check_rejected ~code:"invalid_update" svc entry
    "delete //patient[name = \"Bob\"]/name"

let test_empty_target_rejected () =
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ])
  in
  check_rejected ~code:"invalid_update" svc entry
    "delete //patient[name = \"Nobody\"]"

(* --- policy semantics over a restricted view ----------------------- *)

let env = Workload.Hospital.nurse_env "6"

let test_nurse_subtree_with_hidden_nodes () =
  (* Every ward-6 patient subtree contains a hidden <trial>/<regular>
     element; deleting one would destroy data the nurse cannot see. *)
  let svc, entry =
    setup (nurse_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  check_rejected ~env ~code:"update_denied" svc entry
    "delete //patient[name = \"Bob\"]"

let test_nurse_cannot_write_unreadable_content () =
  (* An inserted patient's treatment is hidden from the nurse in the
     resulting document — the group may not write what it could not
     read back. *)
  let svc, entry =
    setup (nurse_spec [ (("patientInfo", "patient"), [ Spec.Insert ]) ])
  in
  check_rejected ~env ~code:"update_denied" svc entry
    "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><regular><bill>7</bill><medication>ibu</medication></regular></treatment></patient>"

let test_nurse_can_update_visible_leaf () =
  (* bill is visible and its edge granted: the write goes through. *)
  let svc, entry =
    setup (nurse_spec [ (("regular", "bill"), [ Spec.Replace ]) ])
  in
  match
    Engine.apply_text svc ~group:"g" ~env ~entry
      "replace //patient[name = \"Carol\"]//bill with <bill>85</bill>"
  with
  | Error e -> Alcotest.failf "rejected: %s" (Secview.Error.to_code e)
  | Ok _ ->
      Alcotest.(check bool) "new bill visible" true
        (eval (parse "//patient[name = \"Carol\"]//bill[. = \"85\"]")
           (Catalog.doc entry)
        <> [])

(* Only the ward qualifier, everything else inherited: every node of a
   qualifying dept is visible, so admission comes down to whether the
   edit preserves the accessibility of what it does not touch. *)
let ward_cond_spec grants =
  Spec.make ~write:grants dtd
    [
      ( ("hospital", "dept"),
        Spec.Cond (Sxpath.Parse.qual_of_string "*/patient/wardNo = $wardNo") );
    ]

let test_qualifier_flip_denied () =
  let svc, entry =
    setup (ward_cond_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  (* deleting one of two qualifying patients flips no qualifier: the
     dept still qualifies through Carol, so the write is admitted *)
  (match
     Engine.apply_text svc ~group:"g" ~env ~entry
       "delete //patient[name = \"Bob\"]"
   with
  | Error e ->
    Alcotest.failf "qualifier-preserving delete rejected: %s"
      (Secview.Error.to_code e)
  | Ok _ -> ());
  (* deleting every remaining ward-6 patient falsifies the dept
     qualifier: staff and trial data the update never touched would
     flip invisible — WITH CHECK OPTION denies the edit atomically *)
  check_rejected ~env ~code:"update_denied" svc entry
    "delete //patient[wardNo = \"6\"]"

let test_denial_text_is_sanitized () =
  (* client-facing denial text must not name node ids (dense preorder
     positions map out hidden subtrees); the id-bearing reason goes to
     the audit callback only *)
  let svc, entry =
    setup (nurse_spec [ (("patientInfo", "patient"), [ Spec.Delete ]) ])
  in
  let detail = ref None in
  match
    Engine.apply_text svc ~group:"g" ~env
      ~audit:(fun d -> detail := Some d)
      ~entry "delete //patient[name = \"Bob\"]"
  with
  | Ok _ -> Alcotest.fail "hidden-subtree delete admitted"
  | Error e ->
    let has_digit s = String.exists (fun c -> c >= '0' && c <= '9') s in
    Alcotest.(check bool) "no node id in the client text" false
      (has_digit (Secview.Error.to_string e));
    (match !detail with
    | None -> Alcotest.fail "denial produced no audit detail"
    | Some d ->
      Alcotest.(check bool) "audit detail names the node id" true
        (has_digit d));
  (* a DTD violation is reported by element type and content model
     only: the offending node's id counts the hidden nodes before it *)
  let svc, entry =
    setup (open_spec [ (("patient", "name"), Spec.all_write_ops) ])
  in
  let detail = ref None in
  match
    Engine.apply_text svc ~group:"g"
      ~audit:(fun d -> detail := Some d)
      ~entry "insert into //patient[name = \"Bob\"] <name>Robert</name>"
  with
  | Ok _ -> Alcotest.fail "non-conforming insert admitted"
  | Error e ->
    let text = Secview.Error.to_string e in
    Alcotest.(check bool) "no node id in the client text" false
      (has_digit text);
    Alcotest.(check bool) "client text names the content model" true
      (contains text "<patient>" && contains text "(name, wardNo, treatment)");
    (match !detail with
    | None -> Alcotest.fail "DTD denial produced no audit detail"
    | Some d ->
      Alcotest.(check bool) "audit detail names the node id" true
        (has_digit d));
  (* a document that already breaks the DTD inside a hidden subtree:
     an otherwise admissible write is refused, and the reply must not
     name the hidden element or attribute *)
  let break_trial f =
    let rec go = function
      | Sxml.Tree.E ("clinicalTrial", a, cs) -> f a cs
      | Sxml.Tree.E (tag, a, cs) -> Sxml.Tree.E (tag, a, List.map go cs)
      | t -> t
    in
    go (Sxml.Tree.to_spec (Workload.Hospital.sample_document ()))
  in
  List.iter
    (fun (hidden, broken) ->
      let spec = nurse_spec [ (("regular", "bill"), [ Spec.Replace ]) ] in
      let catalog = Catalog.create () in
      let entry =
        Catalog.add catalog ~name:"doc" (Sxml.Tree.of_spec broken)
      in
      let svc =
        Pipeline.Service.create ~catalog dtd ~groups:[ ("g", spec) ]
      in
      let detail = ref None in
      match
        Engine.apply_text svc ~group:"g" ~env
          ~audit:(fun d -> detail := Some d)
          ~entry
          "replace //patient[name = \"Carol\"]//bill with <bill>85</bill>"
      with
      | Ok _ -> Alcotest.fail "write into a non-conforming document admitted"
      | Error e ->
        let text = Secview.Error.to_string e in
        Alcotest.(check string) "refused for the DTD" "invalid_update"
          (Secview.Error.to_code e);
        Alcotest.(check bool) "no node id in the client text" false
          (has_digit text);
        List.iter
          (fun name ->
            Alcotest.(check bool)
              (Printf.sprintf "client text does not name %S" name)
              false (contains text name))
          [ hidden; "clinicalTrial" ];
        (match !detail with
        | None -> Alcotest.fail "DTD denial produced no audit detail"
        | Some d ->
          Alcotest.(check bool) "audit detail names the hidden node" true
            (has_digit d && contains d hidden)))
    [
      ( "audit",
        break_trial (fun a cs ->
            Sxml.Tree.E ("clinicalTrial", ("audit", "1") :: a, cs)) );
      ( "note",
        break_trial (fun a cs ->
            Sxml.Tree.E ("clinicalTrial", a, cs @ [ Sxml.Tree.elem "note" [] ]))
      );
    ]

let test_receipt_digest_is_view_scoped () =
  (* the receipt digest is of the group's view of the result — a raw
     document digest would be an equality oracle on hidden regions *)
  let svc, entry =
    setup (nurse_spec [ (("regular", "bill"), [ Spec.Replace ]) ])
  in
  match
    Engine.apply_text svc ~group:"g" ~env ~entry
      "replace //patient[name = \"Carol\"]//bill with <bill>85</bill>"
  with
  | Error e -> Alcotest.failf "rejected: %s" (Secview.Error.to_code e)
  | Ok rc ->
    let full =
      Digest.to_hex (Digest.string (Sxml.Print.to_string rc.Engine.r_doc))
    in
    Alcotest.(check int) "md5 hex" 32 (String.length rc.Engine.r_view_digest);
    Alcotest.(check bool) "not the raw document's digest" true
      (rc.Engine.r_view_digest <> full)

let test_text_content_typed_error () =
  (* a library caller handing Check bare-text content gets a typed
     Invalid_update, not an assertion failure *)
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ])
  in
  let sess = Pipeline.Session.create svc in
  List.iter
    (fun u ->
      let before = fingerprint svc sess entry in
      (match Engine.apply svc ~group:"g" ~entry u with
      | Ok _ -> Alcotest.fail "bare-text content admitted"
      | Error e ->
        Alcotest.(check string) "typed error" "invalid_update"
          (Secview.Error.to_code e));
      Alcotest.(check bool) "reject leaves everything untouched" true
        (before = fingerprint svc sess entry))
    [
      Supdate.Ast.Insert
        {
          pos = Supdate.Ast.Into;
          target = parse "//patientInfo";
          content = Sxml.Tree.T "boom";
        };
      Supdate.Ast.Replace
        {
          target = parse "//patient[name = \"Bob\"]";
          content = Sxml.Tree.T "boom";
        };
    ]

let test_unbound_policy_variable () =
  (* the policy's qualifier needs $wardNo but the target path never
     reaches it: the write still answers the typed error, before any
     qualifier is evaluated *)
  let spec =
    Spec.make ~write:[ (("staffInfo", "staff"), Spec.all_write_ops) ] dtd
      [
        ( ("patientInfo", "patient"),
          Spec.Cond (Sxpath.Parse.qual_of_string "wardNo = $wardNo") );
      ]
  in
  let svc, entry = setup spec in
  check_rejected ~code:"query_error" svc entry
    "delete //staff[nurse/name = \"Noor\"]";
  match
    Engine.apply_text svc ~group:"g" ~entry
      "delete //staff[nurse/name = \"Noor\"]"
  with
  | Error (Secview.Error.Unbound_variable "wardNo") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Secview.Error.to_string e)
  | Ok _ -> Alcotest.fail "admitted with an unbound policy variable"

let test_unbound_target_variable () =
  (* Targets come from the plan engine, except where the target names a
     variable [env] leaves unbound: there the interpreter decides, so
     verdict and text stay the whole-document oracle's.  In the first
     update the interpreter evaluates both branches of the union and
     meets [$who], where a short-circuited plan probe would stop at
     [name]; in the second no node reaches the qualifier naming it; the
     third binds it. *)
  let spec =
    nurse_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ]
  in
  let svc, entry = setup spec in
  let view = Pipeline.Service.view svc ~group:"g" in
  let outcome = function
    | Ok _ -> "admitted"
    | Error e -> Secview.Error.to_code e ^ ": " ^ Secview.Error.to_string e
  in
  List.iter
    (fun (text, bindings, expected) ->
      let env name = List.assoc_opt name (("wardNo", "6") :: bindings) in
      let u = Parse.of_string text in
      let want =
        Update_oracle.run ~dtd ~spec ~view ~env (Catalog.doc entry) u
      in
      let got = Engine.apply svc ~group:"g" ~env ~entry u in
      Alcotest.(check string) text (outcome want) (outcome got);
      Alcotest.(check string) (text ^ " (code)") expected
        (match got with
        | Ok _ -> "admitted"
        | Error e -> Secview.Error.to_code e))
    [
      ("delete //patient[(name | treatment[*/bill = $who])]", [], "query_error");
      ( "delete //patient[name = \"Nobody\"][treatment[*/bill = $who]]", [],
        "invalid_update" );
      ( "delete //patient[(name | treatment[*/bill = $who])]",
        [ ("who", "1") ], "update_denied" );
    ]

let test_nurse_other_ward_out_of_view () =
  (* Dave is in ward 7: his subtree is simply not in the ward-6 view,
     so the target set is empty — invalid, not silently zero. *)
  let svc, entry =
    setup (nurse_spec [ (("patientInfo", "patient"), Spec.all_write_ops) ])
  in
  check_rejected ~env ~code:"invalid_update" svc entry
    "delete //patient[name = \"Dave\"]"

(* --- cache invalidation ------------------------------------------- *)

let test_invalidation_is_per_document () =
  let catalog = Catalog.create () in
  let a = Catalog.add catalog ~name:"a" (Workload.Hospital.sample_document ()) in
  let b = Catalog.add catalog ~name:"b" (Workload.Hospital.sample_document ()) in
  let svc =
    Pipeline.Service.create ~catalog dtd
      ~groups:
        [ ("g", open_spec [ (("patientInfo", "patient"), [ Spec.Insert ]) ]) ]
  in
  let pipe = Pipeline.Session.create svc in
  let qa = parse "//patient/name" and qb = parse "//staff" in
  let run q e =
    ignore (Pipeline.Session.answer_exn pipe ~group:"g" q (Catalog.doc e))
  in
  run qa a;
  run qa a;
  run qb b;
  run qb b;
  let s0 : Pipeline.stats = Pipeline.Session.stats_of pipe ~group:"g" in
  Alcotest.(check (pair int int)) "warm: one miss then one hit per doc" (2, 2)
    (s0.hits, s0.misses);
  (match
     Engine.apply_text svc ~group:"g" ~entry:a
       "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>Zed</name><wardNo>6</wardNo><treatment><trial><bill>1</bill></trial></treatment></patient>"
   with
  | Error e -> Alcotest.failf "insert rejected: %s" (Secview.Error.to_code e)
  | Ok _ -> ());
  run qb b;
  let s1 : Pipeline.stats = Pipeline.Session.stats_of pipe ~group:"g" in
  Alcotest.(check int) "b's entry survived a's write" (s0.hits + 1)
    s1.hits;
  run qa a;
  let s2 : Pipeline.stats = Pipeline.Session.stats_of pipe ~group:"g" in
  (* translations depend on the query and height only, never on the
     document's content: a write evicts nothing, not even the written
     document's entries *)
  Alcotest.(check (pair int int)) "a's entry survived its own write"
    (s1.hits + 1, s0.misses)
    (s2.hits, s2.misses)

(* --- snapshot isolation under concurrency -------------------------- *)

let test_snapshot_isolation_hammer () =
  let writes = 20 and readers = 4 and reads = 60 in
  let svc, entry =
    setup (open_spec [ (("patientInfo", "patient"), [ Spec.Insert ]) ])
  in
  let v0 = Catalog.version entry in
  let q = parse "//patient" in
  let failures = ref [] in
  let flock = Mutex.create () in
  let fail msg = Mutex.protect flock (fun () -> failures := msg :: !failures) in
  let writer () =
    for i = 1 to writes do
      let text =
        Printf.sprintf
          "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>p%d</name><wardNo>6</wardNo><treatment><trial><bill>%d</bill></trial></treatment></patient>"
          i i
      in
      match Engine.apply_text svc ~group:"g" ~entry text with
      | Ok _ -> Thread.yield ()
      | Error e -> fail ("write rejected: " ^ Secview.Error.to_code e)
    done
  in
  let reader () =
    let pipe = Pipeline.Session.create svc in
    let last_version = ref 0 in
    for _ = 1 to reads do
      let snap = Catalog.pin entry in
      let v = Catalog.snapshot_version snap in
      let doc = Catalog.snapshot_doc snap in
      if v < !last_version then fail "snapshot version went backwards";
      last_version := v;
      let c1 = count_patients doc in
      Thread.yield ();
      (* the pinned tree must be internally consistent however many
         writes land after the pin: same count, same serialization,
         same answer through the full pipeline *)
      let c2 = count_patients (Catalog.snapshot_doc snap) in
      if c1 <> c2 then fail "torn read: counts differ within one snapshot";
      if c1 < 5 || c1 > 5 + writes then
        fail (Printf.sprintf "impossible patient count %d" c1);
      let via_pipe =
        List.length (Pipeline.Session.answer_exn pipe ~group:"g" q doc)
      in
      if via_pipe <> c1 then fail "pipeline answer disagrees with snapshot"
    done
  in
  let threads =
    Thread.create writer ()
    :: List.init readers (fun _ -> Thread.create reader ())
  in
  List.iter Thread.join threads;
  (match !failures with
  | [] -> ()
  | msgs -> Alcotest.failf "hammer failures: %s" (String.concat "; " msgs));
  Alcotest.(check int) "all writes landed" (5 + writes)
    (count_patients (Catalog.doc entry));
  Alcotest.(check bool) "version advanced once per write" true
    (Catalog.version entry >= v0 + writes)

(* --- the incremental check against the whole-document oracle ------- *)

(* A random case: a hospital document (sometimes breaking the DTD away
   from any edit, so the conformance fact must be computed, not
   assumed), a policy mixing Y/N/inherited/conditional annotations at
   dept and patient level with random write grants, and a chain of
   updates, each under a ward binding (or none). *)
type dcase = {
  d_doc : Sxml.Tree.spec;
  d_anns : ((string * string) * Spec.annot) list;
  d_grants : ((string * string) * Spec.write_op list) list;
  d_steps : (Supdate.Ast.t * string option) list;
}

let gen_dcase : dcase QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Sxml.Tree in
  let leaf tag v = elem tag [ text v ] in
  let name = oneofl [ "Alice"; "Bob"; "Carol"; "Dave" ] in
  let ward = oneofl [ "6"; "7" ] in
  let treatment =
    let* bill = map string_of_int (int_bound 99) in
    oneof
      [
        return (elem "trial" [ leaf "bill" bill ]);
        return (elem "regular" [ leaf "bill" bill; leaf "medication" "abc" ]);
      ]
  in
  let patient =
    let* n = name and* w = ward and* t = treatment in
    return
      (elem "patient"
         [ leaf "name" n; leaf "wardNo" w; elem "treatment" [ t ] ])
  in
  let staff =
    let* n = name and* w = ward and* doctor = bool in
    return
      (elem "staff"
         [
           (if doctor then
              elem "doctor" [ leaf "name" n; leaf "specialty" "onco" ]
            else elem "nurse" [ leaf "name" n; leaf "wardNo" w ]);
         ])
  in
  let dept =
    let* trial = list_size (int_bound 2) patient
    and* regular = list_size (int_bound 3) patient
    and* staff = list_size (int_bound 2) staff in
    return
      (elem "dept"
         [
           elem "clinicalTrial"
             [ elem "patientInfo" trial; leaf "test" "blood" ];
           elem "patientInfo" regular;
           elem "staffInfo" staff;
         ])
  in
  (* one violation, somewhere: a second <test>, a patient without its
     ward, an undeclared element, an undeclared attribute *)
  let break_doc depts =
    let rec break_first f = function
      | [] -> []
      | d :: rest -> (
        match f d with Some d' -> d' :: rest | None -> d :: break_first f rest)
    in
    let in_dept f = function
      | E ("dept", a, cs) -> Option.map (fun cs -> E ("dept", a, cs)) (f cs)
      | _ -> None
    in
    oneofl
      [
        break_first
          (in_dept (function
            | E ("clinicalTrial", a, cs) :: rest ->
              Some
                (E ("clinicalTrial", a, cs @ [ leaf "test" "again" ]) :: rest)
            | _ -> None))
          depts;
        break_first
          (in_dept (fun cs ->
               match cs with
               | [ ct; E ("patientInfo", a, E ("patient", pa, [ n; _; t ]) :: ps);
                   si ] ->
                 let p = E ("patient", pa, [ n; t ]) in
                 Some [ ct; E ("patientInfo", a, p :: ps); si ]
               | _ -> None))
          depts;
        break_first
          (in_dept (function
            | [ ct; pi; E ("staffInfo", a, ss) ] ->
              Some [ ct; pi; E ("staffInfo", a, ss @ [ elem "note" [] ]) ]
            | _ -> None))
          depts;
        break_first
          (in_dept (function
            | [ E ("clinicalTrial", a, cs); pi; si ] ->
              Some [ E ("clinicalTrial", ("audit", "1") :: a, cs); pi; si ]
            | _ -> None))
          depts;
      ]
  in
  let* depts = list_size (int_range 1 3) dept in
  let* broken = frequency [ (4, return false); (1, return true) ] in
  let* depts = if broken then break_doc depts else return depts in
  let cond s = Spec.Cond (Sxpath.Parse.qual_of_string s) in
  let annot choices =
    frequency
      [
        (4, return None);
        (2, return (Some Spec.Yes));
        (1, return (Some Spec.No));
        (3, map Option.some (oneofl choices));
      ]
  in
  let edge e choices = map (Option.map (fun a -> (e, a))) (annot choices) in
  let* anns =
    flatten_l
      [
        edge ("hospital", "dept")
          [
            cond "*/patient/wardNo = $wardNo";
            cond "*/patient/wardNo = $wardNo";
            cond "patientInfo/patient";
          ];
        edge ("dept", "clinicalTrial")
          [ cond "patientInfo/patient/wardNo = $wardNo" ];
        edge ("dept", "patientInfo") [ cond "patient/treatment/regular" ];
        edge ("dept", "staffInfo") [ cond "staff/nurse/wardNo = $wardNo" ];
        edge ("clinicalTrial", "patientInfo") [ Spec.Yes ];
        edge ("patientInfo", "patient")
          [
            cond "wardNo = $wardNo";
            cond "name = \"Bob\"";
            cond "not(treatment/trial)";
          ];
        edge ("patient", "treatment") [ cond "regular/medication" ];
        edge ("treatment", "trial") [ Spec.Yes ];
        edge ("treatment", "regular") [ Spec.Yes ];
        edge ("trial", "bill") [ Spec.Yes ];
        edge ("regular", "bill") [ Spec.Yes ];
        edge ("regular", "medication") [ Spec.Yes ];
      ]
  in
  let* grants =
    flatten_l
      (List.map
         (fun e ->
           frequency
             [
               (4, return (Some (e, Spec.all_write_ops)));
               (1, map (fun op -> Some (e, [ op ]))
                    (oneofl Spec.all_write_ops));
               (1, return None);
             ])
         [
           ("hospital", "dept");
           ("clinicalTrial", "patientInfo");
           ("patientInfo", "patient");
           ("patient", "name");
           ("patient", "wardNo");
           ("patient", "treatment");
           ("treatment", "trial");
           ("treatment", "regular");
           ("trial", "bill");
           ("regular", "bill");
           ("regular", "medication");
           ("staffInfo", "staff");
           ("staff", "nurse");
           ("nurse", "name");
         ])
  in
  let any_target =
    oneofl
      [
        ".";
        "//patient";
        "//patient[name = \"Bob\"]";
        "//patient[wardNo = \"6\"]";
        "//patient[wardNo = \"7\"]";
        "//bill";
        "//patient//bill";
        "//regular";
        "//trial";
        "//treatment";
        "//name";
        "//wardNo";
        "//patientInfo";
        "//dept";
        "//staff";
        "//nurse";
        "//medication";
        "//staffInfo";
        "//*";
        "//patient/name";
        "//dept[patientInfo/patient]";
        "//clinicalTrial";
      ]
  in
  let content =
    let* p = patient and* t = treatment and* w = ward and* n = name in
    oneofl
      [
        p; elem "patient" [ leaf "name" n; elem "treatment" [ t ] ];
        leaf "bill" "5"; leaf "name" n; leaf "wardNo" w; leaf "medication" "m";
        elem "treatment" [ t ]; t;
        elem "staff" [ elem "nurse" [ leaf "name" n; leaf "wardNo" w ] ];
        elem "dept"
          [
            elem "clinicalTrial" [ elem "patientInfo" []; leaf "test" "t" ];
            elem "patientInfo" [ p ]; elem "staffInfo" [];
          ];
        text "loose"; elem "bogus" [];
      ]
  in
  let of_tag tag =
    let* p = patient and* t = treatment and* w = ward and* n = name
    and* s = staff and* d = dept in
    return
      (match tag with
      | "patient" -> p
      | "treatment" -> elem "treatment" [ t ]
      | "regular" | "trial" -> t
      | "bill" -> leaf "bill" "5"
      | "medication" -> leaf "medication" "m"
      | "name" -> leaf "name" n
      | "wardNo" -> leaf "wardNo" w
      | "staff" -> s
      | _ -> d)
  in
  let open Supdate.Ast in
  (* most updates are shaped to fit the DTD, so the later checks run;
     the rest pair any target with any content *)
  let fitting =
    let* tag =
      oneofl
        [ "patient"; "treatment"; "regular"; "bill"; "medication"; "name";
          "wardNo"; "staff"; "dept" ]
    in
    let* c = of_tag tag in
    let* qual =
      oneofl
        [ ""; ""; "[name = \"Bob\"]"; "[wardNo = \"6\"]"; "[wardNo = \"7\"]" ]
    in
    let steps =
      match tag with
      | "patient" -> "//patient" ^ qual
      | "staff" when qual <> "" ->
        "//staff[nurse/" ^ String.sub qual 1 (String.length qual - 1)
      | _ -> "//" ^ tag
    in
    let parent =
      match tag with
      | "patient" -> "//patientInfo"
      | "staff" -> "//staffInfo"
      | "dept" -> "."
      | _ -> steps
    in
    let target = Sxpath.Parse.of_string steps in
    oneofl
      [
        Replace { target; content = c };
        Replace { target; content = c };
        Delete target;
        Delete target;
        Insert
          { pos = Into; target = Sxpath.Parse.of_string parent; content = c };
        Insert { pos = Before; target; content = c };
        Insert { pos = After; target; content = c };
      ]
  in
  let any =
    let* t = map Sxpath.Parse.of_string any_target and* c = content in
    oneofl
      [
        Insert { pos = Into; target = t; content = c };
        Insert { pos = Before; target = t; content = c };
        Insert { pos = After; target = t; content = c };
        Delete t;
        Replace { target = t; content = c };
      ]
  in
  let update = frequency [ (3, fitting); (1, any) ] in
  let binding = frequency [ (12, map Option.some ward); (1, return None) ] in
  let* steps = list_size (int_range 1 4) (pair update binding) in
  return
    {
      d_doc = elem "hospital" depts;
      d_anns = List.filter_map Fun.id anns;
      d_grants = List.filter_map Fun.id grants;
      d_steps = steps;
    }

(* The same over Fig. 7's recursive DTD, where a [c] holds any
   number of [a]s: deep root paths, nested targets, and unfolding
   heights that change with the document. *)
let gen_rcase : dcase QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Sxml.Tree in
  let b = map (fun v -> elem "b" [ text v ]) (oneofl [ "x"; "y" ]) in
  let rec a depth =
    let* b = b and* k = if depth <= 1 then return 0 else int_bound 2 in
    let* nested = list_repeat k (a (depth - 1)) in
    return (elem "a" [ b; elem "c" nested ])
  in
  let* depth = int_range 1 4 in
  let* top = a depth and* hidden = b in
  let cond s = Spec.Cond (Sxpath.Parse.qual_of_string s) in
  let edge e =
    frequency
      [
        (4, return None);
        (2, return (Some (e, Spec.Yes)));
        (1, return (Some (e, Spec.No)));
        ( 3,
          map
            (fun q -> Some (e, q))
            (oneofl
               [
                 cond "b = \"x\"";
                 cond "c/a";
                 cond "c/a";
                 cond "not(c/a/b = \"y\")";
               ]) );
      ]
  in
  let* anns = flatten_l [ edge ("c", "a"); edge ("r", "a") ] in
  let* b_ann =
    oneofl [ None; Some (("a", "b"), Spec.Yes); Some (("a", "b"), Spec.No) ]
  in
  let* grants =
    flatten_l
      (List.map
         (fun e ->
           frequency
             [ (4, return (Some (e, Spec.all_write_ops))); (1, return None) ])
         [ ("r", "a"); ("c", "a"); ("a", "b"); ("a", "c") ])
  in
  let path = Sxpath.Parse.of_string in
  let update =
    let* b = b and* inner = a 2 in
    let* a_path = oneofl [ "//a"; "//c/a"; "//a[b = \"x\"]"; "//a[c/a]" ] in
    let a_path = path a_path in
    (* mostly shapes the DTD admits, so the later checks run *)
    frequency
      [
        ( 3,
          oneofl
            Supdate.Ast.
              [
                Insert { pos = Into; target = path "//c"; content = inner };
                Insert { pos = Before; target = a_path; content = inner };
                Insert { pos = After; target = a_path; content = inner };
                Delete a_path;
                Delete a_path;
                Replace { target = a_path; content = inner };
                Replace { target = path "//a/b"; content = b };
              ] );
        ( 1,
          let* t = map path (oneofl [ "//a"; "//c"; "//b"; "//a/c" ])
          and* content = oneofl [ b; inner; elem "c" [] ] in
          oneofl
            Supdate.Ast.
              [
                Insert { pos = Into; target = t; content };
                Insert { pos = Before; target = t; content };
                Delete t;
                Replace { target = t; content };
              ] );
      ]
  in
  let* steps = list_size (int_range 1 4) (pair update (return None)) in
  return
    {
      d_doc = elem "r" [ top; hidden ];
      d_anns = List.filter_map Fun.id (b_ann :: anns);
      d_grants = List.filter_map Fun.id grants;
      d_steps = steps;
    }

let print_dcase ~dtd c =
  Printf.sprintf "document: %s\npolicy:\n%s\nsteps:\n%s"
    (Sxml.Print.to_string (Sxml.Tree.of_spec c.d_doc))
    (Spec.to_sidecar (Spec.make ~write:c.d_grants dtd c.d_anns))
    (String.concat "\n"
       (List.map
          (fun (u, w) ->
            Printf.sprintf "  [wardNo=%s] %s" (Option.value w ~default:"-")
              (Parse.to_string u))
          c.d_steps))

(* Which verdicts the suite reached, by error code and message prefix. *)
let verdicts : (string, int) Hashtbl.t = Hashtbl.create 16

let verdict_label = function
  | Ok _ -> "admitted"
  | Error e ->
    let text = Secview.Error.to_string e in
    let stem =
      match String.index_opt text ':' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    Secview.Error.to_code e ^ ": " ^ stem

let oracle_digest ?env ~spec ~view doc =
  Digest.to_hex
    (Digest.string
       (try
          Sxml.Print.to_string
            (Secview.Materialize.to_tree
               (Secview.Materialize.materialize ?env ~spec ~view doc))
        with Secview.Materialize.Abort _ -> ""))

(* Node for node, identifiers included. *)
let rec same_numbering (a : Sxml.Tree.t) (b : Sxml.Tree.t) =
  a.id = b.id
  &&
  match (a.desc, b.desc) with
  | Text s, Text s' -> String.equal s s'
  | Element e, Element e' ->
    String.equal e.tag e'.tag
    && e.attrs = e'.attrs
    && List.compare_lengths e.children e'.children = 0
    && List.for_all2 same_numbering e.children e'.children
  | Text _, Element _ | Element _, Text _ -> false

(* Where a derived index differs from one built over its document:
   [None] when they agree entry for entry (nodes physically). *)
let index_difference got want =
  let module I = Sxml.Index in
  let n = I.size want in
  let rec first_id p id = if id >= n then None else if p id then Some id else first_id p (id + 1) in
  let same_elems a b =
    Array.length a = Array.length b && Array.for_all2 ( == ) a b
  in
  (* the code column, read back as tag names: a derived index may
     number its tags differently from a built one *)
  let named idx id =
    let code = (I.codes idx).(id) in
    List.find_opt (fun tag -> (I.tag idx tag).code = code) (I.tags idx)
  in
  if I.size got <> n then Some (Printf.sprintf "size %d, built %d" (I.size got) n)
  else
    match first_id (fun id -> I.extent got id <> I.extent want id) 0 with
    | Some id -> Some (Printf.sprintf "extent of node %d" id)
    | None -> (
      match first_id (fun id -> I.node got id != I.node want id) 0 with
      | Some id -> Some (Printf.sprintf "node %d" id)
      | None -> (
        match first_id (fun id -> named got id <> named want id) 0 with
        | Some id -> Some (Printf.sprintf "code of node %d" id)
        | None ->
          if I.tags got <> I.tags want then Some "tag set"
          else
            List.find_map
              (fun tag ->
                if I.tag_ids got tag <> I.tag_ids want tag then
                  Some ("tag_ids " ^ tag)
                else if
                  not (same_elems (I.by_tag got tag) (I.by_tag want tag))
                then Some ("by_tag " ^ tag)
                else None)
              (I.tags want)))

let dcase_agrees ~dtd c =
  let spec = Spec.make ~write:c.d_grants dtd c.d_anns in
  let svc, entry =
    let catalog = Catalog.create () in
    let entry = Catalog.add catalog ~name:"doc" (Sxml.Tree.of_spec c.d_doc) in
    (Pipeline.Service.create ~catalog dtd ~groups:[ ("g", spec) ], entry)
  in
  let view = Pipeline.Service.view svc ~group:"g" in
  let step (u, ward) =
    let env = Option.map Workload.Hospital.nurse_env ward in
    let doc = Catalog.snapshot_doc (Catalog.pin entry) in
    let height =
      if Sdtd.Dtd.is_recursive (Secview.View.dtd view) then
        Some (Catalog.element_height doc)
      else None
    in
    let want_audit = ref [] and got_audit = ref [] in
    let want =
      Update_oracle.run ~dtd ~spec ~view ?env ?height
        ~audit:(fun d -> want_audit := d :: !want_audit)
        doc u
    in
    let got =
      Engine.apply svc ~group:"g" ?env
        ~audit:(fun d -> got_audit := d :: !got_audit)
        ~entry u
    in
    let label = verdict_label got in
    Hashtbl.replace verdicts label
      (1 + Option.value (Hashtbl.find_opt verdicts label) ~default:0);
    let fail fmt =
      Printf.ksprintf
        (fun s -> QCheck2.Test.fail_reportf "%s: %s" (Parse.to_string u) s)
        fmt
    in
    if !want_audit <> !got_audit then
      fail "audit detail differs: oracle [%s], incremental [%s]"
        (String.concat "; " !want_audit) (String.concat "; " !got_audit);
    match (want, got) with
    | Error e, Error e' ->
      if Secview.Error.to_code e <> Secview.Error.to_code e'
         || Secview.Error.to_string e <> Secview.Error.to_string e'
      then
        fail "verdicts differ: oracle %s, incremental %s"
          (Secview.Error.to_string e) (Secview.Error.to_string e')
    | Ok (candidate, targets), Ok r ->
      let bytes = Sxml.Print.to_string candidate in
      if bytes <> Sxml.Print.to_string r.Engine.r_doc then
        fail "candidates differ";
      if targets <> r.Engine.r_targets then fail "target counts differ";
      if oracle_digest ?env ~spec ~view candidate <> r.Engine.r_view_digest then
        fail "receipt digests differ";
      (* the facts carried to the new version are the ones a fresh
         computation finds *)
      let snap = Catalog.pin entry in
      if Catalog.snapshot_access ?env snap spec
         <> Secview.Access.accessible_flags ?env spec candidate
      then fail "carried accessibility differs";
      if
        not
          (Catalog.snapshot_conforms snap dtd
          && Sdtd.Validate.conforms dtd candidate)
      then fail "carried conformance differs";
      (* the published version is numbered as a fresh document would
         be, and its derived index is the one a build finds *)
      let published = Catalog.snapshot_doc snap in
      if published != r.Engine.r_doc then fail "the receipt's tree is not published";
      if
        not
          (same_numbering published
             (Sxml.Tree.of_spec (Sxml.Tree.to_spec published)))
      then fail "published identifiers are not dense preorder";
      Option.iter
        (fail "derived index differs from a build: %s")
        (index_difference (Catalog.snapshot_index snap)
           (Sxml.Index.build published))
    | Ok _, Error e ->
      fail "oracle admits, incremental refuses: %s" (Secview.Error.to_string e)
    | Error e, Ok _ ->
      fail "oracle refuses (%s), incremental admits" (Secview.Error.to_string e)
  in
  List.iter step c.d_steps;
  true

let check_differential ~dtd ~count gen =
  Hashtbl.reset verdicts;
  QCheck2.Test.check_exn ~rand:(QCheck_base_runner.random_state ())
    (QCheck2.Test.make ~name:"incremental check = whole-document oracle"
       ~count ~print:(print_dcase ~dtd) gen (dcase_agrees ~dtd))

(* the comparison is only as good as the verdicts it reaches *)
let check_reached labels =
  List.iter
    (fun label ->
      Alcotest.(check bool)
        (Printf.sprintf "reached %S (%d)" label
           (Option.value (Hashtbl.find_opt verdicts label) ~default:0))
        true (Hashtbl.mem verdicts label))
    labels

let test_incremental_matches_oracle () =
  check_differential ~dtd ~count:10_000 gen_dcase;
  check_reached
    [
      "admitted";
      "query_error: unbound variable $wardNo";
      "invalid_update: update content must be an element";
      "invalid_update: target matches no node of the view";
      "invalid_update: cannot delete the document root";
      "invalid_update: result does not conform to the DTD";
      "update_denied: the document root has no parent edge to grant";
      "update_denied: target subtree contains inaccessible content";
      "update_denied: target node is not accessible";
      "update_denied: inserted content would not be accessible";
      "update_denied: update would change the visibility of existing content";
    ];
  Alcotest.(check bool) "some grant refused" true
    (Hashtbl.fold
       (fun k _ acc -> acc || String.starts_with ~prefix:"update_denied: no " k)
       verdicts false)

let test_incremental_matches_oracle_recursive () =
  check_differential ~dtd:Workload.Fig7.dtd ~count:3_000 gen_rcase;
  check_reached
    [
      "admitted";
      "invalid_update: result does not conform to the DTD";
      "update_denied: update would change the visibility of existing content";
    ]

(* --- structure sharing ---------------------------------------------- *)

(* Three departments, wards 5, 6 and 7, each with three trial and three
   regular patients and [staff] nurses.  Staff sit off every root path
   of the bills, so a larger [staff] adds nodes off the edited paths
   only. *)
let ward_document ~staff =
  let open Sxml.Tree in
  let leaf tag v = elem tag [ text v ] in
  let patient ward treatment i =
    elem "patient"
      [
        leaf "name" (Printf.sprintf "p%s%d" ward i);
        leaf "wardNo" ward;
        elem "treatment" [ treatment ];
      ]
  in
  let dept ward =
    elem "dept"
      [
        elem "clinicalTrial"
          [
            elem "patientInfo"
              (List.init 3 (patient ward (elem "trial" [ leaf "bill" "100" ])));
            leaf "test" "blood";
          ];
        elem "patientInfo"
          (List.init 3
             (patient ward
                (elem "regular" [ leaf "bill" "200"; leaf "medication" "m" ])));
        elem "staffInfo"
          (List.init staff (fun i ->
               elem "staff"
                 [ elem "nurse" [ leaf "name" (Printf.sprintf "n%d" i); leaf "wardNo" ward ] ]));
      ]
  in
  of_spec (elem "hospital" (List.map dept [ "5"; "6"; "7" ]))

(* The [mixed] workload's write: the nurses of ward 6 replace every
   bill their view shows.  Bills keep their size, so no identifier
   moves. *)
let bill_grants =
  [ (("trial", "bill"), [ Spec.Replace ]); (("regular", "bill"), [ Spec.Replace ]) ]

let bill_write = "replace //patient//bill with <bill>777</bill>"

let test_write_shares_structure () =
  let ward6 = Workload.Hospital.nurse_env "6" in
  let catalog = Catalog.create () in
  let entry = Catalog.add catalog ~name:"doc" (ward_document ~staff:6) in
  let svc =
    Pipeline.Service.create ~catalog dtd
      ~groups:[ ("g", nurse_spec bill_grants) ]
  in
  let sess = Pipeline.Session.create svc in
  let pinned = Catalog.pin entry in
  let old_doc = Catalog.snapshot_doc pinned in
  let old_index = Catalog.snapshot_index pinned in
  let bills snap =
    match
      Pipeline.Session.answer_pinned sess ~group:"g" ~env:ward6
        (parse "//patient//bill") snap
    with
    | Ok o -> List.map (fun n -> Sxml.Print.to_string n) o.o_results
    | Error e -> Alcotest.fail (Secview.Error.to_string e)
  in
  let before = bills pinned in
  let r =
    match Engine.apply_text svc ~group:"g" ~env:ward6 ~entry bill_write with
    | Ok r -> r
    | Error e -> Alcotest.fail (Secview.Error.to_string e)
  in
  Alcotest.(check int) "the ward's six bills" 6 r.Engine.r_targets;
  (* off the root paths of the written bills, every subtree is the
     pinned version's own *)
  let written (n : Sxml.Tree.t) =
    Sxml.Tree.find_all (fun b -> Sxml.Tree.string_value b = "777") n <> []
  in
  let rec shared (n : Sxml.Tree.t) =
    if written n then List.for_all shared (Sxml.Tree.children n)
    else n == Sxml.Index.node old_index n.id
  in
  Alcotest.(check bool) "subtrees off the edited paths are shared" true
    (shared r.Engine.r_doc);
  let now = Catalog.pin entry in
  let index = Catalog.snapshot_index now in
  Alcotest.(check bool) "the published index shares the pinned one's arrays"
    true
    (Sxml.Index.tag_ids index "staff" == Sxml.Index.tag_ids old_index "staff"
    && Sxml.Index.tag_ids index "bill" == Sxml.Index.tag_ids old_index "bill");
  (* the pinned version keeps its tree, its index and its answers *)
  Alcotest.(check bool) "pinned tree" true (Catalog.snapshot_doc pinned == old_doc);
  Alcotest.(check bool) "pinned index" true
    (Catalog.snapshot_index pinned == old_index
    && index_difference old_index (Sxml.Index.build old_doc) = None);
  Alcotest.(check (list string)) "pinned answers" before (bills pinned);
  Alcotest.(check (list string)) "current answers"
    (List.init 6 (fun _ -> "<bill>777</bill>"))
    (bills now)

(* The rebuild allocates for the edited paths and the content, not for
   the document: eight times the nodes off those paths, the same minor
   words. *)
let test_rebuild_allocation () =
  let rebuild_words ~staff =
    let doc = ward_document ~staff in
    let index = Sxml.Index.build doc in
    let targets =
      List.map
        (fun (n : Sxml.Tree.t) -> n.id)
        (eval (parse "dept[*/patient/wardNo = \"6\"]//bill") doc)
    in
    let op = Sxml.Index.Replace (Sxml.Tree.elem "bill" [ Sxml.Tree.text "777" ]) in
    ignore (Sxml.Index.edit index op targets);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Sxml.Index.edit index op targets));
    (Sxml.Tree.size doc, Gc.minor_words () -. before)
  in
  let n1, w1 = rebuild_words ~staff:6 and n8, w8 = rebuild_words ~staff:130 in
  Alcotest.(check bool) (Printf.sprintf "8x the nodes (%d -> %d)" n1 n8) true
    (n8 >= 8 * n1);
  Alcotest.(check bool)
    (Printf.sprintf "minor words %.0f -> %.0f" w1 w8)
    true (w8 <= w1)

let () =
  Alcotest.run "update"
    [
      ( "language",
        [
          Alcotest.test_case "round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "grants",
        [
          Alcotest.test_case "default deny" `Quick test_default_deny;
          Alcotest.test_case "per-op" `Quick test_grants_are_per_op;
          Alcotest.test_case "per-edge" `Quick test_ungranted_edge_denied;
        ] );
      ( "apply",
        [
          Alcotest.test_case "delete" `Quick test_accepted_delete;
          Alcotest.test_case "insert+replace" `Quick
            test_accepted_insert_and_replace;
          Alcotest.test_case "leaf replace" `Quick
            test_replace_medication_needs_regular_grant;
          Alcotest.test_case "dtd violation" `Quick test_dtd_violation_rejected;
          Alcotest.test_case "empty target" `Quick test_empty_target_rejected;
        ] );
      ( "policy",
        [
          Alcotest.test_case "hidden subtree" `Quick
            test_nurse_subtree_with_hidden_nodes;
          Alcotest.test_case "unreadable content" `Quick
            test_nurse_cannot_write_unreadable_content;
          Alcotest.test_case "visible leaf" `Quick
            test_nurse_can_update_visible_leaf;
          Alcotest.test_case "out of view" `Quick
            test_nurse_other_ward_out_of_view;
          Alcotest.test_case "qualifier flip" `Quick
            test_qualifier_flip_denied;
          Alcotest.test_case "sanitized denial" `Quick
            test_denial_text_is_sanitized;
          Alcotest.test_case "view-scoped digest" `Quick
            test_receipt_digest_is_view_scoped;
          Alcotest.test_case "text content" `Quick
            test_text_content_typed_error;
          Alcotest.test_case "unbound policy variable" `Quick
            test_unbound_policy_variable;
          Alcotest.test_case "unbound target variable" `Quick
            test_unbound_target_variable;
        ] );
      ( "caches",
        [
          Alcotest.test_case "per-document invalidation" `Quick
            test_invalidation_is_per_document;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "hammer" `Quick test_snapshot_isolation_hammer;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "position-preserving write" `Quick
            test_write_shares_structure;
          Alcotest.test_case "rebuild allocation" `Quick test_rebuild_allocation;
        ] );
      ( "differential",
        [
          Alcotest.test_case "incremental check = whole-document oracle" `Slow
            test_incremental_matches_oracle;
          Alcotest.test_case "the same over a recursive DTD" `Slow
            test_incremental_matches_oracle_recursive;
        ] );
    ]
