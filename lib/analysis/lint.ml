module D = Diagnostic

open Walker
(* [reach]/[walk_qual]/[silent_reach]/[dead_step_message] and the
   [step_issue] type live in {!Walker}; this module only assembles
   diagnostics from what the walker reports. *)

(* ------------------------------------------------------------------ *)
(* Policy lints (SV001-SV004)                                          *)

let check_spec spec =
  let dtd = Secview.Spec.dtd spec in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (* SV001: dead annotations, promoted from the schema auditor *)
  List.iter
    (fun ((a, b), ann) ->
      add
        (D.make ~code:"SV001" ~severity:D.Warning ~subject:(D.Annotation (a, b))
           (Format.asprintf
              "annotation %a can never change any node's accessibility"
              Secview.Spec.pp_annot ann)))
    (Secview.Audit.dead_annotations spec);
  (* SV002/SV003: qualifier references, checked at the annotated child
     (where the qualifier is evaluated) *)
  List.iter
    (fun ((a, b), ann) ->
      match ann with
      | Secview.Spec.Yes | Secview.Spec.No -> ()
      | Secview.Spec.Cond q ->
        let issue = function
          | Undeclared_attribute (attr, at) ->
            add
              (D.make ~code:"SV002" ~severity:D.Error
                 ~subject:(D.Annotation (a, b))
                 (Printf.sprintf
                    "qualifier references attribute @%s, which is declared on \
                     none of %s"
                    attr (comma at)))
          | Dead_step (step, at) ->
            add
              (D.make ~code:"SV003" ~severity:D.Error
                 ~subject:(D.Annotation (a, b))
                 (Printf.sprintf "qualifier %s"
                    (dead_step_message dtd (step, at))))
        in
        walk_qual ~issue dtd [ b ] q)
    (Secview.Spec.annotations spec);
  (* SV004: hidden element types that still grant access below
     themselves -- a common intentional pattern (expose a subtree under
     a hidden wrapper), surfaced for review rather than flagged *)
  let hidden = Secview.Audit.hidden_types spec in
  List.iter
    (fun ((a, b), ann) ->
      match ann with
      | (Secview.Spec.Yes | Secview.Spec.Cond _) when List.mem a hidden ->
        add
          (D.make ~code:"SV004" ~severity:D.Info ~subject:(D.Element a)
             (Printf.sprintf
                "hidden on every root-path, yet ann(%s, %s) grants access \
                 below it (verify this re-exposure is intended)"
                a b))
      | _ -> ())
    (Secview.Spec.annotations spec);
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* View lints (SV101-SV103)                                            *)

let check_view ~dtd view =
  let vdtd = Secview.View.dtd view in
  let srcs = source_types ~dtd view in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match Secview.View.sigma view ~parent:a ~child:b with
          | None -> ()
          | Some sg ->
            let sctx = srcs a in
            if sctx <> [] then begin
              let deads = ref [] in
              let issue = function
                | Dead_step (s, at) -> deads := (s, at) :: !deads
                | Undeclared_attribute (attr, at) ->
                  add
                    (D.make ~code:"SV103" ~severity:D.Error
                       ~subject:(D.Sigma (a, b))
                       (Printf.sprintf
                          "references attribute @%s, declared on none of %s"
                          attr (comma at)))
              in
              let qual_issue = function
                | Dead_step (s, at) ->
                  add
                    (D.make ~code:"SV103" ~severity:D.Error
                       ~subject:(D.Sigma (a, b))
                       (Printf.sprintf "qualifier %s"
                          (dead_step_message dtd (s, at))))
                | Undeclared_attribute (attr, at) ->
                  add
                    (D.make ~code:"SV103" ~severity:D.Error
                       ~subject:(D.Sigma (a, b))
                       (Printf.sprintf
                          "qualifier references attribute @%s, declared on \
                           none of %s"
                          attr (comma at)))
              in
              let qual_hook cs q =
                walk_qual ~issue:qual_issue dtd cs q;
                cs
              in
              let r = reach ~issue ~qual_hook dtd sctx sg in
              (* a σ step that matches nothing is drift from the DTD,
                 whether it kills the whole extraction or only one
                 branch of it *)
              (match List.rev !deads with
              | [] ->
                if r = [] then
                  add
                    (D.make ~code:"SV101" ~severity:D.Error
                       ~subject:(D.Sigma (a, b))
                       (Printf.sprintf
                          "path %s matches nothing in the document DTD \
                           (evaluated at %s)"
                          (Sxpath.Print.to_string sg)
                          (comma sctx)))
              | deads ->
                List.iter
                  (fun d ->
                    add
                      (D.make ~code:"SV101" ~severity:D.Error
                         ~subject:(D.Sigma (a, b))
                         (Printf.sprintf "path %s: %s"
                            (Sxpath.Print.to_string sg)
                            (dead_step_message dtd d))))
                  deads);
              if r <> [] && not (Secview.View.is_dummy view b) then begin
                let want = Sdtd.Unfold.label_of b in
                let foreign =
                  List.filter
                    (fun t ->
                      (not (label_matches want t))
                      && not (String.length t > 0 && t.[0] = '@'))
                    r
                in
                if foreign <> [] then
                  add
                    (D.make ~code:"SV102" ~severity:D.Error
                       ~subject:(D.Sigma (a, b))
                       (Printf.sprintf
                          "path %s lands on %s, not on %s elements"
                          (Sxpath.Print.to_string sg)
                          (comma foreign) want))
              end
            end)
        (Sdtd.Dtd.children_of vdtd a))
    (Sdtd.Dtd.reachable vdtd);
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Query lints (SV201-SV205)                                           *)

let check_query ?name vdtd q =
  let label = Option.value name ~default:(Sxpath.Print.to_string q) in
  let subject = D.Query label in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let deads = ref [] in
  let issue = function
    | Dead_step (s, at) -> deads := (s, at) :: !deads
    | Undeclared_attribute (attr, at) ->
      add
        (D.make ~code:"SV205" ~severity:D.Error ~subject
           (Printf.sprintf
              "attribute @%s is not declared on %s in the view DTD; \
               rewriting translates this step to the empty query"
              attr (comma at)))
  in
  let qual_hook ctxs qq =
    (* reference problems inside the qualifier (attributes only: dead
       qualifier paths are subsumed by the vacuity decision below) *)
    walk_qual
      ~issue:(function Undeclared_attribute _ as i -> issue i | Dead_step _ -> ())
      vdtd ctxs qq;
    let verdict b =
      if Sdtd.Dtd.mem vdtd b then Secview.Image.bool_of_qual vdtd qq b
      else `Unknown
    in
    let verdicts = List.map verdict ctxs in
    let qtxt = Sxpath.Print.qual_to_string qq in
    if List.for_all (( = ) `True) verdicts then
      add
        (D.make ~code:"SV203" ~severity:D.Info ~subject
           (Printf.sprintf
              "qualifier [%s] holds at every %s by DTD constraints \
               (redundant; the optimizer drops it)"
              qtxt (comma ctxs)));
    if List.for_all (( = ) `False) verdicts then
      add
        (D.make ~code:"SV204" ~severity:D.Warning ~subject
           (Printf.sprintf
              "qualifier [%s] fails at every %s by DTD constraints \
               (this step can never select anything)"
              qtxt (comma ctxs)));
    List.filter (fun b -> verdict b <> `False) ctxs
  in
  let r = reach ~issue ~qual_hook vdtd [ Sdtd.Dtd.root vdtd ] q in
  if r = [] then begin
    let detail =
      match List.rev !deads with
      | d :: _ -> ": " ^ dead_step_message vdtd d
      | [] -> ""
    in
    add
      (D.make ~code:"SV201" ~severity:D.Warning ~subject
         (Printf.sprintf
            "provably empty on every instance of the view DTD%s" detail))
  end
  else
    List.iter
      (fun d ->
        add
          (D.make ~code:"SV202" ~severity:D.Info ~subject
             (Printf.sprintf "%s (dead branch; the optimizer prunes it)"
                (dead_step_message vdtd d))))
      (List.rev !deads);
  (* SV30x: execution-engine notes (the plan compiler is static, so
     its fallbacks are too) *)
  (match Splan.Compile.compile q with
  | Ok _ -> ()
  | Error reason ->
    add
      (D.make ~code:"SV301" ~severity:D.Info ~subject
         (Printf.sprintf
            "outside the plan engine's fragment (%s); evaluation falls \
             back to the interpreter"
            reason)));
  if r <> [] && List.for_all (fun ty -> String.length ty > 0 && ty.[0] = '@') r
  then
    add
      (D.make ~code:"SV302" ~severity:D.Warning ~subject
         "the query yields only attribute values, which top-level \
          evaluation drops (only [p] and [p = c] qualifiers observe \
          them) — the answer is always the empty node set");
  List.rev !ds

(* ------------------------------------------------------------------ *)

let check_all ~dtd ?spec ?view ?(queries = []) () =
  let spec_ds = match spec with Some s -> check_spec s | None -> [] in
  let the_view =
    match (view, spec) with
    | Some v, _ -> Some v
    | None, Some s -> Some (Secview.Derive.derive s)
    | None, None -> None
  in
  let view_ds =
    match the_view with Some v -> check_view ~dtd v | None -> []
  in
  let qdtd =
    match the_view with Some v -> Secview.View.dtd v | None -> dtd
  in
  let query_ds =
    List.concat_map (fun (n, q) -> check_query ~name:n qdtd q) queries
  in
  spec_ds @ view_ds @ query_ds

(* Register the strict validation gate Pipeline.Service.create/?strict uses:
   linking this library arms strict mode. *)
let () =
  Secview.Pipeline.set_strict_gate (fun ~dtd ~spec view ->
      let ds = check_spec spec @ check_view ~dtd view in
      List.map (Format.asprintf "%a" D.pp) (D.errors ds))
