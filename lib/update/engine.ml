module Pipeline = Secview.Pipeline
module Catalog = Secview.Catalog
module Error = Secview.Error
module Trace = Secview.Trace

type receipt = {
  r_op : string;
  r_targets : int;
  r_old_version : int;
  r_new_version : int;
  r_doc : Sxml.Tree.t;
  r_view_digest : string;
}

(* The digest a writer gets back is of the group's *view* of the new
   document, never the raw document: a full-document digest would hand
   the writer an equality oracle on regions it cannot read (detect
   that hidden content changed between versions, or confirm a guessed
   whole-document value).  MD5 of the serialized view — the same
   digest function Sobs.Capture uses, so capture/replay can compare it
   directly — streamed from the candidate's index without building
   the view. *)
let apply svc ~group ?env ?audit ~entry update =
  let ( let* ) = Result.bind in
  let* spec =
    match Pipeline.Service.spec svc ~group with
    | spec -> Ok spec
    | exception Not_found ->
      Error
        (Error.Unknown_group
           {
             group;
             known = Pipeline.Service.order svc;
           })
  in
  let view = Pipeline.Service.view svc ~group in
  let dtd = Pipeline.Service.dtd svc in
  let snapshot = Catalog.pin entry in
  (* built only for the first write after a load: every version a
     write publishes carries the index the edit derived *)
  let index = Catalog.snapshot_index snapshot in
  let height =
    if Sdtd.Dtd.is_recursive (Secview.View.dtd view) then
      Some (Catalog.snapshot_height (Pipeline.Service.catalog svc) snapshot)
    else None
  in
  let* admitted =
    Trace.span "admit" (fun () ->
        Check.run ~dtd ~spec ~view ?env ?height ?audit
          ~conforms:(fun () -> Catalog.snapshot_conforms snapshot dtd)
          index update)
  in
  (* The candidate conforms (admission checked it) and the group's
     accessibility carries over from the pinned snapshot, so both
     facts travel with the new version instead of being recomputed;
     the receipt digest reads the carried accessibility too. *)
  let accessible, digest =
    Trace.span "digest" (fun () ->
        let accessible =
          Check.carry (Catalog.snapshot_access ?env snapshot spec) admitted
        in
        ( accessible,
          Secview.View_text.digest ?env ~accessible ~spec ~view
            admitted.Check.index ))
  in
  let old_version = Catalog.snapshot_version snapshot in
  let new_version =
    Catalog.update ~conforms:dtd
      ~access:(spec, Option.value env ~default:(fun _ -> None), accessible)
      entry admitted.Check.index
  in
  Pipeline.Service.record_write svc;
  Ok
    {
      r_op = Ast.op_label update;
      r_targets = admitted.Check.targets;
      r_old_version = old_version;
      r_new_version = new_version;
      r_doc = admitted.Check.candidate;
      r_view_digest = digest;
    }

let apply_text svc ~group ?env ?audit ~entry text =
  match Parse.of_string text with
  | update -> apply svc ~group ?env ?audit ~entry update
  | exception Parse.Error msg -> Error (Error.Invalid_update msg)
