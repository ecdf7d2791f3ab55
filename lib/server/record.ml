let status ~write = function
  | Ok _ -> "ok"
  | Error e -> if write then Secview.Error.to_code e else "error"

let failed ?detail ~write e (r : Sobs.Request.t) =
  let msg = Secview.Error.to_string e in
  {
    r with
    status = status ~write (Error e);
    error =
      Some (match detail with Some d -> msg ^ " [" ^ d ^ "]" | None -> msg);
  }

let query ?version outcome (r : Sobs.Request.t) =
  match outcome with
  | Error e -> failed ~write:false e r
  | Ok (rendered, (o : Secview.Pipeline.outcome)) ->
    {
      r with
      status = "ok";
      results = List.length rendered;
      digest = Some (Sobs.Capture.digest rendered);
      doc_version = (if version = None then r.doc_version else version);
      translated = Some (Sxpath.Print.to_string o.o_translated);
      counts =
        (match o.o_plan with
        | Some (_, stats) -> Splan.Exec.Stats.totals stats
        | None -> []);
    }

let update ?detail outcome (r : Sobs.Request.t) =
  match outcome with
  | Error e -> failed ?detail ~write:true e r
  | Ok (w : Supdate.Engine.receipt) ->
    {
      r with
      status = "ok";
      results = w.r_targets;
      digest = Some w.r_view_digest;
      doc_version = Some w.r_new_version;
      write =
        Some
          {
            targets = w.r_targets;
            old_version = w.r_old_version;
            new_version = w.r_new_version;
          };
    }

let apply_update svc ~group ~env ~entry text =
  let detail = ref None in
  let outcome =
    try
      Supdate.Engine.apply_text svc ~group ~env
        ~audit:(fun d -> detail := Some d)
        ~entry text
    with
    | Failure msg | Invalid_argument msg | Sys_error msg ->
      Error (Secview.Error.Internal msg)
    | exn -> Error (Secview.Error.Internal (Printexc.to_string exn))
  in
  (outcome, !detail)
