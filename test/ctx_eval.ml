(* The evaluation shape most suites need: a path from the document root,
   through the Ctx evaluation API, optionally with variable bindings and
   a tag index. *)
let eval ?env ?index ?visits p doc =
  Sxpath.Eval.run ?visits (Sxpath.Eval.Ctx.make ?env ?index ~root:doc ()) p
