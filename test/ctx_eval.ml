(* The evaluation shape most suites need: a path from the document root,
   through the Ctx evaluation API, optionally with variable bindings and
   a tag index. *)
let eval ?env ?index p doc =
  Sxpath.Eval.run (Sxpath.Eval.Ctx.make ?env ?index ~root:doc ()) p
