(** Static analysis over policies, views and queries.

    Everything here is decided at the schema level — no document is
    touched — by reusing the machinery the pipeline already trusts:
    {!Secview.Audit} for exposure analysis, {!Secview.Image} for
    DTD-graph reachability and qualifier decision, and the DTD graph
    itself for step-by-step satisfiability.  The checkers are
    conservative in the reporting direction: an [Error] diagnostic is
    a proof that something can never work; [Warning]/[Info] may flag
    intentional patterns (a provably-empty query is not a policy
    violation, merely pointless).

    Diagnostic codes (see DESIGN.md for the full registry):

    {v
    Policy (over Spec.t)
      SV001 warning  dead annotation (can never change accessibility)
      SV002 error    qualifier references an undeclared attribute
      SV003 error    qualifier path step can never match
      SV004 info     hidden element type re-grants access below itself
    View (over View.t, against the document DTD)
      SV101 error    σ path matches nothing in the document DTD
      SV102 error    σ path reaches foreign element types
      SV103 error    σ qualifier references unknown attribute/element
    Query (against a view DTD)
      SV201 warning  query provably empty on every instance
      SV202 info     union branch / step provably empty (the optimizer
                     prunes it)
      SV203 info     qualifier vacuously true under DTD constraints
      SV204 warning  qualifier vacuously false under DTD constraints
      SV205 error    attribute step undeclared in the view DTD
                     (rewriting silently translates it to ∅)

    Execution engine
      SV301 info     outside the plan engine's fragment (descendant
                     step with no single-label head); the plan engine
                     falls back to the interpreter
      SV302 warning  query yields only attribute values, which
                     top-level evaluation drops
    v} *)

val check_spec : Secview.Spec.t -> Diagnostic.t list
(** Policy lints (SV001–SV004) over an access specification and its
    document DTD. *)

val check_view : dtd:Sdtd.Dtd.t -> Secview.View.t -> Diagnostic.t list
(** View lints (SV101–SV103): type-check every σ annotation against
    the document DTD graph.  Source element types are propagated from
    the root through σ (so a σ path is checked at the types its parent
    can actually bind to), which is what catches stored views that
    drifted from the DTD. *)

val check_query :
  ?name:string -> Sdtd.Dtd.t -> Sxpath.Ast.path -> Diagnostic.t list
(** Query lints (SV201–SV205, SV301–SV302) against a (view) DTD.
    [name] labels the diagnostics' subject; default: the printed
    query. *)

val check_all :
  dtd:Sdtd.Dtd.t ->
  ?spec:Secview.Spec.t ->
  ?view:Secview.View.t ->
  ?queries:(string * Sxpath.Ast.path) list ->
  unit ->
  Diagnostic.t list
(** Run every applicable checker: policy lints when [spec] is given,
    view lints over [view] (or over the view derived from [spec] when
    only [spec] is given), and query lints against the resulting view
    DTD (the document DTD when neither [spec] nor [view] is given). *)

val strict : Secview.Pipeline.Service.t -> unit
(** The strict gate of [secview query --strict] and [serve --strict]:
    every group's policy and derived view must be free of lint errors
    ({!check_spec}, {!check_view}) before the service answers anything.
    @raise Invalid_argument ["Pipeline: strict validation failed:"]
    followed by one line per error, each tagged with its group. *)
