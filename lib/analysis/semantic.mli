(** Semantic policy analysis: what the per-group artifacts {e mean},
    compared across groups and against the queries users will send.

    Three analyses, all schema-level (no document is ever touched):

    - {b Cross-group comparison} ({!compare_views}, {!fleet}): for two
      groups over the same document DTD, derive each group's
      {e accessible region} per exposed element label — the union of
      σ-compositions from the view root down — and decide containment
      both ways with the approximate simulation test
      ({!Secview.Simulate.contained}, Prop 5.1).  A proven relation is
      sound (containment claims hold on every instance); [Needs_eval]'s
      analogue here is {!relation.Overlapping}/{!relation.Unknown},
      which claim nothing.  Diagnosed as SV401 (equivalent regions:
      merge candidates), SV402 (strict subsumption) and SV403
      (incomparable but overlapping).

    - {b Static query admission} ({!admission}): classify a view query
      against a view DTD as provably empty (with a witness
      explanation), trivially answerable, or needing evaluation —
      generalizing the per-step lint SV201 to a whole-query verdict.
      Registered with {!Secview.Pipeline.set_admission_analyzer} when
      this module is linked, so servers answer provably-empty queries
      without planning or evaluating anything.

    - {b Leakage check} ({!check_leakage}): view-DTD element types and
      attributes whose every σ extraction is unsatisfiable under the
      document DTD — schema structure exposed to the group that no
      instance can ever populate, leaking the shape of hidden data
      (SV410).

    Everything here leans on {!Secview.Image}'s memo tables, which
    are domain-local, so the registered analyzer runs on any domain
    without a lock; a shared optimizer context
    ({!Secview.Optimize.prepared}) fills by compare-and-set. *)

(** How two groups' accessible regions compare.  [Subsumed]/[Subsumes]
    mean one direction of containment is {e proven} and the converse is
    {e not proven} — the test is approximate, so "strict" is relative
    to what simulation can see; the proven direction is sound. *)
type relation =
  | Equivalent  (** containment proven both ways: identical regions *)
  | Subsumed  (** left ⊑ right proven, converse not *)
  | Subsumes  (** right ⊑ left proven, converse not *)
  | Overlapping
      (** neither direction proven, but some element label is
          populatable by both — genuinely entangled policies *)
  | Disjoint  (** neither direction proven and no label is shared *)
  | Unknown of string
      (** not analyzable (e.g. a recursive view DTD has no finite
          σ-composition); the payload says why *)

(** One containment claim a verdict rests on: [v⟦lhs⟧ ⊆ v⟦rhs⟧] at
    every [at]-element (the document root).  Exposed so the
    differential test suite can hand every claim to
    {!Secview.Containment.refute} — a refuted claim is a soundness
    bug. *)
type claim = {
  claim_at : string;  (** context element type (the document root) *)
  claim_elem : string;  (** the element label whose regions compare *)
  claim_lhs : Sxpath.Ast.path;
  claim_rhs : Sxpath.Ast.path;
}

type comparison = {
  cmp_left : string;
  cmp_right : string;
  cmp_relation : relation;
  cmp_overlap : string option;
      (** an element label both regions can populate — the witness
          reported with SV403 *)
  cmp_claims : claim list;  (** every proven containment claim *)
}

val region_paths :
  Secview.View.t -> (string * Sxpath.Ast.path) list option
(** Accessible region per exposed (non-dummy) element label: the union
    over same-labeled view types of their σ-compositions from the view
    root, each a document query that — evaluated at the document root —
    selects exactly that label's accessible nodes.  Labels whose every
    composition is the empty path are dropped.  [None] when the view
    DTD is recursive: σ-composition does not terminate, and bounding it
    would be unsound ({!compare_views} reports {!relation.Unknown}). *)

val compare_views :
  Sdtd.Dtd.t ->
  string * Secview.View.t ->
  string * Secview.View.t ->
  comparison
(** [compare_views dtd (name_a, view_a) (name_b, view_b)]: compare the
    two groups' accessible regions label by label.  Both views must be
    over [dtd]. *)

val fleet :
  Sdtd.Dtd.t -> (string * Secview.View.t) list -> comparison list
(** All unordered pairs, in the given order. *)

val fleet_diagnostics : comparison list -> Diagnostic.t list
(** SV401 (warning) for [Equivalent], SV402 (info) for
    [Subsumed]/[Subsumes] (subject ordered contained-first), SV403
    (info) for [Overlapping].  [Disjoint] and [Unknown] produce no
    diagnostic — render those from the comparisons directly. *)

val relation_label : relation -> string
(** ["equivalent"], ["subsumed"], ["subsumes"], ["overlapping"],
    ["disjoint"], ["unknown"] — stable spellings for machine output. *)

val admission :
  Sdtd.Dtd.t -> Sxpath.Ast.path -> Secview.Pipeline.admission
(** Classify a view query against a view DTD.  [Denied_empty] carries
    a witness naming the step or qualifier that kills the query (or
    that it only yields attribute values, which top-level evaluation
    drops); [Trivial] means the optimizer reduces it to [ε] — the
    answer is the context root itself, no evaluation needed.  Both are
    proofs; [Needs_eval] claims nothing.  Never raises: analysis
    budget blowups ({!Secview.Image.Too_large}) degrade to
    [Needs_eval]. *)

val admission_prepared :
  Secview.Optimize.prepared -> Sxpath.Ast.path -> Secview.Pipeline.admission
(** {!admission} against the view DTD's optimizer context
    ({!Secview.Optimize.prepare}), built once and shared by every
    query classified against that DTD: what the pipeline's registered
    analyzer and [secview analyze] call.  [admission dtd q] is
    [admission_prepared (Secview.Optimize.prepare dtd) q]. *)

val check_leakage :
  dtd:Sdtd.Dtd.t -> Secview.View.t -> Diagnostic.t list
(** SV410 (warning): view element types no document instance can
    populate — every σ path into them from a populatable parent is
    unsatisfiable under [dtd]'s constraints (qualifier-false pruning
    included, so this sees emptiness the per-edge lint SV101 cannot) —
    and attributes the view DTD declares that no source element type
    carries.  Only the topmost unpopulatable type of a dead subtree is
    reported. *)
