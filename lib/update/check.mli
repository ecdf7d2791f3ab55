(** Update rewriting and admission: the write-path analogue of query
    rewriting, with the relational [WITH CHECK OPTION] discipline.

    An update's target path is written over the group's view;
    {!run} translates it through the view's σ-functions exactly like a
    read query, runs the translation on the plan engine over the
    pinned document's index ({!Splan.Exec}; the interpreter only where
    the compiler refuses it or it names a variable [env] leaves
    unbound), and admits the update only when every touched node
    stays inside the group's accessible region:

    - [delete]/[replace]: every node of every target {e subtree} must
      be accessible (removing a subtree that hides inaccessible data
      would destroy what the group cannot even see), and the target's
      parent edge must carry the matching write grant;
    - [insert]: each target must be accessible, the attachment edge
      must carry an [insert] grant, and the spliced content must be
      accessible {e in the resulting document} — a group cannot write
      data it could not then read back;
    - the edit must not change the accessibility of any node it does
      not touch: with conditional annotations, an otherwise-legal
      write could satisfy (or falsify) a qualifier guarding an
      untouched subtree and flip hidden data visible — such updates
      are denied;
    - the resulting document must conform to the document DTD.

    The check costs work proportional to the edit, plus running the
    target path's plan.  The candidate is built by {!Sxml.Index.edit} from the
    pinned document's index: it shares every subtree the edit leaves in
    place, and comes with its own derived index.  Qualifiers look only
    downward, so
    accessibility is recomputed only along the root paths of the edit
    points (in the pinned document and in the candidate), through the
    target subtrees and through the spliced content; when the pinned
    document is known to conform, the DTD check covers only the
    elements whose children changed and the spliced content.

    The check is atomic by construction: it computes a candidate
    document purely and either returns it or an error — nothing
    partial ever escapes. *)

type admitted = {
  candidate : Sxml.Tree.t;
      (** the new document: dense-preorder identifiers from 0, sharing
          with the pinned document every subtree the edit did not move
          or touch *)
  index : Sxml.Index.t;  (** [candidate]'s index, derived by the edit *)
  targets : int;  (** how many view nodes the target path matched *)
  runs : (int * int * int) list;
      (** every node that survived the edit, as maximal runs
          [(old id, new id, length)] of consecutive identifiers,
          ascending; every other candidate node is spliced content *)
}

val run :
  dtd:Sdtd.Dtd.t ->
  spec:Secview.Spec.t ->
  view:Secview.View.t ->
  ?env:(string -> string option) ->
  ?height:int ->
  ?audit:(string -> unit) ->
  conforms:(unit -> bool) ->
  Sxml.Index.t ->
  Ast.t ->
  (admitted, Secview.Error.t) result
(** [run ~dtd ~spec ~view index u] admits or refuses [u] against the
    document [index] was built from ([doc] below).
    [height] is the unfolding bound for recursive views (like
    {!Secview.Pipeline.Session.translate}).  [conforms] says whether
    [doc] conforms to [dtd], and is asked only when the DTD check is
    reached; a document that does not conform gets the whole candidate
    validated.

    Errors: [Unbound_variable] (a variable of the policy's qualifiers
    or of the target path that [env] leaves unbound — the policy's
    are checked before anything is evaluated; a target path naming an
    unbound variable runs on the interpreter, whose evaluation decides
    whether it is reached), [Update_denied]
    (missing grant, inaccessible target subtree, inaccessible
    content, visibility of untouched content would change),
    [Invalid_update] (text content, empty target set, root deletion,
    result violates the DTD), [Unsupported] (rewriting refused the
    target path).

    Denial messages are deliberately structural-leak free: they never
    name node identifiers (an id is a dense preorder position, so
    echoing it would let a group map the hidden regions around its
    targets), and a DTD violation is reported by element type and
    content model only — or, when [doc] itself does not conform and
    the first violation may lie in content the group cannot see, not
    at all beyond the fact.  The precise id-bearing reason is passed to
    [audit] when given — callers should route it to a server-side
    audit log, never back to the client. *)

val carry : Secview.Access.flags -> admitted -> Secview.Access.flags
(** [carry flags a]: the candidate's accessibility, given the pinned
    document's [flags] under the same policy and bindings the
    admission ran with.  Admission proved that survivors keep their
    verdicts and that spliced content is accessible, so this copies
    [a.runs] and fills the rest — no qualifier is evaluated. *)
