(** Static query admission: classify a view query against a view DTD
    alone — no document is touched — generalizing lint SV201's
    per-step emptiness to a whole-query verdict, as Section 5 decides
    emptiness from DTD constraints.  {!Pipeline.Session.classify}
    calls it directly, so every program that answers queries admits
    them the same way. *)

(** The verdict for a (view DTD, query) pair:
    - [Denied_empty]: provably empty on {e every} instance of the view
      DTD (the payload is a witness explanation naming the step or
      qualifier that kills the query) — a server can answer the empty
      node set without queueing, planning or evaluating anything;
    - [Trivial]: the query is answerable from the view DTD alone
      (e.g. it asks for the view root itself);
    - [Needs_eval]: everything else — evaluation must run.
    The verdicts are conservative in the sound direction: a
    [Denied_empty]/[Trivial] claim is a proof, [Needs_eval] claims
    nothing. *)
type t =
  | Denied_empty of string
  | Trivial
  | Needs_eval

val label : t -> string
(** ["denied"], ["trivial"], ["eval"] — the stable spelling used in
    counter names and wire replies. *)

val classify : Optimize.prepared -> Sxpath.Ast.path -> t
(** Classify a view query against the view DTD's optimizer context
    ({!Optimize.prepare}), built once and shared by every query
    classified against that DTD.  [Denied_empty] carries a witness
    naming the step or qualifier that kills the query (or that it only
    yields attribute values, which top-level evaluation drops);
    [Trivial] means the optimizer reduces it to [ε] — the answer is
    the context root itself.  Never raises: analysis budget blowups
    ({!Image.Too_large}) degrade to [Needs_eval].  Safe from any
    domain: it leans on {!Image}, whose memos are domain-local, and
    on the context's compare-and-set tables. *)
