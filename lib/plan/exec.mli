(** Plan execution over the columns of a {!Sxml.Index.t}.

    Contexts and results are strictly ascending, duplicate-free
    identifier sets.  A child step walks each context's children as an
    identifier range ([c + 1], then [extent k + 1] after child [k], up
    to [extent c]) and tests the index's tag-code column; a descendant
    step binary-searches the per-tag identifier arrays against subtree
    extents (an interval join); a qualifier runs as a node-at-a-time
    probe with short-circuit existence checks, handing what each
    operator finds to the continuation the compiler fixed.  A run looks
    every label up once, when it starts, and dereferences a node only
    to build its answer, compare an [=] string value or read an
    attribute.  Its intermediate sets live in an arena each domain
    keeps from run to run, so a run allocates little beyond its answer
    list.

    Results are order- and duplicate-identical to
    {!Sxpath.Eval.run}: both produce document order, and the executor
    deduplicates by construction where the interpreter sorts.  The
    one observable difference is error laziness: a short-circuited
    probe may skip a qualifier branch the interpreter would have
    evaluated, so an [Unbound_variable] the interpreter raises from
    such a branch may not be raised here.  When both succeed the
    answers are byte-identical. *)

(** Per-operator work counters for one (or several accumulated) runs.

    One slot per operator, at the preorder number the compiler gave it
    ({!Plan.t}'s [id], a predicate's [pid]): operator [i]'s first child
    is [i + 1], and predicate subtrees are numbered inline.  The root's
    [emitted] slot is the query's result count.

    - [scanned]: candidate nodes examined — children tested by child
      steps (text children too), tag-slice entries walked by descendant joins, base nodes
      tested by filters, attribute lookups, qualifier evaluations at
      [Exists]/[Eq] nodes;
    - [probes]: binary searches into per-tag id arrays;
    - [joined]: context extents actually interval-joined by a
      descendant step (contexts skipped as already covered are not
      counted);
    - [emitted]: ids the operator produced (set-at-a-time path only;
      short-circuit qualifier probes produce booleans, not rows). *)
module Stats : sig
  type t = {
    scanned : int array;
    probes : int array;
    joined : int array;
    emitted : int array;
  }

  val create : int -> t
  (** [create n]: all-zero counters for a plan of [n] nodes. *)

  val for_plan : Compile.t -> t
  (** Sized by {!Compile.operators}. *)

  val totals : t -> (string * int) list
  (** [scanned]/[probes]/[joined] summed over all operators, plus
      [rows] = the root's emitted count. *)
end

val run :
  ?stats:Stats.t ->
  ?visits:int ref ->
  Compile.t ->
  index:Sxml.Index.t ->
  ?env:(string -> string option) ->
  Sxml.Tree.t ->
  Sxml.Tree.t list
(** [run compiled ~index v]: nodes reachable from context node [v]
    (a node of the indexed document), in document order,
    duplicate-free.  [stats] (see {!Stats}) accumulates per-operator
    work counters; execution is identical without it.  [visits] is a
    work meter with {!Sxpath.Eval.run}'s contract: the run counts
    every context-node × operator touch in its own state and adds the
    total once, when it returns.
    @raise Sxpath.Eval.Unbound_variable like the
    interpreter (modulo the laziness caveat above). *)
