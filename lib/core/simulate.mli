(** The qualifier-flipping simulation on image graphs (Section 5.1).

    [v1] is simulated by [v2] iff they carry the same label, every
    non-qualifier child of [v1] is simulated by some child of [v2],
    and every qualifier child of [v2] is simulated by some qualifier
    child of [v1] — the direction flips on qualifiers because a
    qualifier on the {e containing} query must be implied by one on
    the contained query.

    The relation is computed coinductively (greatest fixpoint), so
    cyclic image graphs from recursive DTDs are handled.  Ambiguous
    qualifier sets (see {!Image}) are unusable on the simulated side
    and unsatisfiable on the simulating side.

    Proposition 5.1: if [image p1 a] is simulated by [image p2 a] then
    [p1] is contained in [p2] at [a]-elements; the converse can fail
    (the test is approximate). *)

val contained :
  Sdtd.Dtd.t -> Sxpath.Ast.path -> Sxpath.Ast.path -> string -> bool
(** [contained dtd p1 p2 a]: approximate containment test — [true]
    implies [v⟦p1⟧ ⊆ v⟦p2⟧] at every [a]-element of every instance.
    An empty image for [p1] means [p1] returns nothing at [a], so it
    is contained in anything; an empty image for [p2] (with [p1]
    non-empty) refutes. *)
