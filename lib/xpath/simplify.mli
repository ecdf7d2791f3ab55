(** Bottom-up algebraic normalization: rebuilds a query through the
    smart constructors of {!Ast}, so every ∅/ε/true/false law and
    union-deduplication is applied at every depth.  This is the
    DTD-independent part of the paper's optimization story; it keeps
    the output of the rewriting algorithm compact before the DTD-aware
    optimizer runs.

    Normalization preserves semantics exactly: it only uses the
    equivalences listed in Section 2 plus boolean laws. *)

val path : Ast.path -> Ast.path

val factor : Ast.path -> Ast.path
(** {!path} followed by left-factoring of unions: branches sharing a
    leading step are merged ([P/a ∪ P/b ↦ P/(a ∪ b)], recursively), so
    shared prefixes are evaluated once.  This recovers the factored
    query forms the paper prints (e.g. [treatment/(trial ∪ regular)])
    from the per-target unions the rewriting table produces. *)

val equivalent_syntax : Ast.path -> Ast.path -> bool
(** Do two paths compare equal after {!factor}, left re-association of
    [/] and [∪] chains and a deterministic ordering of union branches?
    Structurally different spellings of the same composition do — the
    parser and the rewriting algorithm associate differently. *)
