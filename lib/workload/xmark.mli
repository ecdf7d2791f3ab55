(** An XMark-flavoured auction-site workload.

    The paper's experiments use only the (non-recursive) Adex DTD; its
    Section 4.2 machinery for recursive DTDs is exercised by the tiny
    Fig. 7 example.  This workload adds a realistic recursive schema in
    the style of the XMark benchmark (auction site with nested
    [parlist]/[listitem] item descriptions), a policy with hidden
    payment data and a conditional address rule, and five
    XMark-flavoured queries — giving the recursive-view pipeline a
    production-shaped workout (bench section A6).

    Recursion: [description → (text | parlist)], [parlist → listitem*],
    [listitem → (text | parlist)].  The document DTD is deliberately
    {e not} in the paper's normal form (optional children, nested
    groups): the implementation handles general content models, and
    this workload keeps it honest. *)

val dtd : Sdtd.Dtd.t

val spec : Secview.Spec.t
(** The "buyer" group policy: credit cards and profiles are hidden
    ([N]); closed auctions are hidden except their prices (exercising
    short-cuts through two hidden levels); addresses are visible only
    for US sellers (a conditional rule, no parameters). *)

val view : unit -> Secview.View.t
(** Derived security view — recursive, like the document DTD. *)

val queries : (string * Sxpath.Ast.path) list
(** X1–X5: person names, contested auctions, recursive descent into
    item descriptions, prices reached through dummies, and a
    content-predicate join. *)

val document : ?seed:int -> scale:int -> unit -> Sxml.Tree.t
(** A generated site; [scale] ≈ number of items/people/auctions. *)
