(** Lowering a (rewritten, optimized) fragment query to a physical
    plan.

    Compilation is total on the fragment except for descendant steps
    with no single-label head ([//*], [//(a|b)], [//@a], [//.]): those
    would force a full-document scan rather than a tag-index interval
    join, so {!compile} refuses them with a human-readable reason and
    the caller (the pipeline) falls back to the interpreter.  The
    [secview lint] SV301 diagnostic surfaces the same reasons
    statically.

    [$var] references are collected into a variable table and replaced
    by slots; the executor resolves slots against its environment
    lazily, exactly like the interpreter resolves names. *)

type t

val compile : ?prune:Sxpath.Ast.path list -> Sxpath.Ast.path -> (t, string) result
(** Lower a query.  [Error reason] means the planner cannot execute
    this query shape and the interpreter must be used.

    [prune] lists top-level union branches (compared with
    {!Sxpath.Ast.equal_path}) the caller has proven statically empty —
    the pipeline passes the admission analyzer's [Denied_empty]
    verdicts over the document DTD.  They are dropped before lowering
    (only at the top level: the query is root-anchored there, so a
    root-level emptiness verdict applies); {!pruned} reports how many
    were.  Pruning every branch compiles to the empty plan. *)

val plan : t -> Plan.t
(** The operator tree. *)

val vars : t -> string array
(** Variable table: slot [i] holds the [$var] name it stands for. *)

val pruned : t -> int
(** Top-level union branches dropped by [?prune]. *)
