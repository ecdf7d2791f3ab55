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
    lazily, exactly like the interpreter resolves names.  Labels are
    collected the same way into a label table, which the executor
    resolves to tag codes once per run.  Operators are numbered in
    preorder and every probe continuation is fixed here (see
    {!Plan}), so the executor computes neither. *)

type t

val compile : Sxpath.Ast.path -> (t, string) result
(** Lower a query.  [Error reason] means the planner cannot execute
    this query shape and the interpreter must be used. *)

val plan : t -> Plan.t
(** The operator tree. *)

val vars : t -> string array
(** Variable table: slot [i] holds the [$var] name it stands for. *)

val labels : t -> string array
(** Label table: slot [i] holds the tag a [Child i] or [Desc (i, _)]
    operator names. *)

val operators : t -> int
(** Number of operators, predicates included: one more than the
    largest preorder number. *)
