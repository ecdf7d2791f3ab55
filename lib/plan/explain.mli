(** EXPLAIN: the compiled operator tree annotated with the work
    counters of an actual run.

    {!of_compiled} pairs a {!Compile.t} with the {!Exec.Stats}
    collected while executing it and produces a neutral tree —
    operator name, optional argument (a child/descendant label, an
    attribute, an equality operand), the node's non-zero counters, and
    children.  The tree is deliberately free of any JSON dependency;
    [secview explain --json] and the server's [explain] verb convert
    it downstream.

    Counter semantics are {!Exec.Stats}'s: [scanned]/[probes]/[joined]
    appear when non-zero, [emitted] on every plan operator (the root's
    [emitted] is the query's result count); predicate nodes carry only
    [scanned] (qualifier evaluations / candidates tested), since a
    short-circuit probe emits booleans, not rows. *)

type node = {
  op : string;
      (** [nothing]/[self]/[child]/[attr]/[seq]/[desc]/[union]/[filter],
          or a predicate: [true]/[false]/[exists]/[eq]/[and]/[or]/[not] *)
  arg : string option;
  counts : (string * int) list;
  children : node list;
}

val of_compiled : Compile.t -> Exec.Stats.t -> node

val pp : Format.formatter -> node -> unit
(** Two-space-indented tree, one node per line, counters aligned. *)
