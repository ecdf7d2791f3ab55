(** Seeded random generation of DTD instances.

    Substitute for IBM's XML Generator used in the paper's experiments
    (Section 6): given a DTD, produce a conforming document, with a
    maximum-branching-factor knob controlling how many repetitions each
    Kleene star expands to — the same parameter the paper varied to
    obtain its D1–D4 document series.

    Generation is deterministic for a given configuration (seed
    included) and always terminates on consistent DTDs: once the depth
    budget is spent, disjunctions choose a minimum-height branch and
    stars stop iterating, so subtrees finish in the fewest levels the
    DTD permits. *)

type config = {
  seed : int;
  star_min : int;  (** minimum repetitions for a Kleene star *)
  star_max : int;  (** the "maximum branching factor" *)
  star_for : string -> (int * int) option;
      (** per-element override of the repetition range: called with the
          parent element type of the starred content; [None] falls back
          to [star_min]/[star_max].  This is how the dataset series
          scales selected collections (e.g. ad listings) independently
          of the rest of the document. *)
  depth_budget : int;
      (** soft bound on element nesting; forces minimal completions
          below it *)
  text_for : string -> Random.State.t -> string;
      (** PCDATA for a text child of the given element type *)
  attr_for : string -> string -> Random.State.t -> string option;
      (** value for a declared attribute (element, attribute name);
          [None] omits the attribute (the default for all) *)
}

val default_config : config
(** seed 0, stars 0–3, depth budget 12, and pool-based text. *)

val default_text : string -> Random.State.t -> string
(** Uniform pick from a small fixed vocabulary, so content-based
    predicates have matches. *)

val generate : ?config:config -> Dtd.t -> Sxml.Tree.t
(** @raise Invalid_argument if the DTD is inconsistent (some reachable
    type has no finite instance). *)
