(** DTD graphs as data, plus Graphviz rendering in the visual style of
    the paper's figures: solid edges for concatenation children, dashed
    edges for disjunction branches, a ['*'] label on starred edges
    (Fig. 1's conventions). *)

type edge_kind =
  | Child  (** plain concatenation member *)
  | Choice_branch  (** member of a disjunction (dashed in figures) *)

type edge = {
  parent : string;
  child : string;
  kind : edge_kind;
  starred : bool;  (** under a Kleene star *)
}

val edges : Dtd.t -> edge list
(** All parent/child edges of the reachable part, parents in BFS
    order.  An element type pair appears once per syntactic occurrence
    context; duplicates (same parent, child, kind, star) are merged. *)

val to_dot :
  ?highlight:(string * string -> [ `Bold | `Normal | `Faded ]) ->
  Dtd.t ->
  string
(** Graphviz source.  [highlight] styles edges, e.g. rendering a
    security specification in Fig. 4's style (bold = accessible edges);
    default: everything [`Normal]. *)

val spec_style :
  annotation:(parent:string -> child:string -> [ `Yes | `Cond | `No ] option) ->
  string * string ->
  [ `Bold | `Normal | `Faded ]
(** The Fig. 4 convention: explicitly accessible / conditional edges
    bold, explicitly denied edges faded, inherited edges normal. *)
