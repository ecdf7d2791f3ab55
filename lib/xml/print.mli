(** XML serialization.

    Produces well-formed XML 1.0 text that {!Parse} reads back to a
    structurally equal tree.  Only the five predefined entities are
    escaped; no namespace or doctype machinery, matching the substrate's
    scope. *)

val to_string : ?indent:bool -> Tree.t -> string
(** [to_string doc] serializes the document.  With [~indent:true],
    element-only content is pretty-printed; mixed content is kept
    verbatim so round-tripping preserves PCDATA exactly. *)

val answer : Buffer.t -> Tree.t list -> string list
(** [answer buf nodes]: each node serialized as by {!to_string}, in
    order, every one built in [buf] (cleared first, left holding the
    last node).  The reference renderer of query answers: [secview
    query] and [secview replay] print with it, and a request record
    digests its strings ({!Sobs.Capture.digest}), so the text a
    capture digest hashes is the text a client reads.  Pass a buffer
    the caller keeps: per node, rendering then allocates the returned
    string and its list cell. *)

(** How {!to_buffer} escapes text. *)
type escaping =
  | Xml  (** the five predefined entities: {!to_string}'s text *)
  | Json_string
      (** {!Xml}'s text escaped again, in the same pass, as the inside
          of a JSON string literal: the double quote, the backslash
          and the control characters, as [Sobs.Json] writes them
          ([\n], [\r], [\t], else [\u00XX]).  Quoted, it is byte for
          byte the JSON string of {!to_string}'s text. *)

val to_buffer : escaping -> Buffer.t -> Tree.t -> unit
(** [to_buffer esc buf node] appends the node, unindented, escaped as
    [esc] says: one tree walk whichever the escaping.  The server
    writes each answer of a query reply straight into the reply line
    with [Json_string]. *)

(** {2 Streaming}

    The pieces {!to_string} writes an element with, for a caller that
    serializes a tree it never builds: [open_tag], then ["/>"] for an
    element without children, or [">"], the children and
    [close_tag]. *)

val open_tag : Buffer.t -> string -> (string * string) list -> unit
(** ["<tag"] and the attributes, escaped, in the given order. *)

val close_tag : Buffer.t -> string -> unit
(** ["</tag>"]. *)

val text : Buffer.t -> string -> unit
(** PCDATA, escaped. *)

val to_file : ?indent:bool -> string -> Tree.t -> unit
