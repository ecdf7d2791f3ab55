(** XML serialization.

    Produces well-formed XML 1.0 text that {!Parse} reads back to a
    structurally equal tree.  Only the five predefined entities are
    escaped; no namespace or doctype machinery, matching the substrate's
    scope. *)

val escape_text : string -> string
(** Escape PCDATA ([&], [<], [>]). *)

val escape_attr : string -> string
(** Escape an attribute value for double-quoted output. *)

val to_buffer : ?indent:bool -> Buffer.t -> Tree.t -> unit

val to_string : ?indent:bool -> Tree.t -> string
(** [to_string doc] serializes the document.  With [~indent:true],
    element-only content is pretty-printed; mixed content is kept
    verbatim so round-tripping preserves PCDATA exactly. *)

val answer : Buffer.t -> Tree.t list -> string list
(** [answer buf nodes]: each node serialized as by {!to_string}, in
    order, every one built in [buf] (cleared first, left holding the
    last node).  The one renderer of query answers — the server's
    replies, [secview query] and [secview replay] — so the text a
    capture digest hashes is the text a client reads.  Pass a buffer
    the caller keeps: per node, rendering then allocates the returned
    string and its list cell. *)

val to_channel : ?indent:bool -> out_channel -> Tree.t -> unit

val to_file : ?indent:bool -> string -> Tree.t -> unit
