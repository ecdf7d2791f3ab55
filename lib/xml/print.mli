(** XML serialization.

    Produces well-formed XML 1.0 text that {!Parse} reads back to a
    structurally equal tree.  Only the five predefined entities are
    escaped; no namespace or doctype machinery, matching the substrate's
    scope. *)

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

(** {2 Streaming}

    The pieces {!to_buffer} writes an element with, for a caller that
    serializes a tree it never builds: [open_tag], then ["/>"] for an
    element without children, or [">"], the children and
    [close_tag]. *)

val open_tag : Buffer.t -> string -> (string * string) list -> unit
(** ["<tag"] and the attributes, escaped, in the given order. *)

val close_tag : Buffer.t -> string -> unit
(** ["</tag>"]. *)

val text : Buffer.t -> string -> unit
(** PCDATA, escaped. *)

val to_channel : ?indent:bool -> out_channel -> Tree.t -> unit

val to_file : ?indent:bool -> string -> Tree.t -> unit
